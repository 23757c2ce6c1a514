"""SMT-LIB frontend: parsing, diagnostics, and printing round-trips."""

import pytest

from pansampler.fuzz import random_formula
from pansampler.parser import ParseError, parse_formula
from pansampler.printer import print_formula
from pansampler.sorts import bv
from pansampler.terms import Op


CONFIG_FIXTURE = (
    "(declare-const l Bool)"
    "(declare-const m (_ BitVec 32))"
    "(assert (=> (= m #x00000003) l))"
)


def test_config_style_fixture():
    f = parse_formula(CONFIG_FIXTURE)
    assert len(f.assertions) == 1
    assert set(f.decls) == {"l", "m"}
    assert f.decls["m"] == bv(32)
    root = f.table[f.assertions[0]]
    assert root.op is Op.IMPLIES


def test_constant_only_assertion():
    f = parse_formula("(assert true)")
    assert len(f.assertions) == 1
    assert f.decls == {}


def test_arity_error_is_positioned():
    with pytest.raises(ParseError) as e:
        parse_formula("(declare-const x (_ BitVec 4))(assert (bvadd x))")
    assert e.value.line == 1
    assert "bvadd" in str(e.value)


def test_duplicate_subterms_share_one_node():
    f = parse_formula(
        "(declare-const x (_ BitVec 4))(declare-const y (_ BitVec 4))"
        "(assert (= (bvadd x y) (bvadd x y)))")
    adds = [t for t in f.table.reachable(list(f.assertions))
            if f.table[t].op is Op.BVADD]
    assert len(adds) == 1


def test_logic_validation():
    for logic in ("QF_BV", "QF_ABV", "QF_AUFBV"):
        f = parse_formula(f"(set-logic {logic})(assert true)")
        assert f.logic == logic
    with pytest.raises(ParseError):
        parse_formula("(set-logic QF_LIA)(assert true)")


def test_informational_commands_warn_and_continue():
    f = parse_formula(
        "(set-info :status sat)(set-option :produce-models true)"
        "(declare-const b Bool)(assert b)(check-sat)(exit)")
    assert len(f.warnings) == 2
    assert len(f.assertions) == 1


def test_semantic_commands_are_hard_errors():
    for src in (
        "(define-fun two () (_ BitVec 4) #x2)(assert true)",
        "(push 1)(assert true)",
        "(pop 1)(assert true)",
        "(declare-const b Bool)(assert (let ((c b)) c))",
        "(assert (forall ((z Bool)) z))",
    ):
        with pytest.raises(ParseError):
            parse_formula(src)


def test_undeclared_and_redeclared_symbols():
    with pytest.raises(ParseError):
        parse_formula("(assert q)")
    with pytest.raises(ParseError):
        parse_formula("(declare-const b Bool)(declare-const b Bool)")


def test_constant_literals():
    f = parse_formula(
        "(declare-const x (_ BitVec 8))"
        "(assert (= x #b00001111))(assert (= x #x0f))(assert (= x (_ bv15 8)))")
    consts = {f.table[t].value for t in f.table.reachable(list(f.assertions))
              if f.table[t].op is Op.CONST}
    assert consts == {15}


def test_sugar_desugars_to_core_ops():
    f = parse_formula(
        "(declare-const x (_ BitVec 4))(declare-const y (_ BitVec 4))"
        "(assert (bvult (bvsub x y) #x3))"
        "(assert (bvugt x y))(assert (bvuge x y))"
        "(assert (bvsgt x y))(assert (bvsge x y))")
    ops = {f.table[t].op for t in f.table.reachable(list(f.assertions))}
    assert Op.BVNEG in ops and Op.BVADD in ops  # bvsub expansion
    assert ops & {Op.BVULT, Op.BVULE, Op.BVSLT, Op.BVSLE}
    for name in ("bvsub", "bvugt", "bvuge", "bvsgt", "bvsge"):
        assert all(t.op.value != name for t in map(f.table.__getitem__,
                                                   f.table.reachable(list(f.assertions))))


def test_indexed_operators():
    f = parse_formula(
        "(declare-const x (_ BitVec 8))"
        "(assert (= ((_ extract 6 3) x) #b1010))")
    ex = [f.table[t] for t in f.table.reachable(list(f.assertions))
          if f.table[t].op is Op.EXTRACT]
    assert len(ex) == 1 and (ex[0].hi, ex[0].lo) == (6, 3)
    with pytest.raises(ParseError):
        parse_formula("(declare-const x (_ BitVec 8))(assert (= ((_ extract 3 6) x) #b1010))")


def test_right_assoc_implies_and_nary_ops():
    f = parse_formula(
        "(declare-const a Bool)(declare-const b Bool)(declare-const c Bool)"
        "(assert (=> a b c))")
    root = f.table[f.assertions[0]]
    assert root.op is Op.IMPLIES
    inner = f.table[root.children[1]]
    assert inner.op is Op.IMPLIES  # a => (b => c)


def test_concat_folds_left():
    f = parse_formula(
        "(declare-const x (_ BitVec 2))"
        "(assert (= (concat x x x) #b010101))")
    roots = [f.table[t] for t in f.table.reachable(list(f.assertions))
             if f.table[t].op is Op.CONCAT]
    widths = sorted(f.table.sort_of(r.id).width for r in roots)
    assert widths == [4, 6]


def test_array_and_uf_declarations():
    f = parse_formula(
        "(set-logic QF_AUFBV)"
        "(declare-const a (Array (_ BitVec 4) (_ BitVec 8)))"
        "(declare-fun g ((_ BitVec 4) Bool) (_ BitVec 2))"
        "(declare-const i (_ BitVec 4))(declare-const b Bool)"
        "(assert (= (select a i) #x00))"
        "(assert (= (g i b) #b00))")
    assert f.decls["a"].is_array
    assert f.decls["g"].is_fun and len(f.decls["g"].args) == 2
    with pytest.raises(ParseError):
        parse_formula("(declare-fun h (Bool) Bool)(assert h)")  # bare function symbol


def test_comments_pipes_and_position_reporting():
    f = parse_formula(
        "; leading comment\n"
        "(declare-const |odd name| Bool)\n"
        "(assert |odd name|)  ; trailing\n")
    assert "odd name" in f.decls
    with pytest.raises(ParseError) as e:
        parse_formula("(assert true)\n(assert (and true undeclared))")
    assert e.value.line == 2


def test_print_parse_round_trip_is_stable():
    for seed in range(40):
        logic = ("QF_BV", "QF_ABV", "QF_AUFBV")[seed % 3]
        f = random_formula(seed, logic=logic)
        text = print_formula(f)
        again = print_formula(parse_formula(text))
        assert again == text, f"unstable print for seed {seed}"


def test_printer_constant_styles():
    f = parse_formula(
        "(declare-const m (_ BitVec 32))(declare-const t (_ BitVec 3))"
        "(assert (= m #x00000014))(assert (= t #b101))")
    text = print_formula(f)
    assert "#x00000014" in text  # multiple-of-4 widths print as hex
    assert "#b101" in text  # others as binary
