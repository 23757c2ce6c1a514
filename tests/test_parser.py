"""SMT-LIB frontend: parsing, diagnostics, and printing round-trips."""

import hashlib
import random

import pytest

from pansampler.fuzz import random_formula
from pansampler.parser import (ParseError, SList, parse_file, parse_formula,
                               read_sexprs)
from pansampler.printer import parse_model_blocks, print_formula
from pansampler.sorts import bv
from pansampler.terms import Op

from helpers import reference_read


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


# (text, message, line, col) of the first error; lines and columns are
# 1-based and count characters, a tab or a "\r" as one column.
ERRORS = [
    ("(declare-const |abc Bool)", "unterminated |symbol|", 1, 16),
    ("(assert |", "unterminated |symbol|", 1, 9),
    ('(set-info :source "abc)', "unterminated string", 1, 19),
    ('(set-info :source "a""b)', "unterminated string", 1, 19),
    ("(assert #q)", "bad literal after '#'", 1, 9),
    ("(assert #)", "bad literal after '#'", 1, 9),
    ("(assert #b)", "bad binary literal #b", 1, 9),
    ("(assert (= #x #b1))", "bad hex literal #x", 1, 12),
    ("(assert [x])", "unexpected character '['", 1, 9),
    ("(assert \x00)", "unexpected character '\\x00'", 1, 9),
    ("(assert true) \xa0", "unexpected character '\\xa0'", 1, 15),
    ("\ufeff(assert true)", "unexpected character '\\ufeff'", 1, 1),
    ("(assert true))", "unbalanced ')'", 1, 14),
    (")", "unbalanced ')'", 1, 1),
    ("(assert (and true\n  (or false", "unbalanced '('", 2, 3),
    ("(assert true)) [", "unbalanced ')'", 1, 14),
    ("(assert (and true [", "unexpected character '['", 1, 19),
    ("(assert :)", "undeclared symbol :", 1, 9),
    (":", "stray token :", 1, 1),
    ("(declare-const café Bool)(assert (and café undeclared))",
     "undeclared symbol undeclared", 1, 44),
    ("(assert (and é1 true))", "undeclared symbol é1", 1, 14),
    ("\t(assert\tq)", "undeclared symbol q", 1, 10),
    ("(assert true)\r\n(assert q)", "undeclared symbol q", 2, 9),
    ("(assert true)\r(assert q)", "undeclared symbol q", 1, 23),
    ("(declare-const |a\nb| Bool)\n(assert |a\nb|) (assert q)",
     "undeclared symbol q", 4, 13),
    ('(set-info :source "line1\nline2 ""quoted""\nline3")  (assert q)',
     "undeclared symbol q", 3, 18),
    ('(set-info :source "a""b")\n(assert q)', "undeclared symbol q", 2, 9),
    ("(assert ;c (\n q)", "undeclared symbol q", 2, 2),
    ("(declare-const x (_ BitVec 4))\n(assert (bvadd x))",
     "bvadd needs at least 2 operands", 2, 9),
    # Every operand's sort is checked before any width.
    ("(declare-const x (_ BitVec 4))(declare-const y (_ BitVec 2))"
     "(declare-const b Bool)\n(assert (= (bvadd x y b) x))",
     "expected bitvector, got sort Bool", 2, 12),
    ("(declare-const x (_ BitVec 4))(declare-const y (_ BitVec 2))"
     "\n(assert (= (bvadd x y) x))", "bvadd: mixed widths 4 and 2", 2, 12),
]


@pytest.mark.parametrize("text,message,line,col", ERRORS,
                         ids=[repr(e[0]) for e in ERRORS])
def test_an_error_names_its_message_line_and_column(text, message, line,
                                                    col):
    with pytest.raises(ParseError) as e:
        parse_formula(text)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)


def test_a_warning_names_its_line_and_column():
    f = parse_formula("(set-info :status sat)\n  (get-model)\n(set-info :)"
                      "(assert true)")
    assert [(w.line, w.col, w.message) for w in f.warnings] == [
        (1, 1, "ignored command set-info"), (2, 3, "ignored command get-model"),
        (3, 1, "ignored command set-info")]


def test_a_file_reads_its_newlines_as_text_mode_does(tmp_path):
    # "\r\n" and a lone "\r" read as "\n", in positions and in symbols.
    src = tmp_path / "crlf.smt2"
    src.write_bytes(b"(declare-const |a\r\nb| Bool)\r(assert |a\nb|)\r\n"
                    b"(assert q)")
    with pytest.raises(ParseError) as e:
        parse_file(str(src))
    assert (e.value.message, e.value.line, e.value.col) == (
        "undeclared symbol q", 5, 9)
    src.write_bytes(b"(declare-const |a\r\nb| Bool)\r(assert |a\rb|)\r\n")
    assert list(parse_file(str(src)).decls) == ["a\nb"]


@pytest.mark.parametrize("text,message,line,col", [
    ("(declare-const x (_ BitVec ²))", "bad BitVec width", 1, 28),
    ("(declare-const x (_ BitVec ٨))", "bad BitVec width", 1, 28),
    ("(assert (= (_ bv1 ²) (_ bv1 2)))", "bad (_ bvN w) width", 1, 19),
    ("(assert (= (_ bv² 2) (_ bv1 2)))", "unknown indexed term", 1, 12),
    ("(declare-const x (_ BitVec 4))(assert (= ((_ extract ² 0) x) #b1))",
     "extract indices must be numerals", 1, 43),
], ids=["superscript width", "arabic-indic width", "superscript bvN width",
        "superscript bvN value", "superscript extract index"])
def test_a_numeral_is_ascii_digits_only(text, message, line, col):
    # str.isdigit accepts these, and int() reads '٨' but not '²'.
    with pytest.raises(ParseError) as e:
        parse_formula(text)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)


_MODEL = ("(model\n  (define-fun x () (_ BitVec 2) {x})\n"
          "  (define-fun a () (Array (_ BitVec 2) Bool)\n"
          "    (store ((as const (Array (_ BitVec 2) Bool)) false) {i} true))\n)")


@pytest.mark.parametrize("x,i,message,line,col", [
    ("#b1_0", "#b01", "bad binary literal #b1_0", 2, 33),
    ("#b²", "#b01", "bad binary literal #b²", 2, 33),
    ("#b111", "#b01", "#b111 is 3 bits wide, not 2", 2, 33),
    ("#x1", "#b01", "#x1 is 4 bits wide, not 2", 2, 33),
    ("#xg", "#b01", "bad hex literal #xg", 2, 33),
    ("#b10", "#b0_1", "bad binary literal #b0_1", 4, 57),
], ids=["underscore", "superscript", "too wide", "hex too wide", "bad hex",
        "array index"])
def test_a_model_reads_bitvector_literals_as_the_parser_does(x, i, message,
                                                            line, col):
    # int() alone reads '#b1_0' as 2, and raises a bare ValueError on '²'.
    f = parse_formula("(declare-const x (_ BitVec 2))"
                      "(declare-const a (Array (_ BitVec 2) Bool))")
    with pytest.raises(ParseError) as e:
        parse_model_blocks(_MODEL.format(x=x, i=i), f)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)
    [a] = parse_model_blocks(_MODEL.format(x="#b10", i="#b01"), f)
    assert (a["x"].value, a["a"].get(1)) == (2, 1)


_FUN_MODEL = ("(model\n  (define-fun g {params} (_ BitVec 2)\n"
              "    (ite (= x!0 #b01) #b10 #b00))\n)")


@pytest.mark.parametrize("params,message,line,col", [
    ("x!0", "expected a parameter list of length 1", 2, 17),
    ("()", "expected a parameter list of length 1", 2, 17),
    ("((x!0 (_ BitVec 2)) (x!1 (_ BitVec 2)))",
     "expected a parameter list of length 1", 2, 17),
    ("((x!0))", "expected a (name sort) parameter", 2, 18),
    ("(x!0)", "expected a (name sort) parameter", 2, 18),
    ("((x!0 (_ BitVec 2) x))", "expected a (name sort) parameter", 2, 18),
    ("(((x!0) (_ BitVec 2)))", "expected a (name sort) parameter", 2, 18),
], ids=["atom", "empty", "too long", "no sort", "bare name", "three items",
        "list name"])
def test_a_model_reads_a_functions_parameter_list_or_says_where_not(
        params, message, line, col):
    # A unary g's parameter list holds one (name sort) pair. Read as the
    # list's items' first items, an atom raised AttributeError, a longer
    # list IndexError, and () gave a constant function.
    f = parse_formula("(declare-fun g ((_ BitVec 2)) (_ BitVec 2))")
    with pytest.raises(ParseError) as e:
        parse_model_blocks(_FUN_MODEL.format(params=params), f)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)
    [a] = parse_model_blocks(_FUN_MODEL.format(params="((x!0 (_ BitVec 2)))"),
                             f)
    assert (a["g"].table, a["g"].default) == ((((1,), 2),), 0)


def test_a_byte_that_is_not_utf8_is_a_parse_error_at_its_position(tmp_path):
    src = tmp_path / "latin1.smt2"
    src.write_bytes(b"(declare-const x Bool)\r\n; caf\xe9\n(assert x)\n")
    with pytest.raises(ParseError) as e:
        parse_file(str(src))
    assert (e.value.message, e.value.line, e.value.col) == (
        "byte 0xe9 is not UTF-8", 2, 6)


def test_a_leading_byte_order_mark_is_skipped(tmp_path):
    src = tmp_path / "bom.smt2"
    src.write_bytes(b"\xef\xbb\xbf(declare-const x Bool)(assert x)")
    assert list(parse_file(str(src)).decls) == ["x"]
    src.write_bytes(b"\xef\xbb\xbf(assert q)")
    with pytest.raises(ParseError) as e:
        parse_file(str(src))
    assert (e.value.line, e.value.col) == (1, 9)


def test_symbol_characters_are_those_isalnum_accepts():
    extra = "~!@$%^&*_-+=<>.?/"
    symbol = [chr(c) for c in range(0x110000)
              if chr(c).isalnum() or chr(c) in extra]
    atoms = read_sexprs(" ".join("a" + c for c in symbol))
    assert [a.text for a in atoms] == ["a" + c for c in symbol]
    # Every other character of the Basic Multilingual Plane that starts
    # no token is an error after a symbol character.
    for c in map(chr, range(0x10000)):
        if not (c.isalnum() or c in extra or c in ' \t\r\n;()|"#:'):
            with pytest.raises(ParseError) as e:
                read_sexprs("a" + c)
            assert e.value.message == f"unexpected character {c!r}"


_CLOSE = object()


def _read(text: str) -> list[tuple[str, int, int]]:
    """read_sexprs' trees in the form reference_read gives."""
    out = []
    stack = list(reversed(read_sexprs(text)))
    while stack:
        node = stack.pop()
        if node is _CLOSE:
            out.append((")", 0, 0))
        elif isinstance(node, SList):
            out.append(("(", node.line, node.col))
            stack.append(_CLOSE)
            stack.extend(reversed(node.items))
        else:
            out.append((node.text, node.line, node.col))
    return out


def _outcome(read, text):
    try:
        return read(text)
    except ParseError as e:
        return (e.message, e.line, e.col)


# Inserted by the mutations: token starts, lexical errors, whitespace,
# sugar and commands. Non-ASCII digits are left out: a numeral made of
# them reads differently on purpose (test_a_numeral_is_ascii_digits_only).
_SNIPPETS = ["(", ")", "|", '"', '""', "#", "#b", "#x", ";", ":", " ", "\t",
             "\n", "\r", "\r\n", "_", "x", "v0", "0", "7", "bv", "é", "中",
             "\U0001f600", "\xa0", "\ufeff", "[", "\x00", "(_ BitVec 3)",
             "(let ((y v0)) y)", "((_ extract 1 0) v0)", "(bvsub v0 v0)",
             "(set-info :status sat)", "(check-sat)", "(exit)"]


_BLANKS = [" ", "\t", "\n", "\r\n", "  ; a comment (\n", "\n\n\t"]


def _mutated(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 8))
        op = rng.randrange(6)
        if op == 0:
            text = text[:i] + rng.choice(_SNIPPETS) + text[i:]
        elif op == 1:
            text = text[:i] + text[j:]
        elif op == 2:
            text = text[:j] + text[i:j] + text[j:]
        elif op == 3:
            text = text[:i] + rng.choice(_SNIPPETS) + text[j:]
        else:  # blanks before a list: the positions after it move
            i = text.find("(", i)
            if i >= 0:
                text = text[:i] + rng.choice(_BLANKS) + text[i:]
    return text


def _formula_digest(f) -> tuple:
    t = f.table
    return (f.logic,
            [(x.op.value, repr(x.sort), x.children, x.name, x.value, x.hi,
              x.lo) for x in map(t.__getitem__, range(len(t)))],
            [(name, repr(sort)) for name, sort in f.decls.items()],
            f.assertions, [(w.line, w.col, w.message) for w in f.warnings])


def test_the_reader_matches_the_char_by_char_reference_on_mutated_formulas():
    # Tokens, their positions and the reader's errors equal the
    # reference's on each text; what parse_formula makes of the texts
    # (term tables, declarations, warnings, errors with positions) is
    # pinned as one digest.
    rng = random.Random(14)
    digest = hashlib.sha256()
    errors = 0
    for seed in range(1500):
        logic = ("QF_BV", "QF_ABV", "QF_AUFBV")[seed % 3]
        text = _mutated(rng, print_formula(random_formula(seed, logic=logic)))
        want = _outcome(reference_read, text)
        assert _outcome(_read, text) == want, text
        got = _outcome(parse_formula, text)
        errors += type(got) is tuple
        digest.update(repr(got if type(got) is tuple
                           else _formula_digest(got)).encode())
    assert 300 < errors < 1200
    assert digest.hexdigest() == (
        "e2eb81805ae6f375c8ba445c471f1cf98f99f5c082a97ba81f0bc07151704730")
