"""Purification of theory atoms into fresh tracked variables."""

import hashlib
from pathlib import Path

from pansampler.abstraction import abstract_formula, project_assignment
from pansampler.coverage import build_universe
from pansampler.evaluate import satisfies
from pansampler.fuzz import random_formula
from pansampler.parser import parse_file, parse_formula
from pansampler.sorts import array, bv
from pansampler.terms import Formula, Op
from pansampler.values import ArrayVal, Assignment, BoolVal, BvVal


def test_pure_bitvector_formula_passes_through():
    f = parse_formula(
        "(declare-const x (_ BitVec 4))(assert (bvult x #x9))")
    abs_ = abstract_formula(f)
    assert abs_.atom_map == {}
    assert abs_.formula.assertions == f.assertions
    assert abs_.formula.decls == {"x": bv(4)}


def test_select_becomes_fresh_variable():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 4)))"
        "(declare-const i (_ BitVec 2))"
        "(assert (= (select a i) #x9))")
    abs_ = abstract_formula(f)
    assert list(abs_.formula.decls) == ["i", "sel!0"]
    assert abs_.formula.decls["sel!0"] == bv(4)
    atom = abs_.atom_map["sel!0"]
    assert f.table[atom].op is Op.SELECT
    root = f.table[abs_.formula.assertions[0]]
    assert root.op is Op.EQ
    assert f.table[root.children[0]].name == "sel!0"


def test_equal_atoms_share_one_variable():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 4)))"
        "(declare-const i (_ BitVec 2))"
        "(assert (= (select a i) #x9))"
        "(assert (bvult (select a i) #xa))")
    abs_ = abstract_formula(f)
    assert len(abs_.select_atoms()) == 1


def test_function_applications_split_by_arguments():
    f = parse_formula(
        "(declare-fun g ((_ BitVec 2)) (_ BitVec 2))"
        "(declare-const x (_ BitVec 2))"
        "(assert (= (g x) (g #b00)))"
        "(assert (bvult (g x) #b11))")
    abs_ = abstract_formula(f)
    assert len(abs_.apply_atoms()) == 2
    assert {n for n, _ in abs_.apply_atoms()} == {"uf!0", "uf!1"}


def test_nested_select_purifies_inner_atom_first():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
        "(declare-const i (_ BitVec 2))"
        "(assert (= (select a (select a i)) #b01))")
    abs_ = abstract_formula(f)
    atoms = dict(abs_.select_atoms())
    assert set(atoms) == {"sel!0", "sel!1"}
    outer = f.table[atoms["sel!1"]]
    # The outer atom's index child is the inner atom's fresh variable.
    idx = f.table[outer.children[1]]
    assert idx.op is Op.VAR and idx.name == "sel!0"


def test_array_equality_gets_a_bool_atom():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
        "(declare-const b (Array (_ BitVec 2) (_ BitVec 2)))"
        "(assert (= a b))")
    abs_ = abstract_formula(f)
    assert [n for n, _ in abs_.array_eq_atoms()] == ["aeq!0"]
    root = f.table[abs_.formula.assertions[0]]
    assert root.op is Op.VAR and root.name == "aeq!0"
    atom = f.table[abs_.atom_map["aeq!0"]]
    assert atom.op is Op.EQ


def test_array_disequality_is_negated_atom():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
        "(declare-const b (Array (_ BitVec 2) (_ BitVec 2)))"
        "(assert (distinct a b))")
    abs_ = abstract_formula(f)
    root = f.table[abs_.formula.assertions[0]]
    assert root.op is Op.NOT
    assert f.table[root.children[0]].name == "aeq!0"


def test_store_chain_stays_below_the_atom():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
        "(declare-const i (_ BitVec 2))(declare-const v (_ BitVec 2))"
        "(assert (= (select (store a i v) i) v))")
    abs_ = abstract_formula(f)
    atom = f.table[abs_.atom_map["sel!0"]]
    assert f.table[atom.children[0]].op is Op.STORE


def test_fresh_names_avoid_declared_symbols():
    f = parse_formula(
        "(declare-const |sel!0| (_ BitVec 2))"
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
        "(declare-const i (_ BitVec 2))"
        "(assert (= (select a i) |sel!0|))")
    abs_ = abstract_formula(f)
    assert [n for n, _ in abs_.select_atoms()] == ["sel!1"]


def test_project_evaluates_atoms_under_the_base_model():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 4)))"
        "(declare-const i (_ BitVec 2))"
        "(assert (= (select a i) #x9))")
    abs_ = abstract_formula(f)
    full = Assignment({
        "a": ArrayVal.make(bv(2), bv(4), 0, {3: 9}),
        "i": BvVal(2, 3),
    })
    proj = project_assignment(abs_, full)
    assert proj["i"] == BvVal(2, 3)
    assert proj["sel!0"] == BvVal(4, 9)
    assert "a" not in proj
    assert satisfies(abs_.formula, proj)


def test_project_skips_witness_dependent_atoms():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
        "(declare-const b (Array (_ BitVec 2) (_ BitVec 2)))"
        "(assert (not (= a b)))")
    abs_ = abstract_formula(f)
    eq_atom = abs_.atom_map["aeq!0"]
    wname = abs_.fresh_witness(eq_atom, bv(2))
    wvar = f.table.mk_var(wname, bv(2))
    lhs, rhs = f.table[eq_atom].children
    abs_.rewrite(f.table.mk_select(lhs, wvar))
    abs_.rewrite(f.table.mk_select(rhs, wvar))
    full = Assignment({
        "a": ArrayVal.make(bv(2), bv(2), 0, {}),
        "b": ArrayVal.make(bv(2), bv(2), 1, {}),
    })
    proj = project_assignment(abs_, full)
    # The equality atom projects fine; select atoms over the witness
    # variable have no base value and drop out.
    assert proj["aeq!0"] == BoolVal(False)
    assert wname not in proj
    assert all(n not in proj for n, a in abs_.select_atoms())


def test_fresh_witness_is_created_once():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
        "(declare-const b (Array (_ BitVec 2) (_ BitVec 2)))"
        "(assert (not (= a b)))")
    abs_ = abstract_formula(f)
    eq_atom = abs_.atom_map["aeq!0"]
    w1 = abs_.fresh_witness(eq_atom, bv(2))
    w2 = abs_.fresh_witness(eq_atom, bv(2))
    assert w1 == w2
    assert abs_.formula.decls[w1] == bv(2)



def test_the_walk_numbers_atoms_and_builds_terms_as_before():
    # The atom map, the abstracted assertions and their declarations of
    # 600 fuzzed array and function formulas, pinned as one digest taken
    # of the walk that pushed every node twice.
    digest = hashlib.sha256()
    for seed in range(600):
        f = random_formula(seed, logic=("QF_ABV", "QF_AUFBV")[seed % 2],
                           max_depth=5)
        abs_ = abstract_formula(f)
        digest.update(repr((
            list(abs_.atom_map.items()), abs_.formula.assertions,
            [(n, repr(s)) for n, s in abs_.formula.decls.items()])).encode())
    assert digest.hexdigest() == (
        "af3ae697fe849c0dee65c6d36385825a5b23376218174add23f6e7c105f14066")


def _bv_formulas() -> list[Formula]:
    inputs = Path(__file__).parent.parent / "perfbench" / "inputs" / "bv_arith"
    files = sorted(inputs.glob("*.smt2"))
    assert len(files) == 4
    return ([random_formula(seed, logic="QF_BV", max_depth=5)
             for seed in range(300)]
            + [parse_file(str(p)) for p in files])


def test_a_formula_without_arrays_or_functions_is_its_own_abstraction():
    # The same formula with one unused array declared takes the walk,
    # which must come to the same abstraction and leave every tracked
    # node as it is.
    for f in _bv_formulas():
        got = abstract_formula(f)
        walked = abstract_formula(Formula(
            f.table, list(f.assertions),
            {**f.decls, "unused": array(bv(2), bv(2))}, f.logic))
        assert got.identity and not walked.identity
        assert got.formula.assertions == walked.formula.assertions \
            == f.assertions
        assert got.formula.decls == walked.formula.decls == f.decls
        assert got.atom_map == walked.atom_map == {}
        for tid in build_universe(f).node_ids:
            assert got.rewrite(tid) == walked.rewrite(tid) == tid
