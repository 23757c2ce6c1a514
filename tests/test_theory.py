"""Array and function consistency checks over candidate models."""

from pansampler.abstraction import abstract_formula, project_assignment
from pansampler.evaluate import Evaluator, satisfies
from pansampler.fuzz import random_formula
from pansampler.oracle import enumerate_solutions, slow_satisfies
from pansampler.parser import parse_formula
from pansampler.terms import Op
from pansampler.theory import (Conflict, Consistent, axiom_instance_bound,
                               theory_check)
from pansampler.values import Assignment, BoolVal, BvVal


def lemma_is_false_under(abs_, candidate, lemma):
    img = abs_.rewrite(lemma)
    return Evaluator(abs_.base.table, candidate).value(img).as_int() == 0


def test_row_violation_yields_one_lemma():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 4) (_ BitVec 4)))"
        "(declare-const i (_ BitVec 4))(declare-const j (_ BitVec 4))"
        "(assert (= (select (store a i #x5) j) #x7))")
    abs_ = abstract_formula(f)
    cand = Assignment({"i": BvVal(4, 0), "j": BvVal(4, 0),
                       "sel!0": BvVal(4, 7)})
    verdict = theory_check(f, abs_, cand)
    assert isinstance(verdict, Conflict)
    assert len(verdict.lemmas) == 1
    lemma = verdict.lemmas[0]
    assert f.table[lemma].op is Op.IMPLIES
    assert lemma_is_false_under(abs_, cand, lemma)


def test_read_past_the_store_is_consistent():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 4) (_ BitVec 4)))"
        "(declare-const i (_ BitVec 4))(declare-const j (_ BitVec 4))"
        "(assert (= (select (store a i #x5) j) #x7))")
    abs_ = abstract_formula(f)
    cand = Assignment({"i": BvVal(4, 0), "j": BvVal(4, 3),
                       "sel!0": BvVal(4, 7)})
    verdict = theory_check(f, abs_, cand)
    assert isinstance(verdict, Consistent)
    full = verdict.assignment
    assert full["a"].get(3) == 7
    assert full["a"].get(1) == 0  # untouched cells default to zero
    assert satisfies(f, full)
    assert slow_satisfies(f, full)


def test_hitting_the_store_must_return_its_value():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 4) (_ BitVec 4)))"
        "(declare-const i (_ BitVec 4))(declare-const j (_ BitVec 4))"
        "(assert (= (select (store a i #x5) j) #x5))")
    abs_ = abstract_formula(f)
    cand = Assignment({"i": BvVal(4, 2), "j": BvVal(4, 2),
                       "sel!0": BvVal(4, 5)})
    verdict = theory_check(f, abs_, cand)
    assert isinstance(verdict, Consistent)
    assert satisfies(f, verdict.assignment)


def test_base_read_congruence():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 4) (_ BitVec 4)))"
        "(declare-const i (_ BitVec 4))(declare-const j (_ BitVec 4))"
        "(assert (distinct (select a i) (select a j)))")
    abs_ = abstract_formula(f)
    cand = Assignment({"i": BvVal(4, 2), "j": BvVal(4, 2),
                       "sel!0": BvVal(4, 0), "sel!1": BvVal(4, 1)})
    verdict = theory_check(f, abs_, cand)
    assert isinstance(verdict, Conflict)
    assert lemma_is_false_under(abs_, cand, verdict.lemmas[0])


def test_equality_propagates_cells_across_sides():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 4) (_ BitVec 4)))"
        "(declare-const b (Array (_ BitVec 4) (_ BitVec 4)))"
        "(declare-const i (_ BitVec 4))"
        "(assert (= a b))"
        "(assert (= (select a i) #x5))")
    abs_ = abstract_formula(f)
    cand = Assignment({"i": BvVal(4, 0), "aeq!0": BoolVal(True),
                       "sel!0": BvVal(4, 5)})
    verdict = theory_check(f, abs_, cand)
    assert isinstance(verdict, Consistent)
    full = verdict.assignment
    assert full["a"].get(0) == 5
    assert full["b"].get(0) == 5
    assert satisfies(f, full)


def test_equal_arrays_with_clashing_cells_conflict():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 4) (_ BitVec 4)))"
        "(declare-const b (Array (_ BitVec 4) (_ BitVec 4)))"
        "(declare-const i (_ BitVec 4))(declare-const j (_ BitVec 4))"
        "(assert (= a b))"
        "(assert (= (select a i) #x5))(assert (= (select b j) #x6))")
    abs_ = abstract_formula(f)
    cand = Assignment({"i": BvVal(4, 0), "j": BvVal(4, 0),
                       "aeq!0": BoolVal(True),
                       "sel!0": BvVal(4, 5), "sel!1": BvVal(4, 6)})
    verdict = theory_check(f, abs_, cand)
    assert isinstance(verdict, Conflict)
    assert lemma_is_false_under(abs_, cand, verdict.lemmas[0])


def test_unjustified_disequality_spawns_a_witness():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
        "(declare-const b (Array (_ BitVec 2) (_ BitVec 2)))"
        "(assert (not (= a b)))")
    abs_ = abstract_formula(f)
    eq_atom = abs_.atom_map["aeq!0"]
    cand = Assignment({"aeq!0": BoolVal(False)})
    verdict = theory_check(f, abs_, cand)
    assert isinstance(verdict, Conflict)
    assert eq_atom in abs_.witness_of
    wname = abs_.witness_of[eq_atom]
    assert wname in abs_.formula.decls
    # Lemma: a differing cell exists at the witness index.
    lemma = f.table[verdict.lemmas[0]]
    assert lemma.op is Op.IMPLIES


def test_justified_disequality_is_consistent():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
        "(declare-const b (Array (_ BitVec 2) (_ BitVec 2)))"
        "(declare-const i (_ BitVec 2))"
        "(assert (not (= a b)))"
        "(assert (= (select a i) #b01))(assert (= (select b i) #b10))")
    abs_ = abstract_formula(f)
    cand = Assignment({"i": BvVal(2, 0), "aeq!0": BoolVal(False),
                       "sel!0": BvVal(2, 1), "sel!1": BvVal(2, 2)})
    verdict = theory_check(f, abs_, cand)
    assert isinstance(verdict, Consistent)
    full = verdict.assignment
    assert full["a"].get(0) == 1
    assert full["b"].get(0) == 2
    assert satisfies(f, full)


def test_function_congruence_violation():
    f = parse_formula(
        "(declare-fun g ((_ BitVec 2)) (_ BitVec 2))"
        "(declare-const x (_ BitVec 2))(declare-const y (_ BitVec 2))"
        "(assert (= (g x) #b01))(assert (= (g y) #b10))")
    abs_ = abstract_formula(f)
    cand = Assignment({"x": BvVal(2, 0), "y": BvVal(2, 0),
                       "uf!0": BvVal(2, 1), "uf!1": BvVal(2, 2)})
    verdict = theory_check(f, abs_, cand)
    assert isinstance(verdict, Conflict)
    assert len(verdict.lemmas) == 1
    assert lemma_is_false_under(abs_, cand, verdict.lemmas[0])
    assert isinstance(theory_check(f, abs_, cand), Conflict)


def test_single_application_is_vacuously_consistent():
    f = parse_formula(
        "(declare-fun g ((_ BitVec 2)) (_ BitVec 2))"
        "(declare-const x (_ BitVec 2))"
        "(assert (= (g x) #b01))")
    abs_ = abstract_formula(f)
    cand = Assignment({"x": BvVal(2, 3), "uf!0": BvVal(2, 1)})
    verdict = theory_check(f, abs_, cand)
    assert isinstance(verdict, Consistent)
    g = verdict.assignment["g"]
    assert g.get((3,)) == 1
    assert g.get((0,)) == 0
    assert satisfies(f, verdict.assignment)


def test_congruent_applications_build_one_table():
    f = parse_formula(
        "(declare-fun g ((_ BitVec 2)) (_ BitVec 2))"
        "(declare-const x (_ BitVec 2))(declare-const y (_ BitVec 2))"
        "(declare-const z (_ BitVec 2))"
        "(assert (= (g x) (g y)))(assert (= (g z) #b11))")
    abs_ = abstract_formula(f)
    cand = Assignment({"x": BvVal(2, 1), "y": BvVal(2, 1), "z": BvVal(2, 2),
                       "uf!0": BvVal(2, 3), "uf!1": BvVal(2, 3),
                       "uf!2": BvVal(2, 3)})
    verdict = theory_check(f, abs_, cand)
    assert isinstance(verdict, Consistent)
    g = verdict.assignment["g"]
    assert g.get((1,)) == 3 and g.get((2,)) == 3


def test_consistent_model_restores_scalars_and_fills_theory_values():
    decls = ["(declare-const a (Array (_ BitVec 2) (_ BitVec 4)))",
             "(declare-fun g ((_ BitVec 2)) (_ BitVec 2))",
             "(declare-const i (_ BitVec 2))"]
    # Both declaration orders: a report lists a solution's symbols in the
    # order the model binds them, which is f's declaration order.
    for order in (decls, decls[::-1]):
        f = parse_formula("".join(order)
                          + "(assert (= (select a i) #x9))"
                            "(assert (= (g i) #b01))")
        abs_ = abstract_formula(f)
        cand = Assignment({
            "i": BvVal(2, 3),
            "sel!0": BvVal(4, 9),
            "uf!0": BvVal(2, 1),
        })
        verdict = theory_check(f, abs_, cand)
        assert isinstance(verdict, Consistent)
        full = verdict.assignment
        assert full["i"] == BvVal(2, 3)
        assert full["a"].get(3) == 9
        assert full["g"].get((3,)) == 1
        assert "sel!0" not in full
        assert satisfies(f, full)
        assert list(full.bindings) == list(f.decls)
    assert list(full.bindings) == ["i", "g", "a"]


def test_consistent_model_defaults_untouched_theory_values():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 4)))"
        "(declare-const i (_ BitVec 2))"
        "(assert (= i i))")
    abs_ = abstract_formula(f)
    verdict = theory_check(f, abs_, Assignment({"i": BvVal(2, 0)}))
    assert isinstance(verdict, Consistent)
    assert verdict.assignment["a"].get(2) == 0


def test_a_check_reports_only_the_first_lemma():
    # Both row lemmas are violated; the check stops at the first.
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 4) (_ BitVec 4)))"
        "(declare-const b (Array (_ BitVec 4) (_ BitVec 4)))"
        "(declare-const i (_ BitVec 4))(declare-const j (_ BitVec 4))"
        "(assert (= (select (store a i #x1) j) #x0))"
        "(assert (= (select (store b i #x2) j) #x0))")
    abs_ = abstract_formula(f)
    cand = Assignment({"i": BvVal(4, 0), "j": BvVal(4, 0),
                       "sel!0": BvVal(4, 0), "sel!1": BvVal(4, 0)})
    first = theory_check(f, abs_, cand)
    assert isinstance(first, Conflict) and len(first.lemmas) == 1


def test_duplicate_lemmas_collapse():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 4) (_ BitVec 4)))"
        "(declare-const i (_ BitVec 4))(declare-const j (_ BitVec 4))"
        "(assert (bvult (select (store a i #x5) j) "
        "(bvadd (select (store a i #x5) j) #x1)))")
    abs_ = abstract_formula(f)
    # Both occurrences hash-cons to one atom, so at most one row lemma
    # can exist for them.
    assert len(abs_.select_atoms()) == 1
    cand = Assignment({"i": BvVal(4, 1), "j": BvVal(4, 1),
                       "sel!0": BvVal(4, 9)})
    verdict = theory_check(f, abs_, cand)
    assert isinstance(verdict, Conflict)
    assert len(verdict.lemmas) == len(set(verdict.lemmas)) == 1


def test_axiom_bound_is_positive_and_static():
    pure = parse_formula("(declare-const x (_ BitVec 4))(assert (= x x))")
    abs_pure = abstract_formula(pure)
    assert axiom_instance_bound(pure, abs_pure) == 1

    f = parse_formula(
        "(declare-const a (Array (_ BitVec 4) (_ BitVec 4)))"
        "(declare-const b (Array (_ BitVec 4) (_ BitVec 4)))"
        "(declare-const i (_ BitVec 4))"
        "(assert (= a b))(assert (= (select (store a i #x1) i) #x1))")
    abs_ = abstract_formula(f)
    bound = axiom_instance_bound(f, abs_)
    assert bound > 1
    # The bound only depends on the abstraction, not on any candidate.
    assert axiom_instance_bound(f, abs_) == bound


def test_projected_real_solutions_are_consistent():
    checked = 0
    for seed in range(40):
        f = random_formula(seed, logic="QF_ABV")
        abs_ = abstract_formula(f)
        if abs_.array_eq_atoms():
            continue  # disequalities may need the witness round trip
        try:
            report = enumerate_solutions(f)
        except Exception:
            continue
        for sol in report.solutions[:3]:
            cand = project_assignment(abs_, sol)
            verdict = theory_check(f, abs_, cand)
            assert isinstance(verdict, Consistent), f"seed {seed}"
            assert satisfies(f, verdict.assignment), f"seed {seed}"
            assert slow_satisfies(f, verdict.assignment), f"seed {seed}"
            checked += 1
    assert checked >= 20
