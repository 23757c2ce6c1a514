"""Reference implementations: slow evaluation, enumeration, covering sets."""

import random

import pytest

from pansampler.coverage import CoverState
from pansampler.fuzz import random_formula
from pansampler.oracle import (DomainCapError, OracleError,
                               enumerate_solutions, exact_coverage,
                               slow_evaluate, slow_satisfies)
from pansampler.parser import parse_formula
from pansampler.values import Assignment, BvVal

from helpers import (assignment_key, cover, dpll, exact_score, min_cover,
                     random_cnf)

TAUT = "(declare-const x Bool)(assert (or x (not x)))"
UNSAT = "(declare-const x Bool)(assert x)(assert (not x))"


def test_slow_arithmetic_spot_checks():
    f = parse_formula(
        "(declare-const a (_ BitVec 3))(declare-const b (_ BitVec 3))"
        "(assert (= (bvadd a b) (bvmul a b)))"
        "(assert (bvslt a b))(assert (= (bvashr a b) a))")
    add, mul = f.table[f.assertions[0]].children
    slt = f.assertions[1]
    ashr = f.table[f.assertions[2]].children[0]
    a = Assignment({"a": BvVal(3, 5), "b": BvVal(3, 3)})
    assert slow_evaluate(f, add, a).as_int() == (5 + 3) % 8
    assert slow_evaluate(f, mul, a).as_int() == (5 * 3) % 8
    # 5 is -3 signed, 3 is 3.
    assert slow_evaluate(f, slt, a).value is True
    # Arithmetic shift by 3 fills with the sign bit.
    assert slow_evaluate(f, ashr, a).as_int() == 0b111


def test_slow_evaluate_requires_bindings():
    f = parse_formula("(declare-const x Bool)(assert x)")
    with pytest.raises(KeyError):
        slow_evaluate(f, f.assertions[0], Assignment())


def test_enumerates_both_tautology_solutions():
    rep = enumerate_solutions(parse_formula(TAUT))
    assert len(rep.solutions) == 2
    assert rep.universe.num_ast_bits == 6
    # The disjunction never comes out false, so one slot is unreachable.
    assert rep.valid_bits == 5
    assert rep.valid_mask.bit_count() == 5


def test_enumerates_nothing_for_unsat():
    rep = enumerate_solutions(parse_formula(UNSAT))
    assert rep.solutions == []
    assert rep.valid_bits == 0
    assert rep.valid_mask == 0


def test_enumerates_the_forced_solution():
    rep = enumerate_solutions(
        parse_formula("(declare-const m (_ BitVec 4))(assert (= m #x3))"))
    assert len(rep.solutions) == 1
    assert rep.solutions[0]["m"].as_int() == 3
    # 5 entries; the single solution pins one slot of each.
    assert rep.valid_bits == 5


def test_array_finitization_counts():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
        "(declare-const i (_ BitVec 2))"
        "(assert (= (select a i) #b01))")
    rep = enumerate_solutions(f)
    # 4 index values x 4 defaults x 1 pinned cell x 4 fresh-cell values.
    assert len(rep.solutions) == 64
    keys = {assignment_key(s) for s in rep.solutions}
    assert len(keys) == 64
    for s in rep.solutions:
        assert s["a"].get(s["i"].as_int()) == 1
        assert slow_satisfies(f, s)


def test_function_finitization_counts():
    f = parse_formula(
        "(declare-fun g ((_ BitVec 2)) (_ BitVec 2))"
        "(declare-const x (_ BitVec 2))"
        "(assert (= (g x) #b01))")
    rep = enumerate_solutions(f)
    # 4 argument values x 4 defaults, the applied cell pinned.
    assert len(rep.solutions) == 16
    for s in rep.solutions:
        assert s["g"].get((s["x"].as_int(),)) == 1


def test_blanket_overrides_pin_the_default():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 1) (_ BitVec 1)))"
        "(declare-const i (_ BitVec 1))"
        "(assert (= (select a i) #b1))")
    rep = enumerate_solutions(f)
    # Touched index plus the fresh one blanket the 1-bit domain, so the
    # default collapses to zero and representations stay unique.
    assert len(rep.solutions) == 4
    assert len({assignment_key(s) for s in rep.solutions}) == 4
    assert all(s["a"].default == 0 for s in rep.solutions)


def test_domain_cap_guards_enumeration():
    f = parse_formula("(declare-const m (_ BitVec 10))(assert (= m m))")
    with pytest.raises(DomainCapError):
        enumerate_solutions(f, domain_bit_cap=5)
    rep = enumerate_solutions(f)
    assert len(rep.solutions) == 1024


def test_nested_select_index_is_rejected():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 1) (_ BitVec 1)))"
        "(declare-const i (_ BitVec 1))"
        "(assert (= (select a (select a i)) #b1))")
    with pytest.raises(OracleError):
        enumerate_solutions(f)


def test_exact_coverage_endpoints():
    rep = enumerate_solutions(parse_formula(TAUT))
    assert exact_coverage(rep, []) == 0.0
    assert exact_coverage(rep, rep.solutions) == 1.0
    # One solution hits 3 of the 5 attainable bits.
    assert exact_coverage(rep, rep.solutions[:1]) == pytest.approx(0.6)


def test_exact_coverage_of_unsat_is_zero():
    rep = enumerate_solutions(parse_formula(UNSAT))
    assert exact_coverage(rep, []) == 0.0


def test_exact_score_counts_new_valid_bits():
    rep = enumerate_solutions(parse_formula(TAUT))
    c1, c2 = rep.cover_sets
    assert exact_score(rep, 0, c1) == 3
    assert exact_score(rep, c1, c1) == 0
    assert exact_score(rep, c1, c2) == 2


def test_min_cover_small_instances():
    rep = enumerate_solutions(parse_formula(TAUT))
    full = min_cover(rep, 1.0)
    assert full.cardinality == 2 and full.exact
    assert min_cover(rep, 0.0).cardinality == 0
    assert min_cover(rep, 0.6).cardinality == 1

    single = enumerate_solutions(
        parse_formula("(declare-const m (_ BitVec 4))(assert (= m #x3))"))
    assert min_cover(single, 1.0).cardinality == 1

    empty = enumerate_solutions(parse_formula(UNSAT))
    assert min_cover(empty, 0.9).cardinality == 0


def test_min_cover_greedy_fallback():
    f = parse_formula("(declare-const x (_ BitVec 5))(assert (bvule x x))")
    rep = enumerate_solutions(f)
    assert len(rep.solutions) == 32
    got = min_cover(rep, 1.0)
    assert not got.exact
    # All-zeros then its complement blanket every attainable bit.
    assert got.indices == (0, 31)
    assert exact_coverage(rep, [rep.solutions[i] for i in got.indices]) == 1.0


def test_exhaustive_min_cover_is_no_larger_than_greedy():
    f = parse_formula(
        "(declare-const x (_ BitVec 3))(declare-const y Bool)"
        "(assert (bvule x x))(assert (or y (not y)))")
    rep = enumerate_solutions(f)
    assert len(rep.solutions) == 16
    exact = min_cover(rep, 1.0)
    assert exact.exact
    chosen = [rep.solutions[i] for i in exact.indices]
    assert exact_coverage(rep, chosen) == 1.0
    assert exact.cardinality == 2


def test_surrogate_coverage_never_exceeds_exact():
    checked = 0
    for seed in range(30):
        f = random_formula(seed, logic="QF_BV")
        try:
            rep = enumerate_solutions(f)
        except (DomainCapError, OracleError):
            continue
        if not rep.solutions:
            continue
        rng = random.Random(seed)
        n = rng.randint(1, min(4, len(rep.solutions)))
        chosen = rng.sample(rep.solutions, n)
        state = CoverState(rep.universe)
        for a in chosen:
            state.absorb(cover(f, rep.universe, a))
        star = state.coverage_star()
        exact = exact_coverage(rep, chosen)
        assert star <= exact + 1e-12, f"seed {seed}"
        checked += 1
    assert checked >= 15


def test_dpll_agrees_with_brute_force():
    for seed in range(300):
        cnf = random_cnf(seed, max_vars=8, max_clauses=24)
        sat = False
        for raw in range(1 << cnf.num_vars):
            bits = [False] + [bool((raw >> (v - 1)) & 1)
                              for v in range(1, cnf.num_vars + 1)]
            if all(any(bits[abs(l)] == (l > 0) for l in c)
                   for c in cnf.clauses):
                sat = True
                break
        model = dpll(cnf.num_vars, cnf.clauses)
        assert (model is not None) == sat, f"seed {seed}"
        if model is not None:
            assert all(any(model[abs(l)] == (l > 0) for l in c)
                       for c in cnf.clauses), f"seed {seed}"
