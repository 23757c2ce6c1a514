"""Diversity solving and the coverage-guided sampling loop."""

import functools
import gc
import hashlib
import itertools
import random
import sys
import time
import types

import pytest

from pansampler import bitblast, sampler, sat
from pansampler.abstraction import project_assignment
from pansampler.bitblast import Cnf, bit_blast
from pansampler.coverage import CoverState, build_universe
from pansampler.evaluate import Evaluator, satisfies
from pansampler.fuzz import random_formula
from pansampler.oracle import OracleError, enumerate_solutions
from pansampler.parser import parse_formula
from pansampler.printer import print_formula, print_models
from pansampler.sampler import (Candidate, DiversitySmtEngine,
                                FormulaUnsatError, Mode, SamplerConfig,
                                Unreachable, post_opt, sample)
from pansampler.sat import SolverConfig
from pansampler.terms import Op
from pansampler.theory import Conflict, Consistent
from pansampler.values import Assignment, BoolVal, BvVal

from helpers import assignment_key, clauses_held, cover, dpll, scalar_bits

TAUT = "(declare-const x Bool)(assert (or x (not x)))"
UNIQUE = "(declare-const m (_ BitVec 8))(assert (= m #x03))"
FREE3 = "(declare-const x (_ BitVec 3))(assert (bvule x x))"


def test_config_validation():
    for bias_p in (0.3, 1.5):
        with pytest.raises(ValueError, match="bias_p"):
            SamplerConfig(bias_p=bias_p)
    for budget in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="time_budget"):
            SamplerConfig(time_budget=budget)
    with pytest.raises(ValueError):
        SamplerConfig(target_coverage=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(target_coverage=1.5)
    with pytest.raises(ValueError):
        SamplerConfig(lam=0)
    with pytest.raises(ValueError):
        SamplerConfig(max_solutions=0)
    assert SamplerConfig(mode="alt2").mode is Mode.ALT2


def test_diversity_solve_finds_the_only_solution():
    f = parse_formula("(declare-const x Bool)(assert x)")
    got = DiversitySmtEngine(f).solve_once([], seed=0)
    assert got is not None
    assert got.assignment["x"] == BoolVal(True)


def test_diversity_solve_reports_unsat():
    f = parse_formula("(declare-const x Bool)(assert x)(assert (not x))")
    assert DiversitySmtEngine(f).solve_once([], seed=0) is None


def test_full_bias_flips_every_free_bit():
    f = parse_formula("(declare-const x (_ BitVec 4))(assert (bvule x x))")
    prior = [Assignment({"x": BvVal(4, 0)})]
    got = DiversitySmtEngine(f, SamplerConfig(bias_p=1.0)).solve_once(
        prior, seed=3)
    assert got is not None
    assert got.assignment["x"].as_int() == 0b1111


def test_extra_constraints_steer_the_solve():
    f = parse_formula(FREE3)
    engine = DiversitySmtEngine(f)
    got = engine.solve_once([], seed=1, deviation=("x", 0))
    assert got is not None
    assert got.assignment["x"].as_int() != 0


def test_engine_keeps_lemmas_within_the_static_bound():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 4) (_ BitVec 4)))"
        "(declare-const i (_ BitVec 4))(declare-const j (_ BitVec 4))"
        "(assert (= (select (store a i #x5) j) #x7))")
    engine = DiversitySmtEngine(f)
    sols = []
    for k in range(5):
        got = engine.solve_once(sols, seed=k)
        assert got is not None
        assert satisfies(f, got.assignment)
        sols.append(got.assignment)
    assert engine.lemma_rounds <= engine.lemma_bound
    assert len(engine.lemmas) == len(set(engine.lemmas))


def _models(cnf, bits):
    """The values of the SAT variables bits that extend to a model of
    cnf, found by the reference DPLL over every combination."""
    clauses = list(cnf.all_clauses())
    return {vals for vals in itertools.product((False, True), repeat=len(bits))
            if dpll(cnf.num_vars, clauses + [(v if on else -v,) for v, on
                                             in zip(bits, vals)]) is not None}


def _blasted_with(engine, deviation, projected):
    """One blast of the abstracted assertions, the lemma images and the
    term distinct(name, value), then one blocking clause per projected
    prior solution."""
    abs_, table = engine.abs, engine.f.table
    name, value = deviation
    sort = abs_.formula.decls[name]
    const = (table.mk_bool_const(bool(value)) if sort.is_bool
             else table.mk_bv_const(sort.width, value))
    distinct = table.mk_distinct(table.mk_var(name, sort), const)
    terms = (list(abs_.formula.assertions)
             + [abs_.rewrite(l) for l in engine.lemmas] + [distinct])
    cnf, bmap = bit_blast(engine.f.table, abs_.formula.decls, terms)
    blocking = [tuple(-bmap.bits[name][bit] if v else bmap.bits[name][bit]
                      for name, bit, v in scalar_bits(p) if name in bmap.bits)
                for p in projected]
    return Cnf(cnf.num_vars, cnf.clauses + tuple(blocking))


def _check_deviation_solves(monkeypatch, engine, prior, deviation):
    """solve_once with a deviation, without and then with blocking
    clauses: every CNF handed to the solver extends the base current at
    that call, and has the models, over the declared bits, of one blast
    of the base's terms and distinct(name, value) (and the blocking
    clauses). Returns the two solutions, or None, and the bases."""
    projected = [project_assignment(engine.abs, a) for a in prior]
    real = sampler.sat_solve
    got, bases = [], []

    def checked(cnf, dist, cfg, **lane):
        base, bmap = engine.blast()
        assert cnf.base is base
        bases.append(base)
        bits = [bmap.bits[name][b]
                for name, sort in engine.abs.formula.decls.items()
                if sort.is_bool or sort.is_bv for b in range(sort.num_bits)]
        want = _blasted_with(engine, deviation,
                             projected if engine.cfg.mode is Mode.ALT1
                             else [])
        assert _models(cnf, bits) == _models(want, bits)
        return real(cnf, dist, cfg, **lane)

    monkeypatch.setattr(sampler, "sat_solve", checked)
    for mode in (Mode.PANSAMPLER, Mode.ALT1):
        engine.cfg.mode = mode
        res = engine.solve_once(prior, seed=7, deviation=deviation)
        got.append(res and res.assignment)
    monkeypatch.setattr(sampler, "sat_solve", real)
    engine.cfg.mode = Mode.PANSAMPLER
    return got, bases


def _check_deviations_on_one_base(monkeypatch, engine, f, deviations):
    """Each deviation in turn, without and then with blocking clauses of
    the solutions before it: every solve runs on the one base, and finds
    a model of f away from the deviated value. Returns the base."""
    base, _ = engine.blast()
    prior = []
    for name, value in deviations:
        got, bases = _check_deviation_solves(monkeypatch, engine, prior,
                                             (name, value))
        assert bases == [base, base]
        for a in got:
            assert a is not None and a[name].as_int() != value
            assert satisfies(f, a)
        prior.append(got[0])
    return base


def _true_units(engine):
    """The base's unit clauses other than its assertions' literals: the
    TRUE variable's, if the base has one."""
    base, bmap = engine.blast()
    asserted = {bmap.terms[a] for a in engine.abs.formula.assertions}
    return {c[0] for c in base.clauses if len(c) == 1} - asserted


def test_a_deviation_already_in_the_formula_reuses_its_gate(monkeypatch):
    # The base already holds a gate for distinct(x, #x3). A deviation
    # needs no gate: it is one clause over x's four bits on that base,
    # with the models of the blasted distinct.
    f = parse_formula(
        "(declare-const x (_ BitVec 4))(declare-const y (_ BitVec 4))"
        "(assert (or (distinct x #x3) (bvult y x)))")
    engine = DiversitySmtEngine(f)
    base = _check_deviations_on_one_base(
        monkeypatch, engine, f, [("x", 3), ("y", 0), ("y", 15)])
    const = engine.blast()[1].terms[f.table.mk_bv_const(4, 3)]
    assert _true_units(engine) == {const[0]} == {-const[2]}
    cnf, _ = engine.blast(("x", 3))
    assert cnf.base is base and cnf.num_vars == base.num_vars
    assert len(cnf.clauses) == 1 and len(cnf.clauses[0]) == 4


def test_a_constant_free_base_gets_true_in_the_suffix(monkeypatch):
    # A Bool, a 1-bit and a 4-bit variable over a base without constants.
    # A deviation clause names only the variable's bits, so the suffix
    # needs no TRUE variable and the base gains none.
    f = parse_formula(
        "(declare-const p Bool)(declare-const q (_ BitVec 1))"
        "(declare-const x (_ BitVec 4))"
        "(assert (or p (bvult x (concat q ((_ extract 3 1) x)))))")
    engine = DiversitySmtEngine(f)
    base = _check_deviations_on_one_base(
        monkeypatch, engine, f,
        [("p", 1), ("p", 0), ("q", 1), ("x", 0), ("x", 9)])
    assert _true_units(engine) == set()
    for deviation, width in [(("p", 1), 1), (("q", 0), 1), (("x", 5), 4)]:
        cnf, _ = engine.blast(deviation)
        assert cnf.base is base and cnf.num_vars == base.num_vars
        assert len(cnf.clauses) == 1 and len(cnf.clauses[0]) == width
    assert _true_units(engine) == set()


def test_deviation_cnfs_after_a_lemma_extend_the_new_base(monkeypatch):
    # i is 0 or 1, and only i = 1 keeps the two reads apart. Forcing
    # i != 1 makes the first candidate read one cell twice: a lemma
    # arrives and the deviation is made again on the new base.
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
        "(declare-const i (_ BitVec 2))(assert (bvule i #b01))"
        "(assert (= (select a i) #b01))(assert (= (select a #b00) #b10))")
    engine = DiversitySmtEngine(f)
    old_base, _ = engine.blast()
    got, bases = _check_deviation_solves(monkeypatch, engine, [], ("i", 1))
    assert got == [None, None] and engine.lemmas
    new_base, _ = engine.blast()
    assert new_base is not old_base
    assert bases[:2] == [old_base, new_base]
    assert set(bases[2:]) == {new_base}
    sols = [engine.solve_once([], seed=1).assignment]
    assert sols[0]["i"].as_int() == 1
    got, bases = _check_deviation_solves(monkeypatch, engine, sols, ("i", 0))
    # Blocking the only solution leaves nothing.
    assert satisfies(f, got[0]) and got[1] is None
    assert set(bases) == {new_base} and engine.blast()[0] is new_base


def _check_blast_map_lists(engine, rng):
    """The blast map of the engine's current base lists each declared
    name's SAT variables, LSB first, one per tracked bit and each its
    own; a model lifts to what a bit-by-bit read of those variables
    gives, and the lifted assignment's literals are those variables, in
    bit order, signed by the model."""
    _, bmap = engine.blast()
    decls = engine.abs.formula.decls
    assert bmap.bits.keys() == decls.keys()
    for name, sort in decls.items():
        assert len(bmap.bits[name]) == sort.num_bits
    listed = [var for bits in bmap.bits.values() for var in bits]
    assert len(set(listed)) == len(listed) and min(listed) >= 1
    model = [False] + [rng.random() < 0.5 for _ in range(max(listed))]
    lifted = engine._lift(model, bmap)
    for name, sort in decls.items():
        want = sum(model[bmap.bits[name][b]] << b
                   for b in range(sort.num_bits))
        assert lifted[name].as_int() == want, name
    assert bmap.literals(lifted) == [var if model[var] else -var
                                     for var in listed]


def test_the_blast_map_lists_each_names_variables_in_bit_order():
    rng = random.Random(0)
    for logic, seed in [("QF_BV", 0), ("QF_BV", 5), ("QF_ABV", 4),
                        ("QF_AUFBV", 2)]:
        _check_blast_map_lists(
            DiversitySmtEngine(random_formula(seed, logic)), rng)
    # The array fixture, before and after the lemma that a forced i != 1
    # brings: the new base's map lists the same names as its own.
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
        "(declare-const i (_ BitVec 2))(assert (bvule i #b01))"
        "(assert (= (select a i) #b01))(assert (= (select a #b00) #b10))")
    engine = DiversitySmtEngine(f)
    _check_blast_map_lists(engine, rng)
    old_map = engine.blast()[1]
    assert engine.solve_once([], seed=7, deviation=("i", 1)) is None
    assert engine.lemmas and engine.blast()[1] is not old_map
    _check_blast_map_lists(engine, rng)


def test_blocking_clauses_are_prepared_once_per_prior_set(monkeypatch):
    f = parse_formula(
        "(declare-const x (_ BitVec 4))(declare-const y (_ BitVec 4))"
        "(declare-const p Bool)(assert (or p (bvult x y)))")
    engine = DiversitySmtEngine(f, SamplerConfig(mode=Mode.ALT1))
    state = CoverState(engine.universe)
    seeds = random.Random(2)
    prepared = []
    real = sat._cleaned

    def cleaned(clauses):
        prepared.extend(clauses)
        return real(clauses)

    monkeypatch.setattr(sat, "_cleaned", cleaned)
    solutions = []
    for _ in range(4):
        alpha = engine.solve_once(solutions, seeds.randrange(1 << 32))
        best = post_opt(engine, state, solutions, seeds, alpha)
        if len(solutions) >= 2:
            bits = engine.blast()[1].bits
            blocking = [tuple(-bits[n][b] if v else bits[n][b]
                              for n, b, v in scalar_bits(p))
                        for p in engine._projected]
            assert [project_assignment(engine.abs, p) for p in solutions] \
                == engine._projected
            # One candidate and three deviation solves per prior set, and
            # a set that extends the last one prepares only its new
            # solution's clause: each is prepared once over the run.
            assert [prepared.count(c) for c in blocking] == [1] * len(blocking)
        solutions.append(best.assignment)
        state.absorb(best.slots)


def test_an_extended_prior_set_counts_only_its_new_solutions(monkeypatch):
    # Each absorb extends the prior set by one solution: its bias
    # distribution adds that solution's bits to the last set's counts,
    # and equals a recount over all of them.
    f = parse_formula(
        "(declare-const x (_ BitVec 4))(declare-const y (_ BitVec 4))"
        "(declare-const p Bool)(assert (or p (bvult x y)))")
    engine = DiversitySmtEngine(f)
    counted = []
    real = sat.distribution_from

    def spy(assignments, blast_map, start=None):
        counted.append(len(assignments))
        return real(assignments, blast_map, start)

    monkeypatch.setattr(sampler, "distribution_from", spy)
    seeds = random.Random(3)
    solutions = []
    for _ in range(5):
        got = engine.solve_once(solutions, seeds.randrange(1 << 32))
        projected = [project_assignment(engine.abs, p) for p in solutions]
        assert engine._projected == projected
        assert engine._dist.counts == real(projected, engine._bmap).counts
        solutions.append(got.assignment)
    assert counted == [0, 1, 1, 1, 1]
    # A set that is not an extension of the last one is counted afresh.
    engine.solve_once(solutions[1:], 0)
    assert counted[-1] == 4


def _reachable_from(root) -> list:
    """The objects that root's references reach, classes, modules and
    functions aside."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def _cnfs_reachable_from(root) -> list[Cnf]:
    return [obj for obj in _reachable_from(root) if isinstance(obj, Cnf)]


def test_refinement_keeps_one_base_cnf():
    f = parse_formula(
        "(declare-const x (_ BitVec 6))(declare-const y (_ BitVec 6))"
        "(declare-const p Bool)(assert (or p (bvult x y)))")
    # Deviations are kept by no one; alt1 keeps its blocking clauses.
    for mode, kept in ((Mode.PANSAMPLER, 0), (Mode.ALT1, 1)):
        engine = DiversitySmtEngine(f, SamplerConfig(mode=mode))
        state = CoverState(engine.universe)
        seeds = random.Random(4)
        solutions = []
        for _ in range(15):
            alpha = engine.solve_once(solutions, seeds.randrange(1 << 32))
            best = post_opt(engine, state, solutions, seeds, alpha)
            solutions.append(best.assignment)
            state.absorb(best.slots)
        base, _ = engine.blast()
        cnfs = _cnfs_reachable_from(engine)
        assert [cnf for cnf in cnfs if cnf.base is None] == [base]
        # Every other Cnf kept is an extension of the base that holds,
        # with its solver state, its own clauses and no copy of the base's.
        exts = [cnf for cnf in cnfs if cnf is not base]
        assert len(exts) == kept and all(cnf.base is base for cnf in exts)
        for cnf in exts:
            assert len(cnf.clauses) == 14  # the last iteration's priors
            assert set(cnf.clauses).isdisjoint(base.clauses)
            assert clauses_held((cnf.clauses, cnf.solver_cache)) <= \
                len(cnf.clauses)


def test_projection_follows_each_assignment_not_its_id():
    f = parse_formula("(declare-const x (_ BitVec 8))(assert (bvule x x))")
    engine = DiversitySmtEngine(f)
    stale = 0
    for value in range(200):
        engine.solve_once([Assignment({"x": BvVal(8, value)})], value)
        stale += engine._projected[0]["x"] != BvVal(8, value)
    assert stale == 0


# Extensionality: a candidate with a != b brings a lemma over a fresh
# witness index, and with it two fresh select atoms.
EXTENSIONAL = (
    "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
    "(declare-const b (Array (_ BitVec 2) (_ BitVec 2)))"
    "(declare-const i (_ BitVec 2))(declare-const p Bool)"
    "(assert (or p (distinct a b)))(assert (= (select a i) (select b i)))")


def test_a_lemma_round_keeps_the_projections_made_when_the_call_began(
        monkeypatch):
    f = parse_formula(EXTENSIONAL)
    prior = [DiversitySmtEngine(f).solve_once([], 0).assignment]
    projections = []
    real = sampler.project_assignment

    def spy(abs_, a):
        projections.append(len(abs_.atom_map))
        return real(abs_, a)

    solve = sampler.sat_solve
    rounds = []

    def watch(cnf, dist, cfg, **lane):
        rounds.append((engine._atoms, engine._projected[0], dist.counts))
        return solve(cnf, dist, cfg, **lane)

    monkeypatch.setattr(sampler, "project_assignment", spy)
    monkeypatch.setattr(sampler, "sat_solve", watch)
    grown = 0
    for seed in range(10):
        engine = DiversitySmtEngine(f)
        atoms = len(engine.abs.atom_map)
        projections.clear()
        rounds.clear()
        engine.solve_once(prior, seed)
        if len(engine.abs.atom_map) == atoms:
            continue
        grown += 1
        # The solution was projected once, when the call began, and every
        # round of the call counts that projection, under the new map.
        assert projections == [atoms] and len(rounds) > 1
        assert all(got == atoms for got, _, _ in rounds)
        assert all(p is rounds[0][1] for _, p, _ in rounds)
        _, bmap = engine.blast()
        assert rounds[-1][2] == \
            sat.distribution_from([rounds[0][1]], bmap).counts
        # The next call begins under the new atom count and projects again.
        engine.solve_once(prior, seed)
        assert projections == [atoms, len(engine.abs.atom_map)]
        assert engine._atoms == len(engine.abs.atom_map)
    assert grown >= 2


def test_a_lemma_that_declares_atoms_is_blasted_once(monkeypatch):
    # The extensionality lemma's first rewrite declares two select atoms,
    # inside the blast that adds it. The base's key counts them, so the
    # next solve does not blast the same lemmas again.
    f = parse_formula(EXTENSIONAL)
    blasts = []
    monkeypatch.setattr(sampler, "bit_blast", lambda *args: (
        blasts.append(len(engine.lemmas)) or bit_blast(*args)))
    grown = 0
    for seed in range(10):
        engine = DiversitySmtEngine(f)
        atoms = len(engine.abs.atom_map)
        blasts.clear()
        for s in (seed, seed + 100):
            engine.solve_once([], s)
        assert len(blasts) == len(set(blasts)) == len(engine.lemmas) + 1
        grown += len(engine.abs.atom_map) > atoms
    assert grown >= 2


def test_no_earlier_prior_solution_stays_reachable_from_the_engine():
    f = parse_formula(
        "(declare-const x (_ BitVec 6))(declare-const y (_ BitVec 6))"
        "(declare-const p Bool)(assert (or p (bvult x y)))")
    for mode in (Mode.PANSAMPLER, Mode.ALT1):
        engine = DiversitySmtEngine(f, SamplerConfig(mode=mode))
        earlier: list[Assignment] = []
        for seed in range(6):
            earlier.append(engine.solve_once(earlier, seed).assignment)
        later = [DiversitySmtEngine(f).solve_once([], seed).assignment
                 for seed in range(3)]
        engine.solve_once(earlier, 6)
        assert {id(a) for a in earlier} <= \
            {id(obj) for obj in _reachable_from(engine)}
        engine.solve_once(later, 7)
        reachable = {id(obj) for obj in _reachable_from(engine)}
        # earlier is still alive here, so no other object holds its ids.
        assert reachable.isdisjoint(map(id, earlier))
        assert {id(a) for a in later} <= reachable


def test_a_term_10000_deep_parses_samples_and_prints():
    # A recursive descent hits Python's recursion limit at a depth of a
    # few hundred; parsing, blasting and printing use explicit stacks.
    depth = 10_000
    text = ("(declare-const x (_ BitVec 1))(declare-const y (_ BitVec 1))"
            "(assert (= " + "(bvadd " * depth + "x" + " y)" * depth + " y))")
    f = parse_formula(text)
    res = sample(f, SamplerConfig(lam=1, max_solutions=1, seed=1))
    assert res.solutions and all(satisfies(f, a) for a in res.solutions)
    printed = print_formula(f)
    assert printed.count("(bvadd ") == depth
    assert print_formula(parse_formula(printed)) == printed


def test_tautology_saturates_then_stalls():
    f = parse_formula(TAUT)
    res = sample(f, SamplerConfig(lam=4, seed=0))
    assert res.reason == "stall"
    assert not res.achieved
    assert len(res.solutions) == 2
    # Both values of x appear; the disjunction itself is stuck at true.
    assert {s["x"].as_int() for s in res.solutions} == {0, 1}
    assert res.coverage["coverage_star"] == pytest.approx(5 / 6)


def test_unique_solution_covers_half():
    f = parse_formula(UNIQUE)
    res = sample(f, SamplerConfig(lam=3, seed=0))
    assert res.reason == "stall"
    assert len(res.solutions) == 1
    assert res.solutions[0]["m"].as_int() == 3
    assert res.coverage["coverage_star"] == pytest.approx(0.5)


def test_unsat_formula_raises():
    f = parse_formula("(declare-const x Bool)(assert x)(assert (not x))")
    with pytest.raises(FormulaUnsatError):
        sample(f, SamplerConfig(lam=2, seed=0))
    with pytest.raises(FormulaUnsatError):
        sample(f, SamplerConfig(lam=2, seed=0, mode=Mode.ALT1))


def test_constant_only_formula_is_vacuously_covered():
    f = parse_formula("(assert true)")
    res = sample(f, SamplerConfig(seed=0))
    assert res.achieved
    assert res.reason == "target"
    assert len(res.solutions) == 1
    assert res.coverage["coverage_star"] == 1.0


def test_target_reason_and_achieved_flag():
    f = parse_formula(FREE3)
    res = sample(f, SamplerConfig(target_coverage=0.5, lam=2, seed=1))
    assert res.achieved and res.reason == "target"
    assert res.coverage["coverage_star"] >= 0.5


def test_max_solutions_reason():
    f = parse_formula(FREE3)
    res = sample(f, SamplerConfig(max_solutions=1, lam=2, seed=1))
    assert res.reason == "max_solutions"
    assert not res.achieved
    assert len(res.solutions) == 1


def test_timeout_reason():
    f = parse_formula(FREE3)
    res = sample(f, SamplerConfig(time_budget=0.0, lam=2, seed=1))
    assert res.reason == "timeout"
    assert res.solutions == []


def test_trace_is_increasing_and_consistent():
    f = parse_formula(
        "(declare-const x (_ BitVec 4))(declare-const y (_ BitVec 4))"
        "(assert (bvult x y))")
    res = sample(f, SamplerConfig(lam=4, seed=2))
    assert len(res.coverage_star_trace) == len(res.solutions)
    assert all(a < b for a, b in
               zip(res.coverage_star_trace, res.coverage_star_trace[1:]))
    assert res.coverage_star_trace[-1] == res.coverage["coverage_star"]
    keys = [assignment_key(s) for s in res.solutions]
    assert len(keys) == len(set(keys))
    assert all(satisfies(f, s) for s in res.solutions)
    assert set(res.phase_times) == {"sampling", "evaluation", "optimization"}


def test_same_seed_reproduces_the_run():
    f = parse_formula(
        "(declare-const x (_ BitVec 4))(declare-const y (_ BitVec 4))"
        "(assert (bvult x y))")
    cfg = SamplerConfig(lam=3, seed=9)
    r1 = sample(f, cfg)
    r2 = sample(f, SamplerConfig(lam=3, seed=9))
    assert list(map(assignment_key, r1.solutions)) == \
        list(map(assignment_key, r2.solutions))
    assert r1.coverage_star_trace == r2.coverage_star_trace
    assert r1.reason == r2.reason


def test_every_mode_completes():
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
        "(declare-const i (_ BitVec 2))"
        "(assert (= (select a i) #b01))")
    for mode in Mode:
        res = sample(f, SamplerConfig(lam=3, seed=4, mode=mode,
                                      target_coverage=0.9))
        assert res.reason in ("target", "stall"), mode
        assert res.solutions, mode
        assert all(satisfies(f, s) for s in res.solutions), mode
        keys = [assignment_key(s) for s in res.solutions]
        assert len(keys) == len(set(keys)), mode


def test_blocking_mode_enumerates_both_solutions():
    f = parse_formula(TAUT)
    res = sample(f, SamplerConfig(lam=3, seed=0, mode=Mode.ALT1))
    assert {s["x"].as_int() for s in res.solutions} == {0, 1}
    assert res.reason == "stall"
    assert res.coverage["coverage_star"] == pytest.approx(5 / 6)


def test_post_opt_returns_alpha_when_nothing_deviates():
    f = parse_formula(UNIQUE)
    engine = DiversitySmtEngine(f)
    universe = engine.universe
    state = CoverState(universe)
    m3 = Assignment({"m": BvVal(8, 3)})
    alpha = Candidate(m3, cover(f, universe, m3))
    got = post_opt(engine, state, [], random.Random(0), alpha)
    assert got is alpha


def test_post_opt_keeps_alpha_on_ties():
    f = parse_formula(TAUT)
    engine = DiversitySmtEngine(f)
    universe = engine.universe
    state = CoverState(universe)
    # Either value of x newly covers all three entries; a tie must not
    # replace the incumbent.
    x = Assignment({"x": BoolVal(True)})
    alpha = Candidate(x, cover(f, universe, x))
    got = post_opt(engine, state, [], random.Random(1), alpha)
    assert got is alpha


def test_post_opt_never_scores_below_alpha():
    f = parse_formula(
        "(declare-const x (_ BitVec 3))(declare-const y (_ BitVec 3))"
        "(assert (bvule x y))")
    universe = build_universe(f)
    for seed in range(6):
        engine = DiversitySmtEngine(f)
        rng = random.Random(seed)
        state = CoverState(universe)
        sols = []
        for _ in range(2):
            got = engine.solve_once(sols, rng.randrange(1 << 32))
            state.absorb(got.slots)
            sols.append(got.assignment)
        alpha = engine.solve_once(sols, rng.randrange(1 << 32))
        refined = post_opt(engine, state, sols, rng, alpha)
        assert refined.slots == cover(f, universe, refined.assignment)
        assert state.gain(refined.slots) >= state.gain(alpha.slots)
        assert satisfies(f, refined.assignment)


def test_no_refinement_mode_is_a_plain_greedy_loop():
    # With a batch of one, refinement off, and an unbiased coin the loop
    # degenerates to solve, absorb on gain, stop at the first dud.
    src = FREE3
    for seed in (0, 1, 7):
        cfg = SamplerConfig(lam=1, seed=seed, bias_p=0.5, mode=Mode.ALT3,
                            target_coverage=0.9)
        res = sample(parse_formula(src), cfg)

        f = parse_formula(src)
        universe = build_universe(f)
        state = CoverState(universe)
        engine = DiversitySmtEngine(f, cfg)
        master = random.Random(seed)
        sols = []
        while True:
            if state.coverage_star() >= cfg.target_coverage:
                break
            cand = engine.solve_once(sols, master.randrange(1 << 32))
            if state.gain(cand.slots) == 0:
                break  # a single zero-gain candidate is the stall bound
            sols.append(cand.assignment)
            state.absorb(cand.slots)
        assert list(map(assignment_key, res.solutions)) == \
            list(map(assignment_key, sols))


# x * y = 41473279, a prime: UNSAT, and one solve takes seconds to show it.
PRIME26 = ("(declare-const x (_ BitVec 26))(declare-const y (_ BitVec 26))"
           "(assert (= (bvmul x y) (_ bv41473279 26)))"
           "(assert (bvult (_ bv1 26) x))(assert (bvult x (_ bv8192 26)))"
           "(assert (bvult (_ bv1 26) y))(assert (bvult y (_ bv8192 26)))")


def test_the_time_budget_holds_inside_one_solve():
    f = parse_formula(PRIME26)
    start = time.perf_counter()
    got = sample(f, SamplerConfig(time_budget=0.5))
    assert time.perf_counter() - start < 2.0
    assert got.reason == "timeout" and not got.solutions


def test_a_proof_past_the_deadline_counts_as_not_proved(monkeypatch):
    # x * x has bit 1 at 0 always; showing it takes a conflict, and the
    # clock is now read at every conflict.
    f = parse_formula("(declare-const x (_ BitVec 4))"
                      "(assert (bvule (bvmul x x) (bvmul x x)))")
    monkeypatch.setattr(sat, "_DEADLINE_CONFLICTS", 1)
    slots = range(2 * build_universe(f).num_entries)
    in_time = [Unreachable(DiversitySmtEngine(f))._proves(s) for s in slots]
    late = [Unreachable(DiversitySmtEngine(f, deadline=0.0))._proves(s)
            for s in slots]
    assert any(a and not b for a, b in zip(in_time, late))
    assert not any(b and not a for a, b in zip(in_time, late))


def test_no_new_base_is_blasted_past_the_deadline(monkeypatch):
    f = parse_formula(FREE3)
    blasts = []
    monkeypatch.setattr(sampler, "bit_blast",
                        lambda *args: blasts.append(1) or bit_blast(*args))
    engine = DiversitySmtEngine(f, deadline=time.perf_counter() - 1)
    with pytest.raises(sat.DeadlinePassed):
        engine.blast()
    assert blasts == []
    engine.deadline = time.perf_counter() + 3600
    base, _ = engine.blast()
    engine.deadline = time.perf_counter() - 1
    assert engine.blast()[0] is base and blasts == [1]  # no new base


def test_a_blast_that_ends_past_the_deadline_is_never_solved(monkeypatch):
    # The time budget runs out while the first base is blasted: the run
    # ends on timeout without building a solver over it.
    f = parse_formula(FREE3)
    solvers = []
    init = sat.CdclSolver.__init__

    def slow_blast(*args):
        time.sleep(0.3)
        return bit_blast(*args)

    def counted(self, *args):
        solvers.append(1)
        init(self, *args)

    monkeypatch.setattr(sampler, "bit_blast", slow_blast)
    monkeypatch.setattr(sat.CdclSolver, "__init__", counted)
    got = sample(f, SamplerConfig(time_budget=0.1))
    assert got.reason == "timeout" and not got.solutions
    assert solvers == []


def test_refinement_stops_once_the_time_budget_is_spent(monkeypatch):
    f = parse_formula(
        "(declare-const x (_ BitVec 4))(declare-const y (_ BitVec 4))"
        "(declare-const p Bool)(assert (or p (bvult x y)))")
    cfg = SamplerConfig(lam=1, seed=1)
    real = DiversitySmtEngine.solve_once
    real_batch = DiversitySmtEngine.solve_batch
    deviations = []

    def solve_once(self, prior, seed, deviation=None):
        deviations.extend([deviation] if deviation else [])
        return real(self, prior, seed, deviation)

    def solve_batch(self, prior, seeds, batch_deviations=None):
        # Refinement solves its deviations here, as one batch.
        deviations.extend(batch_deviations or [])
        got = real_batch(self, prior, seeds, batch_deviations)
        cfg.time_budget = 0.0  # spent once the first candidate is drawn
        return got

    monkeypatch.setattr(DiversitySmtEngine, "solve_once", solve_once)
    monkeypatch.setattr(DiversitySmtEngine, "solve_batch", solve_batch)
    res = sample(f, cfg)
    assert res.reason == "timeout" and len(res.solutions) == 1
    assert len(deviations) <= 1


def test_a_theory_consistent_non_solution_trips_the_solve_guard(monkeypatch):
    f = parse_formula("(declare-const x Bool)(assert x)")
    monkeypatch.setattr(sampler, "theory_check", lambda f, abs_, a: Consistent(
        Assignment({"x": BoolVal(False)})))
    with pytest.raises(AssertionError,
                       match="theory-consistent candidate fails the formula"):
        DiversitySmtEngine(f).solve_once([], seed=0)


def test_the_absorb_guard_checks_each_solution_afresh(monkeypatch):
    # The solve guard reads the solution's one evaluation; the absorb
    # guard evaluates again and is the one this satisfies rejects.
    real = sampler.satisfies

    def satisfies_except_in_sample(f, a):
        return sys._getframe(1).f_code.co_name != "sample" and real(f, a)

    monkeypatch.setattr(sampler, "satisfies", satisfies_except_in_sample)
    with pytest.raises(AssertionError, match="emitting a non-solution"):
        sample(parse_formula(FREE3), SamplerConfig(lam=2, seed=1))


def test_each_returned_solution_is_evaluated_once(monkeypatch):
    # Lemma rounds evaluate terms for the theory check and the projection;
    # only the returned solutions, and the absorbed ones again, have the
    # whole formula evaluated: a fill over the universe's order.
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 4) (_ BitVec 4)))"
        "(declare-const i (_ BitVec 4))(declare-const j (_ BitVec 4))"
        "(assert (= (select (store a i #x5) j) #x7))")
    counts = {"returned": 0, "conflicts": 0}
    orders = []
    real_fill = Evaluator.fill
    real_solve = DiversitySmtEngine.solve_once
    real_batch = DiversitySmtEngine.solve_batch
    real_check = sampler.theory_check

    def fill(self, order):
        orders.append(order)
        return real_fill(self, order)

    def solve_once(self, prior, seed, deviation=None):
        got = real_solve(self, prior, seed, deviation)
        counts["returned"] += got is not None
        return got

    def solve_batch(self, prior, seeds, deviations=None):
        got = real_batch(self, prior, seeds, deviations)
        counts["returned"] += sum(c is not None for c in got)
        return got

    def theory_check(f, abs_, a):
        got = real_check(f, abs_, a)
        counts["conflicts"] += isinstance(got, Conflict)
        return got

    monkeypatch.setattr(Evaluator, "fill", fill)
    monkeypatch.setattr(DiversitySmtEngine, "solve_once", solve_once)
    monkeypatch.setattr(DiversitySmtEngine, "solve_batch", solve_batch)
    monkeypatch.setattr(sampler, "theory_check", theory_check)
    res = sample(f, SamplerConfig(lam=4, seed=1))
    assert counts["conflicts"] > 0 and len(res.solutions) > 1
    whole = sum(tuple(order) == res.universe.order for order in orders)
    assert whole == counts["returned"] + len(res.solutions)


# Squaring is hard on the cursor's index order: some solves meet conflicts.
SQUARE8 = ("(declare-const x (_ BitVec 8))(declare-const y (_ BitVec 8))"
           "(assert (= (bvmul x x) (bvadd y #x11)))")


def test_a_solve_over_its_conflict_budget_ends_the_run(monkeypatch):
    f = parse_formula(SQUARE8)
    cfg = SamplerConfig(lam=4, seed=0)
    full = sample(f, cfg)
    assert full.reason == "stall"
    # Every candidate and deviation solve now gives up at its first
    # conflict; the unreachability proofs keep their own budget.
    monkeypatch.setattr(sampler, "SolverConfig", functools.partial(
        SolverConfig, conflict_budget=0))
    got = sample(f, cfg)
    assert got.reason == "conflict_budget" and not got.achieved
    # The run kept what it had absorbed: the full run's first solutions.
    assert 0 < len(got.solutions) < len(full.solutions)
    assert [assignment_key(s) for s in got.solutions] == \
        [assignment_key(s) for s in full.solutions[:len(got.solutions)]]
    assert got.coverage_star_trace == \
        full.coverage_star_trace[:len(got.solutions)]


LOGICS = ("QF_BV", "QF_ABV", "QF_AUFBV")


def _without_proofs(monkeypatch):
    monkeypatch.setattr(Unreachable, "_proves", lambda self, slot: False)


# (bvand i #b10) occurs only inside a select, so the base CNF has no gate
# for it; i < 2 keeps both of its bits at 0.
INSIDE_AN_ATOM = (
    "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
    "(declare-const i (_ BitVec 2))(assert (bvult i #b10))"
    "(assert (= (select a (bvand i #b10)) #b01))")


def test_proved_slots_are_unreachable_by_the_oracle():
    # Every slot, not only those a run gets to, is put to the proof.
    fixtures = proved = 0
    unblasted = []  # (seed, slot) proved on a node the base has no gate for
    formulas = [(logic, seed, random_formula(seed, logic=logic))
                for logic in LOGICS for seed in range(40)]
    formulas.append(("QF_ABV", None, parse_formula(INSIDE_AN_ATOM)))
    for logic, seed, f in formulas:
        try:
            rep = enumerate_solutions(f)
        except OracleError:
            continue
        if not rep.solutions:
            continue
        fixtures += 1
        res = sample(f, SamplerConfig(lam=4, seed=seed or 0))
        assert res.unreachable & rep.valid_mask == 0, (logic, seed)
        engine = DiversitySmtEngine(f)
        prior = []
        for k in range(3):  # lemmas join the base CNF
            prior.append(engine.solve_once(prior, seed=k).assignment)
        audit = Unreachable(engine)
        gated = set(engine.blast()[1].terms)  # before a proof adds any
        for slot in range(rep.universe.num_ast_bits):
            if audit._proves(slot):
                assert not rep.valid_mask >> slot & 1, (logic, seed, slot)
                proved += 1
                tid = rep.universe.entries[slot // 2][0]
                if engine.abs.rewrite(tid) not in gated:
                    unblasted.append((seed, slot))
    assert fixtures >= 60 and proved >= 100
    # Both bits of (bvand i #b10) at 1, and no more.
    inside = [slot for seed, slot in unblasted if seed is None]
    assert len(inside) == 2 and all(slot % 2 for slot in inside)


def test_a_stall_audit_of_a_bv_formula_builds_no_blaster(monkeypatch):
    # Bits 2 and 3 of x are 0 in every solution: their slots at 1 are
    # proved, each as one unit clause on the base, with no blast at all.
    f = parse_formula("(declare-const x (_ BitVec 4))"
                      "(declare-const y (_ BitVec 4))"
                      "(assert (bvult (bvand x y) #x4))(assert (bvult x #x4))")
    got = sample(f, SamplerConfig(lam=4, seed=1))
    assert got.reason == "stall" and got.unreachable
    engine = DiversitySmtEngine(f)
    engine.solve_once([], seed=0)
    base = engine.blast()[0]
    built = []
    init = bitblast.Blaster.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(bitblast.Blaster, "__init__", counted)
    audit = Unreachable(engine)
    assert audit.proves_rest(got.covered, lambda: False)
    assert audit.proved == got.unreachable
    assert built == [] and engine.blast()[0] is base


def test_a_node_with_no_gate_reblasts_the_base_once(monkeypatch):
    f = parse_formula(INSIDE_AN_ATOM)
    engine = DiversitySmtEngine(f)
    engine.solve_once([], seed=0)
    old, old_map = engine.blast()
    blasts = []
    monkeypatch.setattr(sampler, "bit_blast", lambda *args: blasts.append(
        args) or bit_blast(*args))
    universe = engine.universe
    k = next(k for k, (tid, _) in enumerate(universe.entries)
             if f.table[tid].op is Op.BVAND)
    tid = universe.entries[k][0]
    image = engine.abs.rewrite(tid)
    assert image not in old_map.terms
    audit = Unreachable(engine)
    proved, bases = [], []
    for slot in range(2 * k, 2 * k + 4):  # both bits, at 0 and at 1
        proved.append(audit._proves(slot))
        bases.append(engine.blast()[0])
    # Both bits are 0 in every solution: only the slots at 1 are proved.
    assert proved == [False, True, False, True]
    assert len(blasts) == 1 and blasts[0][3] == [image]
    new, new_map = engine.blast()
    assert all(b is new for b in bases) and new is not old
    # i & #b10 needs no gate: its bits are FALSE and i's bit 1.
    assert (new.num_vars, new.clauses) == (old.num_vars, old.clauses)
    assert new_map.terms[image][1] == new_map.bits["i"][1]


def test_proofs_change_no_sample_and_no_reason(monkeypatch):
    runs = 0
    fewer = 0
    for logic in LOGICS:
        for seed in range(70):
            f = random_formula(seed, logic=logic, max_width=6, max_depth=4,
                               bit_budget=16)
            cfg = SamplerConfig(lam=8, seed=seed, mode=list(Mode)[seed % 4])
            try:
                got = sample(f, cfg)
            except FormulaUnsatError:
                continue
            with monkeypatch.context() as m:
                _without_proofs(m)
                old = sample(f, cfg)
            runs += 1
            assert print_models(f, got.solutions) == \
                print_models(f, old.solutions), (logic, seed)
            assert got.reason == old.reason, (logic, seed)
            assert got.iterations <= old.iterations, (logic, seed)
            fewer += got.iterations < old.iterations
    assert runs >= 100 and fewer >= runs // 2


@pytest.mark.parametrize("src,mode,budget", [
    # p = false and x = #xa5 can be covered, but no biased draw finds
    # them and alt3 does not refine.
    ("(declare-const x (_ BitVec 8))(declare-const p Bool)"
     "(assert (or p (= x #xa5)))", Mode.ALT3, None),
    # x * x has bit 1 at 0 always; showing it takes a conflict.
    ("(declare-const x (_ BitVec 4))"
     "(assert (bvule (bvmul x x) (bvmul x x)))", Mode.PANSAMPLER, 0),
])
def test_an_unproved_slot_still_waits_out_the_stall(monkeypatch, src, mode,
                                                     budget):
    f = parse_formula(src)
    cfg = SamplerConfig(lam=4, seed=1, mode=mode)
    if budget is not None:
        assert sample(f, cfg).iterations < cfg.lam + 3
        monkeypatch.setattr(sampler, "PROOF_CONFLICTS", budget)
    got = sample(f, cfg)
    _without_proofs(monkeypatch)
    old = sample(f, cfg)
    assert got.reason == old.reason == "stall"
    assert got.iterations == old.iterations >= cfg.lam + len(got.solutions)
    uncovered = ~got.covered & ((1 << build_universe(f).num_ast_bits) - 1)
    assert uncovered & ~got.unreachable


PINNED = {
    "bvult4": "(declare-const x (_ BitVec 4))(declare-const y (_ BitVec 4))"
              "(assert (bvult x y))",
    "mul6": "(declare-const a (_ BitVec 6))(declare-const b (_ BitVec 6))"
            "(assert (= (bvmul a b) #b001100))",
    "array2": "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
              "(declare-const i (_ BitVec 2))(assert (= (select a i) #b01))",
    # Six lemma rounds in every mode, some on candidates that violate
    # more than one axiom: the digests pin which lemma a check reports.
    "aufbv2": "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
              "(declare-fun g ((_ BitVec 2)) (_ BitVec 2))"
              "(declare-const i (_ BitVec 2))(declare-const j (_ BitVec 2))"
              "(declare-const k (_ BitVec 2))"
              "(assert (= (select a i) (g j)))"
              "(assert (bvult (g k) (select a j)))"
              "(assert (= (g (select a i)) (select a (g j))))",
}

# sha256 of print_models output at lam=4, seed=3. A change to the solver,
# the blaster or the loop that alters any drawn sample changes these.
PINNED_DIGESTS = {
    ("bvult4", "pansampler"): "e6f9929e29ee895940e67ce7bf9bb12c89f8504872a3d8452bcbf7a182477173",
    ("bvult4", "alt1"): "0e3fd8d0c27e69a7e073e5c8c94d620900a5a97f9580bd2b5ff445776ca4379d",
    ("bvult4", "alt2"): "e6f9929e29ee895940e67ce7bf9bb12c89f8504872a3d8452bcbf7a182477173",
    ("bvult4", "alt3"): "5c1806676ff665fc99a486607c84a1a3f17833c3564f58326270957969cd247a",
    ("mul6", "pansampler"): "e53b1a79af1c3ef1f760e3a03adcddf9d6c7c940a258c9481ccf9c3731f7746c",
    ("mul6", "alt1"): "ae80215fba32eb90f44b87121a1cf30ca8beecb7b16984caf053e18e07c71799",
    ("mul6", "alt2"): "e53b1a79af1c3ef1f760e3a03adcddf9d6c7c940a258c9481ccf9c3731f7746c",
    ("mul6", "alt3"): "aca0e4cfa40752fb04f30ad855fb61f46f17d286b7f76e985a0d61b563a903af",
    ("array2", "pansampler"): "ecb7d0631fdf07aad616921d971694f43269d238984050db76075a92defb0f5c",
    ("array2", "alt1"): "ecb7d0631fdf07aad616921d971694f43269d238984050db76075a92defb0f5c",
    ("array2", "alt2"): "ecb7d0631fdf07aad616921d971694f43269d238984050db76075a92defb0f5c",
    ("array2", "alt3"): "ecb7d0631fdf07aad616921d971694f43269d238984050db76075a92defb0f5c",
    ("aufbv2", "pansampler"): "2ce8cac18198a08a19defebe5661e6295177b2f451a3f5e69c087ca561b5055a",
    ("aufbv2", "alt1"): "c21a0bb27324158400f04a586e4ce92145121fe9c60e12d9fa0b3da953f9b374",
    ("aufbv2", "alt2"): "2e5f352bef138b82ad85d5021ed6eafb040e30927e01a51d2726fa714ae5467c",
    ("aufbv2", "alt3"): "376ae52ca9237c6c23f852840d60e7521dc2203b2c3c6ef005e039e25c3bb4b4",
}


@pytest.mark.parametrize("name,mode", sorted(PINNED_DIGESTS))
def test_sampler_output_is_pinned(name, mode):
    f = parse_formula(PINNED[name])
    res = sample(f, SamplerConfig(lam=4, seed=3, mode=mode))
    out = print_models(f, res.solutions).encode()
    assert hashlib.sha256(out).hexdigest() == PINNED_DIGESTS[(name, mode)]


# The shape of perfbench's ablation fixtures: a 224-bit free vector or'd
# with a Bool circuit. Its runs repeat refinement deviations and, in
# alt1, block each solution with a clause over all 230 tracked bits.
ABLATION_SHAPE = (
    "(declare-const x (_ BitVec 224))"
    "(declare-const b1 Bool)(declare-const b2 Bool)(declare-const b3 Bool)"
    "(declare-const b4 Bool)(declare-const b5 Bool)(declare-const b6 Bool)"
    "(assert (or (distinct (distinct (and b1 b2) (and b3 b4)) (and b5 b6))"
    " (bvule x x)))")

# sha256 of print_models output at lam=3, seed=1.
ABLATION_SHAPE_DIGESTS = {
    "pansampler": "28a618d574aa1c134fca78ab51e38dc8efd892f570ab37e8fe972b491722fb6e",
    "alt1": "36418d22b972da7db15256070471e5f90d62018545b9d66459de73b7e1b60c2e",
    "alt2": "1d432b8e30533b97ecca292d655038bc511e9aa5d1c1a47dc2391aeb32bea024",
    "alt3": "93f6393c57769c58eb13f26f72312f195a43dba621dc2ba004a02f881a3ae2a9",
}


@pytest.mark.parametrize("mode", sorted(ABLATION_SHAPE_DIGESTS))
def test_wide_vector_output_is_pinned(mode):
    f = parse_formula(ABLATION_SHAPE)
    res = sample(f, SamplerConfig(lam=3, seed=1, mode=mode))
    out = print_models(f, res.solutions).encode()
    assert hashlib.sha256(out).hexdigest() == ABLATION_SHAPE_DIGESTS[mode]


# Congruence lemmas: with these seeds the third candidate of a first
# batch of eight meets one, so the five after it form a second batch.
UF_CONGRUENCE = (
    "(declare-fun f ((_ BitVec 8)) (_ BitVec 8))"
    "(declare-const x (_ BitVec 8))(declare-const y (_ BitVec 8))"
    "(declare-const z (_ BitVec 8))"
    "(assert (= (f x) (bvadd (f y) #x01)))"
    "(assert (or (= x (bvand y z)) (= (f (bvadd x z)) (f y))))"
    "(assert (bvult x y))")


@pytest.mark.parametrize("text, mode, history, seeds, batches", [
    (SQUARE8, Mode.PANSAMPLER, 3, 12, [12]),
    (SQUARE8, Mode.ALT1, 3, 12, [12]),
    (UF_CONGRUENCE, Mode.PANSAMPLER, 0, 8, [8, 6]),
    (UNIQUE, Mode.ALT1, 1, 6, [6]),  # blocked out: the first lane is UNSAT
    # The lemma's fresh atoms leave the solve that met it under the old
    # projections, so its next round is a batch of its own.
    (EXTENSIONAL, Mode.PANSAMPLER, 1, 6, [6, 1, 5, 3, 3]),
], ids=["pansampler", "alt1", "lemma-mid-batch", "alt1-blocked-out",
        "lemma-new-atoms"])
def test_a_batch_answers_as_the_solo_solves_in_turn(monkeypatch, text, mode,
                                                    history, seeds, batches):
    # Two fresh engines with the same history: solve_batch on one gives,
    # lane by lane, what solve_once (a one-lane batch) gives on the other,
    # seed after seed, up to the first None; the lemmas arrive in the same
    # order. After a lemma the solve that met it leads the next batch,
    # ahead of the solves after it.
    f = parse_formula(text)
    rng = random.Random(0)
    seeds = [rng.randrange(1 << 32) for _ in range(seeds)]

    def after_history():
        engine = DiversitySmtEngine(f, SamplerConfig(mode=mode))
        prior = []
        for s in range(history):
            prior.append(engine.solve_once(prior, 100 + s).assignment)
        return engine, prior

    sizes = []
    real = sampler.Batch
    monkeypatch.setattr(sampler, "Batch", lambda cnf, dist, cfgs: (
        sizes.append(len(cfgs)) or real(cnf, dist, cfgs)))
    batched, prior = after_history()
    sizes.clear()
    got = batched.solve_batch(prior, seeds)
    batched_sizes = sizes.copy()
    solo, prior = after_history()
    want = []
    for seed in seeds:
        want.append(solo.solve_once(prior, seed))
        if want[-1] is None:
            break

    def key(c):
        return c and (assignment_key(c.assignment), c.slots)

    assert [key(c) for c in got] == [key(c) for c in want]
    assert list(batched.lemmas) == list(solo.lemmas)
    assert batched.lemma_rounds == solo.lemma_rounds
    assert batched_sizes == batches


# m is fixed by the formula, so its deviation has no solution; p's has.
ONE_FIXED = ("(declare-const m (_ BitVec 4))(declare-const p Bool)"
             "(assert (= m #x3))")


@pytest.mark.parametrize("text, mode, history, seed, batches, nones", [
    (ABLATION_SHAPE, Mode.PANSAMPLER, 3, 0, [7], 0),
    (ABLATION_SHAPE, Mode.ALT1, 3, 0, [7], 0),
    (UF_CONGRUENCE, Mode.PANSAMPLER, 2, 35, [3, 2], 0),
    (ONE_FIXED, Mode.PANSAMPLER, 1, 0, [2], 1),
], ids=["pansampler", "alt1", "lemma-mid-refinement", "no-deviant"])
def test_a_batched_refinement_answers_as_the_solo_deviation_solves(
        monkeypatch, text, mode, history, seed, batches, nones):
    # Two fresh engines with the same history and alpha. On one, post_opt
    # solves every deviation in one batch; on the other each deviation is
    # one solve_once in turn, its seed drawn as post_opt draws it. The
    # answers, the lemmas, the refined candidate and the rng agree; a
    # lemma met in a lane makes that lane's next round and the lanes after
    # it a second batch, and a deviation with no solution answers None
    # without ending the rest.
    f = parse_formula(text)

    def after_history():
        engine = DiversitySmtEngine(f, SamplerConfig(mode=mode))
        prior = []
        for s in range(history):
            prior.append(engine.solve_once(prior, 100 + s).assignment)
        state = CoverState(engine.universe)
        for a in prior:
            state.absorb(cover(f, engine.universe, a))
        return engine, prior, state, engine.solve_once(prior, 200 + seed)

    def key(c):
        return c and (assignment_key(c.assignment), c.slots)

    sizes, answers = [], []
    real, real_batch = sampler.Batch, DiversitySmtEngine.solve_batch

    def solve_batch(self, *args):
        got = real_batch(self, *args)
        answers.extend(got)
        return got

    batched, prior, state, alpha = after_history()
    # Only post_opt's batches count: solve_once is a one-lane batch too.
    monkeypatch.setattr(sampler, "Batch", lambda cnfs, dist, cfgs: (
        sizes.append(len(cfgs)) or real(cnfs, dist, cfgs)))
    monkeypatch.setattr(DiversitySmtEngine, "solve_batch", solve_batch)
    batched_seeds = random.Random(seed)
    got = post_opt(batched, state, prior, batched_seeds, alpha)
    monkeypatch.undo()
    kept = got is alpha
    solo, prior, state, alpha = after_history()
    solo_seeds = random.Random(seed)
    want = [solo.solve_once(prior, solo_seeds.randrange(1 << 32),
                            (name, alpha.assignment[name].as_int()))
            for name, _ in f.bv_bool_vars()]
    best = alpha
    for res in want:
        if res is not None and state.gain(res.slots) > state.gain(best.slots):
            best = res
    assert [key(c) for c in answers] == [key(c) for c in want]
    assert key(got) == key(best) and kept == (best is alpha)
    assert list(batched.lemmas) == list(solo.lemmas)
    assert batched.lemma_rounds == solo.lemma_rounds
    assert batched_seeds.getstate() == solo_seeds.getstate()
    assert sizes == batches and want.count(None) == nones


def test_one_alt1_batch_attaches_the_blocking_clauses_once(monkeypatch):
    # One iteration's candidates in alt1 attach the blocking clauses of
    # the prior solutions once, for the whole batch; solved one by one,
    # each a one-lane batch, they attach them once per solve. Refinement's
    # deviations, each joined with the same blocking clauses, attach them
    # once as well, beside one deviation clause per variable for its own
    # lane.
    f = parse_formula("(declare-const x (_ BitVec 6))"
                      "(declare-const y (_ BitVec 6))(assert (bvult x y))")
    engine = DiversitySmtEngine(f, SamplerConfig(mode=Mode.ALT1))
    prior = []
    for s in range(4):
        prior.append(engine.solve_once(prior, s).assignment)
    batched = []
    batch_attach = sat.Batch._attach

    def counted_batch(self, longs, own):
        batched.append(own)
        batch_attach(self, longs, own)

    monkeypatch.setattr(sat.Batch, "_attach", counted_batch)
    got = engine.solve_batch(prior, list(range(20)))
    assert len(got) == 20 and None not in got
    assert [len(own) for own in batched] == [4]
    for seed in range(20):
        engine.solve_once(prior, seed)
    assert [len(own) for own in batched] == [4] * 21
    # Refinement: one batch of two lanes, x's deviation and y's.
    del batched[:]
    state = CoverState(engine.universe)
    post_opt(engine, state, prior, random.Random(0), got[0])
    own, = batched
    blocks = [lanes for clause, lanes in own if len(clause) == 12]
    deviations = [lanes for clause, lanes in own if len(clause) == 6]
    assert blocks == [0b11] * 4 and sorted(deviations) == [0b01, 0b10]
    for name in ("x", "y"):
        engine.solve_once(prior, 0, (name, got[0].assignment[name].as_int()))
    assert [len(own) for own in batched] == [6, 5, 5]


def test_a_slot_false_at_level_0_is_proved_without_a_solver(monkeypatch):
    # x's bit 0 is 1 and bit 1 is 0 by the base's units alone, and bits 2
    # and 3 of (bvand x #x3) are 0: each such slot's literal is false in
    # the live level-0 values. A slot that needs a solve still gets one,
    # a one-lane batch.
    f = parse_formula("(declare-const x (_ BitVec 4))"
                      "(assert (= (bvand x #x3) #x1))")
    engine = DiversitySmtEngine(f)
    engine.solve_once([], 0)
    base, bmap = engine.blast()
    live = sat.live_state(base)
    universe = engine.universe

    def literal(slot):
        k, v = divmod(slot, 2)
        tid, bit = universe.entries[k]
        lit = bmap.terms[engine.abs.rewrite(tid)]
        lit = lit[bit] if isinstance(lit, list) else lit
        return lit if v else -lit

    slots = range(2 * universe.num_entries)
    at_level_0 = [s for s in slots if live.value[literal(s)] == -1]
    assert len(at_level_0) >= 4
    solvers = []
    for kind in (sat.Batch, sat.CdclSolver):
        def counted(self, *args, init=kind.__init__, kind=kind):
            solvers.append(kind.__name__)
            init(self, *args)

        monkeypatch.setattr(kind, "__init__", counted)
    unreachable = Unreachable(engine)
    assert all(unreachable._proves(s) for s in at_level_0)
    assert solvers == []
    other = next(s for s in slots if live.value[literal(s)] != -1)
    assert not unreachable._proves(other) and solvers == ["Batch"]
    # A solve agrees: each level-0 slot's unit clause makes the base UNSAT.
    for s in at_level_0:
        assert sat.solve(Cnf(base.num_vars, [(literal(s),)], base=base)) \
            is None
