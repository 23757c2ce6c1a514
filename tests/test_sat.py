"""CDCL solver, phase bias, and solution-set distributions."""

import dataclasses
import hashlib
import itertools
import random
import time
import types
from typing import Sequence

import pytest

from pansampler import sat
from pansampler.bitblast import BlastMap, Cnf, bit_blast
from pansampler.parser import parse_formula
from pansampler.sat import (BitDistribution, CdclSolver, ConflictBudgetExceeded,
                            DeadlinePassed, SolverConfig, _cleaned, _Kept,
                            distribution_from, joined, solve)
from pansampler.values import Assignment, BoolVal, BvVal

from helpers import clauses_held, dpll, parse_dimacs, random_cnf


def pigeonhole(pigeons: int, holes: int) -> Cnf:
    def var(i, j):
        return i * holes + j + 1

    clauses = [tuple(var(i, j) for j in range(holes)) for i in range(pigeons)]
    for j in range(holes):
        for i1, i2 in itertools.combinations(range(pigeons), 2):
            clauses.append((-var(i1, j), -var(i2, j)))
    return Cnf(pigeons * holes, clauses)


def test_empty_cnf_is_satisfiable():
    assert solve(Cnf(0, [])) == [False]


def test_units_force_the_model():
    model = solve(Cnf(2, [(1,), (-2,)]))
    assert model == [False, True, False]


def test_contradictory_units_are_unsat():
    assert solve(Cnf(1, [(1,), (-1,)])) is None


def test_empty_clause_is_unsat():
    assert solve(Cnf(1, [()])) is None


def test_pigeonhole_is_unsat():
    assert solve(pigeonhole(4, 3)) is None


def test_pigeonhole_with_enough_holes_is_sat():
    model = solve(pigeonhole(3, 3))
    assert model is not None


def test_conflict_budget_raises_instead_of_answering():
    with pytest.raises(ConflictBudgetExceeded):
        solve(pigeonhole(6, 5), cfg=SolverConfig(conflict_budget=1))


class _Clock:
    """A perf_counter that reads 0 on its first call and 1 after it."""

    def __init__(self) -> None:
        self.calls = 0

    def perf_counter(self) -> float:
        self.calls += 1
        return float(self.calls > 1)


def test_a_passed_deadline_raises_instead_of_answering(monkeypatch):
    # The deadline passes once the replay after the batch's conflict has
    # begun; the clock is read again only every 256 conflicts, so a short
    # search still answers.
    clock = types.SimpleNamespace(now=0.0)
    clock.perf_counter = lambda: clock.now
    init = CdclSolver.__init__

    def started(self, *args):
        init(self, *args)
        clock.now = 1.0

    big, small = pigeonhole(7, 6), pigeonhole(4, 3)
    for cnf in (big, small):
        sat.live_state(cnf)
    monkeypatch.setattr(CdclSolver, "__init__", started)
    monkeypatch.setattr(sat, "time", clock)
    with pytest.raises(DeadlinePassed):
        solve(big, cfg=SolverConfig(deadline=0.5))
    clock.now = 0.0
    assert solve(small, cfg=SolverConfig(deadline=0.5)) is None
    assert clock.now == 1.0  # it replayed


def test_a_solve_past_its_deadline_builds_no_live_state(monkeypatch):
    loads = []
    real = sat._load_live
    monkeypatch.setattr(sat, "_load_live",
                        lambda cnf: loads.append(1) or real(cnf))
    cnf = pigeonhole(4, 3)
    with pytest.raises(DeadlinePassed):
        solve(cnf, cfg=SolverConfig(deadline=time.perf_counter() - 1))
    assert loads == []
    assert solve(cnf, cfg=SolverConfig(deadline=time.perf_counter() + 3600)) \
        is None
    assert loads == [1]


def test_a_restart_at_every_conflict_still_proves_unsat(monkeypatch):
    monkeypatch.setattr("pansampler.sat._RESTART_BASE", 1)
    assert solve(pigeonhole(4, 3)) is None


def test_agrees_with_reference_solver():
    for seed in range(200):
        cnf = random_cnf(seed, max_vars=12, max_clauses=40)
        got = solve(cnf)
        want = dpll(cnf.num_vars, cnf.clauses)
        assert (got is None) == (want is None), f"seed {seed}"
        # solve() already re-checks its own model against every clause.


def test_same_seed_same_model():
    cnf = random_cnf(5, max_vars=20)
    cfg = SolverConfig(seed=123)
    assert solve(cnf, cfg=cfg) == solve(cnf, cfg=SolverConfig(seed=123))


def preferred_phase(dist: BitDistribution, var: int) -> bool | None:
    """The phase a decision on var takes at bias 1: the minority value,
    or None (a fair coin) on a tie or an untracked variable."""
    below, lits = dist.phases(var, 1.0)
    return None if below[var] == 0.5 else lits[var] > 0


def test_distribution_empty_solution_set():
    dist = distribution_from([], BlastMap())
    assert dist.counts == {}
    assert preferred_phase(dist, 1) is None


def test_distribution_counts_and_minority_phase():
    bmap = BlastMap({"x": [1]})
    sols = [Assignment({"x": BoolVal(False)}), Assignment({"x": BoolVal(False)})]
    dist = distribution_from(sols, bmap)
    assert dist.counts == {1: (2, 0)}
    # Ones are the minority, so the preferred phase is True.
    assert preferred_phase(dist, 1) is True
    assert preferred_phase(dist, 99) is None


def test_distribution_recounts_bv_bits():
    bmap = BlastMap({"m": [1, 2, 3]})
    values = [0b000, 0b001, 0b011, 0b111, 0b001]
    sols = [Assignment({"m": BvVal(3, v)}) for v in values]
    dist = distribution_from(sols, bmap)
    assert dist.counts == {1: (1, 4), 2: (3, 2), 3: (4, 1)}
    assert preferred_phase(dist, 1) is False
    assert preferred_phase(dist, 2) is True


def test_distribution_tie_has_no_preference():
    bmap = BlastMap({"x": [1]})
    sols = [Assignment({"x": BoolVal(False)}), Assignment({"x": BoolVal(True)})]
    assert preferred_phase(distribution_from(sols, bmap), 1) is None


def test_the_phase_table_follows_the_counts_and_the_bias():
    dist = BitDistribution({1: (2, 0), 2: (0, 3), 3: (1, 1), 9: (5, 0)})
    below, lits = dist.phases(4, 0.85)
    # x1 (minority 1) and x2 (minority 0) take it with chance 0.85; the
    # tie x3 and the untracked x4 take True with chance 1/2.
    assert below[1:5] == [0.85, 0.85, 0.5, 0.5]
    assert lits[1:5] == [1, -2, 3, 4]
    # Made once per bias and largest n: a smaller n reads the same table.
    assert dist.phases(3, 0.85) == (below, lits)
    assert dist.phases(3, 0.85)[0] is below
    wider, _ = dist.phases(9, 0.85)
    assert wider is not below and wider[9] == 0.85
    assert dist.phases(4, 0.6)[0][1:3] == [0.6, 0.6]


def test_distribution_skips_unmapped_names():
    bmap = BlastMap({"x": [1]})
    sols = [Assignment({"x": BoolVal(True), "z": BoolVal(True)})]
    assert distribution_from(sols, bmap).counts == {1: (0, 1)}


def test_full_bias_forces_the_minority_phase():
    # Free variables, a distribution built from one all-zero solution,
    # and bias 1: the model must come out all ones.
    f = parse_formula("(declare-const x (_ BitVec 4))(assert (bvule x x))")
    cnf, bmap = bit_blast(f.table, f.decls, f.assertions)
    dist = distribution_from([Assignment({"x": BvVal(4, 0)})], bmap)
    model = solve(cnf, dist, SolverConfig(seed=7, bias_p=1.0))
    assert model is not None
    bits = [model[var] for var in bmap.bits["x"]]
    assert bits == [True, True, True, True]


def test_bias_respects_clauses():
    # Same setup but one bit is pinned low; bias cannot override a clause.
    f = parse_formula(
        "(declare-const x (_ BitVec 4))"
        "(assert (= ((_ extract 0 0) x) #b0))")
    cnf, bmap = bit_blast(f.table, f.decls, f.assertions)
    dist = distribution_from([Assignment({"x": BvVal(4, 0)})], bmap)
    model = solve(cnf, dist, SolverConfig(seed=7, bias_p=1.0))
    assert model is not None
    assert model[bmap.bits["x"][0]] is False
    assert all(model[bmap.bits["x"][b]] for b in (1, 2, 3))


def test_literal_zero_is_rejected():
    with pytest.raises(ValueError, match="outside"):
        CdclSolver(Cnf(2, [(1, 0, 2)]))


def test_literals_beyond_num_vars_are_rejected():
    # The last clause is a tautology, which loading would otherwise drop.
    for clause in [(3,), (1, -3), (-2, 3, 2)]:
        with pytest.raises(ValueError, match="outside"):
            CdclSolver(Cnf(2, [(1, 2), clause]))


def test_dimacs_literals_beyond_the_header_are_rejected():
    cnf = parse_dimacs("p cnf 2 2\n1 2 0\n-1 5 0\n")
    with pytest.raises(ValueError, match="outside"):
        solve(cnf)


def test_literals_at_the_bounds_are_accepted():
    assert solve(Cnf(2, [(2, -2, 1), (-2,), (1, 2)])) == [False, True, False]


def _three_sat(seed: int, n: int = 40, m: int = 172) -> Cnf:
    rng = random.Random(seed)
    return Cnf(n, [tuple(rng.choice((-1, 1)) * v
                         for v in rng.sample(range(1, n + 1), 3))
                   for _ in range(m)])


def _edge_case_cnf(seed: int) -> Cnf:
    """Random 3-SAT near the threshold plus a unit, a clause with a
    duplicate literal, a tautology and, for every fifth seed, the empty
    clause."""
    rng = random.Random(seed)
    n = 24
    v = rng.randint(1, n)
    clauses = list(_three_sat(seed, n, 100).clauses) + [
        (rng.choice((-1, 1)) * rng.randint(1, n),),
        (v, -rng.randint(1, n), v), (-v, v)]
    if seed % 5 == 0:
        clauses.append(())
    rng.shuffle(clauses)
    return Cnf(n, clauses)


def test_snapshot_solver_matches_a_freshly_loaded_one(monkeypatch):
    unsat = sat = conflicts = 0
    for seed in range(80):
        rng = random.Random(seed)
        cnf = _edge_case_cnf(seed)
        n = cnf.num_vars
        for run in range(6):
            dist = BitDistribution({v: (rng.randrange(4), rng.randrange(4))
                                    for v in range(1, n + 1)
                                    if rng.random() < 0.7})
            cfg = SolverConfig(seed=rng.randrange(1 << 32),
                               bias_p=rng.uniform(0.5, 1.0))
            monkeypatch.setattr("pansampler.sat._RESTART_BASE",
                                rng.choice((1, 4, 64)))
            fresh = CdclSolver(Cnf(n, list(cnf.clauses)), dist, cfg)
            reused = CdclSolver(cnf, dist, cfg)
            got = reused.solve()
            assert got == fresh.solve(), (seed, run)
            assert reused.conflicts == fresh.conflicts, (seed, run)
            conflicts += reused.conflicts
            assert solve(cnf, dist, cfg) == got, (seed, run)
            sat += got is not None
            unsat += got is None
        # From the first build on, the Cnf keeps its record, with its
        # live state handed back.
        assert isinstance(cnf.solver_cache, _Kept)
        assert cnf.solver_cache.live is not None
    assert sat > 100 and unsat > 100 and conflicts > 1000


def test_each_cnf_is_prepared_once(monkeypatch):
    # A Cnf's clauses are checked and cleaned at its first solve; neither
    # the base's live load, nor a batch, nor a replay cleans them again.
    cleaned = []

    def spy(clauses):
        cleaned.append(clauses)
        return _cleaned(clauses)

    monkeypatch.setattr("pansampler.sat._cleaned", spy)
    # 25 and 26 are in no base clause, as the bits of a free vector are.
    base = Cnf(26, _three_sat(5, 24, 100).clauses)
    ext = Cnf(26, [(1, 25, 25), (-25, 26), (-26, 26), (2,)], base=base)
    replays = clean = 0
    for cnf in (base, ext):
        for seed in range(6):
            cfg = SolverConfig(seed=seed)
            solver = CdclSolver(cnf, cfg=cfg)
            assert solver.solve() is not None
            replays += solver.conflicts > 0
            clean += solver.conflicts == 0
            assert solve(cnf, cfg=cfg) is not None
    assert replays >= 2 and clean >= 2
    assert len(cleaned) == 2
    assert cleaned[0] is base.clauses and cleaned[1] is ext.clauses


def _solved_fresh(cnf: Cnf, dist=None, cfg=None):
    """Model and conflict count of a solver that loads all cnf's clauses
    flat, each of two or more literals watched by two: the reference for
    every lane of a Batch."""
    fresh = CdclSolver(Cnf(cnf.num_vars, list(cnf.all_clauses())), dist, cfg)
    return fresh.solve(), fresh.conflicts


def _solved(cnf: Cnf, dist=None, cfg=None):
    solver = CdclSolver(cnf, dist, cfg)
    return solver.solve(), solver.conflicts


def test_a_cnf_refuses_change():
    # A solver keeps state for a Cnf across solves, so its clauses and
    # variable count must stay as they were made.
    cnf = Cnf(2, [(1, 2)])
    assert cnf.clauses == ((1, 2),)
    for seed in range(3):
        assert _solved(cnf, cfg=SolverConfig(seed=seed)) == \
            _solved_fresh(cnf, cfg=SolverConfig(seed=seed))
    with pytest.raises(AttributeError):
        cnf.clauses.append((-1,))
    with pytest.raises(TypeError):
        cnf.clauses[0] = (-1,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cnf.num_vars = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        cnf.clauses = ((-1,), (-2,))
    assert (cnf.num_vars, cnf.clauses) == (2, ((1, 2),))
    assert solve(cnf) == solve(Cnf(2, [(1, 2)]))


def _suffix(rng: random.Random, base: Cnf, n: int) -> list[tuple[int, ...]]:
    """Clauses over 1..n to put after a base: random 3-clauses, a unit, a
    duplicate literal, a tautology and, now and then, a unit opposite to
    a base unit or the empty clause."""
    def lit() -> int:
        return rng.choice((-1, 1)) * rng.randint(1, n)

    v = lit()
    out = [tuple(lit() for _ in range(3)) for _ in range(rng.randint(0, 4))]
    out += [(lit(),), (v, lit(), v), (-v, v)]
    base_units = [c[0] for c in base.clauses if len(c) == 1]
    if base_units and rng.random() < 0.3:
        out.append((-rng.choice(base_units),))
    if rng.random() < 0.1:
        out.append(())
    rng.shuffle(out)
    return out


def test_an_extension_solves_like_its_clauses_loaded_flat(monkeypatch):
    unsat = sat = conflicts = 0
    for seed in range(80):
        rng = random.Random(seed)
        # Below the 3-SAT threshold, so that most suffixes keep it SAT.
        clauses = list(_three_sat(seed, 24, 80).clauses) + [
            (rng.choice((-1, 1)) * rng.randint(1, 24),) for _ in range(2)]
        if seed % 10 == 0:
            clauses.append(())
        base = Cnf(24, clauses)
        for ext_no in range(4):
            n = base.num_vars
            ext = Cnf(n, _suffix(rng, base, n), base=base)
            flat = Cnf(n, list(ext.all_clauses()))
            for run in range(3):
                dist = BitDistribution({v: (rng.randrange(4), rng.randrange(4))
                                        for v in range(1, n + 1)
                                        if rng.random() < 0.7})
                cfg = SolverConfig(seed=rng.randrange(1 << 32),
                                   bias_p=rng.uniform(0.5, 1.0))
                monkeypatch.setattr("pansampler.sat._RESTART_BASE",
                                    rng.choice((1, 4, 64)))
                want = CdclSolver(Cnf(n, list(ext.all_clauses())), dist, cfg)
                got = CdclSolver(ext, dist, cfg)
                model = got.solve()
                assert model == want.solve(), (seed, ext_no, run)
                assert got.conflicts == want.conflicts, (seed, ext_no, run)
                assert solve(ext, dist, cfg) == model == solve(flat, dist, cfg)
                conflicts += got.conflicts
                sat += model is not None
                unsat += model is None
            # The base's record served the extension, which keeps its
            # own clauses, prepared, and no copy of the base's.
            assert isinstance(base.solver_cache, _Kept)
            assert base.solver_cache.live is not None
            assert clauses_held(ext.solver_cache) <= len(ext.clauses)
        # Loading own clauses on top left the base's live state intact.
        cfg = SolverConfig(seed=seed)
        reused = CdclSolver(base, cfg=cfg)
        fresh = CdclSolver(Cnf(base.num_vars, list(base.clauses)), cfg=cfg)
        assert reused.solve() == fresh.solve()
        assert reused.conflicts == fresh.conflicts
    assert sat > 100 and unsat > 100 and conflicts > 1000


def test_a_joined_extension_solves_like_its_parts_loaded_flat(monkeypatch):
    cleaned = []

    def spy(clauses):
        cleaned.append(clauses)
        return _cleaned(clauses)

    monkeypatch.setattr("pansampler.sat._cleaned", spy)
    sat = conflicts = 0
    for seed in range(40):
        rng = random.Random(seed)
        base = _three_sat(seed, 24, 80)
        shared = Cnf(24, _suffix(rng, base, 24), base=base)
        owns = []
        for _ in range(3):
            n = base.num_vars
            own = Cnf(n, _suffix(rng, base, n), base=base)
            ext = joined(own, shared)
            assert ext.base is base and ext.num_vars == n
            assert ext.clauses == own.clauses + shared.clauses
            for run in range(2):
                cfg = SolverConfig(seed=rng.randrange(1 << 32))
                monkeypatch.setattr("pansampler.sat._RESTART_BASE",
                                    rng.choice((1, 4, 64)))
                got = _solved(ext, cfg=cfg)
                assert got == _solved_fresh(ext, cfg=cfg), (seed, run)
                assert solve(ext, cfg=cfg) == got[0]
                sat += got[0] is not None
                conflicts += got[1]
            owns.append(own)
        # The shared part was prepared once, on its first join.
        assert [c for c in cleaned if c is shared.clauses] == [shared.clauses]
        assert all(any(c is own.clauses for c in cleaned) for own in owns)
    assert sat > 50 and conflicts > 100
    other = Cnf(24, [(1,)], base=_three_sat(0, 24, 80))
    for parts in ((other, shared), (base,), (shared, base)):
        with pytest.raises(ValueError, match="one base"):
            joined(*parts)


def test_a_nested_or_wider_base_is_rejected():
    base = Cnf(2, [(1, 2)])
    ext = Cnf(2, [(-2,)], base=base)
    # Solved on top of ext's base, a nested extension would lose
    # base's clauses, and the re-check would miss them too.
    with pytest.raises(ValueError, match="base"):
        Cnf(2, [(-1,)], base=ext)
    # An extension has its base's variables, no fewer and no more.
    for n in (1, 3):
        with pytest.raises(ValueError, match="base"):
            Cnf(n, [(-1,)], base=base)
    for _ in range(2):
        assert solve(base) == [False, False, True]
        assert solve(ext) == [False, True, False]


def test_an_extension_literal_beyond_num_vars_is_rejected():
    base = Cnf(2, [(1, 2), (-1,)])
    assert solve(base) == [False, False, True]
    for own in [[(3,)], [(1, -3)], [(-2, 3, 2)], [(0, 1)]]:
        with pytest.raises(ValueError, match="outside"):
            solve(Cnf(2, own, base=base))


def test_long_runs_of_solves_match_freshly_loaded_solvers(monkeypatch):
    # One Cnf solved again and again, by itself and through extensions,
    # under random seeds, distributions, bias and restart bases: each
    # solve must give the model and conflict count of a solver that
    # loads the clauses afresh, whether it reused the live state, replayed
    # at a conflict, or loaded. Below the 3-SAT threshold most solves
    # meet no conflict; at it most do; an empty clause makes it UNSAT.
    tally = {"clean": 0, "conflicted": 0, "unsat": 0, "extensions": 0}
    for seed in range(24):
        rng = random.Random(seed)
        m = (40, 100, 104)[seed % 3]
        clauses = list(_three_sat(seed, 24, m).clauses) + [
            (rng.choice((-1, 1)) * rng.randint(1, 24),) for _ in range(3)]
        if seed % 8 == 7:
            clauses.insert(rng.randrange(len(clauses)), ())
        base = Cnf(24, clauses)
        for step in range(30):
            cnf = base
            if rng.random() < 0.4:
                n = base.num_vars
                cnf = Cnf(n, _suffix(rng, base, n), base=base)
                tally["extensions"] += 1
            dist = BitDistribution({v: (rng.randrange(4), rng.randrange(4))
                                    for v in range(1, cnf.num_vars + 1)
                                    if rng.random() < 0.7})
            cfg = SolverConfig(seed=rng.randrange(1 << 32),
                               bias_p=rng.uniform(0.5, 1.0))
            monkeypatch.setattr("pansampler.sat._RESTART_BASE",
                                rng.choice((1, 4, 64)))
            want = _solved_fresh(cnf, dist, cfg)
            if rng.random() < 0.5:
                got = _solved(cnf, dist, cfg)
            else:
                got = (solve(cnf, dist, cfg), want[1])
            assert got == want, (seed, step)
            model, conflicts = want
            tally["unsat" if model is None else
                  "conflicted" if conflicts else "clean"] += 1
    assert min(tally.values()) > 60, tally


def test_a_solve_that_met_a_conflict_hands_no_state_back():
    # Deciding x1 true meets a conflict at once; false meets none. The
    # conflicted lane replays on a fresh load, which learns (-1) and
    # keeps it; the base's live state stays as it was built.
    cnf = Cnf(4, [(-1, 2), (-1, -2), (3, 4)])
    seeds = {random.Random(s).random() < 0.5: s for s in range(20)}
    conflicted, clean = SolverConfig(seed=seeds[True]), \
        SolverConfig(seed=seeds[False])
    want = _solved_fresh(cnf, cfg=conflicted)
    assert want[1] > 0 and _solved_fresh(cnf, cfg=clean)[1] == 0
    live = sat.live_state(cnf)
    saved = _live_tables(live)
    for cfg in (conflicted, clean, conflicted, clean):
        batch = sat.Batch([cnf], None, [cfg])
        assert (batch.lane(0) is sat._REPLAY) == (cfg is conflicted)
        assert solve(cnf, None, cfg) == _solved_fresh(cnf, cfg=cfg)[0]
        assert sat.live_state(cnf) is live and _live_tables(live) == saved


def _mixed_clauses(rng: random.Random, variables: Sequence[int],
                   m: int) -> list[tuple[int, ...]]:
    """m clauses over the variables, of 1 to 6 literals, most of 2 and 3,
    with now and then a repeated literal or a tautology."""
    out = []
    for _ in range(m):
        k = rng.choices((1, 2, 3, 4, 5, 6), (1, 12, 30, 4, 2, 1))[0]
        clause = [rng.choice((-1, 1)) * rng.choice(variables)
                  for _ in range(k)]
        if rng.random() < 0.03:
            clause.append(rng.choice((clause[0], -clause[0])))
        out.append(tuple(clause))
    return out


def _extensions(rng: random.Random, base: Cnf) -> list[Cnf]:
    """Extensions of base shaped as the sampler's: a proof's one unit; a
    deviation's one long clause; blocking clauses over every variable;
    and a deviation joined with the blocking clauses."""
    n = base.num_vars
    proof = Cnf(n, [(rng.choice((-1, 1)) * rng.randint(1, n),)], base=base)
    bits = rng.sample(range(1, n + 1), rng.randint(1, min(8, n)))
    deviation = Cnf(n, [tuple(rng.choice((-1, 1)) * v for v in bits)],
                    base=base)
    blocks = Cnf(n, [tuple(rng.choice((-1, 1)) * v for v in range(1, n + 1))
                     for _ in range(rng.randint(1, 5))], base=base)
    return [proof, deviation, blocks, joined(deviation, blocks)]


def test_the_live_kernel_solves_like_a_two_watched_literal_load(monkeypatch):
    # Random CNFs of 1- to 6-literal clauses, solved as bases and through
    # extensions that attach short and long clauses, each as a one-lane
    # Batch: its model is that of a solver that loads every clause flat,
    # watched by two literals, and it conflicts exactly when that solver
    # does, and then replays on a load of its base's clauses and its own,
    # which solves as the flat load does. The batch reads the pair table
    # simplified at level 0, which the reference does not: the tally
    # counts the bases with a short clause true at level 0, and with one
    # that is not but has a literal false there, of the bases not unsat
    # at level 0.
    tally = {"clean": 0, "conflicted": 0, "unsat": 0}
    simplified = {"true at level 0": 0, "a level-0-false literal": 0}
    for seed in range(60):
        rng = random.Random(seed)
        # Up to half the variables are in no base clause, as the bits of
        # a free vector are: only attached clauses make their literals hot.
        n = rng.randint(8, 30)
        used = rng.sample(range(1, n + 1), n - rng.randint(0, n // 2))
        base = Cnf(n, _mixed_clauses(rng, used,
                                     int(len(used) * rng.uniform(1.5, 3.2))))
        live = sat.live_state(base)
        value = live.value
        short = [c for c in base.clauses if 1 < len(c) < 4]
        true = [any(value[l] == 1 for l in c) for c in short]
        simplified["true at level 0"] += not live.unsat and any(true)
        simplified["a level-0-false literal"] += not live.unsat and any(
            not t and any(value[l] == -1 for l in c)
            for c, t in zip(short, true))
        # Only a free literal lists pairs, and they name free literals or
        # the pad literal n + 1.
        assert live.unsat or all(
            not got or value[i] == 0 and all(
                value[lit] == 0 or lit == n + 1 for lit in got)
            for i, got in enumerate(live.pairs)), seed
        cnfs = [base] + _extensions(rng, base) + [base]
        for step in range(12):
            cnf = rng.choice(cnfs)
            dist = BitDistribution({v: (rng.randrange(4), rng.randrange(4))
                                    for v in range(1, cnf.num_vars + 1)
                                    if rng.random() < 0.7})
            cfg = SolverConfig(seed=rng.randrange(1 << 32),
                               bias_p=rng.uniform(0.5, 1.0))
            monkeypatch.setattr("pansampler.sat._RESTART_BASE",
                                rng.choice((1, 4, 64)))
            want = _solved_fresh(cnf, dist, cfg)
            assert _solved(cnf, dist, cfg) == want, (seed, step)
            model, conflicts = want
            batch = sat.Batch([cnf], dist, [cfg])
            assert (batch.lane(0) is sat._REPLAY) == (conflicts > 0)
            got = solve(cnf, dist, cfg, batch, 0)
            assert (got if got is None else [False, *(
                got[v] for v in range(1, cnf.num_vars + 1))]) == model, \
                (seed, step)
            assert solve(cnf, dist, cfg) == model, (seed, step)
            tally["unsat" if model is None else
                  "conflicted" if conflicts else "clean"] += 1
    assert min(tally.values()) > 60, tally
    assert min(simplified.values()) > 20, simplified


def test_a_conflict_only_a_ternary_clause_sees_starts_the_replay():
    # Deciding x1 and then x2 true falsifies -1 and -2: listed under -2,
    # the pair of (-1, -2, 3) implies 3, and (-1, -2, -3) is then all
    # false. Every clause has three literals, so no watch list could
    # find it.
    cnf = Cnf(4, [(-1, -2, 3), (-1, -2, -3), (2, 3, 4)])
    dist = BitDistribution({1: (1, 0), 2: (1, 0)})
    cfg = SolverConfig(bias_p=1.0)
    assert sat.live_state(cnf).pairs[-2] == [-1, 3, -1, -3]
    assert sat.Batch([cnf], dist, [cfg]).lane(0) is sat._REPLAY
    model = solve(cnf, dist, cfg)
    assert (model, 1) == _solved_fresh(cnf, dist, cfg)
    assert model[1] and not model[2]


def test_a_watch_moved_to_a_literal_in_no_base_clause_makes_it_hot():
    # x3..x6 are in no base clause, and every phase is false. The batch
    # watches the attached clause on 5 and 6, which makes them hot in its
    # own copy of the hot table: deciding x5 must visit it, and x6 comes
    # out implied true. The base's hot table stays as it was built.
    base = Cnf(6, [(1, 2)])
    ext = Cnf(6, [(3, 4, 5, 6)], base=base)
    dist = BitDistribution({v: (0, 1) for v in range(1, 7)})
    cfg = SolverConfig(bias_p=1.0)
    model = solve(ext, dist, cfg)
    assert (model, 0) == _solved_fresh(ext, dist, cfg)
    assert model == [False, False, True, False, False, False, True]
    assert not any(sat.live_state(base).hot[l] for l in (3, 4, 5, 6))


def _live_tables(live: sat._Live) -> tuple:
    """Every field of a live state, copied."""
    return dataclasses.astuple(live)


def test_hand_back_leaves_the_occurrence_lists_untouched():
    # 3-SAT near the threshold over 1..12 meets conflicts; 13..20 are in
    # no clause, so attached clauses make their literals hot; six clauses
    # of five literals over 1..12 stay long once cleaned, so a batch
    # watches them. Batches of several lanes, one-lane solves of the
    # shapes a proof and a lemma round have, and the replays of both:
    # after each, every table of the base's live state equals that of a
    # fresh load of an identical base.
    rng = random.Random(3)
    longs = [tuple(rng.choice((-1, 1)) * v
                   for v in rng.sample(range(1, 13), 5)) for _ in range(6)]
    base = Cnf(20, list(_three_sat(3, 12, 46).clauses)
               + _mixed_clauses(rng, range(1, 13), 8) + longs)
    live = sat.live_state(base)
    assert set(longs) <= set(live.longs)
    fresh = _live_tables(sat.live_state(Cnf(base.num_vars, list(base.clauses))))
    assert _live_tables(live) == fresh
    # A deviation on a vector whose bits 13..20 are in no base clause.
    free = Cnf(20, [tuple(rng.choice((-1, 1)) * v for v in range(13, 21))],
               base=base)
    extensions = _extensions(rng, base) + [free]
    tally = {"one lane": 0, "batch": 0, "replay": 0}
    for step in range(60):
        cnfs = [rng.choice([base] + extensions)
                for _ in range(rng.choice((1, 1, 3)))]
        cfgs = [SolverConfig(seed=rng.randrange(1 << 32)) for _ in cnfs]
        batch = sat.Batch(cnfs, None, cfgs)
        tally["replay"] += sum(batch.lane(k) is sat._REPLAY
                               for k in range(len(cnfs)))
        if len(cnfs) == 1:
            tally["one lane"] += 1
            solve(cnfs[0], None, cfgs[0])
        else:
            tally["batch"] += 1
            for k, (cnf, cfg) in enumerate(zip(cnfs, cfgs)):
                solve(cnf, None, cfg, batch, k)
        assert sat.live_state(base) is live
        assert _live_tables(live) == fresh, step
    assert min(tally.values()) >= 10, tally


class ReasonChecked(CdclSolver):
    """A solver that checks, after each propagation, that
    every literal on the trail above level 0 that is not a decision has
    a reason that holds it, with every other literal of it false."""

    checks = 0  # states checked

    def _propagate(self):
        conflict = super()._propagate()
        value, level, reason = self.value, self.level, self.reason
        decisions = {self.trail[i] for i in self.trail_lim}
        for lit in self.trail:
            if level[abs(lit)] and lit not in decisions:
                why = reason[abs(lit)]
                assert why is not None and lit in why, lit
                assert all(value[l] == -1 for l in why if l != lit), why
        self.checks += 1
        return conflict


def test_every_literal_a_replay_implies_has_a_reason_that_holds_it(monkeypatch):
    # Random 3-SAT at the threshold: most solves meet a conflict, and the
    # analysis reads the reasons.
    monkeypatch.setattr("pansampler.sat._RESTART_BASE", 8)
    replays = checks = 0
    for seed in range(40):
        rng = random.Random(seed)
        cnf = _three_sat(seed)
        for run in range(6):
            dist = BitDistribution({v: (rng.randrange(3), rng.randrange(3))
                                    for v in range(1, 41)})
            cfg = SolverConfig(seed=rng.randrange(1 << 32))
            solver = ReasonChecked(cnf, dist, cfg)
            solver.solve()
            replays += solver.conflicts > 0
            checks += solver.checks
    assert replays > 200 and checks > 10000


def test_the_vsids_heap_takes_over_from_the_cursor_at_the_first_conflict():
    # Phases are forced: x4 true, every other tracked variable false.
    # Decisions take x1..x4 in index order; x4 meets a conflict on x7, in
    # a batch's lane too. The replay takes x1..x4, learns x7 away at level
    # 0, then takes the bumped x7 first and the rest in index order, x5
    # included, though x5 was never decided before the conflict.
    cnf = Cnf(8, [(-4, 7), (-4, -7)])
    dist = BitDistribution({v: (0, 1) if v != 4 else (1, 0)
                            for v in range(1, 9)})
    decisions = []

    class Recording(CdclSolver):
        """Records each decision as the trail takes it: a decision is the
        literal pushed where the newest decision level starts."""

        def __init__(self, *args):
            super().__init__(*args)
            solver = self

            class Trail(list):
                def append(self, lit):
                    if solver.trail_lim and solver.trail_lim[-1] == len(self):
                        decisions.append(abs(lit))
                    super().append(lit)

            self.trail = Trail(self.trail)

    cfg = SolverConfig(bias_p=1.0)
    assert sat.Batch([cnf], dist, [cfg]).lane(0) is sat._REPLAY
    solver = Recording(cnf, dist, cfg)
    model = solver.solve()
    assert decisions == [1, 2, 3, 4, 7, 1, 2, 3, 5, 6, 8]
    assert model == [False] * 9 and solver.conflicts == 1


def test_search_is_pinned_on_random_3sat(monkeypatch):
    # Random 3-SAT at the threshold: 1116 conflicts over 40 instances.
    # The digest covers every model and conflict count, so any change to
    # the watch order, propagation order, learning, restarts or phase
    # choice shows here, not only a change of satisfiability.
    monkeypatch.setattr("pansampler.sat._RESTART_BASE", 8)
    h = hashlib.sha256()
    conflicts = unsat = 0
    for seed in range(40):
        rng = random.Random(seed)
        dist = BitDistribution({v: (rng.randrange(3), rng.randrange(3))
                                for v in range(1, 41)})
        s = CdclSolver(_three_sat(seed), dist, SolverConfig(seed=seed))
        model = s.solve()
        conflicts += s.conflicts
        unsat += model is None
        h.update(repr((model, s.conflicts)).encode())
    assert (conflicts, unsat) == (1116, 24)
    assert h.hexdigest() == ("a4aab4446acf3dced918947c2c334aaa"
                             "94166168bf28452cc67c3f297f4135a7")


def test_recheck_rejects_a_falsifying_model(monkeypatch):
    # x1 and not x2, and x3 and x4 in a conflict that the first decision
    # meets either way, so every solve replays: a replay answering
    # all-true must be caught by the clause-by-clause re-check. In the
    # extension the false clause lies in the base, which a re-check of
    # the extension's own clauses alone would miss.
    clash = [(3, 4), (3, -4), (-3, 4), (-3, -4)]
    monkeypatch.setattr(CdclSolver, "solve", lambda self: [False] + [True] * 4)
    for cnf in [Cnf(4, [(1, 2), (1,), (-2,), *clash]),
                Cnf(4, [(1,)], base=Cnf(4, [(1, 2), (-2,), *clash]))]:
        assert sat.Batch([cnf], None, [SolverConfig()]).lane(0) is sat._REPLAY
        with pytest.raises(AssertionError, match=r"clause \(-2,\) is false"):
            solve(cnf)


def test_every_lane_of_a_batch_answers_as_its_solo_solve():
    # The acceptance check's random CNFs, each solved as one batch of
    # several seeds: as a base, under a distribution, and with each lane
    # through its own extension of the base, of each kind the sampler
    # makes, one whose units contradict at level 0, and one that every
    # value of two variables falsifies, which a decision must reveal.
    # Every lane's model, read from the batch or replayed after a
    # conflict, is the one a fresh load of its clauses, each watched by
    # two literals, returns for its seed, and None exactly when that is
    # None; a lane that is UNSAT at level 0 answers None from the batch.
    tally = {"clean": 0, "conflicted": 0, "unsat at level 0": 0,
             "unsat after a conflict": 0, "own clauses": 0}
    for seed in range(10_000):
        rng = random.Random(seed)
        cnf = random_cnf(seed)
        n = cnf.num_vars
        dist = None
        if seed % 3:
            dist = BitDistribution({v: (rng.randrange(4), rng.randrange(4))
                                    for v in range(1, n + 1)
                                    if rng.random() < 0.7})
        bias_p = rng.uniform(0.5, 1.0)
        cfgs = [SolverConfig(seed=rng.randrange(1 << 32), bias_p=bias_p)
                for _ in range(rng.randint(2, 6))]
        cnfs = [cnf] * len(cfgs)
        if seed % 3 == 2:
            v, w = rng.randint(1, n), rng.randint(1, n)
            kinds = [cnf, *_extensions(rng, cnf),
                     Cnf(n, [(v,), (-v,)], base=cnf),
                     Cnf(n, [(v, w), (v, -w), (-v, w), (-v, -w)], base=cnf)]
            cnfs = [rng.choice(kinds) for _ in cfgs]
        batch = sat.Batch(cnfs, dist, cfgs)
        for k, (lane, cfg) in enumerate(zip(cnfs, cfgs)):
            read = batch.lane(k)
            got = solve(lane, dist, cfg, batch, k)
            want, conflicts = _solved_fresh(lane, dist, cfg)
            # A lane conflicts exactly when the fresh load does.
            assert (read is sat._REPLAY) == (conflicts > 0), (seed, k)
            tally["own clauses"] += lane is not cnf
            if want is None:
                assert got is None, (seed, k)
                tally["unsat after a conflict" if read is sat._REPLAY
                      else "unsat at level 0"] += 1
                continue
            assert [got[v] for v in range(1, n + 1)] == want[1:], (seed, k)
            tally["conflicted" if read is sat._REPLAY else "clean"] += 1
    assert min(tally.values()) > 200, tally


def test_lanes_with_one_seed_and_different_clauses_answer_apart():
    # Two lanes draw the same seed; each answers its own CNF, which forces
    # x1 its own way, and not the other lane's model.
    base = Cnf(3, [(1, 2, 3), (-1, -2)])
    cnfs = [Cnf(3, [(1,)], base=base), Cnf(3, [(-1,)], base=base)]
    cfgs = [SolverConfig(seed=7), SolverConfig(seed=7)]
    batch = sat.Batch(cnfs, None, cfgs)
    got = [solve(cnf, None, cfg, batch, k)
           for k, (cnf, cfg) in enumerate(zip(cnfs, cfgs))]
    assert [m[1] for m in got] == [True, False]
    for model, cnf, cfg in zip(got, cnfs, cfgs):
        assert [model[v] for v in range(1, 4)] == solve(cnf, None, cfg)[1:]
    assert [sat.word(m, [1, 2, 3]) for m in got] == [
        sat.word(solve(cnf, None, cfg), [1, 2, 3])
        for cnf, cfg in zip(cnfs, cfgs)]


def test_a_batch_reads_each_lanes_words_by_groups_of_eight():
    # Eleven lanes, two groups: each lane's word over any list of
    # variables is its solo model's, whichever lane of a group is read
    # first, and each group's words are read once.
    cnf = Cnf(12, [(1, -2, 3), (-4, 5), (6, 7, 8, 9), (-10, -11, 12)])
    cfgs = [SolverConfig(seed=k) for k in range(11)]
    batch = sat.Batch([cnf] * 11, None, cfgs)
    solo = [solve(cnf, None, cfg) for cfg in cfgs]
    for variables in ([12, 1, 5, 5, 7], list(range(1, 13)), [3], []):
        for k in (9, *range(11)):
            model = solve(cnf, None, cfgs[k], batch, k)
            assert sat.word(model, variables) == \
                sat.word(solo[k], variables), (variables, k)
    assert len(batch._words) == 4 * 2


def test_a_batch_attaches_a_clause_that_lanes_share_once(monkeypatch):
    # A deviation per lane joined with one blocking extension: the
    # blocking clauses are attached once, with every lane in their mask,
    # and each deviation clause with its own lane alone.
    base = Cnf(4, [(1, 2), (3, 4)])
    blocks = Cnf(4, [(-1, -2, -3, -4), (1, -2, 3, -4)], base=base)
    cnfs = [joined(Cnf(4, [(-v,)], base=base), blocks) for v in (1, 2, 3)]
    attached = []
    real = sat.Batch._attach
    monkeypatch.setattr(sat.Batch, "_attach", lambda self, longs, own: (
        attached.append(own) or real(self, longs, own)))
    cfgs = [SolverConfig(seed=k) for k in range(3)]
    batch = sat.Batch(cnfs, None, cfgs)
    own, = attached
    assert own == [((-1,), 0b001), *[(c, 0b111) for c in blocks.clauses],
                   ((-2,), 0b010), ((-3,), 0b100)]
    for k, (cnf, cfg) in enumerate(zip(cnfs, cfgs)):
        model = solve(cnf, None, cfg, batch, k)
        assert [model[v] for v in range(1, 5)] == solve(cnf, None, cfg)[1:]


def test_a_batch_recheck_rejects_a_lane_with_one_flipped_bit(monkeypatch):
    # As in test_recheck_rejects_a_falsifying_model: x1 and not x2, with
    # x2 flipped in lane 1 of three after the descent. The mask re-check
    # finds the false clause, also when it lies in the extension's base,
    # and when it is lane 1's own; a clause of the other lanes alone
    # does not bind lane 1.
    descend = sat.Batch._descend

    def flipped(self, *args):
        descend(self, *args)
        self._false[2] ^= 0b010
        self._false[-2] ^= 0b010

    monkeypatch.setattr(sat.Batch, "_descend", flipped)
    cfgs = [SolverConfig(seed=k) for k in range(3)]
    for cnf in [Cnf(2, [(1, 2), (1,), (-2,)]),
                Cnf(2, [(1,)], base=Cnf(2, [(1, 2), (-2,)]))]:
        with pytest.raises(AssertionError, match=r"clause \(-2,\) is false"):
            sat.Batch([cnf] * 3, None, cfgs)
    base = Cnf(2, [(1, 2)])
    own, other = Cnf(2, [(1,), (-2,)], base=base), Cnf(2, [(1,)], base=base)
    with pytest.raises(AssertionError, match=r"clause \(-2,\) is false"):
        sat.Batch([other, own, other], None, cfgs)
    sat.Batch([own, other, own], None, cfgs)
    monkeypatch.setattr(sat.Batch, "_descend", descend)
    batch = sat.Batch([cnf] * 3, None, cfgs)
    assert [batch.lane(k)[2] for k in range(3)] == [False] * 3


def test_a_batch_past_its_deadline_raises(monkeypatch):
    # The clock reads 0 when the batch starts and 1 after: the deadline
    # passes during the descent of 20 variables, which reads the clock
    # after each step that propagates. A batch that starts past its
    # deadline loads no live state.
    cnf = _three_sat(0, 20, 40)
    assert solve(cnf) is not None  # its live state is kept
    cfgs = [SolverConfig(seed=k, deadline=0.5) for k in range(4)]
    monkeypatch.setattr(sat, "time", _Clock())
    with pytest.raises(DeadlinePassed):
        sat.Batch([cnf] * 4, None, cfgs)
    loads = []
    real = sat._load_live
    monkeypatch.setattr(sat, "_load_live",
                        lambda cnf: loads.append(1) or real(cnf))
    with pytest.raises(DeadlinePassed):
        sat.Batch([pigeonhole(4, 3)] * 4, None, cfgs)
    assert loads == []
