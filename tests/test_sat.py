"""CDCL solver, phase bias, and solution-set distributions."""

import hashlib
import itertools
import random

import pytest

from pansampler.bitblast import BlastMap, Cnf, bit_blast, parse_dimacs
from pansampler.fuzz import random_cnf
from pansampler.oracle import dpll
from pansampler.parser import parse_formula
from pansampler.sat import (BitDistribution, CdclSolver, ConflictBudgetExceeded,
                            SolverConfig, _Snapshot, distribution_from, solve)
from pansampler.values import Assignment, BoolVal, BvVal


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


def test_distribution_empty_solution_set():
    dist = distribution_from([], BlastMap())
    assert dist.counts == {}
    assert dist.preferred_phase(1) is None


def test_distribution_counts_and_minority_phase():
    bmap = BlastMap()
    bmap.add("x", 0, 1)
    sols = [Assignment({"x": BoolVal(False)}), Assignment({"x": BoolVal(False)})]
    dist = distribution_from(sols, bmap)
    assert dist.counts == {1: (2, 0)}
    # Ones are the minority, so the preferred phase is True.
    assert dist.preferred_phase(1) is True
    assert dist.preferred_phase(99) is None


def test_distribution_recounts_bv_bits():
    bmap = BlastMap()
    for b in range(3):
        bmap.add("m", b, b + 1)
    values = [0b000, 0b001, 0b011, 0b111, 0b001]
    sols = [Assignment({"m": BvVal(3, v)}) for v in values]
    dist = distribution_from(sols, bmap)
    assert dist.counts == {1: (1, 4), 2: (3, 2), 3: (4, 1)}
    assert dist.preferred_phase(1) is False
    assert dist.preferred_phase(2) is True


def test_distribution_tie_has_no_preference():
    bmap = BlastMap()
    bmap.add("x", 0, 1)
    sols = [Assignment({"x": BoolVal(False)}), Assignment({"x": BoolVal(True)})]
    assert distribution_from(sols, bmap).preferred_phase(1) is None


def test_distribution_skips_unmapped_names():
    bmap = BlastMap()
    bmap.add("x", 0, 1)
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
    bits = [model[bmap.forward[("x", b)]] for b in range(4)]
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
    assert model[bmap.forward[("x", 0)]] is False
    assert all(model[bmap.forward[("x", b)]] for b in (1, 2, 3))


def test_first_decision_only_freezes_phases():
    cnf = Cnf(1, [])
    s = CdclSolver(cnf, cfg=SolverConfig(first_decision_only=True))
    s.saved_phase[1] = True
    s.phase_known[1] = True
    assert all(s._pick_phase(1) for _ in range(20))


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
    clauses = _three_sat(seed, n, 100).clauses + [
        (rng.choice((-1, 1)) * rng.randint(1, n),),
        (v, -rng.randint(1, n), v), (-v, v)]
    if seed % 5 == 0:
        clauses.append(())
    rng.shuffle(clauses)
    return Cnf(n, clauses)


def test_snapshot_solver_matches_a_freshly_loaded_one():
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
                               bias_p=rng.uniform(0.5, 1.0),
                               first_decision_only=rng.random() < 0.3,
                               restart_base=rng.choice((1, 4, 64)))
            fresh = CdclSolver(Cnf(n, list(cnf.clauses)), dist, cfg)
            reused = CdclSolver(cnf, dist, cfg)
            got = reused.solve()
            assert got == fresh.solve(), (seed, run)
            assert reused.conflicts == fresh.conflicts, (seed, run)
            conflicts += reused.conflicts
            assert solve(cnf, dist, cfg) == got, (seed, run)
            sat += got is not None
            unsat += got is None
        # From the second build on, solvers copy the snapshot.
        assert isinstance(cnf.solver_cache, _Snapshot)
    assert sat > 100 and unsat > 100 and conflicts > 1000


def test_a_cnf_solved_once_keeps_no_snapshot():
    cnf = random_cnf(3)
    solve(cnf)
    assert not isinstance(cnf.solver_cache, _Snapshot)
    solve(cnf)
    assert isinstance(cnf.solver_cache, _Snapshot)
    assert Cnf(cnf.num_vars, list(cnf.clauses)).solver_cache is None


def test_changing_the_cnf_after_a_solve_replaces_its_snapshot():
    cnf = Cnf(2, [(1, 2)])
    for _ in range(3):
        assert solve(cnf) is not None
    snap = cnf.solver_cache
    assert isinstance(snap, _Snapshot)
    cnf.clauses.append((-1,))
    cnf.clauses.append((-2,))
    assert solve(cnf) is None
    assert cnf.solver_cache is not snap
    cnf.clauses[-1] = (2,)  # replaced in place: same length, new clause
    assert solve(cnf) == [False, False, True]
    cnf.num_vars = 3
    cnf.clauses.append((3,))
    assert solve(cnf) == [False, False, True, True]
    cnf.num_vars = 2
    with pytest.raises(ValueError, match="outside"):
        solve(cnf)


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


def test_an_extension_solves_like_its_clauses_loaded_flat():
    unsat = sat = conflicts = 0
    for seed in range(80):
        rng = random.Random(seed)
        # Below the 3-SAT threshold, so that most suffixes keep it SAT.
        base = Cnf(24, _three_sat(seed, 24, 80).clauses + [
            (rng.choice((-1, 1)) * rng.randint(1, 24),) for _ in range(2)])
        if seed % 10 == 0:
            base.clauses.append(())
        for ext_no in range(4):
            n = base.num_vars + rng.choice((0, 0, 3, 8))
            ext = Cnf(n, base.clauses + _suffix(rng, base, n), base=base)
            flat = Cnf(n, list(ext.clauses))
            for run in range(3):
                dist = BitDistribution({v: (rng.randrange(4), rng.randrange(4))
                                        for v in range(1, n + 1)
                                        if rng.random() < 0.7})
                cfg = SolverConfig(seed=rng.randrange(1 << 32),
                                   bias_p=rng.uniform(0.5, 1.0),
                                   first_decision_only=rng.random() < 0.3,
                                   restart_base=rng.choice((1, 4, 64)))
                want = CdclSolver(Cnf(n, list(ext.clauses)), dist, cfg)
                got = CdclSolver(ext, dist, cfg)
                model = got.solve()
                assert model == want.solve(), (seed, ext_no, run)
                assert got.conflicts == want.conflicts, (seed, ext_no, run)
                assert solve(ext, dist, cfg) == model == solve(flat, dist, cfg)
                conflicts += got.conflicts
                sat += model is not None
                unsat += model is None
            # The base's snapshot served the extension, which kept none.
            assert isinstance(base.solver_cache, _Snapshot)
            assert ext.solver_cache is None
        # Loading suffixes on top left the base's own snapshot intact.
        cfg = SolverConfig(seed=seed)
        reused = CdclSolver(base, cfg=cfg)
        fresh = CdclSolver(Cnf(base.num_vars, list(base.clauses)), cfg=cfg)
        assert reused.solve() == fresh.solve()
        assert reused.conflicts == fresh.conflicts
    assert sat > 100 and unsat > 100 and conflicts > 1000


def test_an_extension_whose_base_changed_is_loaded_in_full():
    base = Cnf(2, [(1, 2)])
    ext = Cnf(2, base.clauses + [(-2,)], base=base)
    assert solve(ext) == [False, True, False]
    assert ext.solver_cache is None  # loaded on top of the base
    # Base + the clauses past its old length would now read (1 2)(-1).
    base.clauses.append((-1,))
    assert solve(ext) == [False, True, False]
    assert ext.solver_cache is not None  # loaded in full
    base.clauses.pop()
    base.num_vars = 3  # more variables than the extension has
    assert solve(ext) == [False, True, False]
    assert not isinstance(base.solver_cache, _Snapshot) or \
        base.solver_cache.num_vars == 2


def test_an_extension_literal_beyond_num_vars_is_rejected():
    base = Cnf(2, [(1, 2), (-1,)])
    assert solve(base) == [False, False, True]
    for suffix in [[(3,)], [(1, -3)], [(-2, 3, 2)], [(0, 1)]]:
        with pytest.raises(ValueError, match="outside"):
            solve(Cnf(2, base.clauses + suffix, base=base))
    assert solve(Cnf(3, base.clauses + [(3,)], base=base)) == [
        False, False, True, True]


def test_search_is_pinned_on_random_3sat():
    # Random 3-SAT at the threshold: 1116 conflicts over 40 instances.
    # The digest covers every model and conflict count, so any change to
    # the watch order, propagation order, learning, restarts or phase
    # choice shows here, not only a change of satisfiability.
    h = hashlib.sha256()
    conflicts = unsat = 0
    for seed in range(40):
        rng = random.Random(seed)
        dist = BitDistribution({v: (rng.randrange(3), rng.randrange(3))
                                for v in range(1, 41)})
        s = CdclSolver(_three_sat(seed), dist,
                       SolverConfig(seed=seed, restart_base=8))
        model = s.solve()
        conflicts += s.conflicts
        unsat += model is None
        h.update(repr((model, s.conflicts)).encode())
    assert (conflicts, unsat) == (1116, 24)
    assert h.hexdigest() == ("a4aab4446acf3dced918947c2c334aaa"
                             "94166168bf28452cc67c3f297f4135a7")


def test_recheck_rejects_a_falsifying_model(monkeypatch):
    # x1 and not x2: a solver answering all-true must be caught by the
    # clause-by-clause re-check, however the model was found.
    monkeypatch.setattr(CdclSolver, "solve", lambda self: [False, True, True])
    with pytest.raises(AssertionError, match="falsifying"):
        solve(Cnf(2, [(1, 2), (1,), (-2,)]))
