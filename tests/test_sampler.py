"""Diversity solving and the coverage-guided sampling loop."""

import gc
import hashlib
import random
import types

import pytest

from pansampler import sampler
from pansampler.abstraction import project_assignment
from pansampler.bitblast import Cnf, bit_blast
from pansampler.coverage import CoverState, build_universe, cover_set
from pansampler.evaluate import satisfies
from pansampler.parser import parse_formula
from pansampler.printer import print_models
from pansampler.sampler import (DiversitySmtEngine, FormulaUnsatError, Mode,
                                SampleResult, SamplerConfig, post_opt,
                                sample)
from pansampler.values import Assignment, BoolVal, BvVal

TAUT = "(declare-const x Bool)(assert (or x (not x)))"
UNIQUE = "(declare-const m (_ BitVec 8))(assert (= m #x03))"
FREE3 = "(declare-const x (_ BitVec 3))(assert (bvule x x))"


def test_config_validation():
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
    assert got["x"] == BoolVal(True)


def test_diversity_solve_reports_unsat():
    f = parse_formula("(declare-const x Bool)(assert x)(assert (not x))")
    assert DiversitySmtEngine(f).solve_once([], seed=0) is None


def test_full_bias_flips_every_free_bit():
    f = parse_formula("(declare-const x (_ BitVec 4))(assert (bvule x x))")
    prior = [Assignment({"x": BvVal(4, 0)})]
    got = DiversitySmtEngine(f).solve_once(prior, seed=3, bias_p=1.0)
    assert got is not None
    assert got["x"].as_int() == 0b1111


def test_extra_constraints_steer_the_solve():
    f = parse_formula(FREE3)
    engine = DiversitySmtEngine(f)
    x = f.table.mk_var("x", f.decls["x"])
    zero = f.table.mk_bv_const(3, 0)
    got = engine.solve_once([], seed=1, extra=(f.table.mk_distinct(x, zero),))
    assert got is not None
    assert got["x"].as_int() != 0


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
        assert satisfies(f, got)
        sols.append(got)
    assert engine.lemma_rounds <= engine.lemma_bound
    assert len(engine.lemmas) == len(set(engine.lemmas))


def _full_blast(engine, extra, projected):
    """What one blast of everything gives: the abstracted assertions, the
    lemma images and the extra terms, then one blocking clause per
    projected prior solution."""
    abs_ = engine.abs
    terms = (list(abs_.formula.assertions)
             + [abs_.rewrite(l) for l in engine.lemmas]
             + [abs_.rewrite(t) for t in extra])
    cnf, bmap = bit_blast(engine.f.table, abs_.formula.decls, terms)
    for p in projected:
        cnf.clauses.append(tuple(-var if v else var
                                 for name, bit, v in p.scalar_bits()
                                 if (var := bmap.forward.get((name, bit)))))
    return cnf


def _solve_checking_cnfs(monkeypatch, engine, prior, extra, blocking):
    """solve_once, asserting that every CNF handed to the solver equals
    the full blast; returns the result and those CNFs."""
    handed = []
    real = sampler.sat_solve
    # solve_once projects the prior solutions once, before any lemma.
    projected = [project_assignment(engine.abs, a) for a in prior]

    def checked(cnf, dist, cfg):
        want = _full_blast(engine, extra, projected if blocking else [])
        assert cnf.num_vars == want.num_vars
        assert cnf.clauses == want.clauses
        handed.append(cnf)
        return real(cnf, dist, cfg)

    monkeypatch.setattr(sampler, "sat_solve", checked)
    got = engine.solve_once(prior, seed=7, use_bias=not blocking,
                            blocking=blocking, extra=extra)
    monkeypatch.setattr(sampler, "sat_solve", real)
    return got, handed


def _deviation(f, name, value):
    sort = f.decls[name]
    return f.table.mk_distinct(f.table.mk_var(name, sort),
                               f.table.mk_const_of_sort(sort, value))


def test_a_deviation_already_in_the_formula_reuses_its_gate(monkeypatch):
    f = parse_formula(
        "(declare-const x (_ BitVec 4))(declare-const y (_ BitVec 4))"
        "(assert (or (distinct x #x3) (bvult y x)))")
    engine = DiversitySmtEngine(f)
    dev = _deviation(f, "x", 3)
    base, _ = engine.blast()
    prior = []
    for blocking in (False, True, True):
        got, handed = _solve_checking_cnfs(monkeypatch, engine, prior,
                                           (dev,), blocking)
        assert got is not None and got["x"].as_int() != 3
        for cnf in handed:
            assert cnf.base is base
        prior.append(got)
    # The deviation's gate exists, so asserting it is one unit clause.
    cnf, _ = engine.blast((dev,))
    assert cnf.clauses[:-1] == base.clauses and len(cnf.clauses[-1]) == 1


def test_a_constant_free_base_gets_true_in_the_suffix(monkeypatch):
    f = parse_formula(
        "(declare-const x (_ BitVec 4))(declare-const y (_ BitVec 4))"
        "(assert (bvult x y))")
    engine = DiversitySmtEngine(f)
    base, _ = engine.blast()
    assert base.encoding.true is None
    prior = []
    # y != 5 finds #x5 encoded by x != 5, but in that CNF's own gates.
    for name, value in [("x", 5), ("x", 0), ("y", 5), ("x", 5)]:
        for blocking in (False, True):
            got, handed = _solve_checking_cnfs(
                monkeypatch, engine, prior, (_deviation(f, name, value),),
                blocking)
            assert got is not None and got[name].as_int() != value
            assert [cnf.base for cnf in handed] == [base]
            prior.append(got)
    cnf, _ = bit_blast(f.table, f.decls, [_deviation(f, "x", 5)], base=base)
    true = cnf.encoding.true
    assert true == base.num_vars + 1
    assert cnf.clauses[len(base.clauses)] == (true,)


def test_deviation_cnfs_after_a_lemma_extend_the_new_base(monkeypatch):
    # i is 0 or 1, and only i = 1 keeps the two reads apart. Forcing
    # i != 1 makes the first candidate read one cell twice: a lemma
    # arrives and the deviation is blasted again on the new base.
    f = parse_formula(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
        "(declare-const i (_ BitVec 2))(assert (bvule i #b01))"
        "(assert (= (select a i) #b01))(assert (= (select a #b00) #b10))")
    engine = DiversitySmtEngine(f)
    old_base, _ = engine.blast()
    got, handed = _solve_checking_cnfs(monkeypatch, engine, [],
                                       (_deviation(f, "i", 1),), False)
    assert got is None and engine.lemmas
    new_base, _ = engine.blast()
    assert new_base is not old_base
    assert [cnf.base for cnf in handed] == [old_base, new_base]
    sols = [engine.solve_once([], seed=1)]
    assert sols[0]["i"].as_int() == 1
    got, handed = _solve_checking_cnfs(monkeypatch, engine, sols,
                                       (_deviation(f, "i", 0),), False)
    assert got is not None and satisfies(f, got)
    # Blocking the only solution leaves nothing.
    assert _solve_checking_cnfs(monkeypatch, engine, sols,
                                (_deviation(f, "i", 0),), True)[0] is None
    assert engine.blast()[0] is new_base


def _cnfs_reachable_from(root) -> list[Cnf]:
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, Cnf):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_refinement_keeps_one_base_cnf():
    f = parse_formula(
        "(declare-const x (_ BitVec 6))(declare-const y (_ BitVec 6))"
        "(declare-const p Bool)(assert (or p (bvult x y)))")
    engine = DiversitySmtEngine(f)
    universe = build_universe(f)
    state = CoverState(universe)
    cfg = SamplerConfig()
    seeds = random.Random(4)
    solutions = []
    for _ in range(15):
        alpha = engine.solve_once(solutions, seeds.randrange(1 << 32))
        best = post_opt(engine, universe, state, solutions, alpha, cfg, seeds)
        solutions.append(best)
        state.absorb(cover_set(f, universe, best))
    base, _ = engine.blast()
    cnfs = _cnfs_reachable_from(engine)
    assert len(cnfs) == 1 and cnfs[0] is base


def test_projection_follows_each_assignment_not_its_id():
    f = parse_formula("(declare-const x (_ BitVec 8))(assert (bvule x x))")
    engine = DiversitySmtEngine(f)
    stale = 0
    for value in range(200):
        got = engine.project([Assignment({"x": BvVal(8, value)})])
        stale += got[0]["x"] != BvVal(8, value)
    assert stale == 0


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
    keys = [s.key() for s in res.solutions]
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
    assert [s.key() for s in r1.solutions] == [s.key() for s in r2.solutions]
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
        keys = [s.key() for s in res.solutions]
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
    universe = build_universe(f)
    state = CoverState(universe)
    alpha = Assignment({"m": BvVal(8, 3)})
    got = post_opt(engine, universe, state, [], alpha, SamplerConfig(),
                   random.Random(0))
    assert got is alpha


def test_post_opt_keeps_alpha_on_ties():
    f = parse_formula(TAUT)
    engine = DiversitySmtEngine(f)
    universe = build_universe(f)
    state = CoverState(universe)
    # Either value of x newly covers all three entries; a tie must not
    # replace the incumbent.
    alpha = Assignment({"x": BoolVal(True)})
    got = post_opt(engine, universe, state, [], alpha, SamplerConfig(),
                   random.Random(1))
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
            state.absorb(cover_set(f, universe, got))
            sols.append(got)
        alpha = engine.solve_once(sols, rng.randrange(1 << 32))
        refined = post_opt(engine, universe, state, sols, alpha,
                           SamplerConfig(), rng)
        before = state.gain(cover_set(f, universe, alpha))
        after = state.gain(cover_set(f, universe, refined))
        assert after >= before
        assert satisfies(f, refined)


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
        engine = DiversitySmtEngine(f)
        master = random.Random(seed)
        sols = []
        while True:
            if state.coverage_star() >= cfg.target_coverage:
                break
            cand = engine.solve_once(sols, master.randrange(1 << 32),
                                     bias_p=0.5)
            slots = cover_set(f, universe, cand)
            if state.gain(slots) == 0:
                break  # a single zero-gain candidate is the stall bound
            sols.append(cand)
            state.absorb(slots)
        assert [s.key() for s in res.solutions] == [s.key() for s in sols]


PINNED = {
    "bvult4": "(declare-const x (_ BitVec 4))(declare-const y (_ BitVec 4))"
              "(assert (bvult x y))",
    "mul6": "(declare-const a (_ BitVec 6))(declare-const b (_ BitVec 6))"
            "(assert (= (bvmul a b) #b001100))",
    "array2": "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
              "(declare-const i (_ BitVec 2))(assert (= (select a i) #b01))",
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
}


@pytest.mark.parametrize("name,mode", sorted(PINNED_DIGESTS))
def test_sampler_output_is_pinned(name, mode):
    f = parse_formula(PINNED[name])
    res = sample(f, SamplerConfig(lam=4, seed=3, mode=mode))
    out = print_models(f, res.solutions).encode()
    assert hashlib.sha256(out).hexdigest() == PINNED_DIGESTS[(name, mode)]
