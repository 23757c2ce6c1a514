"""Release acceptance gate.

Nine end-to-end checks, one test each, spanning sample validity, the
coverage accounting laws, oracle agreement, ablation direction, bias
efficacy, SAT-core correctness, lemma-loop termination, and output
reproducibility. Each prints a [PASS] line with its headline numbers;
the whole file runs in a few minutes.
"""

import random

from pansampler.cli import main
from pansampler.coverage import CoverState, build_universe
from pansampler.fuzz import random_formula
from pansampler.oracle import (OracleError, enumerate_solutions,
                               exact_coverage, slow_cover_set, slow_satisfies)
from pansampler.parser import parse_formula
from pansampler.sampler import (DiversitySmtEngine, FormulaUnsatError, Mode,
                                SamplerConfig, sample)
from pansampler.sat import solve
from pansampler.values import Assignment, BvVal

from helpers import dpll, exact_score, min_cover, random_cnf, var_bits

LOGICS = ("QF_BV", "QF_ABV", "QF_AUFBV")


def test_every_emitted_sample_satisfies_its_formula(capsys):
    formulas = 0
    samples = 0
    for logic in LOGICS:
        for seed in range(200):
            f = random_formula(seed, logic=logic)
            cfg = SamplerConfig(target_coverage=0.9, lam=2, max_solutions=6,
                                seed=seed)
            try:
                res = sample(f, cfg)
            except FormulaUnsatError:
                continue
            formulas += 1
            for a in res.solutions:
                assert slow_satisfies(f, a), (logic, seed)
                samples += 1
    assert formulas >= 300
    assert samples >= 500
    with capsys.disabled():
        print(f"\n[PASS] validity: {samples} samples across {formulas} "
              f"satisfiable formulas (600-formula corpus), 0 invalid")


def test_one_absorbed_solution_covers_exactly_half(capsys):
    checked = 0
    for logic in LOGICS:
        for seed in range(60):
            f = random_formula(seed, logic=logic)
            got = DiversitySmtEngine(f).solve_once([], seed=seed)
            if got is None:
                continue
            universe = build_universe(f)
            state = CoverState(universe)
            state.absorb(got.slots)
            assert state.coverage_star() == 0.5, (logic, seed)
            checked += 1
    assert checked >= 100
    with capsys.disabled():
        print(f"[PASS] half-coverage law: {checked} single-solution sets, "
              f"coverage_star == 0.5 bit-exact on every one")


def test_greedy_candidate_choice_matches_exact_scoring(capsys):
    fixtures = 0
    iterations = 0
    for logic in LOGICS:
        for seed in range(200):
            f = random_formula(seed, logic=logic)
            if len(var_bits(f)) > 20:
                continue
            try:
                rep = enumerate_solutions(f)
            except OracleError:
                continue
            if not rep.solutions:
                continue
            universe = rep.universe
            state = CoverState(universe)
            oracle_covered = 0
            engine = DiversitySmtEngine(f)
            rng = random.Random(seed)
            chosen: list[Assignment] = []
            ran = 0
            for _ in range(2):
                cands = []
                for _ in range(4):
                    got = engine.solve_once(chosen, rng.randrange(1 << 32))
                    if got is None:
                        break
                    cands.append(got)
                if not cands:
                    break
                best_idx, best = 0, -1
                for i, c in enumerate(cands):
                    s = state.gain(c.slots)
                    if s > best:
                        best_idx, best = i, s
                oracle_idx, oracle_best = 0, -1
                for i, c in enumerate(cands):
                    cov = slow_cover_set(f, universe, c.assignment)
                    # Real solutions only ever land on attainable bits.
                    assert cov & ~rep.valid_mask == 0, (logic, seed)
                    s = exact_score(rep, oracle_covered, cov)
                    if s > oracle_best:
                        oracle_idx, oracle_best = i, s
                assert best_idx == oracle_idx, (logic, seed)
                ran += 1
                sel = cands[best_idx]
                state.absorb(sel.slots)
                oracle_covered |= slow_cover_set(f, universe, sel.assignment)
                chosen.append(sel.assignment)
            if ran:
                fixtures += 1
                iterations += ran
    assert fixtures >= 100
    with capsys.disabled():
        print(f"[PASS] ordering: surrogate argmax == exact argmax on "
              f"{iterations} iterations over {fixtures} fixtures")


def test_final_sets_reach_and_bound_the_oracle_minimum(capsys):
    sat_fixtures = 0
    reached = 0
    bounded = 0
    for logic in LOGICS:
        for seed in range(120):
            f = random_formula(seed, logic=logic)
            try:
                rep = enumerate_solutions(f)
            except OracleError:
                continue
            if not rep.solutions:
                continue
            sat_fixtures += 1
            res = sample(f, SamplerConfig(lam=6, seed=seed))
            c = exact_coverage(rep, res.solutions)
            mc = min_cover(rep, c)
            if mc.exact:
                assert len(res.solutions) >= mc.cardinality, (logic, seed)
                bounded += 1
            if c == 1.0:
                reached += 1
    assert sat_fixtures >= 100
    assert reached / sat_fixtures >= 0.95
    with capsys.disabled():
        print(f"[PASS] oracle bound: |A| >= exact minimum on {bounded} "
              f"fixtures; full valid-bit coverage on {reached}/{sat_fixtures} "
              f"({reached / sat_fixtures:.1%})")


_GATE_OPS = ("and", "or", "distinct")


def _bench_fixture(i: int):
    """Benchmark fixture i: a small Bool circuit or'd with a wide free
    vector. The vector keeps 99.5% of the slots attainable (only the two
    pinned-true nodes lose a slot); the circuit supplies the slots that
    take actual search to hit."""
    if i % 2 == 0:
        rng = random.Random(5000 + i)
        w = rng.choice((224, 256, 288))
        a, b, c = (rng.choice(_GATE_OPS) for _ in range(3))
        text = (f"(declare-const x (_ BitVec {w}))"
                "(declare-const b1 Bool)(declare-const b2 Bool)"
                "(declare-const b3 Bool)(declare-const b4 Bool)"
                f"(assert (or ({c} ({a} b1 b2) ({b} b3 b4)) (bvule x x)))")
    else:
        rng = random.Random(6000 + i)
        w = rng.choice((224, 256))
        a, b, c, d = (rng.choice(_GATE_OPS) for _ in range(4))
        text = (f"(declare-const x (_ BitVec {w}))"
                "(declare-const b1 Bool)(declare-const b2 Bool)"
                "(declare-const b3 Bool)(declare-const b4 Bool)"
                "(declare-const b5 Bool)(declare-const b6 Bool)"
                f"(assert (or ({d} ({c} ({a} b1 b2) ({b} b3 b4)) "
                f"({a} b5 b6)) (bvule x x)))")
    return parse_formula(text)


def test_full_method_needs_fewest_solutions(capsys):
    totals = {}
    for mode in Mode:
        total = 0
        for i in range(100):
            res = sample(_bench_fixture(i),
                         SamplerConfig(lam=3, seed=1, mode=mode))
            total += len(res.solutions)
        totals[mode] = total
    base = totals[Mode.PANSAMPLER]
    ratios = {}
    for mode in (Mode.ALT1, Mode.ALT2, Mode.ALT3):
        assert base <= totals[mode], (mode, totals)
        ratios[mode.value] = totals[mode] / base
    with capsys.disabled():
        pretty = ", ".join(f"{m}: {r:.3f}" for m, r in ratios.items())
        print(f"[PASS] ablation: sum|A|={base} for the full method on 100 "
              f"fixtures; ratios vs ablations {pretty} (all >= 1.0)")


def test_phase_bias_drives_hamming_distance(capsys):
    means = []
    for k in (4, 8, 16):
        f = parse_formula(
            f"(declare-const x (_ BitVec {k}))(assert (bvule x x))")
        zero = Assignment({"x": BvVal(k, 0)})
        flipped = DiversitySmtEngine(
            f, SamplerConfig(bias_p=1.0)).solve_once([zero], seed=11)
        assert flipped is not None
        assert flipped.assignment["x"].as_int() == (1 << k) - 1, k

        total = 0
        for t in range(200):
            got = DiversitySmtEngine(
                f, SamplerConfig(bias_p=0.85)).solve_once([zero], seed=1000 + t)
            total += got.assignment["x"].as_int().bit_count()
        mean = total / 200
        assert mean >= 0.75 * k, (k, mean)
        means.append((k, mean))
    with capsys.disabled():
        pretty = ", ".join(f"k={k}: {m:.2f} (floor {0.75 * k:.1f})"
                           for k, m in means)
        print(f"[PASS] bias: all-ones exact at p=1.0; mean Hamming {pretty}")


def test_sat_core_agrees_with_the_reference_solver(capsys):
    for seed in range(10_000):
        cnf = random_cnf(seed)
        got = solve(cnf)
        want = dpll(cnf.num_vars, cnf.clauses)
        assert (got is None) == (want is None), f"seed {seed}"
        if got is not None:
            for clause in cnf.clauses:
                assert any(got[abs(l)] == (l > 0) for l in clause), \
                    f"seed {seed}"
    with capsys.disabled():
        print("[PASS] SAT core: 10000 CNFs, 0 disagreements, "
              "all models re-checked clause-by-clause")


def _theory_fixture(seed: int):
    """Array/UF fixture that needs lemma rounds: aliased reads, a store
    chain, function congruence, or an array disequality."""
    rng = random.Random(9000 + seed)
    w = rng.choice((2, 3, 4))
    c1 = rng.randrange(1 << w)
    c2 = rng.randrange(1 << w)
    arr = f"(Array (_ BitVec {w}) (_ BitVec {w}))"
    shape = seed % 4
    if shape == 0:
        text = (f"(declare-const a {arr})"
                f"(declare-const i (_ BitVec {w}))"
                f"(declare-const j (_ BitVec {w}))"
                f"(assert (= (select (store a i (_ bv{c1} {w})) j)"
                f" (_ bv{c2} {w})))(assert (= i j))")
    elif shape == 1:
        text = (f"(declare-const a {arr})"
                f"(declare-const i (_ BitVec {w}))"
                f"(declare-const j (_ BitVec {w}))"
                f"(assert (= (select a i) (_ bv{c1} {w})))"
                f"(assert (= (select a j) (_ bv{c2} {w})))"
                f"(assert (= i j))")
    elif shape == 2:
        text = (f"(declare-fun g ((_ BitVec {w})) (_ BitVec {w}))"
                f"(declare-const i (_ BitVec {w}))"
                f"(declare-const j (_ BitVec {w}))"
                f"(assert (= (g i) (_ bv{c1} {w})))"
                f"(assert (= (g j) (_ bv{c2} {w})))"
                f"(assert (= i j))")
    else:
        text = (f"(declare-const a {arr})(declare-const b {arr})"
                f"(declare-const i (_ BitVec {w}))"
                f"(assert (distinct a b))"
                f"(assert (= (select a i) (_ bv{c1} {w})))")
    return parse_formula(text)


def test_theory_lemma_loops_stay_inside_the_static_bound(capsys):
    def drive(f) -> "DiversitySmtEngine":
        engine = DiversitySmtEngine(f)
        rng = random.Random(7)
        sols: list[Assignment] = []
        for _ in range(4):
            got = engine.solve_once(sols, rng.randrange(1 << 32))
            if got is None:
                break
            sols.append(got.assignment)
        return engine

    fixtures = 0
    with_lemmas = 0
    for seed in range(60):
        engine = drive(_theory_fixture(seed))
        # solve_once raises internally the moment any single lemma loop
        # passes the bound; re-check the lifetime total too.
        assert engine.lemma_rounds <= engine.lemma_bound, seed
        fixtures += 1
        if engine.lemmas:
            with_lemmas += 1
    for logic in ("QF_ABV", "QF_AUFBV"):
        for seed in range(120):
            engine = drive(random_formula(seed, logic=logic))
            assert engine.lemma_rounds <= engine.lemma_bound, (logic, seed)
            fixtures += 1
            if engine.lemmas:
                with_lemmas += 1
    assert fixtures >= 200
    assert with_lemmas >= 30
    with capsys.disabled():
        print(f"[PASS] lemma loops: {fixtures} fixtures, {with_lemmas} "
              f"needed lemmas, every loop within its static bound")


def test_suite_reruns_are_byte_identical(tmp_path, capsys):
    (tmp_path / "a.smt2").write_text(
        "(declare-const x (_ BitVec 3))(assert (bvule x x))\n")
    (tmp_path / "b.smt2").write_text(
        "(declare-const x Bool)(assert (or x (not x)))\n")
    (tmp_path / "c.smt2").write_text(
        "(declare-const a (Array (_ BitVec 2) (_ BitVec 2)))"
        "(declare-const i (_ BitVec 2))(assert (= (select a i) #b01))\n")
    argv = [str(tmp_path), "--targets", "0.8,0.95", "--lambda", "4",
            "--seed", "3", "--deterministic-timing"]
    assert main(argv) == 0
    records = (tmp_path / "suite_records.csv").read_bytes()
    agg = (tmp_path / "suite_aggregate.csv").read_bytes()
    assert main(argv) == 0
    assert (tmp_path / "suite_records.csv").read_bytes() == records
    assert (tmp_path / "suite_aggregate.csv").read_bytes() == agg

    # With live clocks only the time column may move.
    def masked() -> list[list[str]]:
        rows = []
        for line in (tmp_path / "suite_records.csv").read_text().splitlines():
            cells = line.split(",")
            if cells[0] != "benchmark":
                cells[6] = "-"
            rows.append(cells)
        return rows

    live = [str(tmp_path), "--targets", "0.8", "--lambda", "4", "--seed", "3"]
    assert main(live) == 0
    first = masked()
    assert main(live) == 0
    assert masked() == first
    with capsys.disabled():
        print("[PASS] determinism: suite reruns byte-identical "
              "(deterministic timing), time-masked identical otherwise")
