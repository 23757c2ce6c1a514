"""Coverage-guided sampling loop.

Each iteration draws a batch of candidate solutions from the diversity
solver, scores them against the accumulated coverage, keeps the best,
refines it by per-variable deviation re-solves, and absorbs it. Modes:

- pansampler: distribution-biased candidates, coverage scoring, refinement
- alt1: blocking clauses over prior solutions instead of the bias
- alt2: Manhattan-distance scoring instead of coverage scoring
- alt3: no refinement step
"""

from __future__ import annotations

import operator
import random
import time
from dataclasses import dataclass, field
from enum import Enum

from .abstraction import Abstraction, abstract_formula, project_assignment
from .bitblast import BlastMap, Cnf, bit_blast
from .coverage import (AstBitUniverse, CoverState, build_universe, cover_set,
                       manhattan_score)
from .evaluate import satisfies
from .sat import BitDistribution, SolverConfig, distribution_from
from .sat import solve as sat_solve
from .terms import Formula
from .theory import Conflict, axiom_instance_bound, theory_check
from .values import Assignment, BoolVal, BvVal


class Mode(str, Enum):
    PANSAMPLER = "pansampler"
    ALT1 = "alt1"
    ALT2 = "alt2"
    ALT3 = "alt3"


class FormulaUnsatError(Exception):
    """The input formula has no solution; the solution set is empty."""


@dataclass
class SamplerConfig:
    target_coverage: float = 0.995
    lam: int = 50  # candidate batch size per iteration
    max_solutions: int = 1000
    time_budget: float = 3600.0
    mode: Mode = Mode.PANSAMPLER
    seed: int = 0
    bias_p: float = 0.85
    first_decision_only: bool = False
    all_violations: bool = False
    conflict_budget: int = 1_000_000

    def __post_init__(self) -> None:
        if isinstance(self.mode, str) and not isinstance(self.mode, Mode):
            self.mode = Mode(self.mode)
        if not (0.0 < self.target_coverage <= 1.0):
            raise ValueError("target_coverage must lie in (0, 1]")
        if self.lam < 1:
            raise ValueError("lam must be >= 1")
        if self.max_solutions < 1:
            raise ValueError("max_solutions must be >= 1")


@dataclass
class SampleResult:
    solutions: list[Assignment]
    coverage_star_trace: list[float]
    achieved: bool
    iterations: int
    wall_time: float
    phase_times: dict[str, float]
    reason: str  # target | max_solutions | timeout | stall
    coverage: dict


class _Priors:
    """Prior solutions, projected, under one blast map: the bias
    distribution and the blocking clauses, each computed on first use."""

    def __init__(self, projected: list[Assignment], bmap: BlastMap) -> None:
        self.projected = projected
        self.bmap = bmap
        self._dist: BitDistribution | None = None
        self._blocking: list[tuple[int, ...]] | None = None

    def holds(self, projected: list[Assignment], bmap: BlastMap) -> bool:
        return (bmap is self.bmap and len(projected) == len(self.projected)
                and all(map(operator.is_, projected, self.projected)))

    def distribution(self) -> BitDistribution:
        if self._dist is None:
            self._dist = distribution_from(self.projected, self.bmap)
        return self._dist

    def blocking(self) -> list[tuple[int, ...]]:
        """One clause per solution, excluding its tracked bits."""
        if self._blocking is None:
            forward = self.bmap.forward
            self._blocking = []
            for p in self.projected:
                clause = []
                for name, bit, v in p.scalar_bits():
                    var = forward.get((name, bit))
                    if var is not None:
                        clause.append(-var if v else var)
                self._blocking.append(tuple(clause))
        return self._blocking


class DiversitySmtEngine:
    """Lazy-theory diversity solver with lemmas kept for its lifetime."""

    def __init__(self, f: Formula, all_violations: bool = False,
                 conflict_budget: int = 1_000_000) -> None:
        self.f = f
        self.abs: Abstraction = abstract_formula(f)
        self.lemmas: list[int] = []
        self._lemma_set: set[int] = set()
        self.all_violations = all_violations
        self.conflict_budget = conflict_budget
        self.lemma_bound = axiom_instance_bound(f, self.abs)
        self.lemma_rounds = 0
        # The base CNF and blast map for the lemma and declaration counts
        # in _base_key, and, per extra tuple, the variable count and the
        # clauses past the base of the CNF that extends it.
        self._base: tuple[Cnf, BlastMap] | None = None
        self._base_key: tuple[int, int] | None = None
        self._suffixes: dict[tuple[int, ...], tuple[int, list]] = {}
        # The last solutions projected, by id, each with its projection,
        # for the atom count in _projected_atoms.
        self._projections: dict[int, tuple[Assignment, Assignment]] = {}
        self._projected_atoms = -1
        self._priors: _Priors | None = None

    def blast(self, extra: tuple[int, ...] = ()) -> tuple[Cnf, BlastMap]:
        """CNF of abstracted assertions, lemmas, and extra constraints.

        The assertions and lemma images are blasted once per lemma set
        into a base CNF, which a new one replaces when a lemma (and with
        it, maybe, fresh atoms) arrives. Extra constraints are blasted on
        top of the base, once per extra tuple and base; the CNF extends
        the base and equals one blast of all three."""
        images = [self.abs.rewrite(l) for l in self.lemmas]
        extra_images = [self.abs.rewrite(t) for t in extra]
        decls = self.abs.formula.decls
        key = (len(self.lemmas), len(decls))
        if key != self._base_key:
            assertions = list(self.abs.formula.assertions) + images
            self._base = bit_blast(self.f.table, decls, assertions)
            self._base_key = key
            self._suffixes = {}
        base, bmap = self._base
        if not extra:
            return base, bmap
        got = self._suffixes.get(extra)
        if got is None:
            cnf, _ = bit_blast(self.f.table, decls, extra_images, base=base)
            self._suffixes[extra] = (cnf.num_vars,
                                     cnf.clauses[len(base.clauses):])
            return cnf, bmap
        num_vars, suffix = got
        return Cnf(num_vars, base.clauses + suffix, base=base), bmap

    def project(self, solutions: list[Assignment]) -> list[Assignment]:
        """Projections onto the abstraction, each computed once per
        solution and atom set. Only the last call's solutions are kept,
        each beside its projection: a kept solution stays alive, so no
        other object can take its id."""
        atoms = len(self.abs.atom_map)
        known = self._projections if atoms == self._projected_atoms else {}
        kept: dict[int, tuple[Assignment, Assignment]] = {}
        out = []
        for a in solutions:
            got = known.get(id(a))
            if got is None:
                got = (a, project_assignment(self.abs, a))
            kept[id(a)] = got
            out.append(got[1])
        self._projections = kept
        self._projected_atoms = atoms
        return out

    def _priors_under(self, projected: list[Assignment],
                      bmap: BlastMap) -> _Priors:
        """The projected prior solutions under a blast map, kept until
        either changes."""
        got = self._priors
        if got is None or not got.holds(projected, bmap):
            got = self._priors = _Priors(projected, bmap)
        return got

    def _lift(self, model: list[bool], bmap: BlastMap) -> Assignment:
        a = Assignment()
        for name, sort in self.abs.formula.decls.items():
            if sort.is_bool:
                a.set(name, BoolVal(model[bmap.forward[(name, 0)]]))
            else:
                raw = 0
                for b in range(sort.width):
                    if model[bmap.forward[(name, b)]]:
                        raw |= 1 << b
                a.set(name, BvVal(sort.width, raw))
        return a

    def solve_once(self, prior: list[Assignment], seed: int, bias_p: float = 0.85,
                   use_bias: bool = True, blocking: bool = False,
                   extra: tuple[int, ...] = (),
                   first_decision_only: bool = False) -> Assignment | None:
        """One diversity solve: None means the blasted problem (with any
        blocking or extra constraints) is unsatisfiable."""
        seeds = random.Random(seed)
        prior_projected = self.project(prior)
        rounds = 0
        while True:
            cnf, bmap = self.blast(extra)
            priors = self._priors_under(prior_projected, bmap)
            if blocking and prior_projected:
                cnf = Cnf(cnf.num_vars, cnf.clauses + priors.blocking(),
                          base=cnf.base or cnf)
            dist = priors.distribution() if use_bias else BitDistribution()
            cfg = SolverConfig(seed=seeds.randrange(1 << 32), bias_p=bias_p,
                               first_decision_only=first_decision_only,
                               conflict_budget=self.conflict_budget)
            model = sat_solve(cnf, dist, cfg)
            if model is None:
                return None
            candidate = self._lift(model, bmap)
            verdict = theory_check(self.f, self.abs, candidate,
                                   self.all_violations)
            if isinstance(verdict, Conflict):
                rounds += 1
                self.lemma_rounds += 1
                if rounds > self.lemma_bound:
                    raise AssertionError(
                        "lemma loop exceeded its static instance bound")
                progressed = False
                for lemma in verdict.lemmas:
                    if lemma not in self._lemma_set:
                        self._lemma_set.add(lemma)
                        self.lemmas.append(lemma)
                        progressed = True
                if not progressed:
                    raise AssertionError("theory conflict produced no new lemma")
                continue
            solution = verdict.assignment
            if not satisfies(self.f, solution):
                raise AssertionError("theory-consistent candidate fails the formula")
            return solution


def post_opt(engine: DiversitySmtEngine, universe: AstBitUniverse,
             state: CoverState, solutions: list[Assignment],
             alpha: Assignment, cfg: SamplerConfig,
             seeds: random.Random) -> Assignment:
    """Refine alpha by re-solving with one variable forced off its value.

    Keeps deviants scoring at least alpha's gain; ties return alpha."""
    f = engine.f
    best = alpha
    best_score = state.gain(cover_set(f, universe, alpha))
    for name, sort in f.bv_bool_vars():
        val = alpha[name]
        const = f.table.mk_const_of_sort(sort, val.as_int())
        deviation = f.table.mk_distinct(f.table.mk_var(name, sort), const)
        res = engine.solve_once(solutions, seeds.randrange(1 << 32),
                                bias_p=cfg.bias_p,
                                use_bias=cfg.mode is not Mode.ALT1,
                                blocking=cfg.mode is Mode.ALT1,
                                extra=(deviation,),
                                first_decision_only=cfg.first_decision_only)
        if res is None:
            continue  # no solution deviates on this variable
        score = state.gain(cover_set(f, universe, res))
        if score > best_score:
            best = res
            best_score = score
    return best


def sample(f: Formula, cfg: SamplerConfig) -> SampleResult:
    """Sample a coverage-maximizing solution set for f.

    Raises FormulaUnsatError when f has no solution at all."""
    start = time.perf_counter()
    universe = build_universe(f)
    state = CoverState(universe)
    engine = DiversitySmtEngine(f, all_violations=cfg.all_violations,
                                conflict_budget=cfg.conflict_budget)
    master = random.Random(cfg.seed)
    solutions: list[Assignment] = []
    trace: list[float] = []
    phases = {"sampling": 0.0, "evaluation": 0.0, "optimization": 0.0}
    consecutive_zero = 0
    iterations = 0
    reason = "stall"

    def out_of_time() -> bool:
        return time.perf_counter() - start >= cfg.time_budget

    while True:
        if state.coverage_star() >= cfg.target_coverage:
            reason = "target"
            break
        if len(solutions) >= cfg.max_solutions:
            reason = "max_solutions"
            break
        if out_of_time():
            reason = "timeout"
            break
        iterations += 1
        t0 = time.perf_counter()
        candidates: list[Assignment] = []
        for _ in range(cfg.lam):
            seed = master.randrange(1 << 32)
            cand = engine.solve_once(
                solutions, seed, bias_p=cfg.bias_p,
                use_bias=cfg.mode is not Mode.ALT1,
                blocking=cfg.mode is Mode.ALT1,
                first_decision_only=cfg.first_decision_only)
            if cand is None:
                if cfg.mode is Mode.ALT1 and solutions:
                    break  # blocked out: every solution already sampled
                raise FormulaUnsatError("formula has no solution")
            candidates.append(cand)
            if out_of_time():
                break
        phases["sampling"] += time.perf_counter() - t0
        if not candidates:
            reason = "stall"
            break
        t0 = time.perf_counter()
        best_idx = 0
        best_score = -1
        for i, cand in enumerate(candidates):
            if cfg.mode is Mode.ALT2:
                score = manhattan_score(solutions, cand)
            else:
                score = state.gain(cover_set(f, universe, cand))
            if score > best_score:
                best_idx, best_score = i, score
        selected = candidates[best_idx]
        phases["evaluation"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        if cfg.mode is not Mode.ALT3:
            selected = post_opt(engine, universe, state, solutions, selected,
                                cfg, master)
        phases["optimization"] += time.perf_counter() - t0
        slots = cover_set(f, universe, selected)
        # A constant-only formula tracks nothing; absorbing one solution
        # marks it vacuously covered.
        vacuous = universe.num_entries == 0 and state.num_solutions == 0
        if state.gain(slots) == 0 and not vacuous:
            consecutive_zero += 1
            if consecutive_zero >= cfg.lam:
                reason = "stall"
                break
            continue
        consecutive_zero = 0
        if not satisfies(f, selected):
            raise AssertionError("emitting a non-solution")
        solutions.append(selected)
        state.absorb(slots)
        trace.append(state.coverage_star())

    return SampleResult(
        solutions=solutions,
        coverage_star_trace=trace,
        achieved=reason == "target",
        iterations=iterations,
        wall_time=time.perf_counter() - start,
        phase_times=phases,
        reason=reason,
        coverage=state.report(),
    )
