"""Coverage-guided sampling loop.

Each iteration draws a batch of candidate solutions from the diversity
solver (their SAT solves run as the lanes of one sat.Batch), scores
them against the accumulated coverage, keeps the best, refines it by
per-variable deviation re-solves (the lanes of another sat.Batch), and
absorbs it. A deviation (variable, value) is one clause over the
variable's SAT bits, saying that some bit differs from the value, added
to the base CNF. A run stalls once lam iterations in a row absorb
nothing, or as soon as every AST-bit left uncovered is proved
unreachable (see Unreachable). Modes:

- pansampler: distribution-biased candidates, coverage scoring, refinement
- alt1: blocking clauses over prior solutions instead of the bias
- alt2: Manhattan-distance scoring instead of coverage scoring
- alt3: no refinement step
"""

from __future__ import annotations

import operator
import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

from .abstraction import Abstraction, abstract_formula, project_assignment
from .bitblast import BlastMap, Cnf, bit_blast
from .coverage import (AstBitUniverse, CoverState, build_universe, cover_set,
                       manhattan_score)
from .evaluate import Evaluator, assertions_hold, satisfies
from .sat import (Batch, BitDistribution, ConflictBudgetExceeded,
                  DeadlinePassed, Model, SolverConfig, distribution_from,
                  joined, live_state, word)
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

    def __post_init__(self) -> None:
        if isinstance(self.mode, str) and not isinstance(self.mode, Mode):
            self.mode = Mode(self.mode)
        if not (0.0 < self.target_coverage <= 1.0):
            raise ValueError("target_coverage must lie in (0, 1]")
        if self.lam < 1:
            raise ValueError("lam must be >= 1")
        if self.max_solutions < 1:
            raise ValueError("max_solutions must be >= 1")
        if not self.time_budget >= 0.0:  # also rejects NaN
            raise ValueError("time_budget must be >= 0")
        if not (0.5 <= self.bias_p <= 1.0):
            raise ValueError("bias_p must lie in [0.5, 1]")


@dataclass
class SampleResult:
    solutions: list[Assignment]
    coverage_star_trace: list[float]
    achieved: bool
    iterations: int
    wall_time: float
    phase_times: dict[str, float]
    reason: str  # target | max_solutions | timeout | stall | conflict_budget
    coverage: dict
    covered: int  # cover bitset of the solutions (see coverage.cover_set)
    unreachable: int  # slots proved unreachable, as a cover bitset
    universe: AstBitUniverse  # the AST-bits the bitsets index


class Candidate(NamedTuple):
    """A solution with the cover bitset of its AST-bits."""

    assignment: Assignment
    slots: int


class DiversitySmtEngine:
    """Lazy-theory diversity solver with lemmas kept for its lifetime, in
    the order they arrived.

    In alt1 mode each solve excludes the prior solutions by blocking
    clauses; in every other mode it steers phases toward their minority
    bits with probability cfg.bias_p. Past deadline (a time.perf_counter()
    value), a new base's blast and every SAT solve, before it starts or
    during its search, raise DeadlinePassed.

    One record, which _update keeps current, serves the prior solutions:
    the solutions themselves, kept alive so that `is` comparisons stay
    sound; their projections, made under the atom count in _atoms; and,
    under the blast map in _bmap, their bias distribution and alt1's
    blocking clauses as one extension of the base, each made on first
    use."""

    def __init__(self, f: Formula, cfg: SamplerConfig | None = None,
                 deadline: float = float("inf")) -> None:
        self.f = f
        self.cfg = cfg or SamplerConfig()
        self.deadline = deadline
        self.universe = build_universe(f)
        self.abs: Abstraction = abstract_formula(f)
        self.lemmas: dict[int, None] = {}
        self.lemma_bound = axiom_instance_bound(f, self.abs)
        self.lemma_rounds = 0
        # The abstracted images that a proof asked for and no base had,
        # and the base CNF and blast map for the lemma, declaration and
        # asked image counts in _base_key.
        self.asked: list[int] = []
        self._base: tuple[Cnf, BlastMap] | None = None
        self._base_key: tuple[int, int, int] | None = None
        self._prior: list[Assignment] = []
        self._projected: list[Assignment] = []
        self._atoms = -1
        self._bmap: BlastMap | None = None
        self._dist: BitDistribution | None = None
        self._blocks: Cnf | None = None

    def blast(self, deviation: tuple[str, int] | None = None
              ) -> tuple[Cnf, BlastMap]:
        """CNF of abstracted assertions and lemmas, and a deviation.

        The assertions and lemma images are blasted once per lemma set
        into a base CNF, which a new one replaces when a lemma (and with
        it, maybe, fresh atoms) arrives. A deviation (name, value) extends
        the base with one clause over the variable's bits, false exactly
        when every bit equals the value's: the asserted term
        distinct(name, value) in Plaisted-Greenbaum form. It has the
        models of a blast of that term over the base's variables and,
        where the blast makes a new gate (fixed at level 0), the same
        unit propagation."""
        decls = self.abs.formula.decls
        key = (len(self.lemmas), len(decls), len(self.asked))
        if key != self._base_key:
            if time.perf_counter() > self.deadline:
                raise DeadlinePassed("the deadline passed before the blast")
            images = [self.abs.rewrite(l) for l in self.lemmas]
            assertions = list(self.abs.formula.assertions) + images
            self._base = bit_blast(self.f.table, decls, assertions,
                                   self.asked)
            # A lemma's first rewrite may declare fresh atoms.
            self._base_key = (len(self.lemmas), len(decls), len(self.asked))
        base, bmap = self._base
        if deviation is None:
            return base, bmap
        name, value = deviation
        clause = tuple(-v if value >> b & 1 else v
                       for b, v in enumerate(bmap.bits[name]))
        return Cnf(base.num_vars, (clause,), base=base), bmap

    def _update(self, prior: list[Assignment], atoms: int,
                bmap: BlastMap) -> None:
        """Bring the record to prior, projected under atoms atoms, and to
        bmap. A prior list that does not begin with the kept solutions, or
        another atom count, empties the record; another map drops the
        distribution and the blocking clauses. Then only the new solutions
        are projected, and their counts are added to the distribution and
        their blocking clauses joined after the kept ones."""
        kept = self._prior
        if (atoms != self._atoms or len(prior) < len(kept)
                or not all(map(operator.is_, prior, kept))):
            self._prior, self._projected, self._atoms = [], [], atoms
            self._bmap = None
        if bmap is not self._bmap:
            self._bmap, self._dist, self._blocks = bmap, None, None
        new = prior[len(self._prior):]
        if not new:
            return
        projected = [project_assignment(self.abs, a) for a in new]
        self._prior += new
        self._projected += projected
        if self._dist is not None:
            self._dist = distribution_from(projected, bmap, self._dist)
        if self._blocks is not None:
            self._blocks = joined(self._blocks, self._blocking(projected))

    def _blocking(self, projected: list[Assignment]) -> Cnf:
        """One clause per projected solution excluding its tracked bits,
        as an extension of the current base."""
        base, bmap = self._base
        clauses = [tuple(map(operator.neg, bmap.literals(p)))
                   for p in projected]
        return Cnf(base.num_vars, clauses, base=base)

    def _lift(self, model: Model, bmap: BlastMap) -> Assignment:
        a = Assignment()
        for name, sort in self.abs.formula.decls.items():
            bits = bmap.bits[name]
            if sort.is_bool:
                a.set(name, BoolVal(model[bits[0]]))
            else:
                a.set(name, BvVal(sort.width, word(model, bits)))
        return a

    def _problem(self, prior: list[Assignment], atoms: int,
                 deviations: list[tuple[str, int] | None]
                 ) -> tuple[list[Cnf], BlastMap, BitDistribution]:
        """The CNFs of one round's SAT solves, one per deviation (None for
        none), with their blast map and distribution."""
        cnfs = [self.blast(d)[0] for d in deviations]
        bmap = self._base[1]
        self._update(prior, atoms, bmap)
        if self.cfg.mode is Mode.ALT1:
            dist = BitDistribution()
            if prior:
                # The blocking clauses are one extension, which keeps its
                # prepared clauses across solves; a deviation joins it
                # after its own clause.
                if self._blocks is None:
                    self._blocks = self._blocking(self._projected)
                blocks = self._blocks
                cnfs = [blocks if cnf.base is None else joined(cnf, blocks)
                        for cnf in cnfs]
        else:
            if self._dist is None:
                self._dist = distribution_from(self._projected, bmap)
            dist = self._dist
        return cnfs, bmap, dist

    def _sat_cfg(self, seeds: random.Random) -> SolverConfig:
        return SolverConfig(seed=seeds.randrange(1 << 32),
                            bias_p=self.cfg.bias_p, deadline=self.deadline)

    def _accept(self, model: Model, bmap: BlastMap, rounds: int
                ) -> Candidate | None:
        """The candidate of a SAT model, evaluated once, in one pass over
        the formula, which gives both the check that it satisfies the
        formula and its cover bitset; or None when the theories refute
        it, after keeping the conflict's lemma. rounds is the number of
        lemmas the calling solve has kept so far."""
        candidate = self._lift(model, bmap)
        verdict = theory_check(self.f, self.abs, candidate)
        if isinstance(verdict, Conflict):
            self.lemma_rounds += 1
            if rounds + 1 > self.lemma_bound:
                raise AssertionError(
                    "lemma loop exceeded its static instance bound")
            lemma, = verdict.lemmas
            if lemma in self.lemmas:
                raise AssertionError("theory conflict produced no new lemma")
            self.lemmas[lemma] = None
            return None
        solution = verdict.assignment
        memo = Evaluator(self.f.table, solution).fill(self.universe.order)
        if not assertions_hold(self.f, memo):
            raise AssertionError("theory-consistent candidate fails the formula")
        return Candidate(solution, cover_set(self.universe, memo))

    def solve_once(self, prior: list[Assignment], seed: int,
                   deviation: tuple[str, int] | None = None
                   ) -> Candidate | None:
        """One diversity solve: None means the blasted problem (with any
        blocking clauses or deviation) is unsatisfiable. A one-lane
        solve_batch."""
        return self.solve_batch(prior, [seed],
                                [deviation] if deviation else None)[0]

    def solve_batch(self, prior: list[Assignment], seeds: list[int],
                    deviations: list[tuple[str, int]] | None = None
                    ) -> list[Candidate | None]:
        """One diversity solve per seed, each with its deviation, in turn,
        up to and including the first that ends past the deadline.
        Without deviations the solves are candidates, all of one CNF, and
        the answers also end at the first None: every solve after it
        would be of the same UNSAT CNF.

        A solve runs rounds, its SAT seeds drawn from random.Random(seed),
        until the theories accept a model or its CNF is UNSAT, its prior
        solutions projected as they were under the atom count it began
        with. Every round is a lane of a Batch, with its deviation's
        clause. A lemma ends the batch: the next one starts with the next
        round of the solve that met it, on the new base, and the solves
        after it join that batch when the atom count is still the one
        that solve began with (else they form the batch after its last
        round, under the new count)."""
        every = deviations or [None] * len(seeds)
        out: list[Candidate | None] = []
        # One (rng, atom count, lemmas kept) per solve of the next batch.
        lanes: list[tuple[random.Random, int, int]] = []
        while len(out) < len(seeds):
            self.blast()  # a new lemma's first rewrite may add atoms
            atoms = len(self.abs.atom_map)
            if not lanes or lanes[0][1] == atoms:
                lanes += [(random.Random(s), atoms, 0)
                          for s in seeds[len(out) + len(lanes):]]
            cnfs, bmap, dist = self._problem(
                prior, lanes[0][1], every[len(out):len(out) + len(lanes)])
            cfgs = [self._sat_cfg(rng) for rng, _, _ in lanes]
            batch = Batch(cnfs, dist, cfgs)
            for lane, (cnf, cfg, (rng, began, rounds)) in enumerate(
                    zip(cnfs, cfgs, lanes)):
                model = sat_solve(cnf, dist, cfg, batch=batch, lane=lane)
                candidate = None
                if model is not None:
                    candidate = self._accept(model, bmap, rounds)
                    if candidate is None:  # refuted: a lemma was kept
                        lanes = [(rng, began, rounds + 1)]
                        break
                out.append(candidate)
                if (candidate is None and not deviations
                        or time.perf_counter() > self.deadline):
                    return out
            else:
                lanes = []
        return out


def post_opt(engine: DiversitySmtEngine, state: CoverState,
             solutions: list[Assignment], seeds: random.Random,
             alpha: Candidate,
             out_of_time: Callable[[], bool] = lambda: False) -> Candidate:
    """Refine alpha by re-solving with one variable forced off its value.

    Every variable's deviation, each with its seed drawn in turn, is
    solved in one batch. Keeps deviants scoring above the best so far;
    ties keep the earlier, alpha first. Returns alpha once out_of_time
    says so, and the best of the deviations solved when the deadline
    passes inside the batch."""
    if out_of_time():
        return alpha
    deviations = [(name, alpha.assignment[name].as_int())
                  for name, _ in engine.f.bv_bool_vars()]
    lane_seeds = [seeds.randrange(1 << 32) for _ in deviations]
    best = alpha
    best_score = state.gain(alpha.slots)
    for res in engine.solve_batch(solutions, lane_seeds, deviations):
        if res is None:
            continue  # no solution deviates on this variable
        score = state.gain(res.slots)
        if score > best_score:
            best = res
            best_score = score
    return best


PROOF_CONFLICTS = 1000  # conflict budget of one unreachability proof


class Unreachable:
    """AST-bit slots proved unreachable, as a cover bitset.

    Slot 2k+v, entry k = (node n, bit b), is proved when the engine's base
    CNF plus the unit clause setting bit b of n's blasted image to v is
    UNSAT: at once, building no solver, when that literal is false in the
    base's live level-0 values, else by a solve. A node that occurs only
    inside a theory atom has no gate in the base until a proof asks for
    it; from then on every base encodes its image after the assertions.
    That re-blast changes no sample: the image's gates are Tseitin
    definitions numbered after every variable the base had, which unit
    propagation sets as soon as their inputs are set, so a conflict-free
    solve decides the same variables with the same rng draws, a replay's
    conflict analysis never meets them, and they keep every answer, as
    definitions preserve satisfiability. The
    abstraction over-approximates and every lemma is a valid theory fact,
    so every solution, projected, is a model of the base CNF: no solution
    covers a proved slot, and a proof holds for the rest of the run. A
    slot whose proof failed, on SAT or on the conflict budget, is tried
    again only once the lemma count changes. No proof draws from the
    sampler's rng or adds a lemma."""

    def __init__(self, engine: DiversitySmtEngine) -> None:
        self.engine = engine
        self.universe = engine.universe
        self.proved = 0
        self._failed = 0  # slots not proved under _failed_at lemmas
        self._failed_at = -1

    def proves_rest(self, covered: int,
                    out_of_time: Callable[[], bool]) -> bool:
        """Whether every slot outside covered is proved unreachable.
        Tries the open slots in order, up to the first it cannot prove."""
        lemmas = len(self.engine.lemmas)
        if lemmas != self._failed_at:
            self._failed, self._failed_at = 0, lemmas
        every = (1 << self.universe.num_ast_bits) - 1
        open_ = every & ~covered & ~self.proved
        if open_ & self._failed:
            return False
        while open_:
            low = open_ & -open_
            if out_of_time():
                return False
            if not self._proves(low.bit_length() - 1):
                self._failed |= low
                return False
            self.proved |= low
            open_ ^= low
        return True

    def _proves(self, slot: int) -> bool:
        k, v = divmod(slot, 2)
        tid, bit = self.universe.entries[k]
        image = self.engine.abs.rewrite(tid)
        try:
            base, bmap = self.engine.blast()
            if image not in bmap.terms:  # a node only inside a theory atom
                self.engine.asked.append(image)
                base, bmap = self.engine.blast()
            lit = bmap.terms[image]
            if isinstance(lit, list):
                lit = lit[bit]
            unit = lit if v else -lit
            live = live_state(base, self.engine.deadline)
            if live.unsat or live.value[unit] == -1:
                return True  # the base's units alone refute it
            cnf = Cnf(base.num_vars, [(unit,)], base=base)
            return sat_solve(cnf, None, SolverConfig(
                seed=0, conflict_budget=PROOF_CONFLICTS,
                deadline=self.engine.deadline)) is None
        except (ConflictBudgetExceeded, DeadlinePassed):
            return False


def sample(f: Formula, cfg: SamplerConfig) -> SampleResult:
    """Sample a coverage-maximizing solution set for f.

    Raises FormulaUnsatError when f has no solution at all."""
    start = time.perf_counter()
    engine = DiversitySmtEngine(f, cfg, start + cfg.time_budget)
    universe = engine.universe
    state = CoverState(universe)
    unreachable = Unreachable(engine)
    master = random.Random(cfg.seed)
    solutions: list[Assignment] = []
    trace: list[float] = []
    phases = {"sampling": 0.0, "evaluation": 0.0, "optimization": 0.0}
    consecutive_zero = 0
    iterations = 0
    reason = "stall"

    def out_of_time() -> bool:
        return time.perf_counter() - start >= cfg.time_budget

    try:
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
            # The seeds are drawn ahead and master rewound; it then
            # advances past the seeds of the candidates the loop takes.
            rewind = master.getstate()
            seeds = [master.randrange(1 << 32) for _ in range(cfg.lam)]
            master.setstate(rewind)
            candidates: list[Candidate] = []
            for cand in engine.solve_batch(solutions, seeds):
                master.randrange(1 << 32)
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
                    score = manhattan_score(solutions, cand.assignment)
                else:
                    score = state.gain(cand.slots)
                if score > best_score:
                    best_idx, best_score = i, score
            selected = candidates[best_idx]
            phases["evaluation"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            if cfg.mode is not Mode.ALT3:
                selected = post_opt(engine, state, solutions, master,
                                    selected, out_of_time)
            phases["optimization"] += time.perf_counter() - t0
            assignment, slots = selected
            # A constant-only formula tracks nothing; absorbing one solution
            # marks it vacuously covered.
            vacuous = universe.num_entries == 0 and state.num_solutions == 0
            if state.gain(slots) == 0 and not vacuous:
                # Stall after lam zero-gain iterations in a row, or at once
                # when no slot left uncovered can be covered.
                consecutive_zero += 1
                if consecutive_zero >= cfg.lam or unreachable.proves_rest(
                        state.covered, out_of_time):
                    reason = "stall"
                    break
                continue
            consecutive_zero = 0
            if not satisfies(f, assignment):
                raise AssertionError("emitting a non-solution")
            solutions.append(assignment)
            state.absorb(slots)
            trace.append(state.coverage_star())
    except ConflictBudgetExceeded:
        # A candidate or deviation solve gave up: the run ends, keeping
        # the solutions absorbed so far.
        reason = "conflict_budget"
    except DeadlinePassed:
        reason = "timeout"

    return SampleResult(
        solutions=solutions,
        coverage_star_trace=trace,
        achieved=reason == "target",
        iterations=iterations,
        wall_time=time.perf_counter() - start,
        phase_times=phases,
        reason=reason,
        coverage=state.report(),
        covered=state.covered,
        unreachable=unreachable.proved,
        universe=universe,
    )
