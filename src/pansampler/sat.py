"""CDCL SAT solving with a diversity-steered branching phase.

Standard machinery (two watched literals, VSIDS, Luby restarts, first-UIP
learning) with one twist: decision phases prefer the minority value of a
bit distribution with probability bias_p. Propagation and learning are
untouched, so completeness is unaffected.

The sampler solves one CNF many times, under different seeds and
distributions. Loading a CNF (dropping tautologies and duplicate
literals, collecting units, picking watches) gives the same level-0
state every time, so the second solver built from a Cnf object keeps
that state on the Cnf as a snapshot, and later solvers copy it instead
of loading again. A snapshot is taken afresh when the Cnf's clauses or
num_vars changed since. A Cnf solved once keeps nothing.

A Cnf may extend a base Cnf (`Cnf.base`): a refinement deviation or a
set of blocking clauses is the base's clauses plus a short suffix. Such
a Cnf restores the base's snapshot, taken on first use because a base
is always reused, and loads only the suffix on top of it, which gives
the same state as loading all its clauses. When the base is no longer
a prefix of the Cnf (its clauses or num_vars changed), the Cnf is
loaded in full.

Variable values live in one list indexed directly by the signed
literal: value[lit] is +1 when lit is true, -1 when false, 0 when free.
A negative index wraps into the upper half of the list, so the list
has 2 * num_vars + 1 slots and both polarities are written together.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import accumulate, chain

from .bitblast import BlastMap, Cnf
from .values import Assignment


class ConflictBudgetExceeded(Exception):
    """Resource-limit abort; distinct from an UNSAT answer."""


@dataclass
class SolverConfig:
    seed: int = 0
    bias_p: float = 0.85
    first_decision_only: bool = False
    conflict_budget: int = 1_000_000
    restart_base: int = 64
    decay: float = 0.95

    def __post_init__(self) -> None:
        if not (0.5 <= self.bias_p <= 1.0):
            raise ValueError(f"bias_p must lie in [0.5, 1], got {self.bias_p}")


class BitDistribution:
    """Per-SAT-variable 0/1 counts over a solution set."""

    def __init__(self, counts: dict[int, tuple[int, int]] | None = None) -> None:
        self.counts = counts or {}

    def preferred_phase(self, var: int) -> bool | None:
        """Minority phase, or None on a tie or an untracked variable."""
        got = self.counts.get(var)
        if got is None:
            return None
        c0, c1 = got
        if c0 == c1:
            return None
        return c1 < c0  # ones seen less often -> prefer True


def distribution_from(assignments: list[Assignment],
                      blast_map: BlastMap) -> BitDistribution:
    counts: dict[int, list[int]] = {}
    for a in assignments:
        for name, bit, v in a.scalar_bits():
            var = blast_map.forward.get((name, bit))
            if var is None:
                continue
            slot = counts.setdefault(var, [0, 0])
            slot[v] += 1
    return BitDistribution({k: (v[0], v[1]) for k, v in counts.items()})


def _luby(i: int) -> int:
    """i-th element (1-based) of the Luby restart sequence."""
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    while (1 << k) - 1 != i:
        i -= (1 << (k - 1)) - 1
        k = 1
        while (1 << k) - 1 < i:
            k += 1
    return 1 << (k - 1)


_RESCALE = 1e100


@dataclass
class _Level0:
    """A CNF as loaded, before any propagation or search: the clauses of
    two or more literals, deduplicated and in load order, their watch
    lists, the unit literals to enqueue at level 0, and whether an empty
    clause or two opposite units were seen."""

    watched: list[list[int]]
    watches: dict[int, list[list[int]]]
    units: list[int]
    unsat: bool


def _load(clauses: list[tuple[int, ...]], n: int,
          state: _Level0 | None = None) -> _Level0:
    """Load clauses over variables 1..n onto state, or onto an empty
    state when none is given."""
    every = set(chain.from_iterable(clauses))
    if every and (0 in every or min(every) < -n or max(every) > n):
        bad = next(c for c in clauses
                   if any(not 0 < abs(l) <= n for l in c))
        raise ValueError(f"clause {bad} has a literal outside ±1..{n}")
    if state is None:
        state = _Level0([], {}, [], False)
    watches = state.watches
    unit_set = set(state.units)
    for clause in clauses:
        seen: dict[int, None] = {}
        for l in clause:
            if -l in seen:
                break  # tautology
            seen[l] = None
        else:
            if len(seen) > 1:
                lits = list(seen)
                state.watched.append(lits)
                watches.setdefault(lits[0], []).append(lits)
                watches.setdefault(lits[1], []).append(lits)
            elif not seen or -clause[0] in unit_set:
                state.unsat = True
            elif clause[0] not in unit_set:
                unit_set.add(clause[0])
                state.units.append(clause[0])
    return state


class _Snapshot:
    """A pristine copy of a CNF's _Level0, kept on the Cnf.

    The watch lists are stored as indices into `watched`: literal
    `watch_lits[i]` watches the clauses numbered
    `watch_order[watch_slices[i]]`, in order. `source` is the clause list
    the state was loaded from, so that a later change to the Cnf shows."""

    def __init__(self, cnf: Cnf, state: _Level0) -> None:
        self.num_vars = cnf.num_vars
        self.source = list(cnf.clauses)
        self.watched = list(map(list.copy, state.watched))
        pos = {id(c): k for k, c in enumerate(state.watched)}
        self.watch_lits = list(state.watches)
        self.watch_order = [pos[id(c)] for lst in state.watches.values()
                            for c in lst]
        ends = list(accumulate(map(len, state.watches.values())))
        self.watch_slices = list(map(slice, [0] + ends, ends))
        self.units = state.units
        self.unsat = state.unsat

    def matches(self, cnf: Cnf) -> bool:
        return self.num_vars == cnf.num_vars and self.source == cnf.clauses

    def restore(self) -> _Level0:
        watched = list(map(list.copy, self.watched))
        flat = [watched[k] for k in self.watch_order]
        watches = dict(zip(self.watch_lits,
                           map(flat.__getitem__, self.watch_slices)))
        return _Level0(watched, watches, list(self.units), self.unsat)


_SEEN_ONCE = object()  # Cnf.solver_cache after the first solver build


def _level0(cnf: Cnf) -> _Level0:
    """The CNF's level-0 state, for a new solver to own: the base's
    snapshot plus the suffix for a Cnf that extends a base; otherwise
    loaded from the clauses, or copied from the snapshot once the Cnf is
    solved again."""
    base = cnf.base
    if base is not None and base.num_vars <= cnf.num_vars:
        k = len(base.clauses)
        if cnf.clauses[:k] == base.clauses:
            return _load(cnf.clauses[k:], cnf.num_vars,
                         _snapshot(base).restore())
    if cnf.solver_cache is None:
        cnf.solver_cache = _SEEN_ONCE
        return _load(cnf.clauses, cnf.num_vars)
    return _snapshot(cnf).restore()


def _snapshot(cnf: Cnf) -> _Snapshot:
    """The Cnf's snapshot, taken afresh unless it is up to date."""
    snap = cnf.solver_cache
    if not (isinstance(snap, _Snapshot) and snap.matches(cnf)):
        snap = _Snapshot(cnf, _load(cnf.clauses, cnf.num_vars))
        cnf.solver_cache = snap
    return snap


class CdclSolver:
    def __init__(self, cnf: Cnf, dist: BitDistribution | None = None,
                 cfg: SolverConfig | None = None) -> None:
        self.cfg = cfg or SolverConfig()
        self.dist = dist or BitDistribution()
        self.rng = random.Random(self.cfg.seed)
        state = _level0(cnf)
        n = cnf.num_vars
        self.num_vars = n
        self.value: list[int] = [0] * (2 * n + 1)  # indexed by literal
        self.level: list[int] = [0] * (n + 1)
        self.reason: list[list[int] | None] = [None] * (n + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity: list[float] = [0.0] * (n + 1)
        self.var_inc = 1.0
        self.heap: list[tuple[float, int]] = [(0.0, v) for v in range(1, n + 1)]
        heapq.heapify(self.heap)
        self.watches = state.watches
        self.saved_phase: list[bool] = [False] * (n + 1)
        self.phase_known: list[bool] = [False] * (n + 1)
        self.conflicts = 0
        self._unsat = state.unsat
        for lit in state.units:
            self._enqueue(lit, None)

    # -- bookkeeping ----------------------------------------------------

    def _watch(self, clause: list[int]) -> None:
        self.watches.setdefault(clause[0], []).append(clause)
        self.watches.setdefault(clause[1], []).append(clause)

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        value = self.value
        value[lit] = 1
        value[-lit] = -1
        var = abs(lit)
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.saved_phase[var] = lit > 0
        self.phase_known[var] = True
        self.trail.append(lit)

    def _propagate(self) -> list[int] | None:
        value = self.value
        watches = self.watches
        trail = self.trail
        while self.qhead < len(trail):
            false_lit = -trail[self.qhead]
            self.qhead += 1
            old = watches.get(false_lit)
            if not old:
                continue
            # Nothing is appended to `old` during the scan: a clause moves
            # only to a literal that is not false, and false_lit is false.
            kept: list[list[int]] = []
            for idx, clause in enumerate(old):
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                if value[first] == 1:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if value[lit] != -1:
                        clause[1] = lit
                        clause[k] = false_lit
                        watches.setdefault(lit, []).append(clause)
                        break
                else:
                    kept.append(clause)
                    if value[first] == -1:
                        kept.extend(old[idx + 1:])
                        watches[false_lit] = kept
                        return clause
                    self._enqueue(first, clause)
            watches[false_lit] = kept
        return None

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > _RESCALE:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1.0 / _RESCALE
            self.var_inc *= 1.0 / _RESCALE
            self.heap = [(-self.activity[v], v)
                         for v in range(1, self.num_vars + 1)
                         if self.value[v] == 0]
            heapq.heapify(self.heap)
            return
        heapq.heappush(self.heap, (-self.activity[var], var))

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        learnt: list[int] = [0]  # slot for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        p: int | None = None
        reason = conflict
        index = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            for q in reason:
                if p is not None and q == p:
                    continue
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[index])]:
                index -= 1
            p = self.trail[index]
            index -= 1
            seen[abs(p)] = False
            counter -= 1
            if counter == 0:
                break
            reason = self.reason[abs(p)] or []
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        back = max(self.level[abs(q)] for q in learnt[1:])
        return learnt, back

    def _cancel_until(self, target: int) -> None:
        value, trail, trail_lim = self.value, self.trail, self.trail_lim
        while len(trail_lim) > target:
            bound = trail_lim.pop()
            while len(trail) > bound:
                lit = trail.pop()
                value[lit] = 0
                value[-lit] = 0
                var = abs(lit)
                self.reason[var] = None
                heapq.heappush(self.heap, (-self.activity[var], var))
        self.qhead = len(trail)

    def _pick_var(self) -> int | None:
        while self.heap:
            neg_act, var = heapq.heappop(self.heap)
            if self.value[var] != 0:
                continue
            if -neg_act != self.activity[var]:
                continue  # stale entry; a fresher one exists
            return var
        return None

    def _pick_phase(self, var: int) -> bool:
        if self.cfg.first_decision_only and self.phase_known[var]:
            return self.saved_phase[var]
        pref = self.dist.preferred_phase(var)
        if pref is None:
            return self.rng.random() < 0.5
        if self.rng.random() < self.cfg.bias_p:
            return pref
        return not pref

    def solve(self) -> list[bool] | None:
        """A model as bools indexed 1..num_vars, or None when UNSAT."""
        if self._unsat:
            return None
        if self._propagate() is not None:
            return None
        restart_num = 0
        budget_mark = self.cfg.restart_base * _luby(restart_num + 1)
        conflicts_here = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if self.conflicts > self.cfg.conflict_budget:
                    raise ConflictBudgetExceeded(
                        f"no answer within {self.cfg.conflict_budget} conflicts")
                if not self.trail_lim:
                    return None
                learnt, back = self._analyze(conflict)
                self._cancel_until(back)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    self._watch(learnt)
                    self._enqueue(learnt[0], learnt)
                self.var_inc /= self.cfg.decay
                continue
            if conflicts_here >= budget_mark:
                restart_num += 1
                budget_mark = self.cfg.restart_base * _luby(restart_num + 1)
                conflicts_here = 0
                self._cancel_until(0)
                continue
            var = self._pick_var()
            if var is None:
                return [False] + [x == 1 for x in
                                  self.value[1:self.num_vars + 1]]
            phase = self._pick_phase(var)
            self.trail_lim.append(len(self.trail))
            self._enqueue(var if phase else -var, None)


def solve(cnf: Cnf, dist: BitDistribution | None = None,
          cfg: SolverConfig | None = None) -> list[bool] | None:
    """Solve a CNF; model indexed 1..num_vars at positions 1.., or None."""
    model = CdclSolver(cnf, dist, cfg).solve()
    if model is not None:
        true_lits = {v if model[v] else -v for v in range(1, len(model))}
        for clause in cnf.clauses:
            if true_lits.isdisjoint(clause):
                raise AssertionError("solver produced a falsifying model")
    return model
