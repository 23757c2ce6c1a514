"""CDCL SAT solving with a diversity-steered branching phase.

Standard machinery (two watched literals, VSIDS, Luby restarts, first-UIP
learning) with one twist: decision phases prefer the minority value of a
bit distribution with probability bias_p. Propagation and learning are
untouched, so completeness is unaffected.

The sampler solves one CNF many times, under different seeds and
distributions, and almost none of those solves meets a conflict. Until
its first conflict a solve does not depend on how its state is laid out:
- VSIDS activity is zero, so each decision takes the lowest-numbered
  free variable. A cursor over the variable indices finds it, and the
  VSIDS heap is built at the first conflict.
- Phases come from the per-solve rng, in decision order.
- After each decision, the closure under unit propagation is unique, and
  whether it holds a conflict does not depend on propagation order.
So a solve that meets no conflict returns the same model from any valid
level-0 state of its CNF, however propagation reaches a clause (through
two watched literals or a list of every occurrence) and in whatever
order. Only what follows a conflict (the clause found, what is learned)
depends on that layout.

Each Cnf keeps one record (`_Kept`), made on its first solve: its own
clauses, prepared once (their literals checked, duplicate literals and
tautologies dropped), and, for a base, its live state (`_Live`) while no
solver holds it. The live state lists each of the base's 2- and
3-literal clauses under each of its literals, once; only the longer
clauses, and the clauses an extension attaches, keep two watched
literals. A solve starts on the live state the CNF's last solve left
behind, reset to its saved level-0 trail and value table. At its first
conflict it hands the live state, which learned nothing, back to the
Cnf and starts over with the same seed on a fresh load of the prepared
clauses (`CdclSolver._lay_out`): no clause listed, every clause of two
or more literals watched in load order, as in a freshly loaded solver.
A replay keeps going through its conflicts and hands nothing back.

One routine, `CdclSolver._propagate`, serves both. For each literal
that turns false it reads the other literals of every clause listed
under it, in place, moving nothing, and then visits the clauses that
watch it. Only a watched clause is recorded as the reason for what it
implies: a listed clause implies only in a live solve, which never
analyses a conflict.

A Cnf may extend a base Cnf (`Cnf.base`): a refinement deviation, a set
of blocking clauses or an unreachability proof is the base's clauses
plus a few of its own. Such a Cnf attaches its own clauses to the
base's live state at level 0, watching literals that are not false
there, and detaches them after the solve, so the base keeps one copy of
its clauses. Its replay loads the base's prepared clauses and then its
own, which gives the same state as loading all its clauses. Clauses are
only ever added, never changed, so a kept state never goes stale. An
extension made by `joined` takes its record from its parts, other
extensions of its base: alt1's blocking clauses are one extension per
prior set, prepared on its first solve, which each deviation joins
after its own clause.

Until its first conflict a solve runs one tight loop (`_descend`): it
walks the cursor up the variable indices, draws one rng number per free
variable, takes the phase from the distribution's table
(`BitDistribution.phases`), writes the value, level and trail entries
in place, and propagates only when the literal the decision falsified
is hot: some clause holds it that may need a visit. In a replay every
literal is hot, and the replay goes on from its first conflict with the
VSIDS heap.

Variable values live in one list indexed directly by the signed
literal: value[lit] is +1 when lit is true, -1 when false, 0 when free.
A negative index wraps into the upper half of the list, so the list
has 2 * num_vars + 1 slots and both polarities are written together.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import chain, islice
from operator import neg
from typing import Sequence

from .bitblast import BlastMap, Cnf
from .values import Assignment


class ConflictBudgetExceeded(Exception):
    """Resource-limit abort; distinct from an UNSAT answer."""


@dataclass
class SolverConfig:
    seed: int = 0
    bias_p: float = 0.85
    conflict_budget: int = 1_000_000

    def __post_init__(self) -> None:
        if not (0.5 <= self.bias_p <= 1.0):
            raise ValueError(f"bias_p must lie in [0.5, 1], got {self.bias_p}")


class BitDistribution:
    """Per-SAT-variable 0/1 counts over a solution set."""

    def __init__(self, counts: dict[int, tuple[int, int]] | None = None) -> None:
        self.counts = counts or {}
        self._phases: tuple[float, list[float], list[int]] | None = None

    def phases(self, n: int, bias_p: float) -> tuple[list[float], list[int]]:
        """The phase table over variables 0..n (or more): a decision on v
        draws r from the rng and sets literal lits[v] when r < below[v],
        else -lits[v]. A variable with a minority value (ones seen less
        often: True) takes it with probability bias_p; a tie or an
        untracked variable takes True with probability 1/2. Made once
        per bias_p and largest n asked for."""
        got = self._phases
        if got is None or got[0] != bias_p or len(got[1]) <= n:
            below = [0.5] * (n + 1)
            lits = list(range(n + 1))
            for v, (c0, c1) in self.counts.items():
                if c0 != c1 and 0 < v <= n:
                    below[v] = bias_p
                    lits[v] = v if c1 < c0 else -v
            got = self._phases = (bias_p, below, lits)
        return got[1], got[2]


def distribution_from(assignments: list[Assignment], blast_map: BlastMap,
                      start: BitDistribution | None = None
                      ) -> BitDistribution:
    """The counts over the assignments, added to start's when given."""
    counts = {k: list(v) for k, v in start.counts.items()} if start else {}
    for a in assignments:
        for lit in blast_map.literals(a):
            counts.setdefault(abs(lit), [0, 0])[lit > 0] += 1
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


_RESTART_BASE = 64  # conflicts per Luby unit between restarts
_RESCALE = 1e100
_DECAY = 0.95  # VSIDS activity decay per conflict


def _check_literals(clauses: Sequence[tuple[int, ...]], n: int) -> None:
    every = set(chain.from_iterable(clauses))
    if every and (0 in every or min(every) < -n or max(every) > n):
        bad = next(c for c in clauses
                   if any(not 0 < abs(l) <= n for l in c))
        raise ValueError(f"clause {bad} has a literal outside ±1..{n}")


def _cleaned(clauses: Sequence[tuple[int, ...]]):
    """The clauses that are not tautologies, each without repeated
    literals (the first of each kept, in order); a clause without
    repeats is yielded as it is."""
    for clause in clauses:
        lits = set(clause)
        if lits.isdisjoint(map(neg, clause)):
            yield (clause if len(lits) == len(clause)
                   else tuple(dict.fromkeys(clause)))


@dataclass
class _Live:
    """A base's state at level 0, kept between solves.

    Two tables indexed by literal, as the value table is, are the same
    at the start of every solve; _propagate reads them. occurs[lit]
    lists the base's 3-literal clauses that hold lit, and its 2-literal
    ones with literal 0 added: the value table holds -1 at slot 0, so
    literal 0 is false. hot[lit] is 1 when some clause may need a visit
    as lit turns false. Beside them: the watch lists of the longer
    clauses, and the trail and value table the units propagate to, or
    unsat when that propagation met a conflict."""

    occurs: list[Sequence[tuple[int, ...]]]
    hot: list[int]
    watches: dict[int, list[list[int]]]
    trail: list[int]
    value: list[int]
    unsat: bool


@dataclass
class _Kept:
    """What a Cnf keeps for its solves: its own clauses, prepared (their
    literals checked, duplicate literals and tautologies dropped), and,
    for a base, its live state while no solver holds it."""

    clauses: tuple[tuple[int, ...], ...]
    live: _Live | None = None


def _kept(cnf: Cnf) -> _Kept:
    """The Cnf's record, made on its first solve (or by joined) and kept
    on it (Cnf is frozen; solver_cache is the one field that changes)."""
    kept = cnf.solver_cache
    if kept is None:
        _check_literals(cnf.clauses, cnf.num_vars)
        kept = _Kept(tuple(_cleaned(cnf.clauses)))
        object.__setattr__(cnf, "solver_cache", kept)
    return kept


def joined(*parts: Cnf) -> Cnf:
    """The extension of one base whose own clauses are its parts', in
    order; each part is prepared once, on itself, however many
    extensions join it."""
    base = parts[0].base
    if base is None or any(p.base is not base for p in parts):
        raise ValueError("joined parts must extend one base")
    cnf = Cnf(max(p.num_vars for p in parts),
              chain.from_iterable(p.clauses for p in parts), base=base)
    object.__setattr__(cnf, "solver_cache", _Kept(tuple(
        chain.from_iterable(_kept(p).clauses for p in parts))))
    return cnf


def _grown(table: list, n: int, fill=0) -> list:
    """A copy of a table indexed by literal, grown to variables 1..n."""
    m = len(table) // 2
    return table[:m + 1] + [fill] * (2 * (n - m)) + table[m + 1:]


_REPLAY = object()  # _search's answer at the first conflict on a live state


class CdclSolver:
    """One solve of a CNF.

    It runs on the live state of the Cnf, or of the base it extends with
    its own clauses attached, until its first conflict, and replays on a
    fresh load of its clauses when one occurs; either way the model and
    conflict count are those of a freshly loaded solver."""

    def __init__(self, cnf: Cnf, dist: BitDistribution | None = None,
                 cfg: SolverConfig | None = None) -> None:
        self.cfg = cfg or SolverConfig()
        self.dist = dist or BitDistribution()
        n = self.num_vars = cnf.num_vars
        owner = cnf.base or cnf
        self._own = _kept(cnf).clauses if owner is not cnf else ()
        self._attached: list[list[int]] = []
        self._marked: list[int] = []  # literals hot for this solve only
        self._replayed = False
        base = self._base = _kept(owner)
        live, base.live = base.live, None
        if live is None:
            live = self._load_live(owner.num_vars, base.clauses)
        self._live = live
        self._reset(live.watches, live.trail.copy(), _grown(live.value, n),
                    live.unsat)
        self._occurs, self._hot = live.occurs, live.hot
        if n > owner.num_vars:  # no base clause holds the new variables
            self._occurs = _grown(live.occurs, n, ())
            self._hot = _grown(live.hot, n)
        self._attach(self._own)

    # -- states ---------------------------------------------------------

    def _reset(self, watches: dict[int, list[list[int]]], trail: list[int],
               value: list[int], unsat: bool) -> None:
        """Start a solve at level 0, with trail propagated up to its end."""
        n = self.num_vars
        self.watches = watches
        self.trail = trail
        self.value = value  # indexed by literal
        self._unsat = unsat
        self.level: list[int] = [0] * (n + 1)
        self.reason: list[list[int] | None] = [None] * (n + 1)
        self.trail_lim: list[int] = []
        self.qhead = len(trail)
        self.rng = random.Random(self.cfg.seed)
        self.conflicts = 0
        self.var_inc = 1.0

    def _lay_out(self, n: int, *parts: Sequence[tuple[int, ...]]) -> None:
        """Reset to a fresh load of prepared clauses over variables 1..n:
        no clause listed and every literal hot, each clause of two or more
        literals watched in load order, and the units enqueued in order, a
        repeated one skipped. An empty clause or two opposite units make
        the state unsat."""
        size = 2 * n + 1
        self._reset({}, [], [0] * size, False)
        self._occurs, self._hot = [()] * size, [1] * size
        value = self.value
        for clause in chain.from_iterable(parts):
            if len(clause) > 1:
                self._watch(list(clause))
            elif not clause or value[clause[0]] == -1:
                self._unsat = True
            elif not value[clause[0]]:
                self._enqueue(clause[0], None)

    def _load_live(self, n: int, clauses: Sequence[tuple[int, ...]]
                   ) -> _Live:
        """The live state of a base's prepared clauses over variables
        1..n: its 2- and 3-literal clauses listed by literal, the rest
        laid out as a fresh load lays them out, and the units propagated."""
        listed: dict[int, list[tuple[int, ...]]] = {}
        rest = []
        for clause in clauses:
            if len(clause) == 2:
                padded = clause + (0,)
                for lit in clause:
                    listed.setdefault(lit, []).append(padded)
            elif len(clause) == 3:
                for lit in clause:
                    listed.setdefault(lit, []).append(clause)
            else:
                rest.append(clause)
        self._lay_out(n, rest)
        self.value[0] = -1  # literal 0, which pads a 2-literal clause
        size = 2 * n + 1
        occurs, hot = self._occurs, self._hot = [()] * size, [0] * size
        for lit, got in listed.items():
            occurs[lit] = got
            hot[lit] = 1
        for clause in rest:  # a long clause's watch may move to any literal
            for lit in clause:
                hot[lit] = 1
        unsat = self._unsat or self._propagate() is not None
        return _Live(occurs, hot, self.watches, self.trail, self.value,
                     unsat)

    def _attach(self, clauses: Sequence[tuple[int, ...]]) -> None:
        """Add prepared clauses to a live state at level 0. Each watches
        two literals that are not false, or its one such literal, enqueued
        if free, and a false one; a clause with none makes it unsat."""
        value = self.value
        for clause in clauses:
            lits = list(clause)
            if len(lits) < 2 or value[lits[0]] == -1 or value[lits[1]] == -1:
                lits.sort(key=value.__getitem__, reverse=True)
                if not lits or value[lits[0]] == -1:
                    self._unsat = True
                    return
                if (len(lits) == 1 or value[lits[1]] == -1) and \
                        value[lits[0]] == 0:
                    self._enqueue(lits[0], None)
            if len(lits) > 1:
                self._watch(lits)
                self._mark(lits[0])
                self._mark(lits[1])
                self._attached.append(lits)

    def _mark(self, lit: int) -> None:
        """Make a literal hot until the live state is handed back."""
        if not self._hot[lit]:
            self._hot[lit] = 1
            self._marked.append(lit)

    def _hand_back(self) -> None:
        """Detach the attached clauses, cool the literals they made hot,
        and return the live state, which learned nothing, to the Cnf it
        came from."""
        watches = self.watches
        attached = set(map(id, self._attached))
        for lit in {l for c in self._attached for l in c[:2]}:
            watches[lit] = [c for c in watches[lit] if id(c) not in attached]
        for lit in self._marked:
            self._hot[lit] = 0
        self._base.live = self._live

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
        self.trail.append(lit)

    def _propagate(self) -> Sequence[int] | None:
        """Propagate the trail from qhead: for each false literal, the
        clauses listed under it, read in place, then the clauses watching
        it. Answers the clause found false at a conflict, a listed one as
        (a, b, c), and None when the trail is closed. Only what a watched
        clause implies gets a level and a reason: lists are empty in a
        replay, and a live solve hands over to one at its first conflict."""
        value, watches, trail = self.value, self.watches, self.trail
        occurs, hot, push = self._occurs, self._hot, trail.append
        level, reason = self.level, self.reason
        depth = len(self.trail_lim)
        # A list iterator also yields what is appended while it runs.
        for lit in islice(trail, self.qhead, None):
            false_lit = -lit
            for a, b, c in occurs[false_lit]:
                # Values are 1, 0 or -1, and false_lit is one of the three:
                # a sum below -1 means none is true and at most one free.
                if value[a] + value[b] + value[c] >= -1:
                    continue
                if value[a] == 0:
                    free = a
                elif value[b] == 0:
                    free = b
                elif value[c] == 0:
                    free = c
                else:
                    return a, b, c
                value[free] = 1
                value[-free] = -1
                push(free)
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
                        if not hot[lit]:
                            self._mark(lit)
                        break
                else:
                    kept.append(clause)
                    if value[first] == -1:
                        kept.extend(old[idx + 1:])
                        watches[false_lit] = kept
                        return clause
                    value[first] = 1  # implied: enqueue first
                    value[-first] = -1
                    var = abs(first)
                    level[var] = depth
                    reason[var] = clause
                    push(first)
            watches[false_lit] = kept
        self.qhead = len(trail)
        return None

    def _start_vsids(self) -> None:
        """At the first conflict: zero activities, and a heap of the
        variables above the last decision, which the cursor has not
        passed; a sorted list is a heap."""
        n = self.num_vars
        self.activity = [0.0] * (n + 1)
        cursor = abs(self.trail[self.trail_lim[-1]]) + 1
        self.heap = [(0.0, v) for v in range(cursor, n + 1)]

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
        heap = self.heap
        while heap:
            neg_act, var = heapq.heappop(heap)
            if self.value[var] != 0:
                continue
            if -neg_act != self.activity[var]:
                continue  # stale entry; a fresher one exists
            return var
        return None

    def solve(self) -> list[bool] | None:
        """A model as bools indexed 1..num_vars, or None when UNSAT."""
        model = self._search()
        self._hand_back()
        if model is _REPLAY:
            self._replayed = True
            self._lay_out(self.num_vars, self._base.clauses, self._own)
            model = self._search()
        return model

    def _model(self) -> list[bool]:
        return [False, *map((1).__eq__, self.value[1:self.num_vars + 1])]

    def _descend(self, below: list[float], lits: list[int]
                 ) -> Sequence[int] | None:
        """Decide the lowest free variable at or past a cursor, in index
        order, and propagate, until every variable is set (None) or a
        decision meets a conflict (the clause found false). Until a
        conflict VSIDS activity is zero, so this is the heap's order too.

        Propagation is skipped after a decision whose falsified literal
        is not hot, which leaves qhead behind: no clause needs a visit
        when such a literal turns false, and a watch only ever moves to
        a literal that is not false, so the literals passed over need
        none."""
        value, level = self.value, self.level
        trail, trail_lim = self.trail, self.trail_lim
        push, mark, free = trail.append, trail_lim.append, value.index
        draw, hot, propagate = self.rng.random, self._hot, self._propagate
        n = self.num_vars
        depth = len(trail_lim)
        v = 1
        while True:
            if v > n:
                return None
            if value[v]:  # skip the variables already set in one call
                try:
                    v = free(0, v, n + 1)
                except ValueError:
                    return None
            lit = lits[v] if draw() < below[v] else -lits[v]
            mark(len(trail))
            depth += 1
            value[lit] = 1
            value[-lit] = -1
            level[v] = depth
            push(lit)
            v += 1
            if hot[-lit]:
                self.qhead = len(trail) - 1
                conflict = propagate()
                if conflict is not None:
                    return conflict

    def _search(self):
        """The model, None when UNSAT, or _REPLAY at the first conflict
        on the live state."""
        if self._unsat or self._propagate() is not None:
            return None
        below, lits = self.dist.phases(self.num_vars, self.cfg.bias_p)
        conflict = self._descend(below, lits)
        if conflict is None:
            return self._model()
        if not self._replayed:
            return _REPLAY
        self._start_vsids()
        restart_num = 0
        budget_mark = _RESTART_BASE * _luby(restart_num + 1)
        conflicts_here = 0
        while True:
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
                self.var_inc /= _DECAY
            elif conflicts_here >= budget_mark:
                restart_num += 1
                budget_mark = _RESTART_BASE * _luby(restart_num + 1)
                conflicts_here = 0
                self._cancel_until(0)
            else:
                var = self._pick_var()
                if var is None:
                    return self._model()
                self.trail_lim.append(len(self.trail))
                self._enqueue(lits[var] if self.rng.random() < below[var]
                              else -lits[var], None)
            conflict = self._propagate()


def solve(cnf: Cnf, dist: BitDistribution | None = None,
          cfg: SolverConfig | None = None) -> list[bool] | None:
    """Solve a CNF; model indexed 1..num_vars at positions 1.., or None."""
    model = CdclSolver(cnf, dist, cfg).solve()
    if model is not None:
        true_lits = {v if model[v] else -v for v in range(1, len(model))}
        bad = next(filter(true_lits.isdisjoint, cnf.all_clauses()), None)
        if bad is not None:
            raise AssertionError(
                f"solver produced a falsifying model: clause {bad} is false")
    return model
