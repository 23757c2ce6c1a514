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
So a solve that meets no conflict returns the same model however
propagation reaches a clause and in whatever order, and a solve that
meets one meets it at the same decision. Only what follows a conflict
(the clause found, what is learned) depends on that layout.

So one kernel runs every solve up to its first conflict: a `Batch`, of
one lane or of many (below). A lane that meets a conflict starts over,
alone and with the same seed, on a fresh load of its clauses
(`CdclSolver`): every clause of two or more literals watched in load
order, the base's clauses first and then its own, as in a freshly loaded
solver; the replay goes on through its conflicts with the VSIDS heap.
`solve` reads a lane, replaying it when it met a conflict, and solves a
CNF given without a batch as a one-lane batch.

Each Cnf keeps one record (`_Kept`), made on its first solve: its own
clauses, prepared once (their literals checked, duplicate literals and
tautologies dropped), and, for a base, its live state (`_Live`), built
on its first batch: the base's level-0 state, which no solve changes. It
is a fresh load of the prepared clauses propagated at level 0, whose
closure is unique, and one table of literal pairs: under each literal,
flat, the other two literals of each of the base's 2- and 3-literal
clauses that holds it, simplified at level 0, as MiniSat's simplify()
drops the clauses satisfied at level 0 (Eén & Sörensson, SAT 2003): a
clause true at level 0 is listed nowhere, a literal false at level 0 is
dropped from every pair, the pad literal (below) taking its place, and a
literal set at level 0 lists nothing. This changes no answer. Every
lane's state extends the base's level-0 assignment, whatever its own
clauses and decisions add. In it a clause true at level 0 holds, so it
never becomes unit or false; a literal false at level 0 stays false, so
it reads as the pad literal does and never turns false again; and a
literal true at level 0 never turns false. So propagation over the
simplified table implies what it implied over the full one, and finds a
conflict in the same states. The closure after each decision step, and
with it every model, every lane's conflict and every replay point, stays
the same.

A Cnf may extend a base Cnf (`Cnf.base`): a refinement deviation, a set
of blocking clauses or an unreachability proof is the base's clauses
plus a few of its own, over the base's variables. A batch attaches such
own clauses for the lanes that hold them, and the base keeps one copy of
its clauses; a replay loads the base's prepared clauses and then its
own, which gives the same state as loading all its clauses. Clauses are
only ever added, never changed, so a kept state never goes stale. An
extension made by `joined` takes its record from its parts, other
extensions of its base: alt1's blocking clauses are one extension per
prior set, prepared on its first solve, which each deviation joins after
its own clause.

Variable values live in one list indexed directly by the signed
literal: value[lit] is +1 when lit is true, -1 when false, 0 when free.
A negative index wraps into the upper half of the list, so the list
has 2 * num_vars + 1 slots and both polarities are written together.
A live state's tables have two more, for a pad variable whose literal
num_vars + 1 is false and fills a pair that has one literal left: that
of a 2-literal clause, or of a 3-literal one with a level-0-false
literal.

The sampler's candidates of one iteration are solves of one CNF under
one distribution that differ only in their seeds, and the deviations of
one refinement are solves of extensions of one base, one deviation
clause each (in alt1 joined with the same blocking clauses). A `Batch`
runs such solves as the lanes of one bit-sliced descent, as bitslicing
runs many instances of one Boolean computation in the bits of one
machine word (Biham, FSE 1997). One integer per literal holds the lanes
in which it is false; the pad literal is false in every lane, and its
negation in none, which literal 0 could not be. A decision step takes
the lowest variable free in some lane, and each lane where it is free
draws from its own rng, so each lane makes exactly the draws of a solo
solve. Propagation runs only after a step whose decided literals are
hot: some clause holds their negation that may need a visit. It keeps
one pending mask per literal, merging the lanes in which it turned
false, and a queue of the pending literals in first-pending order; it
visits each pair listed under a literal once for all of its lanes, with
a few operations on masks: the lanes in which the literal is false, one
of the pair is false and neither is true are units, or conflicts where
both are false. Clauses of four or more literals, and the lanes' own
clauses, are watched per batch by two literals free in every lane where
the clause does not yet hold. Each own clause carries a mask of the
lanes whose CNF holds it, and counts as holding in every other lane; a
clause object that several lanes share, as the blocking clauses, is
attached once with all their lanes.

Each lane's model is that of a fresh load of its CNF, solved with its
seed. Both start from the same level-0 state, the base's, closed under
the lane's own clauses and no other lane's, and decide the same
variables in the same order with the same draws. After each decision
step a lane holds
the closure of its assignment under unit propagation by its own CNF,
which is unique and does not depend on the order in which it was
reached, so the lane meets a conflict at exactly the step where a fresh
load does. A lane whose conflict comes before the first decision is
UNSAT, as a fresh load finds at level 0. A lane that meets one later
leaves the batch and replays alone on a fresh load; every other lane
ends with the fresh load's model. Models are read from the masks
(`_Lane`), each bit-vector for eight lanes at once, and each clause is
re-checked against every lane whose CNF holds it in one pass of mask
operations: the base's clauses as given, not simplified, split by
length once per base.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice, repeat
from operator import neg, or_
from typing import Collection, Iterable, Sequence

from .bitblast import BlastMap, Cnf
from .values import Assignment


class ConflictBudgetExceeded(Exception):
    """Resource-limit abort; distinct from an UNSAT answer."""


class DeadlinePassed(Exception):
    """A solve ran past its deadline; distinct from an UNSAT answer."""


@dataclass
class SolverConfig:
    seed: int = 0
    bias_p: float = 0.85
    conflict_budget: int = 1_000_000
    # A time.perf_counter() value, read every _DEADLINE_CONFLICTS conflicts.
    deadline: float = float("inf")

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
_DEADLINE_CONFLICTS = 256  # conflicts between two reads of the clock
_DEADLINE_STEPS = 256  # a Batch's unpropagated decision steps between reads


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
    """A base's state at level 0, built once and never changed.

    Its tables are indexed by literal, as the value table is, over the
    variables 1..n and a pad variable n + 1, whose literal n + 1 is false.
    pairs[lit] holds, flat as [b1, c1, b2, c2, ...], the other two
    literals of each 2- and 3-literal base clause that holds lit and is
    not true at level 0, its literals false at level 0 dropped and the
    pad literal filling the pair; a literal set at level 0 holds none.
    hot[lit] is 1 when lit has a pair or lies in a longer clause, whose
    watch may need a visit as lit turns false. Beside them: the clauses
    of four or more literals (longs), which Batch watches; and the trail
    and value table of the base's closure under unit propagation at level
    0, or unsat when that closure holds a conflict."""

    pairs: list[Sequence[int]]
    hot: list[int]
    longs: list[tuple[int, ...]]
    trail: list[int]
    value: list[int]
    unsat: bool


@dataclass
class _Kept:
    """What a Cnf keeps for its solves: its own clauses, prepared (their
    literals checked, duplicate literals and tautologies dropped), and,
    for a base, its live state and its clauses as given split into those
    of two, of three and of other lengths, for a Batch's re-check (both
    made on its first batch)."""

    clauses: tuple[tuple[int, ...], ...]
    live: _Live | None = None
    by_length: tuple[list[tuple[int, ...]], ...] | None = None


def _kept(cnf: Cnf) -> _Kept:
    """The Cnf's record, made on its first solve (or by joined) and kept
    on it (Cnf is frozen; solver_cache is the one field that changes)."""
    kept = cnf.solver_cache
    if kept is None:
        _check_literals(cnf.clauses, cnf.num_vars)
        kept = _Kept(tuple(_cleaned(cnf.clauses)))
        object.__setattr__(cnf, "solver_cache", kept)
    return kept


def _pair_lists(clauses: Sequence[tuple[int, ...]], value: list[int],
                pad: int) -> list[Sequence[int]]:
    """The pair table of the 2- and 3-literal clauses under their level-0
    values, which are closed under unit propagation without a conflict:
    so a clause with a set literal and none true has two free ones."""
    listed: dict[int, list[int]] = {}
    for clause in clauses:
        if len(clause) == 2:
            a, b = clause
            if value[a] or value[b]:
                continue  # one false literal makes the other true
            c = pad
        elif len(clause) == 3:
            a, b, c = clause
            if value[a] or value[b] or value[c]:
                if 1 in (value[a], value[b], value[c]):
                    continue
                (a, b), c = [lit for lit in clause if not value[lit]], pad
            else:
                listed.setdefault(c, []).extend((a, b))
        else:
            continue
        listed.setdefault(a, []).extend((b, c))
        listed.setdefault(b, []).extend((a, c))
    pairs: list[Sequence[int]] = [()] * len(value)
    for lit, got in listed.items():
        pairs[lit] = got
    return pairs


def _load_live(cnf: Cnf) -> _Live:
    """The live state of a base: a fresh load of its prepared clauses,
    propagated at level 0, with the pad variable put in its value table,
    false, and the pair and hot tables built over the values it reached."""
    load = CdclSolver(cnf)
    unsat = load._unsat or load._propagate() is not None
    pad = cnf.num_vars + 1
    value = load.value
    value[pad:pad] = -1, 1  # the pad literal is false, its negation true
    clauses = _kept(cnf).clauses
    longs = [clause for clause in clauses if len(clause) > 3]
    if unsat:
        return _Live([], [], longs, load.trail, value, True)
    pairs = _pair_lists(clauses, value, pad)
    hot = [1 if got else 0 for got in pairs]
    for lit in chain.from_iterable(longs):
        hot[lit] = 1  # a long clause's watch may move to any literal
    return _Live(pairs, hot, longs, load.trail, value, False)


def joined(*parts: Cnf) -> Cnf:
    """The extension of one base whose own clauses are its parts', in
    order; each part is prepared once, on itself, however many
    extensions join it."""
    base = parts[0].base
    if base is None or any(p.base is not base for p in parts):
        raise ValueError("joined parts must extend one base")
    cnf = Cnf(base.num_vars, chain.from_iterable(p.clauses for p in parts),
              base=base)
    object.__setattr__(cnf, "solver_cache", _Kept(tuple(
        chain.from_iterable(_kept(p).clauses for p in parts))))
    return cnf


class CdclSolver:
    """One solve of a CNF on a fresh load of its prepared clauses: its
    base's, if it extends one, and then its own, each clause of two or
    more literals watched in load order and the units enqueued in order,
    a repeated one skipped. An empty clause or two opposite units make it
    unsat. sat.solve builds one to replay a Batch lane that met a
    conflict."""

    def __init__(self, cnf: Cnf, dist: BitDistribution | None = None,
                 cfg: SolverConfig | None = None) -> None:
        self.cfg = cfg or SolverConfig()
        self.dist = dist or BitDistribution()
        n = self.num_vars = cnf.num_vars  # its base's too, if any
        owner = cnf.base or cnf
        own = _kept(cnf).clauses if owner is not cnf else ()
        self.watches: dict[int, list[list[int]]] = {}
        self.trail: list[int] = []
        self.value = [0] * (2 * n + 1)  # indexed by literal
        self._unsat = False
        self.level: list[int] = [0] * (n + 1)
        self.reason: list[list[int] | None] = [None] * (n + 1)
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.rng = random.Random(self.cfg.seed)
        self.conflicts = 0
        self.var_inc = 1.0
        value = self.value
        for clause in chain(_kept(owner).clauses, own):
            if len(clause) > 1:
                self._watch(list(clause))
            elif not clause or value[clause[0]] == -1:
                self._unsat = True
            elif not value[clause[0]]:
                self._enqueue(clause[0], None)

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

    def _propagate(self) -> list[int] | None:
        """Propagate the trail from qhead over the watched clauses.
        Answers the clause found false at a conflict, or None when the
        trail is closed."""
        value, watches, trail = self.value, self.watches, self.trail
        push, level, reason = trail.append, self.level, self.reason
        depth = len(self.trail_lim)
        # A list iterator also yields what is appended while it runs.
        for lit in islice(trail, self.qhead, None):
            false_lit = -lit
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

    def _model(self) -> list[bool]:
        return [False, *map((1).__eq__, self.value[1:self.num_vars + 1])]

    def _descend(self, below: list[float], lits: list[int]
                 ) -> Sequence[int] | None:
        """Decide the lowest free variable at or past a cursor, in index
        order, and propagate, until every variable is set (None) or a
        decision meets a conflict (the clause found false). Until a
        conflict VSIDS activity is zero, so this is the heap's order too."""
        value, level = self.value, self.level
        trail, trail_lim = self.trail, self.trail_lim
        push, mark, free = trail.append, trail_lim.append, value.index
        draw, propagate = self.rng.random, self._propagate
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
            conflict = propagate()
            if conflict is not None:
                return conflict

    def solve(self) -> list[bool] | None:
        """A model as bools indexed 1..num_vars, or None when UNSAT."""
        if self._unsat or self._propagate() is not None:
            return None
        below, lits = self.dist.phases(self.num_vars, self.cfg.bias_p)
        conflict = self._descend(below, lits)
        if conflict is None:
            return self._model()
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
                if (not self.conflicts % _DEADLINE_CONFLICTS
                        and time.perf_counter() > self.cfg.deadline):
                    raise DeadlinePassed(
                        f"no answer after {self.conflicts} conflicts")
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


_REPLAY = object()  # Batch.lane's answer for a lane that met a conflict


def live_state(cnf: Cnf, deadline: float = float("inf")) -> _Live:
    """The live state of a base Cnf, loaded on first use and kept on it.
    Raises DeadlinePassed, loading nothing, once the deadline has passed."""
    kept = _kept(cnf)
    if kept.live is None:
        if time.perf_counter() > deadline:
            raise DeadlinePassed("the deadline passed before the load")
        kept.live = _load_live(cnf)
    return kept.live


class _Lane:
    """One lane's model, read from its Batch: model[v] is whether
    variable v is true."""

    __slots__ = ("batch", "index", "_true", "_bit")

    def __init__(self, batch: Batch, index: int) -> None:
        self.batch = batch
        self.index = index
        self._true = batch._true
        self._bit = 1 << index

    def __getitem__(self, var: int) -> bool:
        return self._true[var] & self._bit != 0


Model = list[bool] | _Lane  # a solve's answer when SAT


def word(model: Model, variables: Sequence[int]) -> int:
    """The integer whose bit b is the value of variables[b] in model."""
    if isinstance(model, _Lane):
        return model.batch.word(variables, model.index)
    raw = 0
    for b, var in enumerate(variables):
        if model[var]:
            raw |= 1 << b
    return raw


def _by_identity(pairs: Iterable[tuple[object, int]]
                 ) -> list[tuple[object, int]]:
    """Each object of the (object, lane mask) pairs once, with the union
    of its masks, in first-seen order."""
    merged: dict[int, list] = {}
    for obj, lanes in pairs:
        merged.setdefault(id(obj), [obj, 0])[1] |= lanes
    return [(obj, lanes) for obj, lanes in merged.values()]


# _LANE_DIGITS[j] translates a byte to the ASCII digit of its bit j.
_LANE_DIGITS = [bytes(48 + (b >> j & 1) for b in range(256)) for j in range(8)]


class Batch:
    """Solves of one base under one distribution, run as the lanes of one
    bit-sliced descent (see the module docstring), up to each lane's
    first conflict. Lane k solves cnfs[k], the base or an extension of
    it, under cfgs[k]; lanes differ in their seeds and, maybe, their own
    clauses. solve(cnfs[k], dist, cfgs[k], batch, k) reads lane k, and
    solve(cnf, dist, cfg) runs a batch of one lane.

    A table indexed by literal, as the live value table is, holds for
    each literal a mask of the lanes in which it is false. Each own
    clause of the lanes is attached once, with a mask of the lanes it
    applies to: a clause object that several lanes hold, as the blocking
    clauses every deviation of an alt1 refinement joins, is one clause
    with their lanes. A clause counts as holding in the lanes outside its
    mask, so each lane propagates over the base's clauses and its own
    alone, and its closure, hence its model, is a fresh load's. A
    decision step takes the lowest variable free in some active lane, and
    each lane where it is free draws its phase from its own rng.
    Propagation keeps one mask per pending literal, the lanes in which it
    turned false, and visits each pair of the live pair table listed
    under it once for all of them (see _close). A lane whose clauses
    conflict before the first decision answers None, as a fresh load
    does at level 0; a lane that meets a conflict later leaves the batch
    and replays alone when read. Raises
    DeadlinePassed once cfgs[0].deadline has passed, reading the clock
    before the descent, after each decision step that propagates and after
    every _DEADLINE_STEPS steps that do not; and AssertionError when some
    lane's model falsifies one of its clauses."""

    def __init__(self, cnfs: Sequence[Cnf], dist: BitDistribution | None,
                 cfgs: Sequence[SolverConfig]) -> None:
        cfg = cfgs[0]
        if time.perf_counter() > cfg.deadline:
            raise DeadlinePassed("the deadline passed before the batch")
        base = cnfs[0].base or cnfs[0]
        if any((cnf.base or cnf) is not base for cnf in cnfs):
            raise ValueError("a batch's CNFs must be one base and its "
                             "extensions")
        n = self.num_vars = base.num_vars
        live = live_state(base, cfg.deadline)
        self._draws = [random.Random(c.seed).random for c in cfgs]
        every = self.active = (1 << len(cfgs)) - 1
        self.conflicted = 0
        self._refuted = every  # the lanes that answer None
        # (id of a variable list, first lane of a group) -> (the list,
        # the group's words over it); see word.
        self._words: dict[tuple[int, int], tuple] = {}
        if live.unsat:
            return
        false = self._false = [0] * len(live.value)
        for lit in live.trail:
            false[-lit] = every
        false[n + 1] = every  # the pad literal
        self._pairs, self._hot = live.pairs, live.hot
        # The lanes in which each literal turned false and waits for a
        # visit; see _close.
        self._pending = [0] * len(false)
        extensions = _by_identity((cnf, 1 << k) for k, cnf in enumerate(cnfs)
                                  if cnf is not base)
        self._attach(live.longs, _by_identity(
            (clause, lanes) for cnf, lanes in extensions
            for clause in _kept(cnf).clauses))
        # A conflict before the first decision is one at level 0.
        self._refuted = self.conflicted
        if self.active:
            below, lits = (dist or BitDistribution()).phases(n, cfg.bias_p)
            self._descend(below, lits, cfg.deadline)
            self._true = [false[0], *false[:0:-1]]  # true[lit] is false[-lit]
            kept = _kept(base)
            if kept.by_length is None:
                kept.by_length = _by_length(base.clauses)
            self._recheck(kept.by_length, _by_identity(
                (clause, lanes) for cnf, lanes in extensions
                for clause in cnf.clauses))

    def lane(self, index: int) -> Model | None | object:
        """Lane index's model, None when its CNF is UNSAT at level 0, or
        _REPLAY when the lane met a conflict."""
        bit = 1 << index
        if bit & self._refuted:
            return None
        if bit & self.conflicted:
            return _REPLAY
        return _Lane(self, index)

    def word(self, variables: Sequence[int], index: int) -> int:
        """sat.word of lane index's model: the bits of its group of eight
        lanes are read at once, one byte of lane bits per variable, and
        the group's words are kept."""
        low = index & -8
        key = (id(variables), low)
        got = self._words.get(key)
        if got is None or got[0] is not variables:
            true = self._true  # most significant variable first
            row = bytes([true[v] >> low & 255 for v in reversed(variables)])
            got = self._words[key] = (variables, [
                int(row.translate(digits) or b"0", 2)
                for digits in _LANE_DIGITS[:len(self._draws) - low]])
        return got[1][index - low]

    def _attach(self, longs: Sequence[tuple[int, ...]],
                own: Sequence[tuple[tuple[int, ...], int]]) -> None:
        """Watch the base's long clauses, in every lane, and the lanes'
        own prepared clauses, each in the lanes of its mask; each clause is
        visited once for all its lanes. The live hot table is copied when
        there are own clauses, whose watches it makes hot."""
        every = self.active
        self._longs = longs = [*longs, *(clause for clause, _ in own)]
        # The lanes in which each clause counts as holding from the start.
        self._outside = [0] * (len(longs) - len(own)) + [
            every & ~lanes for _, lanes in own]
        self._known = [0] * len(longs)  # the lanes each clause holds in
        self._watches: list[Collection[int]] = [()] * len(longs)
        self._watched: dict[int, list[int]] = {}  # literal -> clauses
        if own:
            self._hot = self._hot.copy()
        queue: list[int] = []
        for k in range(len(longs)):
            self._scan(k, queue)
        self._close(queue)

    def _scan(self, k: int, queue: list[int]) -> None:
        """Visit clause k of the watched ones in every active lane: set
        the one literal left free where every other is false, noting it
        pending; drop the lanes where all are false; and watch, for the
        lanes where the clause does not hold yet, two literals free in all
        of them, the last decided (or, when there are no two, each that
        is free in one of them). A literal it sets pends, queued as
        _close queues one."""
        false, hot, pending = self._false, self._hot, self._pending
        clause = self._longs[k]
        active = self.active
        holds = reduce(or_, map(false.__getitem__, map(neg, clause)),
                       self._outside[k])
        open_ = active & ~holds  # the lanes with no literal true
        free = [lit for lit in clause if not false[lit] & open_]
        if open_ and len(free) < 2:  # an open lane may have one left, or none
            one = two = 0  # the lanes with >= 1, >= 2 literals not false
            for lit in clause:
                not_false = ~false[lit]
                two |= one & not_false
                one |= not_false
            unit = open_ & ~two
            bad = unit & ~one
            if bad:
                active = self.active = active ^ bad
                self.conflicted |= bad
                unit ^= bad
            rest = unit
            for lit in clause:
                if not rest:
                    break
                got = rest & ~false[lit]
                if got:
                    false[-lit] |= got
                    if hot[-lit]:
                        if not pending[-lit]:
                            queue.append(-lit)
                        pending[-lit] |= got
                    rest ^= got
            holds |= unit
            open_ = active & ~holds
            free = [lit for lit in clause if not false[lit] & open_]
        self._known[k] = holds
        old = self._watches[k]
        new: Collection[int] = ()
        if open_:
            free.sort(key=abs)
            new = (free[-2:] if len(free) > 1 else
                   {lit for lit in clause if open_ & ~false[lit]})
        for lit in new:
            if lit not in old:
                self._watched.setdefault(lit, []).append(k)
                if not hot[lit]:  # an own clause's: the table is a copy
                    hot[lit] = 1
        self._watches[k] = new

    def _close(self, queue: list[int]) -> None:
        """Propagate the queued literals, each false in the lanes of its
        pending mask, until every active lane is closed under unit
        propagation. The lanes that meet a conflict leave the batch.

        A literal that turns false in some lanes is queued unless it is
        pending already, and its mask takes those lanes; it is visited
        once, in first-pending order, for all the lanes it gathered by
        then. For each pair (b, c) listed under it, the lanes in which
        it is false, b or c is false and neither is true are units, or
        conflicts where both are false."""
        false, pairs, hot = self._false, self._pairs, self._hot
        pending = self._pending
        watched, watches, known = self._watched, self._watches, self._known
        active = self.active
        # First in, first out: a literal waits while more lanes join its
        # mask, and is visited fewer times than last in, first out. A list
        # iterator also yields what is appended while it runs.
        for x in queue:
            m = pending[x] & active
            pending[x] = 0
            if not m:
                continue
            it = iter(pairs[x])
            for b, c in zip(it, it):
                fb, fc = false[b], false[c]
                unit = m & (fb | fc) & ~(false[-b] | false[-c])
                if not unit:
                    continue
                bad = unit & fb & fc
                if bad:
                    active = self.active = active ^ bad
                    m &= active
                    unit ^= bad
                    self.conflicted |= bad
                got = unit & ~fb
                if got:
                    false[-b] |= got
                    if hot[-b]:
                        if not pending[-b]:
                            queue.append(-b)
                        pending[-b] |= got
                got = unit & ~fc
                if got:
                    false[-c] |= got
                    if hot[-c]:
                        if not pending[-c]:
                            queue.append(-c)
                        pending[-c] |= got
            for k in watched.get(x, ()):
                if m & ~known[k] and x in watches[k]:
                    self._scan(k, queue)
                    active = self.active
                    m &= active

    def _descend(self, below: list[float], lits: list[int],
                 deadline: float) -> None:
        """Decide, in index order, each variable free in some active lane,
        and propagate, until every active lane has a model."""
        false, hot, draws = self._false, self._hot, self._draws
        pending = self._pending
        active = self.active
        lanes = [(1 << k, draw) for k, draw in enumerate(draws)]  # active
        steps = 0
        for v in range(1, self.num_vars + 1):
            free = active & ~(false[v] | false[-v])
            if not free:
                continue
            p = below[v]
            pos = 0  # the lanes that set lits[v]
            if free == active:
                for bit, draw in lanes:
                    if draw() < p:
                        pos |= bit
            else:
                rest = free
                while rest:
                    low = rest & -rest
                    if draws[low.bit_length() - 1]() < p:
                        pos |= low
                    rest ^= low
            lit = lits[v]
            neg = free ^ pos
            false[-lit] |= pos
            false[lit] |= neg
            steps += 1
            if hot[-lit] or hot[lit]:
                queue = []
                if pos and hot[-lit]:
                    pending[-lit] = pos
                    queue.append(-lit)
                if neg and hot[lit]:
                    pending[lit] = neg
                    queue.append(lit)
                self._close(queue)
                if self.active != active:
                    active = self.active
                    if not active:
                        return
                    lanes = [lane for lane in lanes if lane[0] & active]
                steps = _DEADLINE_STEPS  # one propagation may take long
            if steps >= _DEADLINE_STEPS:
                steps = 0
                if time.perf_counter() > deadline:
                    raise DeadlinePassed("no answer before the deadline")

    def _recheck(self, base: tuple[list[tuple[int, ...]], ...],
                 own: Sequence[tuple[tuple[int, ...], int]]) -> None:
        """Check each base clause, split by length, against every active
        lane's model, and each own clause against those of the active
        lanes of its mask, in one pass of mask operations per clause."""
        true, done = self._true, self.active
        twos, threes, rest = base
        for a, b in twos:
            if (true[a] | true[b]) & done != done:
                _refuted((a, b))
        for a, b, c in threes:
            if (true[a] | true[b] | true[c]) & done != done:
                _refuted((a, b, c))
        for clause, lanes in chain(zip(rest, repeat(done)), own):
            lanes &= done
            holds = 0
            for lit in clause:
                holds |= true[lit]
            if holds & lanes != lanes:
                _refuted(clause)


def _by_length(clauses: Sequence[tuple[int, ...]]
               ) -> tuple[list[tuple[int, ...]], ...]:
    """The clauses of two literals, of three, and of any other length."""
    twos, threes, rest = split = ([], [], [])
    for clause in clauses:
        size = len(clause)
        (twos if size == 2 else threes if size == 3 else rest).append(clause)
    return split


def _refuted(clause: Sequence[int]) -> None:
    raise AssertionError(f"solver produced a falsifying model: "
                         f"clause {tuple(clause)} is false")


def solve(cnf: Cnf, dist: BitDistribution | None = None,
          cfg: SolverConfig | None = None,
          batch: Batch | None = None, lane: int | None = None
          ) -> Model | None:
    """Solve a CNF; model indexed 1..num_vars at positions 1.., or None.
    With batch, a Batch whose lane `lane` solves cnf under dist and cfg,
    the answer is that lane's; without one, cnf is solved as a one-lane
    Batch and its model returned as a list. The answer is read from the
    batch, which re-checked it, or, when the lane met a conflict,
    replayed alone on a fresh load and re-checked here. Raises
    DeadlinePassed, building nothing, once cfg.deadline has passed."""
    cfg = cfg or SolverConfig()
    alone = batch is None
    if alone:
        batch, lane = Batch([cnf], dist, [cfg]), 0
    model = batch.lane(lane)
    if model is not _REPLAY:
        if alone and model is not None:
            true = batch._true  # the one lane is bit 0
            model = [False, *[true[v] & 1 == 1
                              for v in range(1, cnf.num_vars + 1)]]
        return model
    if time.perf_counter() > cfg.deadline:
        raise DeadlinePassed("the deadline passed before the replay")
    model = CdclSolver(cnf, dist, cfg).solve()
    if model is not None:
        true_lits = {v if model[v] else -v for v in range(1, len(model))}
        bad = next(filter(true_lits.isdisjoint, cnf.all_clauses()), None)
        if bad is not None:
            _refuted(bad)
    return model
