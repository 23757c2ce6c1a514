"""Tseitin bit-blasting of pure-bitvector formulas to CNF.

Variable numbering is deterministic: every declared Bool/BitVec variable
gets SAT variables first (declaration order, LSB first), then gate
variables in encoding order. Constant bits share one lazily allocated
TRUE variable pinned by a unit clause.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

from .sorts import Sort
from .terms import Op, TermTable
from .values import Assignment, BoolVal, BvVal


@dataclass(frozen=True)
class Cnf:
    """Clauses over variables 1..num_vars, never changed once made.

    An extension (base set) holds only its own clauses and stands for
    its base's clauses followed by them; a sat.Batch attaches just
    those to the base's level-0 state. A base is never itself an
    extension, and has its extensions' variables."""

    num_vars: int = 0
    clauses: tuple[tuple[int, ...], ...] = ()  # made from any sequence
    base: Cnf | None = field(default=None, repr=False)
    # Set by sat on the Cnf's first solve: its own clauses, prepared once
    # for that solve and every later one and replay, and, for a base, its
    # level-0 state. The one field that changes.
    solver_cache: object = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(self.clauses))
        base = self.base
        if base is not None and (base.base is not None
                                 or base.num_vars != self.num_vars):
            raise ValueError("a base must be a Cnf of its own over its "
                             "extension's variables")

    def all_clauses(self) -> Iterable[tuple[int, ...]]:
        """The base's clauses, if any, followed by the Cnf's own."""
        if self.base is None:
            return self.clauses
        return chain(self.base.clauses, self.clauses)


@dataclass
class BlastMap:
    """Each tracked name's SAT variables, LSB first (one for a Bool), and
    each encoded term's literal (Bool) or literals, LSB first (bitvector)."""

    bits: dict[str, list[int]] = field(default_factory=dict)
    terms: dict[int, object] = field(default_factory=dict)

    def literals(self, a: Assignment) -> list[int]:
        """The literal that each tracked bit a binds makes true (the bit's
        variable where the bit is 1, its negation where it is 0): names in
        binding order, each one's bits LSB first."""
        out: list[int] = []
        for name, val in a.bindings.items():
            variables = self.bits.get(name)
            if variables is not None and isinstance(val, (BoolVal, BvVal)):
                raw = val.as_int()
                out.extend(var if raw >> b & 1 else -var
                           for b, var in enumerate(variables))
        return out


class BlastError(Exception):
    pass


class Blaster:
    def __init__(self, table: TermTable) -> None:
        self.table = table
        self.clauses: list[tuple[int, ...]] = []
        self.num_vars = 0
        self.map = BlastMap()
        self._true: int | None = None

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, *lits: int) -> None:
        seen: dict[int, None] = {}
        for l in lits:
            if -l in seen:
                return  # tautology
            seen[l] = None
        self.clauses.append(tuple(seen))

    def true_lit(self) -> int:
        if self._true is None:
            self._true = self.new_var()
            self.add_clause(self._true)
        return self._true

    def false_lit(self) -> int:
        return -self.true_lit()

    # -- gate library ---------------------------------------------------

    def g_and(self, lits: list[int]) -> int:
        t = self._true
        if t is not None:
            if -t in lits:
                return -t
            lits = [l for l in lits if l != t]
        uniq: dict[int, None] = {}  # insertion-ordered set
        for l in lits:
            if -l in uniq:
                return self.false_lit()
            uniq[l] = None
        if not uniq:
            return self.true_lit()
        if len(uniq) == 1:
            return next(iter(uniq))
        g = self.new_var()
        for l in uniq:
            self.add_clause(-g, l)
        self.add_clause(g, *(-l for l in uniq))
        return g

    def g_or(self, lits: list[int]) -> int:
        return -self.g_and([-l for l in lits])

    def g_xor(self, a: int, b: int) -> int:
        t = self._true
        if t is not None:
            if a == t:
                return -b
            if a == -t:
                return b
            if b == t:
                return -a
            if b == -t:
                return a
        if a == b:
            return self.false_lit()
        if a == -b:
            return self.true_lit()
        g = self.new_var()
        self.add_clause(-g, a, b)
        self.add_clause(-g, -a, -b)
        self.add_clause(g, -a, b)
        self.add_clause(g, a, -b)
        return g

    def g_xnor(self, a: int, b: int) -> int:
        return -self.g_xor(a, b)

    def g_ite(self, c: int, t: int, e: int) -> int:
        if t == e:
            return t
        tl = self._true
        if tl is not None:
            if c == tl:
                return t
            if c == -tl:
                return e
        g = self.new_var()
        self.add_clause(-g, -c, t)
        self.add_clause(-g, c, e)
        self.add_clause(g, -c, -t)
        self.add_clause(g, c, -e)
        return g

    def g_maj(self, a: int, b: int, c: int) -> int:
        g = self.new_var()
        self.add_clause(-g, a, b)
        self.add_clause(-g, a, c)
        self.add_clause(-g, b, c)
        self.add_clause(g, -a, -b)
        self.add_clause(g, -a, -c)
        self.add_clause(g, -b, -c)
        return g

    # -- word-level helpers (bit lists are LSB first) -------------------

    def _adder(self, xs: list[int], ys: list[int]) -> list[int]:
        out: list[int] = []
        carry: int | None = None
        for x, y in zip(xs, ys):
            if carry is None:
                out.append(self.g_xor(x, y))
                carry = self.g_and([x, y])
            else:
                out.append(self.g_xor(self.g_xor(x, y), carry))
                carry = self.g_maj(x, y, carry)
        return out

    def _negate(self, xs: list[int]) -> list[int]:
        ones = [self.true_lit()] + [self.false_lit()] * (len(xs) - 1)
        return self._adder([-x for x in xs], ones)

    def _mul(self, xs: list[int], ys: list[int]) -> list[int]:
        w = len(xs)
        acc = [self.g_and([x, ys[0]]) for x in xs]
        for j in range(1, w):
            row = [self.g_and([xs[i], ys[j]]) for i in range(w - j)]
            acc = acc[:j] + self._adder(acc[j:], row)
        return acc

    def _ult(self, xs: list[int], ys: list[int]) -> int:
        lt: int | None = None
        for x, y in zip(xs, ys):  # LSB to MSB; later bits dominate
            borrow = self.g_and([-x, y])
            if lt is None:
                lt = borrow
            else:
                lt = self.g_or([borrow, self.g_and([self.g_xnor(x, y), lt])])
        if lt is None:
            raise BlastError("cannot compare zero-width bitvectors")
        return lt

    def _shift(self, xs: list[int], sh: list[int], kind: Op) -> list[int]:
        w = len(xs)
        fill = xs[-1] if kind is Op.BVASHR else self.false_lit()
        left = kind is Op.BVSHL
        cur = list(xs)
        overflow: list[int] = []
        for k, s in enumerate(sh):
            amount = 1 << k
            if amount >= w:
                overflow.append(s)
                continue
            if left:
                shifted = [self.false_lit()] * amount + cur[:w - amount]
            else:
                shifted = cur[amount:] + [fill] * amount
            cur = [self.g_ite(s, a, b) for a, b in zip(shifted, cur)]
        if overflow:
            over = self.g_or(overflow) if len(overflow) > 1 else overflow[0]
            cur = [self.g_ite(over, fill, b) for b in cur]
        return cur

    def _eq_bits(self, xs: list[int], ys: list[int]) -> int:
        return self.g_and([self.g_xnor(x, y) for x, y in zip(xs, ys)])

    # -- term encoding --------------------------------------------------

    def declare(self, name: str, sort: Sort) -> None:
        """Allocate SAT variables for a tracked variable."""
        if not (sort.is_bool or sort.is_bv):
            raise BlastError(f"cannot blast sort {sort!r}")
        self.map.bits[name] = [self.new_var() for _ in range(sort.num_bits)]

    def enc(self, term_id: int):
        """The literal (Bool) or LSB-first literals (bitvector) of a term.

        Explicit stack; a term is encoded on its second visit, from its
        children's encodings. Children are visited left to right, each
        encoded in full before the next, and the memo is checked on every
        visit, so gates and the TRUE variable are allocated in the order
        of a recursive descent."""
        memo = self.map.terms
        stack = [(term_id, False)]
        while stack:
            tid, ready = stack.pop()
            if ready:
                term = self.table[tid]
                memo[tid] = self._enc_op(term, [memo[c] for c in term.children])
                continue
            if tid in memo:
                continue
            term = self.table[tid]
            op = term.op
            if op is Op.VAR:
                bits = self.map.bits[term.name]
                memo[tid] = bits[0] if term.sort.is_bool else bits
            elif op is Op.CONST:
                if term.sort.is_bool:
                    memo[tid] = self.true_lit() if term.value else self.false_lit()
                else:
                    memo[tid] = [self.true_lit() if (term.value >> b) & 1
                                 else self.false_lit()
                                 for b in range(term.sort.width)]
            elif op in (Op.SELECT, Op.STORE, Op.APPLY):
                raise BlastError(f"theory op {op.value} reached the bit blaster")
            else:
                stack.append((tid, True))
                stack.extend((c, False) for c in reversed(term.children))
        return memo[term_id]

    def _enc_op(self, term, kids):
        op = term.op
        if op is Op.AND:
            return self.g_and(kids)
        if op is Op.OR:
            return self.g_or(kids)
        if op is Op.NOT:
            return -kids[0]
        if op is Op.IMPLIES:
            return self.g_or([-kids[0], kids[1]])
        if op is Op.ITE:
            if isinstance(kids[1], list):
                return [self.g_ite(kids[0], t, e) for t, e in zip(kids[1], kids[2])]
            return self.g_ite(kids[0], kids[1], kids[2])
        if op is Op.EQ:
            pairs = [self._pair_eq(kids[i], kids[i + 1])
                     for i in range(len(kids) - 1)]
            return self.g_and(pairs)
        if op is Op.DISTINCT:
            neqs = [-self._pair_eq(kids[i], kids[j])
                    for i in range(len(kids)) for j in range(i + 1, len(kids))]
            return self.g_and(neqs)
        if op is Op.BVADD:
            acc = kids[0]
            for nxt in kids[1:]:
                acc = self._adder(acc, nxt)
            return acc
        if op is Op.BVMUL:
            acc = kids[0]
            for nxt in kids[1:]:
                acc = self._mul(acc, nxt)
            return acc
        if op in (Op.BVAND, Op.BVOR, Op.BVXOR):
            gate = {Op.BVAND: lambda a, b: self.g_and([a, b]),
                    Op.BVOR: lambda a, b: self.g_or([a, b]),
                    Op.BVXOR: self.g_xor}[op]
            acc = kids[0]
            for nxt in kids[1:]:
                acc = [gate(a, b) for a, b in zip(acc, nxt)]
            return acc
        if op is Op.BVNOT:
            return [-b for b in kids[0]]
        if op is Op.BVNEG:
            return self._negate(kids[0])
        if op in (Op.BVSHL, Op.BVLSHR, Op.BVASHR):
            return self._shift(kids[0], kids[1], op)
        if op is Op.BVULT:
            return self._ult(kids[0], kids[1])
        if op is Op.BVULE:
            return -self._ult(kids[1], kids[0])
        if op is Op.BVSLT:
            return self._ult(self._flip_sign(kids[0]), self._flip_sign(kids[1]))
        if op is Op.BVSLE:
            return -self._ult(self._flip_sign(kids[1]), self._flip_sign(kids[0]))
        if op is Op.CONCAT:
            return kids[1] + kids[0]
        if op is Op.EXTRACT:
            return kids[0][term.lo:term.hi + 1]
        raise BlastError(f"cannot encode op {op!r}")

    @staticmethod
    def _flip_sign(xs: list[int]) -> list[int]:
        return xs[:-1] + [-xs[-1]]

    def _pair_eq(self, a, b) -> int:
        if isinstance(a, list):
            return self._eq_bits(a, b)
        return self.g_xnor(a, b)

    def assert_term(self, term_id: int) -> None:
        lit = self.enc(term_id)
        if isinstance(lit, list):
            raise BlastError("asserted term must be Bool")
        self.add_clause(lit)


def bit_blast(table: TermTable, decls: dict[str, Sort],
              assertions: list[int], terms: Iterable[int] = ()
              ) -> tuple[Cnf, BlastMap]:
    """Blast assertions over the given tracked variables, then encode
    terms without asserting them: their gates are numbered after every
    variable the assertions have, so the clauses without terms are a
    prefix of the clauses with them.

    All declared Bool/BitVec variables are allocated up front so tracked
    bits map to SAT variables even when unconstrained."""
    blaster = Blaster(table)
    for name, sort in decls.items():
        blaster.declare(name, sort)
    for a in assertions:
        blaster.assert_term(a)
    for t in terms:
        blaster.enc(t)
    return Cnf(blaster.num_vars, blaster.clauses), blaster.map


def to_dimacs(cnf: Cnf) -> str:
    clauses = list(cnf.all_clauses())
    lines = [f"p cnf {cnf.num_vars} {len(clauses)}"]
    for clause in clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"
