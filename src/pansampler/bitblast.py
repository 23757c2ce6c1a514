"""Tseitin bit-blasting of pure-bitvector formulas to CNF.

Variable numbering is deterministic: every declared Bool/BitVec variable
gets SAT variables first (declaration order, LSB first), then gate
variables in encoding order. Constant bits share one lazily allocated
TRUE variable pinned by a unit clause.

A blast keeps its encoding state (the gate of every encoded term and the
TRUE variable) on the Cnf it returns, so that more terms can be blasted
on top of it later: the result then has the base's clauses followed by
the new ones, numbered as one blast of everything would number them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .sorts import Sort
from .terms import Op, TermTable


@dataclass
class Cnf:
    num_vars: int = 0
    clauses: list[tuple[int, ...]] = field(default_factory=list)
    # The Cnf whose clauses begin these ones, when these extend it;
    # sat.CdclSolver then loads only the clauses past it.
    base: Cnf | None = field(default=None, compare=False, repr=False)
    # Set by bit_blast: the encoding state behind these clauses.
    encoding: _Encoding | None = field(default=None, compare=False, repr=False)
    # Set by sat.CdclSolver: its loaded state of these clauses, kept once
    # the CNF is solved a second time or extended.
    solver_cache: object = field(default=None, compare=False, repr=False)


@dataclass
class BlastMap:
    """Tracked bit (name, bit index) to SAT variable, both directions."""

    forward: dict[tuple[str, int], int] = field(default_factory=dict)
    reverse: dict[int, tuple[str, int]] = field(default_factory=dict)

    def add(self, name: str, bit: int, var: int) -> None:
        self.forward[(name, bit)] = var
        self.reverse[var] = (name, bit)


@dataclass
class _Encoding:
    """What a Blaster needs to go on where an earlier blast stopped."""

    map: BlastMap
    memo: dict[int, object]
    true: int | None


class BlastError(Exception):
    pass


class Blaster:
    def __init__(self, table: TermTable, base: Cnf | None = None) -> None:
        """An empty blaster, or one that goes on from a bit_blast result:
        its clauses, variables, tracked bits and term gates."""
        self.table = table
        if base is None:
            self.cnf = Cnf()
            self.map = BlastMap()
            self._memo: dict[int, object] = {}  # term id -> lit or list of lits
            self._true: int | None = None
            return
        enc = base.encoding
        if enc is None:
            raise BlastError("the base CNF was not produced by bit_blast")
        self.cnf = Cnf(base.num_vars, list(base.clauses), base=base)
        self.map = enc.map
        self._memo = dict(enc.memo)  # the base's own memo stays as it is
        self._true = enc.true

    def new_var(self) -> int:
        self.cnf.num_vars += 1
        return self.cnf.num_vars

    def add_clause(self, *lits: int) -> None:
        seen: dict[int, None] = {}
        for l in lits:
            if -l in seen:
                return  # tautology
            seen[l] = None
        self.cnf.clauses.append(tuple(seen))

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
        if sort.is_bool:
            self.map.add(name, 0, self.new_var())
        elif sort.is_bv:
            for b in range(sort.width):
                self.map.add(name, b, self.new_var())
        else:
            raise BlastError(f"cannot blast sort {sort!r}")

    def _var_bits(self, name: str, sort: Sort) -> list[int]:
        return [self.map.forward[(name, b)] for b in range(sort.num_bits)]

    def enc(self, term_id: int):
        got = self._memo.get(term_id)
        if got is not None:
            return got
        term = self.table[term_id]
        op = term.op
        if op is Op.VAR:
            bits = self._var_bits(term.name, term.sort)
            res = bits[0] if term.sort.is_bool else bits
        elif op is Op.CONST:
            if term.sort.is_bool:
                res = self.true_lit() if term.value else self.false_lit()
            else:
                res = [self.true_lit() if (term.value >> b) & 1 else self.false_lit()
                       for b in range(term.sort.width)]
        elif op in (Op.SELECT, Op.STORE, Op.APPLY):
            raise BlastError(f"theory op {op.value} reached the bit blaster")
        else:
            kids = [self.enc(c) for c in term.children]
            res = self._enc_op(term, kids)
        self._memo[term_id] = res
        return res

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


def bit_blast(table: TermTable, decls: dict[str, Sort], assertions: list[int],
              base: Cnf | None = None) -> tuple[Cnf, BlastMap]:
    """Blast assertions over the given tracked variables.

    All declared Bool/BitVec variables are allocated up front so tracked
    bits map to SAT variables even when unconstrained. With a base (an
    earlier result over the same decls), the assertions are blasted on
    top of it instead: the Cnf extends the base, reuses its term gates
    and blast map, and equals a blast of the base's assertions followed
    by these ones."""
    blaster = Blaster(table, base)
    if base is None:
        for name, sort in decls.items():
            blaster.declare(name, sort)
    for a in assertions:
        blaster.assert_term(a)
    cnf = blaster.cnf
    cnf.encoding = _Encoding(blaster.map, blaster._memo, blaster._true)
    return cnf, blaster.map


def to_dimacs(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> Cnf:
    num_vars = 0
    clauses: list[tuple[int, ...]] = []
    cur: list[int] = []
    seen_header = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line}")
            num_vars = int(parts[2])
            seen_header = True
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(cur))
                cur = []
            else:
                cur.append(lit)
    if not seen_header:
        raise ValueError("missing DIMACS header")
    if cur:
        clauses.append(tuple(cur))
    return Cnf(num_vars, clauses)
