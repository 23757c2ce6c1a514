"""Hash-consed term DAG, formulas, and the tracked-bit inventory."""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .sorts import BOOL, Sort, SortKind, bv
from .values import Value, value_of_sort


class Op(str, Enum):
    VAR = "var"
    CONST = "const"
    BVADD = "bvadd"
    BVMUL = "bvmul"
    BVAND = "bvand"
    BVOR = "bvor"
    BVXOR = "bvxor"
    BVNOT = "bvnot"
    BVNEG = "bvneg"
    BVSHL = "bvshl"
    BVLSHR = "bvlshr"
    BVASHR = "bvashr"
    BVULT = "bvult"
    BVULE = "bvule"
    BVSLT = "bvslt"
    BVSLE = "bvsle"
    CONCAT = "concat"
    EXTRACT = "extract"
    ITE = "ite"
    EQ = "="
    DISTINCT = "distinct"
    AND = "and"
    OR = "or"
    NOT = "not"
    IMPLIES = "=>"
    SELECT = "select"
    STORE = "store"
    APPLY = "apply"


# n-ary bitvector ops the parser may fold; kept n-ary in the DAG.
_BV_NARY = {Op.BVADD, Op.BVMUL, Op.BVAND, Op.BVOR, Op.BVXOR}
_BV_UNARY = {Op.BVNOT, Op.BVNEG}
_BV_SHIFT = {Op.BVSHL, Op.BVLSHR, Op.BVASHR}
_BV_CMP = {Op.BVULT, Op.BVULE, Op.BVSLT, Op.BVSLE}


@dataclass(frozen=True)
class Term:
    id: int
    op: Op
    sort: Sort
    children: tuple[int, ...] = ()
    name: str = ""  # VAR symbol, or function symbol for APPLY
    value: int = 0  # CONST payload (Bool as 0/1, BitVec as unsigned int)
    hi: int = 0  # EXTRACT upper bit
    lo: int = 0  # EXTRACT lower bit

    def __init__(self, id: int, op: Op, sort: Sort,
                 children: tuple[int, ...] = (), name: str = "",
                 value: int = 0, hi: int = 0, lo: int = 0) -> None:
        # Each field is written once, straight into __dict__: the
        # generated frozen __init__ sets each through object.__setattr__,
        # which costs about three times as much.
        d = self.__dict__
        d["id"], d["op"], d["sort"], d["children"] = id, op, sort, children
        d["name"], d["value"], d["hi"], d["lo"] = name, value, hi, lo

    @cached_property
    def const(self) -> Value:
        """A CONST's value, made on first use and shared from then on."""
        return value_of_sort(self.sort, self.value)


class TermTable:
    """Builder and store for a hash-consed term DAG with dense ids."""

    def __init__(self) -> None:
        self.terms: list[Term] = []  # by id
        self._index: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, term_id: int) -> Term:
        return self.terms[term_id]

    def _intern(self, op: Op, sort: Sort, children: tuple[int, ...],
                name: str = "", value: int = 0, hi: int = 0, lo: int = 0) -> int:
        key = (op, sort, children, name, value, hi, lo)
        found = self._index.get(key)
        if found is not None:
            return found
        tid = len(self.terms)
        self.terms.append(Term(tid, op, sort, children, name, value, hi, lo))
        self._index[key] = tid
        return tid

    def sort_of(self, term_id: int) -> Sort:
        return self.terms[term_id].sort

    # -- leaves ---------------------------------------------------------

    def mk_var(self, name: str, sort: Sort) -> int:
        if sort.is_fun:
            raise ValueError(f"function symbol {name} cannot appear as a term")
        return self._intern(Op.VAR, sort, (), name=name)

    def mk_bool_const(self, value: bool) -> int:
        return self._intern(Op.CONST, BOOL, (), value=int(value))

    def mk_bv_const(self, width: int, value: int) -> int:
        sort = bv(width)
        return self._intern(Op.CONST, sort, (), value=value & ((1 << width) - 1))

    def mk_true(self) -> int:
        return self.mk_bool_const(True)

    def mk_false(self) -> int:
        return self.mk_bool_const(False)

    # -- combinators ----------------------------------------------------

    def _need(self, term_id: int, kind: SortKind, what: str) -> Sort:
        sort = self.sort_of(term_id)
        if sort.kind is not kind:
            raise ValueError(f"expected {what}, got sort {sort!r}")
        return sort

    def _same_width(self, children: tuple[int, ...], op: Op) -> Sort:
        for c in children:
            self._need(c, SortKind.BV, "bitvector")
        sort = self.sort_of(children[0])
        for c in children[1:]:
            w = self.sort_of(c).width
            if w != sort.width:
                raise ValueError(f"{op.value}: mixed widths {sort.width} and {w}")
        return sort

    def mk(self, op: Op, children: tuple[int, ...], hi: int = 0, lo: int = 0,
           name: str = "", fun_sort: Sort | None = None) -> int:
        if op in _BV_NARY:
            if len(children) < 2:
                raise ValueError(f"{op.value} needs at least 2 operands")
            return self._intern(op, self._same_width(children, op), children)
        if op in _BV_UNARY:
            if len(children) != 1:
                raise ValueError(f"{op.value} is unary")
            sort = self._need(children[0], SortKind.BV, "bitvector")
            return self._intern(op, sort, children)
        if op in _BV_SHIFT:
            if len(children) != 2:
                raise ValueError(f"{op.value} is binary")
            sort = self._same_width(children, op)
            return self._intern(op, sort, children)
        if op in _BV_CMP:
            if len(children) != 2:
                raise ValueError(f"{op.value} is binary")
            self._same_width(children, op)
            return self._intern(op, BOOL, children)
        if op is Op.CONCAT:
            if len(children) != 2:
                raise ValueError("concat is binary (fold wider uses)")
            hi_s = self._need(children[0], SortKind.BV, "bitvector")
            lo_s = self._need(children[1], SortKind.BV, "bitvector")
            return self._intern(op, bv(hi_s.width + lo_s.width), children)
        if op is Op.EXTRACT:
            if len(children) != 1:
                raise ValueError("extract is unary")
            sort = self._need(children[0], SortKind.BV, "bitvector")
            if not (0 <= lo <= hi < sort.width):
                raise ValueError(
                    f"extract [{hi}:{lo}] out of range for width {sort.width}")
            return self._intern(op, bv(hi - lo + 1), children, hi=hi, lo=lo)
        if op is Op.ITE:
            if len(children) != 3:
                raise ValueError("ite is ternary")
            self._need(children[0], SortKind.BOOL, "Bool condition")
            t_s = self.sort_of(children[1])
            e_s = self.sort_of(children[2])
            if t_s != e_s:
                raise ValueError(f"ite branches disagree: {t_s!r} vs {e_s!r}")
            if not (t_s.is_bool or t_s.is_bv):
                raise ValueError(f"ite over sort {t_s!r} unsupported")
            return self._intern(op, t_s, children)
        if op in (Op.EQ, Op.DISTINCT):
            if len(children) < 2:
                raise ValueError(f"{op.value} needs at least 2 operands")
            first = self.sort_of(children[0])
            for c in children[1:]:
                if self.sort_of(c) != first:
                    raise ValueError(
                        f"{op.value}: operand sorts differ "
                        f"({first!r} vs {self.sort_of(c)!r})")
            return self._intern(op, BOOL, children)
        if op in (Op.AND, Op.OR):
            if len(children) < 1:
                raise ValueError(f"{op.value} needs operands")
            for c in children:
                self._need(c, SortKind.BOOL, "Bool")
            if len(children) == 1:
                return children[0]
            return self._intern(op, BOOL, children)
        if op is Op.NOT:
            if len(children) != 1:
                raise ValueError("not is unary")
            self._need(children[0], SortKind.BOOL, "Bool")
            return self._intern(op, BOOL, children)
        if op is Op.IMPLIES:
            if len(children) != 2:
                raise ValueError("=> is binary (fold right-assoc uses)")
            for c in children:
                self._need(c, SortKind.BOOL, "Bool")
            return self._intern(op, BOOL, children)
        if op is Op.SELECT:
            if len(children) != 2:
                raise ValueError("select is binary")
            arr = self._need(children[0], SortKind.ARRAY, "array")
            if self.sort_of(children[1]) != arr.index:
                raise ValueError("select index sort mismatch")
            return self._intern(op, arr.element, children)
        if op is Op.STORE:
            if len(children) != 3:
                raise ValueError("store is ternary")
            arr = self._need(children[0], SortKind.ARRAY, "array")
            if self.sort_of(children[1]) != arr.index:
                raise ValueError("store index sort mismatch")
            if self.sort_of(children[2]) != arr.element:
                raise ValueError("store value sort mismatch")
            return self._intern(op, arr, children)
        if op is Op.APPLY:
            if fun_sort is None or not fun_sort.is_fun:
                raise ValueError("apply needs the function sort")
            if len(children) != len(fun_sort.args):
                raise ValueError(
                    f"{name} expects {len(fun_sort.args)} arguments, "
                    f"got {len(children)}")
            for c, a in zip(children, fun_sort.args):
                if self.sort_of(c) != a:
                    raise ValueError(f"{name}: argument sort mismatch")
            return self._intern(op, fun_sort.ret, children, name=name)
        raise ValueError(f"cannot build op {op!r} directly")

    # Convenience builders used throughout the engine.

    def mk_not(self, a: int) -> int:
        return self.mk(Op.NOT, (a,))

    def mk_and(self, *xs: int) -> int:
        if not xs:
            return self.mk_true()
        return self.mk(Op.AND, tuple(xs))

    def mk_or(self, *xs: int) -> int:
        if not xs:
            return self.mk_false()
        return self.mk(Op.OR, tuple(xs))

    def mk_implies(self, a: int, b: int) -> int:
        return self.mk(Op.IMPLIES, (a, b))

    def mk_eq(self, a: int, b: int) -> int:
        return self.mk(Op.EQ, (a, b))

    def mk_distinct(self, *xs: int) -> int:
        return self.mk(Op.DISTINCT, tuple(xs))

    def mk_select(self, arr: int, idx: int) -> int:
        return self.mk(Op.SELECT, (arr, idx))

    def mk_apply(self, name: str, fun_sort: Sort, args: tuple[int, ...]) -> int:
        return self.mk(Op.APPLY, args, name=name, fun_sort=fun_sort)

    # -- traversal ------------------------------------------------------

    def reachable(self, roots: list[int],
                  known: Container[int] = frozenset()) -> list[int]:
        """All node ids reachable from roots without passing through an id
        of known, ascending. The list of ids to visit grows as the loop
        reads it, and a dict marks the ids seen, so no call is made per
        node."""
        terms = self.terms
        seen: dict[int, None] = {}
        todo = list(roots)
        for tid in todo:
            if tid in seen or tid in known:
                continue
            seen[tid] = None
            todo += terms[tid].children
        return sorted(seen)


@dataclass
class ParseWarning:
    line: int
    col: int
    message: str


@dataclass
class Formula:
    """Assertions over a shared term table; conjunction is implicit.

    decls maps every declared symbol (variables, arrays, functions) to its
    sort, in declaration order.
    """

    table: TermTable
    assertions: list[int] = field(default_factory=list)
    decls: dict[str, Sort] = field(default_factory=dict)
    logic: str = ""
    warnings: list[ParseWarning] = field(default_factory=list)

    def declare(self, name: str, sort: Sort) -> int | None:
        if name in self.decls:
            raise ValueError(f"symbol {name} declared twice")
        self.decls[name] = sort
        if sort.is_fun:
            return None
        return self.table.mk_var(name, sort)

    def assert_term(self, term_id: int) -> None:
        if not self.table.sort_of(term_id).is_bool:
            raise ValueError("assertions must be Bool")
        self.assertions.append(term_id)

    def bv_bool_vars(self) -> list[tuple[str, Sort]]:
        """Declared Bool/BitVec variables in declaration order."""
        return [(n, s) for n, s in self.decls.items() if s.is_bool or s.is_bv]

    def array_vars(self) -> list[tuple[str, Sort]]:
        return [(n, s) for n, s in self.decls.items() if s.is_array]

    def fun_vars(self) -> list[tuple[str, Sort]]:
        return [(n, s) for n, s in self.decls.items() if s.is_fun]
