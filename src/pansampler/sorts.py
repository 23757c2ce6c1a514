"""Sorts for the quantifier-free bitvector/array/function language."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class SortKind(Enum):
    BOOL = "Bool"
    BV = "BitVec"
    ARRAY = "Array"
    FUN = "Fun"


@dataclass(frozen=True)
class Sort:
    kind: SortKind
    width: int = 0
    index: "Sort | None" = None
    element: "Sort | None" = None
    args: tuple["Sort", ...] = field(default=())
    ret: "Sort | None" = None
    # Sorts key every interned term, and the generated __hash__ would
    # hash the fields, kind's Python-level Enum hash among them, each time.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((
            self.kind, self.width, self.index, self.element, self.args,
            self.ret)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.kind is SortKind.BOOL:
            return "Bool"
        if self.kind is SortKind.BV:
            return f"(_ BitVec {self.width})"
        if self.kind is SortKind.ARRAY:
            return f"(Array {self.index!r} {self.element!r})"
        sig = " ".join(repr(a) for a in self.args)
        return f"({sig}) {self.ret!r}"

    @property
    def is_bool(self) -> bool:
        return self.kind is SortKind.BOOL

    @property
    def is_bv(self) -> bool:
        return self.kind is SortKind.BV

    @property
    def is_array(self) -> bool:
        return self.kind is SortKind.ARRAY

    @property
    def is_fun(self) -> bool:
        return self.kind is SortKind.FUN

    @property
    def num_bits(self) -> int:
        """Tracked bits for a Bool (1) or BitVec (width) sort."""
        if self.kind is SortKind.BOOL:
            return 1
        if self.kind is SortKind.BV:
            return self.width
        raise ValueError(f"sort {self!r} has no bit width")


BOOL = Sort(SortKind.BOOL)

_BV_CACHE: dict[int, Sort] = {}


def bv(width: int) -> Sort:
    if width < 1:
        raise ValueError(f"bitvector width must be >= 1, got {width}")
    s = _BV_CACHE.get(width)
    if s is None:
        s = _BV_CACHE[width] = Sort(SortKind.BV, width=width)
    return s


def array(index: Sort, element: Sort) -> Sort:
    # v1 restriction: no nested arrays, no function-sorted cells.
    if not (index.is_bool or index.is_bv):
        raise ValueError(f"array index sort must be Bool or BitVec, got {index!r}")
    if not (element.is_bool or element.is_bv):
        raise ValueError(f"array element sort must be Bool or BitVec, got {element!r}")
    return Sort(SortKind.ARRAY, index=index, element=element)


def fun(args: tuple[Sort, ...], ret: Sort) -> Sort:
    if not args:
        raise ValueError("function sort needs at least one argument")
    for a in args:
        if not (a.is_bool or a.is_bv):
            raise ValueError(f"function argument sort must be Bool or BitVec, got {a!r}")
    if not (ret.is_bool or ret.is_bv):
        raise ValueError(f"function return sort must be Bool or BitVec, got {ret!r}")
    return Sort(SortKind.FUN, args=args, ret=ret)
