"""Concrete values and variable assignments."""

from __future__ import annotations

from dataclasses import dataclass, field

from .sorts import Sort, SortKind


@dataclass(frozen=True)
class BoolVal:
    value: bool

    def as_int(self) -> int:
        return int(self.value)


@dataclass(frozen=True)
class BvVal:
    width: int
    value: int

    def __post_init__(self) -> None:
        if not (0 <= self.value < (1 << self.width)):
            raise ValueError(f"value {self.value} out of range for width {self.width}")

    def as_int(self) -> int:
        return self.value

    def signed(self) -> int:
        if self.value >= 1 << (self.width - 1):
            return self.value - (1 << self.width)
        return self.value


@dataclass(frozen=True)
class ArrayVal:
    """Finite-override array: default everywhere except listed indices.

    Indices and cell values are stored as plain unsigned ints (Bool as
    0/1); the sorts give them meaning. Overrides equal to the default are
    dropped so equal arrays compare equal structurally.
    """

    index_sort: Sort
    element_sort: Sort
    default: int = 0
    overrides: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def make(index_sort: Sort, element_sort: Sort, default: int,
             overrides: dict[int, int]) -> "ArrayVal":
        keep = tuple(sorted((i, v) for i, v in overrides.items() if v != default))
        return ArrayVal(index_sort, element_sort, default, keep)

    def get(self, index: int) -> int:
        for i, v in self.overrides:
            if i == index:
                return v
        return self.default

    def set(self, index: int, value: int) -> "ArrayVal":
        d = dict(self.overrides)
        d[index] = value
        return ArrayVal.make(self.index_sort, self.element_sort, self.default, d)

    def index_space(self) -> int:
        if self.index_sort.kind is SortKind.BOOL:
            return 2
        return 1 << self.index_sort.width

    def equal_to(self, other: "ArrayVal") -> bool:
        """Extensional equality over the full index domain."""
        if (self.index_sort, self.element_sort) != (other.index_sort, other.element_sort):
            return False
        keys = {i for i, _ in self.overrides} | {i for i, _ in other.overrides}
        if any(self.get(i) != other.get(i) for i in keys):
            return False
        if self.default == other.default:
            return True
        # Different defaults only coincide if overrides blanket the domain.
        return len(keys) == self.index_space()


@dataclass(frozen=True)
class FunVal:
    """Uninterpreted function interpretation: finite table plus default."""

    arg_sorts: tuple[Sort, ...]
    ret_sort: Sort
    default: int = 0
    table: tuple[tuple[tuple[int, ...], int], ...] = ()

    @staticmethod
    def make(arg_sorts: tuple[Sort, ...], ret_sort: Sort, default: int,
             table: dict[tuple[int, ...], int]) -> "FunVal":
        keep = tuple(sorted(table.items()))
        return FunVal(arg_sorts, ret_sort, default, keep)

    def get(self, args: tuple[int, ...]) -> int:
        for a, r in self.table:
            if a == args:
                return r
        return self.default


Value = BoolVal | BvVal | ArrayVal | FunVal


def value_of_sort(sort: Sort, raw: int) -> Value:
    if sort.kind is SortKind.BOOL:
        return BoolVal(bool(raw))
    if sort.kind is SortKind.BV:
        return BvVal(sort.width, raw & ((1 << sort.width) - 1))
    raise ValueError(f"no scalar value for sort {sort!r}")


@dataclass
class Assignment:
    """Binding of declared symbols to values."""

    bindings: dict[str, Value] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Value:
        return self.bindings[name]

    def __contains__(self, name: str) -> bool:
        return name in self.bindings

    def get(self, name: str, default=None):
        return self.bindings.get(name, default)

    def set(self, name: str, value: Value) -> None:
        self.bindings[name] = value

    def copy(self) -> "Assignment":
        return Assignment(dict(self.bindings))

    def to_json_obj(self) -> dict:
        obj: dict[str, object] = {}
        for name, val in self.bindings.items():
            if isinstance(val, BoolVal):
                obj[name] = val.value
            elif isinstance(val, BvVal):
                obj[name] = {"width": val.width, "value": val.value}
            elif isinstance(val, ArrayVal):
                obj[name] = {
                    "default": val.default,
                    "overrides": {str(i): v for i, v in val.overrides},
                }
            elif isinstance(val, FunVal):
                obj[name] = {
                    "default": val.default,
                    "table": [{"args": list(a), "value": r} for a, r in val.table],
                }
        return obj
