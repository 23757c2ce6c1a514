"""Concrete evaluation of terms under an assignment."""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable
from functools import reduce

from .terms import Formula, Op, Term, TermTable
from .values import (ArrayVal, Assignment, BoolVal, BvVal, FunVal, Value,
                     value_of_sort)


class Evaluator:
    """Memoized bottom-up evaluator over the term DAG.

    The memo is shared across calls, so evaluating many nodes against the
    same assignment costs one pass over the DAG. There is one walk, fill:
    one loop over reachable ids in ascending order. The table hash-conses
    bottom-up, so every child is interned, and numbered, before its
    parent, and ascending ids are a topological order. A whole formula
    fills over all of its ids; value fills over the ids of one term that
    the memo does not hold yet.
    """

    def __init__(self, table: TermTable, assignment: Assignment) -> None:
        self.table = table
        self.a = assignment
        self.memo: dict[int, Value] = {}

    def fill(self, order: Iterable[int]) -> dict[int, Value]:
        """The memo after evaluating every id of order, which lists each
        node after its children (see TermTable.reachable)."""
        memo, table, apply = self.memo, self.table, self._apply
        for tid in order:
            term = table[tid]
            memo[tid] = apply(term, [memo[c] for c in term.children])
        return memo

    def value(self, term_id: int) -> Value:
        memo = self.memo
        if term_id not in memo:
            self.fill(self.table.reachable([term_id], known=memo))
        return memo[term_id]

    def _apply(self, term, vals: list[Value]) -> Value:
        rule = _RULES.get(term.op)
        if rule is None:
            raise ValueError(f"cannot evaluate op {term.op!r}")
        return rule(self.a, term, vals)


def _values_equal(a: Value, b: Value) -> bool:
    if isinstance(a, ArrayVal) and isinstance(b, ArrayVal):
        return a.equal_to(b)
    return a == b


# How each op's value follows from its argument values: rule(assignment,
# term, vals). A dict lookup finds the rule in one step for every op.
_Rule = Callable[[Assignment, Term, list[Value]], Value]

_TRUE, _FALSE = BoolVal(True), BoolVal(False)


def _truth(test: Callable[[list[Value]], bool]) -> _Rule:
    """The rule of a Bool-valued op whose value is test(vals)."""
    return lambda a, term, vals: _TRUE if test(vals) else _FALSE


def _word(raw: Callable[[list[Value], int, int], int]) -> _Rule:
    """The rule of a bitvector op as wide as its first argument, whose
    value is raw(vals, width, mask of the width)."""
    def rule(a: Assignment, term: Term, vals: list[Value]) -> Value:
        w = vals[0].width
        return BvVal(w, raw(vals, w, (1 << w) - 1))
    return rule


def _var(a: Assignment, term: Term, vals: list[Value]) -> Value:
    got = a.get(term.name)
    if got is None:
        raise KeyError(f"assignment misses variable {term.name}")
    return got


def _distinct(vals: list[Value]) -> bool:
    return not any(_values_equal(vals[i], vals[j])
                   for i in range(len(vals)) for j in range(i + 1, len(vals)))


def _select(a: Assignment, term: Term, vals: list[Value]) -> Value:
    arr = vals[0]
    if not isinstance(arr, ArrayVal):
        raise TypeError("select from a non-array value")
    return value_of_sort(arr.element_sort, arr.get(vals[1].as_int()))


def _store(a: Assignment, term: Term, vals: list[Value]) -> Value:
    arr = vals[0]
    if not isinstance(arr, ArrayVal):
        raise TypeError("store into a non-array value")
    return arr.set(vals[1].as_int(), vals[2].as_int())


def _apply_fun(a: Assignment, term: Term, vals: list[Value]) -> Value:
    fv = a.get(term.name)
    if not isinstance(fv, FunVal):
        raise KeyError(f"assignment misses function {term.name}")
    return value_of_sort(fv.ret_sort, fv.get(tuple(v.as_int() for v in vals)))


def _ashr(vals: list[Value], w: int, mask: int) -> int:
    sh = vals[1].value
    signed = vals[0].signed()
    if sh >= w:
        return mask if signed < 0 else 0
    return (signed >> sh) & mask


def _concat(a: Assignment, term: Term, vals: list[Value]) -> Value:
    hi, lo = vals
    return BvVal(hi.width + lo.width, (hi.value << lo.width) | lo.value)


def _extract(a: Assignment, term: Term, vals: list[Value]) -> Value:
    width = term.hi - term.lo + 1
    return BvVal(width, (vals[0].value >> term.lo) & ((1 << width) - 1))


_RULES: dict[Op, _Rule] = {
    Op.VAR: _var,
    Op.CONST: lambda a, term, vals: term.const,
    Op.AND: _truth(lambda vals: all(v.value for v in vals)),
    Op.OR: _truth(lambda vals: any(v.value for v in vals)),
    Op.NOT: _truth(lambda vals: not vals[0].value),
    Op.IMPLIES: _truth(lambda vals: not vals[0].value or vals[1].value),
    Op.ITE: lambda a, term, vals: vals[1] if vals[0].value else vals[2],
    Op.EQ: _truth(lambda vals: all(_values_equal(vals[0], v)
                                   for v in vals[1:])),
    Op.DISTINCT: _truth(_distinct),
    Op.SELECT: _select,
    Op.STORE: _store,
    Op.APPLY: _apply_fun,
    Op.BVADD: _word(lambda vals, w, mask: sum(v.value for v in vals) & mask),
    Op.BVMUL: _word(lambda vals, w, mask: reduce(
        lambda acc, v: (acc * v.value) & mask, vals, 1)),
    Op.BVAND: _word(lambda vals, w, mask: reduce(
        operator.and_, [v.value for v in vals], mask)),
    Op.BVOR: _word(lambda vals, w, mask: reduce(
        operator.or_, [v.value for v in vals], 0)),
    Op.BVXOR: _word(lambda vals, w, mask: reduce(
        operator.xor, [v.value for v in vals], 0)),
    Op.BVNOT: _word(lambda vals, w, mask: vals[0].value ^ mask),
    Op.BVNEG: _word(lambda vals, w, mask: (-vals[0].value) & mask),
    Op.BVSHL: _word(lambda vals, w, mask: (vals[0].value << vals[1].value)
                    & mask if vals[1].value < w else 0),
    Op.BVLSHR: _word(lambda vals, w, mask: vals[0].value >> vals[1].value
                     if vals[1].value < w else 0),
    Op.BVASHR: _word(_ashr),
    Op.BVULT: _truth(lambda vals: vals[0].value < vals[1].value),
    Op.BVULE: _truth(lambda vals: vals[0].value <= vals[1].value),
    Op.BVSLT: _truth(lambda vals: vals[0].signed() < vals[1].signed()),
    Op.BVSLE: _truth(lambda vals: vals[0].signed() <= vals[1].signed()),
    Op.CONCAT: _concat,
    Op.EXTRACT: _extract,
}


def assertions_hold(f: Formula, memo: dict[int, Value]) -> bool:
    """True when every assertion of f is true in memo, which holds the
    values of the assertions (see Evaluator.fill)."""
    for a in f.assertions:
        val = memo[a]
        if not isinstance(val, BoolVal):
            raise TypeError("expected a Bool term")
        if not val.value:
            return False
    return True


def satisfies(f: Formula, assignment: Assignment) -> bool:
    """True when every assertion holds under the assignment: a fresh
    evaluation of the whole formula."""
    memo = Evaluator(f.table, assignment).fill(
        f.table.reachable(list(f.assertions)))
    return assertions_hold(f, memo)
