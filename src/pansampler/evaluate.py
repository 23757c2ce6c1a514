"""Concrete evaluation of terms under an assignment."""

from __future__ import annotations

from .terms import Formula, Op, TermTable
from .values import (ArrayVal, Assignment, BoolVal, BvVal, FunVal, Value,
                     value_of_sort)


class Evaluator:
    """Memoized bottom-up evaluator over the term DAG.

    The memo is shared across calls, so evaluating many nodes against the
    same assignment costs one pass over the DAG.
    """

    def __init__(self, table: TermTable, assignment: Assignment) -> None:
        self.table = table
        self.a = assignment
        self.memo: dict[int, Value] = {}

    def value(self, term_id: int) -> Value:
        memo = self.memo
        got = memo.get(term_id)
        if got is not None:
            return got
        # Explicit stack; second visit computes from child values.
        stack = [(term_id, False)]
        while stack:
            tid, ready = stack.pop()
            if tid in memo:
                continue
            term = self.table[tid]
            if not ready:
                stack.append((tid, True))
                stack.extend((c, False) for c in term.children
                             if c not in memo)
                continue
            memo[tid] = self._apply(term, [memo[c] for c in term.children])
        return memo[term_id]

    def bool_value(self, term_id: int) -> bool:
        val = self.value(term_id)
        if not isinstance(val, BoolVal):
            raise TypeError("expected a Bool term")
        return val.value

    def _apply(self, term, vals: list[Value]) -> Value:
        op = term.op
        if op is Op.VAR:
            got = self.a.get(term.name)
            if got is None:
                raise KeyError(f"assignment misses variable {term.name}")
            return got
        if op is Op.CONST:
            return value_of_sort(term.sort, term.value)

        if op is Op.AND:
            return BoolVal(all(v.value for v in vals))
        if op is Op.OR:
            return BoolVal(any(v.value for v in vals))
        if op is Op.NOT:
            return BoolVal(not vals[0].value)
        if op is Op.IMPLIES:
            return BoolVal((not vals[0].value) or vals[1].value)
        if op is Op.ITE:
            return vals[1] if vals[0].value else vals[2]
        if op is Op.EQ:
            first = vals[0]
            return BoolVal(all(_values_equal(first, v) for v in vals[1:]))
        if op is Op.DISTINCT:
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    if _values_equal(vals[i], vals[j]):
                        return BoolVal(False)
            return BoolVal(True)

        if op is Op.SELECT:
            arr = vals[0]
            if not isinstance(arr, ArrayVal):
                raise TypeError("select from a non-array value")
            raw = arr.get(vals[1].as_int())
            return value_of_sort(arr.element_sort, raw)
        if op is Op.STORE:
            arr = vals[0]
            if not isinstance(arr, ArrayVal):
                raise TypeError("store into a non-array value")
            return arr.set(vals[1].as_int(), vals[2].as_int())
        if op is Op.APPLY:
            fv = self.a.get(term.name)
            if not isinstance(fv, FunVal):
                raise KeyError(f"assignment misses function {term.name}")
            raw = fv.get(tuple(v.as_int() for v in vals))
            return value_of_sort(fv.ret_sort, raw)

        # Bitvector operations.
        w = vals[0].width
        mask = (1 << w) - 1
        if op is Op.BVADD:
            acc = 0
            for v in vals:
                acc = (acc + v.value) & mask
            return BvVal(w, acc)
        if op is Op.BVMUL:
            acc = 1
            for v in vals:
                acc = (acc * v.value) & mask
            return BvVal(w, acc)
        if op is Op.BVAND:
            acc = mask
            for v in vals:
                acc &= v.value
            return BvVal(w, acc)
        if op is Op.BVOR:
            acc = 0
            for v in vals:
                acc |= v.value
            return BvVal(w, acc)
        if op is Op.BVXOR:
            acc = 0
            for v in vals:
                acc ^= v.value
            return BvVal(w, acc)
        if op is Op.BVNOT:
            return BvVal(w, vals[0].value ^ mask)
        if op is Op.BVNEG:
            return BvVal(w, (-vals[0].value) & mask)
        if op is Op.BVSHL:
            sh = vals[1].value
            return BvVal(w, (vals[0].value << sh) & mask if sh < w else 0)
        if op is Op.BVLSHR:
            sh = vals[1].value
            return BvVal(w, vals[0].value >> sh if sh < w else 0)
        if op is Op.BVASHR:
            sh = vals[1].value
            signed = vals[0].signed()
            if sh >= w:
                return BvVal(w, mask if signed < 0 else 0)
            return BvVal(w, (signed >> sh) & mask)
        if op is Op.BVULT:
            return BoolVal(vals[0].value < vals[1].value)
        if op is Op.BVULE:
            return BoolVal(vals[0].value <= vals[1].value)
        if op is Op.BVSLT:
            return BoolVal(vals[0].signed() < vals[1].signed())
        if op is Op.BVSLE:
            return BoolVal(vals[0].signed() <= vals[1].signed())
        if op is Op.CONCAT:
            lo = vals[1]
            return BvVal(w + lo.width, (vals[0].value << lo.width) | lo.value)
        if op is Op.EXTRACT:
            width = term.hi - term.lo + 1
            return BvVal(width, (vals[0].value >> term.lo) & ((1 << width) - 1))
        raise ValueError(f"cannot evaluate op {op!r}")


def _values_equal(a: Value, b: Value) -> bool:
    if isinstance(a, ArrayVal) and isinstance(b, ArrayVal):
        return a.equal_to(b)
    return a == b


def evaluate(f: Formula, term_id: int, assignment: Assignment) -> Value:
    return Evaluator(f.table, assignment).value(term_id)


def satisfies(f: Formula, assignment: Assignment) -> bool:
    """True when every assertion holds under the assignment."""
    ev = Evaluator(f.table, assignment)
    return all(ev.bool_value(a) for a in f.assertions)
