"""Brute-force reference implementations for desk-size formulas.

Everything here trades speed for independence from the production path:
a recursive evaluator that does its arithmetic on bit tuples, and
exhaustive solution enumeration with exact valid-bit counts and
coverage. The CLI's --oracle-check and perfbench's output check read
samples through them, and tests treat them as ground truth.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator

from .coverage import AstBitUniverse, build_universe
from .sorts import Sort, SortKind
from .terms import Formula, Op
from .values import ArrayVal, Assignment, BoolVal, BvVal, FunVal, Value

_MAX_INDEX_WIDTH = 16  # extensional array compare walks the full domain


class OracleError(Exception):
    pass


class DomainCapError(OracleError):
    """The finitized search space exceeds the configured bit cap."""


# -- slow evaluator -----------------------------------------------------
#
# Bit vectors travel as tuples of 0/1, least significant first; all
# arithmetic is done positionally (ripple carry, shift-and-add) rather
# than on Python ints, so a bug in the fast evaluator's modular
# arithmetic cannot be mirrored here.


def _to_bits(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> i) & 1 for i in range(width))


def _from_bits(bits: tuple[int, ...]) -> int:
    out = 0
    for i, b in enumerate(bits):
        out |= b << i
    return out


def _add(x: tuple[int, ...], y: tuple[int, ...], carry: int = 0) -> tuple[int, ...]:
    out = []
    for a, b in zip(x, y):
        out.append(a ^ b ^ carry)
        carry = (a & b) | (carry & (a ^ b))
    return tuple(out)


def _invert(x: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(1 - b for b in x)


def _negate(x: tuple[int, ...]) -> tuple[int, ...]:
    return _add(_invert(x), (0,) * len(x), carry=1)


def _mul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    w = len(x)
    acc = (0,) * w
    for i, b in enumerate(y):
        if b:
            shifted = (0,) * i + x[: w - i]
            acc = _add(acc, shifted)
    return acc


def _ult(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    for a, b in zip(reversed(x), reversed(y)):
        if a != b:
            return a < b
    return False


def _flip_msb(x: tuple[int, ...]) -> tuple[int, ...]:
    return x[:-1] + (1 - x[-1],)


def _shift(x: tuple[int, ...], amount: tuple[int, ...], kind: Op) -> tuple[int, ...]:
    w = len(x)
    k = _from_bits(amount)
    fill = x[-1] if kind is Op.BVASHR else 0
    if k >= w:
        return (fill,) * w
    if kind is Op.BVSHL:
        return (0,) * k + x[: w - k]
    return x[k:] + (fill,) * k


def slow_evaluate(f: Formula, term_id: int, a: Assignment) -> Value:
    """Evaluate one term by plain recursion; no sharing, no memo."""

    def walk(tid: int):
        term = f.table[tid]
        op = term.op
        if op is Op.VAR:
            got = a.get(term.name)
            if got is None:
                raise KeyError(f"assignment misses variable {term.name}")
            if isinstance(got, BvVal):
                return _to_bits(got.value, got.width)
            if isinstance(got, BoolVal):
                return got.value
            return got
        if op is Op.CONST:
            if term.sort.is_bool:
                return bool(term.value)
            return _to_bits(term.value, term.sort.width)

        if op is Op.NOT:
            return not walk(term.children[0])
        if op is Op.AND:
            return all(walk(c) for c in term.children)
        if op is Op.OR:
            return any(walk(c) for c in term.children)
        if op is Op.IMPLIES:
            return (not walk(term.children[0])) or walk(term.children[1])
        if op is Op.ITE:
            pick = term.children[1] if walk(term.children[0]) else term.children[2]
            return walk(pick)
        if op is Op.EQ:
            vals = [walk(c) for c in term.children]
            return all(_same(vals[0], v) for v in vals[1:])
        if op is Op.DISTINCT:
            vals = [walk(c) for c in term.children]
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    if _same(vals[i], vals[j]):
                        return False
            return True

        if op in (Op.BVADD, Op.BVMUL, Op.BVAND, Op.BVOR, Op.BVXOR):
            vals = [walk(c) for c in term.children]
            acc = vals[0]
            for v in vals[1:]:
                if op is Op.BVADD:
                    acc = _add(acc, v)
                elif op is Op.BVMUL:
                    acc = _mul(acc, v)
                elif op is Op.BVAND:
                    acc = tuple(x & y for x, y in zip(acc, v))
                elif op is Op.BVOR:
                    acc = tuple(x | y for x, y in zip(acc, v))
                else:
                    acc = tuple(x ^ y for x, y in zip(acc, v))
            return acc
        if op is Op.BVNOT:
            return _invert(walk(term.children[0]))
        if op is Op.BVNEG:
            return _negate(walk(term.children[0]))
        if op in (Op.BVSHL, Op.BVLSHR, Op.BVASHR):
            return _shift(walk(term.children[0]), walk(term.children[1]), op)
        if op is Op.BVULT:
            return _ult(walk(term.children[0]), walk(term.children[1]))
        if op is Op.BVULE:
            return not _ult(walk(term.children[1]), walk(term.children[0]))
        if op is Op.BVSLT:
            return _ult(_flip_msb(walk(term.children[0])),
                        _flip_msb(walk(term.children[1])))
        if op is Op.BVSLE:
            return not _ult(_flip_msb(walk(term.children[1])),
                            _flip_msb(walk(term.children[0])))
        if op is Op.CONCAT:
            lo = walk(term.children[1])
            hi = walk(term.children[0])
            return lo + hi
        if op is Op.EXTRACT:
            return walk(term.children[0])[term.lo: term.hi + 1]

        if op is Op.SELECT:
            arr = walk(term.children[0])
            idx = _scalar_int(walk(term.children[1]))
            raw = arr.get(idx)
            if term.sort.is_bool:
                return bool(raw)
            return _to_bits(raw, term.sort.width)
        if op is Op.STORE:
            arr = walk(term.children[0])
            idx = _scalar_int(walk(term.children[1]))
            val = _scalar_int(walk(term.children[2]))
            return arr.set(idx, val)
        if op is Op.APPLY:
            fun = a.get(term.name)
            if fun is None:
                raise KeyError(f"assignment misses function {term.name}")
            args = tuple(_scalar_int(walk(c)) for c in term.children)
            raw = fun.get(args)
            if term.sort.is_bool:
                return bool(raw)
            return _to_bits(raw, term.sort.width)
        raise OracleError(f"unhandled op {op}")

    got = walk(term_id)
    sort = f.table[term_id].sort
    if sort.is_bool:
        return BoolVal(bool(got))
    if sort.is_bv:
        return BvVal(sort.width, _from_bits(got))
    return got


def _scalar_int(v) -> int:
    if isinstance(v, bool):
        return int(v)
    return _from_bits(v)


def _same(x, y) -> bool:
    if isinstance(x, ArrayVal) and isinstance(y, ArrayVal):
        if x.index_sort.num_bits > _MAX_INDEX_WIDTH:
            raise OracleError("index domain too wide for extensional compare")
        space = 2 if x.index_sort.is_bool else 1 << x.index_sort.width
        return all(x.get(i) == y.get(i) for i in range(space))
    return x == y


def slow_satisfies(f: Formula, a: Assignment) -> bool:
    return all(slow_evaluate(f, t, a).value for t in f.assertions)


def slow_cover_set(f: Formula, universe: AstBitUniverse, a: Assignment) -> int:
    """Cover bitset of an assignment, same slot layout as the production
    side (slot 2k for entry k at value 0, slot 2k+1 at value 1)."""
    values = {tid: slow_evaluate(f, tid, a).as_int() for tid in universe.node_ids}
    slots = 0
    for k, (tid, bit) in enumerate(universe.entries):
        v = (values[tid] >> bit) & 1
        slots |= 1 << (2 * k + v)
    return slots


# -- exhaustive enumeration ---------------------------------------------


@dataclass
class EnumerationReport:
    """Exhaustive ground truth for one formula: every solution, its cover
    bitset, and the attainable AST-bits, the union of those bitsets."""

    formula: Formula
    universe: AstBitUniverse
    solutions: list[Assignment]
    cover_sets: list[int]
    valid_mask: int

    @property
    def valid_bits(self) -> int:
        return self.valid_mask.bit_count()


def _scalar_domain(sort: Sort) -> list[Value]:
    if sort.kind is SortKind.BOOL:
        return [BoolVal(False), BoolVal(True)]
    return [BvVal(sort.width, v) for v in range(1 << sort.width)]


def _collect_ground_terms(f: Formula):
    """Index terms per index sort and argument-term tuples per function,
    as they appear in the assertions. Both must be select/apply-free so
    their values depend on scalars alone."""
    idx_terms: dict[Sort, set[int]] = {}
    app_args: dict[str, set[tuple[int, ...]]] = {}
    for tid in f.table.reachable(list(f.assertions)):
        term = f.table[tid]
        if term.op in (Op.SELECT, Op.STORE):
            arr_sort = f.table[term.children[0]].sort
            idx_terms.setdefault(arr_sort.index, set()).add(term.children[1])
        elif term.op is Op.APPLY:
            app_args.setdefault(term.name, set()).add(term.children)
    nested = set()
    for terms in idx_terms.values():
        nested |= terms
    for tuples in app_args.values():
        for tup in tuples:
            nested |= set(tup)
    for tid in f.table.reachable(sorted(nested)):
        if f.table[tid].op in (Op.SELECT, Op.APPLY):
            raise OracleError(
                "enumeration needs select/apply-free index and argument terms")
    return idx_terms, app_args


def _space(sort: Sort) -> int:
    return 1 << sort.num_bits


def enumerate_solutions(f: Formula, domain_bit_cap: int = 20,
                        deadline: float = float("inf")) -> EnumerationReport:
    """Every solution of f, with its cover bitset (see solutions_of)."""
    universe = build_universe(f)
    solutions: list[Assignment] = []
    cover_sets: list[int] = []
    valid = 0
    for a, cover in solutions_of(f, universe, domain_bit_cap, deadline):
        solutions.append(a)
        cover_sets.append(cover)
        valid |= cover
    return EnumerationReport(f, universe, solutions, cover_sets, valid)


def solutions_of(f: Formula, universe: AstBitUniverse,
                 domain_bit_cap: int = 20, deadline: float = float("inf")
                 ) -> Iterator[tuple[Assignment, int]]:
    """Yield every solution of f over the finitized domain with its cover
    bitset over universe, keeping none, or raise OracleError once
    time.perf_counter() passes deadline (read every 256 combinations).

    Scalars range over their full domains. Arrays take a default plus
    overrides at the values of syntactically occurring index terms and
    one fresh index; uninterpreted functions take a default plus a table
    over the applied argument tuples. When overrides blanket the whole
    domain the default is pinned to 0 so each array/function value has
    one representation and solutions stay pairwise distinct.
    """
    scalars = f.bv_bool_vars()
    arrays = f.array_vars()
    funs = f.fun_vars()
    idx_terms, app_args = _collect_ground_terms(f)

    bits = sum(s.num_bits for _, s in scalars)
    for _, sort in arrays:
        slots = min(len(idx_terms.get(sort.index, ())) + 1, _space(sort.index))
        bits += (slots + 1) * sort.element.num_bits
    for name, sort in funs:
        full = 1
        for s in sort.args:
            full *= _space(s)
        slots = min(len(app_args.get(name, ())), full)
        bits += (slots + 1) * sort.ret.num_bits
    if bits > domain_bit_cap:
        raise DomainCapError(f"{bits} domain bits exceed cap {domain_bit_cap}")

    tried = itertools.count()

    names = [n for n, _ in scalars]
    domains = [_scalar_domain(s) for _, s in scalars]
    for combo in itertools.product(*domains):
        base = Assignment()
        for name, val in zip(names, combo):
            base.set(name, val)

        idx_vals: dict[Sort, list[int]] = {}
        for sort, terms in idx_terms.items():
            vals = {_scalar_int_of(f, t, base) for t in terms}
            idx_vals[sort] = sorted(vals)

        array_opts = [_array_options(sort, idx_vals.get(sort.index, []))
                      for _, sort in arrays]
        fun_opts = [_fun_options(sort, app_args.get(name, set()), f, base)
                    for name, sort in funs]

        for theory_combo in itertools.product(*array_opts, *fun_opts):
            if not next(tried) % 256 and time.perf_counter() > deadline:
                raise OracleError("enumeration ran past the time budget")
            a = base.copy()
            for (name, _), val in zip(arrays + funs, theory_combo):
                a.set(name, val)
            if slow_satisfies(f, a):
                yield a, slow_cover_set(f, universe, a)


def _scalar_int_of(f: Formula, tid: int, a: Assignment) -> int:
    return slow_evaluate(f, tid, a).as_int()


def _array_options(sort: Sort, touched: list[int]) -> list[ArrayVal]:
    space = _space(sort.index)
    indices = list(touched)
    if len(indices) < space:
        fresh = next(i for i in range(space) if i not in indices)
        indices = sorted(indices + [fresh])
    elems = range(_space(sort.element))
    defaults = [0] if len(indices) == space else list(elems)
    out = []
    for default in defaults:
        for cells in itertools.product(elems, repeat=len(indices)):
            out.append(ArrayVal.make(sort.index, sort.element, default,
                                     dict(zip(indices, cells))))
    return out


def _fun_options(sort: Sort, arg_tuples: set[tuple[int, ...]],
                 f: Formula, base: Assignment) -> list[FunVal]:
    tuples = sorted({tuple(_scalar_int_of(f, t, base) for t in tup)
                     for tup in arg_tuples})
    full = 1
    for s in sort.args:
        full *= _space(s)
    rets = range(_space(sort.ret))
    defaults = [0] if len(tuples) == full else list(rets)
    out = []
    for default in defaults:
        for cells in itertools.product(rets, repeat=len(tuples)):
            out.append(FunVal.make(sort.args, sort.ret, default,
                                   dict(zip(tuples, cells))))
    return out


# -- exact coverage -----------------------------------------------------


def exact_coverage(report: EnumerationReport, chosen: list[Assignment]) -> float:
    """Coverage of a solution list with the true valid-bit denominator.

    An unsatisfiable formula has no valid bits; its coverage is 0."""
    if report.valid_bits == 0:
        return 0.0
    covered = 0
    for a in chosen:
        covered |= slow_cover_set(report.formula, report.universe, a)
    return (covered & report.valid_mask).bit_count() / report.valid_bits
