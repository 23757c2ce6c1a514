"""Seeded random generator for micro-formulas.

The formulas stay deliberately tiny so the brute-force oracle can
enumerate them; index and argument terms of theory operations are kept
free of nested selects/applies to respect the oracle's finitization.
"""

from __future__ import annotations

import random

from .coverage import build_universe
from .sorts import BOOL, Sort, array, bv, fun
from .terms import Formula, Op, TermTable


def random_formula(seed: int, logic: str = "QF_BV", max_width: int = 4,
                   max_depth: int = 3, bit_budget: int = 12) -> Formula:
    """One random satisfiable-or-not formula in the given logic.

    bit_budget caps the declared scalar bits, which keeps the oracle's
    exhaustive enumeration tractable."""
    rng = random.Random(seed)
    table = TermTable()
    f = Formula(table, logic=logic)
    gen = _Gen(rng, f, max_width)

    budget = bit_budget
    for i in range(rng.randint(1, 3)):
        sort = BOOL if rng.random() < 0.3 else bv(rng.randint(1, max_width))
        if sort.num_bits > budget and i > 0:
            break
        budget -= sort.num_bits
        gen.add_scalar(f"v{i}", sort)

    if logic in ("QF_ABV", "QF_AUFBV") and rng.random() < 0.8:
        elem = BOOL if rng.random() < 0.25 else bv(rng.randint(1, 2))
        gen.add_array("arr0", array(bv(rng.randint(1, 2)), elem))
    if logic == "QF_AUFBV" and rng.random() < 0.8:
        ret = BOOL if rng.random() < 0.25 else bv(rng.randint(1, 2))
        args = tuple(bv(rng.randint(1, 2)) for _ in range(rng.randint(1, 2)))
        gen.add_fun("uf0", fun(args, ret))

    for _ in range(rng.randint(1, 3)):
        f.assert_term(gen.gen_bool(rng.randint(1, max_depth)))

    # Keep the tracked universe non-empty: constant-only assertion sets
    # make coverage vacuous and test nothing.
    if build_universe(f).num_entries == 0:
        name, sort = f.bv_bool_vars()[0]
        v = table.mk_var(name, sort)
        if sort.is_bool:
            f.assert_term(table.mk_or(v, table.mk_not(v)))
        else:
            f.assert_term(table.mk(Op.BVULE, (v, v)))
    return f


class _Gen:
    def __init__(self, rng: random.Random, f: Formula, max_width: int) -> None:
        self.rng = rng
        self.f = f
        self.t = f.table
        self.max_width = max_width
        self.bv_vars: dict[int, list[int]] = {}  # width -> term ids
        self.bool_vars: list[int] = []
        self.arrays: list[tuple[int, Sort]] = []  # (var term, sort)
        self.funs: list[tuple[str, Sort]] = []

    def add_scalar(self, name: str, sort: Sort) -> None:
        tid = self.f.declare(name, sort)
        if sort.is_bool:
            self.bool_vars.append(tid)
        else:
            self.bv_vars.setdefault(sort.width, []).append(tid)

    def add_array(self, name: str, sort: Sort) -> None:
        self.arrays.append((self.f.declare(name, sort), sort))

    def add_fun(self, name: str, sort: Sort) -> None:
        self.f.declare(name, sort)
        self.funs.append((name, sort))

    # -- scalar term generation ----------------------------------------

    def gen_bv(self, width: int, depth: int, pure: bool = False) -> int:
        rng = self.rng
        leaves = ["const"]
        if self.bv_vars.get(width):
            leaves += ["var"] * 3
        if depth <= 0:
            pick = rng.choice(leaves)
        else:
            ops = leaves + ["nary", "nary", "unary", "shift", "ite", "extract"]
            if width >= 2:
                ops.append("concat")
            if not pure:
                if any(s.element == bv(width) for _, s in self.arrays):
                    ops += ["select", "select"]
                if any(s.ret == bv(width) for _, s in self.funs):
                    ops += ["apply", "apply"]
            pick = rng.choice(ops)

        if pick == "const":
            return self.t.mk_bv_const(width, rng.randrange(1 << width))
        if pick == "var":
            return rng.choice(self.bv_vars[width])
        if pick == "nary":
            op = rng.choice([Op.BVADD, Op.BVMUL, Op.BVAND, Op.BVOR, Op.BVXOR])
            n = rng.choice([2, 2, 2, 3])
            kids = tuple(self.gen_bv(width, depth - 1, pure) for _ in range(n))
            return self.t.mk(op, kids)
        if pick == "unary":
            op = rng.choice([Op.BVNOT, Op.BVNEG])
            return self.t.mk(op, (self.gen_bv(width, depth - 1, pure),))
        if pick == "shift":
            op = rng.choice([Op.BVSHL, Op.BVLSHR, Op.BVASHR])
            kids = (self.gen_bv(width, depth - 1, pure),
                    self.gen_bv(width, depth - 1, pure))
            return self.t.mk(op, kids)
        if pick == "ite":
            return self.t.mk(Op.ITE, (self.gen_bool(depth - 1, pure),
                                      self.gen_bv(width, depth - 1, pure),
                                      self.gen_bv(width, depth - 1, pure)))
        if pick == "extract":
            inner_w = width + rng.randint(0, 2)
            inner = self.gen_bv(inner_w, depth - 1, pure)
            lo = rng.randint(0, inner_w - width)
            return self.t.mk(Op.EXTRACT, (inner,), hi=lo + width - 1, lo=lo)
        if pick == "concat":
            lo_w = rng.randint(1, width - 1)
            return self.t.mk(Op.CONCAT, (self.gen_bv(width - lo_w, depth - 1, pure),
                                         self.gen_bv(lo_w, depth - 1, pure)))
        if pick == "select":
            arr, sort = rng.choice([(a, s) for a, s in self.arrays
                                    if s.element == bv(width)])
            return self.t.mk_select(self.gen_array(arr, sort, depth - 1),
                                    self.gen_index(sort.index))
        arr_name, fsort = rng.choice([(n, s) for n, s in self.funs
                                      if s.ret == bv(width)])
        return self._apply(arr_name, fsort)

    def gen_bool(self, depth: int, pure: bool = False) -> int:
        rng = self.rng
        leaves = ["const"]
        if self.bool_vars:
            leaves += ["var"] * 3
        if depth <= 0 and not self.bv_vars:
            pick = rng.choice(leaves)
        elif depth <= 0:
            pick = rng.choice(leaves + ["cmp", "cmp"])
        else:
            ops = leaves + ["not", "and", "or", "implies", "cmp", "cmp", "cmp",
                            "eq", "eq"]
            if not pure:
                if any(s.element.is_bool for _, s in self.arrays):
                    ops.append("select")
                if any(s.ret.is_bool for _, s in self.funs):
                    ops.append("apply")
            pick = rng.choice(ops)

        if pick == "const":
            return self.t.mk_bool_const(rng.random() < 0.7)
        if pick == "var":
            return rng.choice(self.bool_vars)
        if pick == "not":
            return self.t.mk_not(self.gen_bool(depth - 1, pure))
        if pick in ("and", "or"):
            op = Op.AND if pick == "and" else Op.OR
            n = rng.choice([2, 2, 3])
            return self.t.mk(op, tuple(self.gen_bool(depth - 1, pure)
                                       for _ in range(n)))
        if pick == "implies":
            return self.t.mk_implies(self.gen_bool(depth - 1, pure),
                                     self.gen_bool(depth - 1, pure))
        if pick == "cmp":
            w = self._some_width()
            op = rng.choice([Op.BVULT, Op.BVULE, Op.BVSLT, Op.BVSLE])
            return self.t.mk(op, (self.gen_bv(w, depth - 1, pure),
                                  self.gen_bv(w, depth - 1, pure)))
        if pick == "eq":
            w = self._some_width()
            op = Op.EQ if rng.random() < 0.7 else Op.DISTINCT
            return self.t.mk(op, (self.gen_bv(w, depth - 1, pure),
                                  self.gen_bv(w, depth - 1, pure)))
        if pick == "select":
            arr, sort = rng.choice([(a, s) for a, s in self.arrays
                                    if s.element.is_bool])
            return self.t.mk_select(self.gen_array(arr, sort, depth - 1),
                                    self.gen_index(sort.index))
        name, fsort = rng.choice([(n, s) for n, s in self.funs
                                  if s.ret.is_bool])
        return self._apply(name, fsort)

    def _some_width(self) -> int:
        if self.bv_vars:
            return self.rng.choice(sorted(self.bv_vars))
        return self.rng.randint(1, self.max_width)

    # -- theory operands -----------------------------------------------

    def gen_index(self, sort: Sort) -> int:
        """Index/argument terms stay select- and apply-free."""
        if sort.is_bool:
            if self.bool_vars and self.rng.random() < 0.6:
                return self.rng.choice(self.bool_vars)
            return self.t.mk_bool_const(self.rng.random() < 0.5)
        if self.bv_vars.get(sort.width) and self.rng.random() < 0.6:
            return self.rng.choice(self.bv_vars[sort.width])
        if self.rng.random() < 0.3:
            return self.gen_bv(sort.width, 1, pure=True)
        return self.t.mk_bv_const(sort.width, self.rng.randrange(1 << sort.width))

    def gen_array(self, base: int, sort: Sort, depth: int) -> int:
        out = base
        while depth > 0 and self.rng.random() < 0.4:
            val = (self.gen_bool(depth - 1) if sort.element.is_bool
                   else self.gen_bv(sort.element.width, depth - 1))
            out = self.t.mk(Op.STORE, (out, self.gen_index(sort.index), val))
            depth -= 1
        return out

    def _apply(self, name: str, fsort: Sort) -> int:
        args = tuple(self.gen_index(s) for s in fsort.args)
        return self.t.mk_apply(name, fsort, args)
