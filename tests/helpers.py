"""Helpers that only tests use."""

from __future__ import annotations

import gc
import itertools
import types

from pansampler.bitblast import Cnf
from pansampler.fuzz import random_formula
from pansampler.terms import Formula


def var_bits(f: Formula) -> list[tuple[str, int]]:
    """Tracked bits: (name, bit) per Bool/BitVec variable, declaration
    order, bit index ascending, LSB first. Bool counts as one bit.
    Arrays and uninterpreted functions contribute none."""
    out: list[tuple[str, int]] = []
    for name, sort in f.bv_bool_vars():
        out.extend((name, b) for b in range(sort.num_bits))
    return out


def parse_dimacs(text: str) -> Cnf:
    """The Cnf of a DIMACS text, as `bitblast.to_dimacs` writes it."""
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


def clauses_held(root) -> int:
    """How many clause-like objects (non-empty lists or tuples of ints)
    root holds, directly or through other objects, but not through a
    Cnf, a type, a module or a function: a count that a copy of some
    other Cnf's clauses would raise by their number."""
    count, seen, stack = 0, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (Cnf, type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple)) and obj and \
                all(type(x) is int for x in obj):
            count += 1
            continue
        stack.extend(gc.get_referents(obj))
    return count


def fuzzed_bv(max_width: int) -> list[tuple[int, Formula]]:
    """(seed, formula) pairs of QF_BV formulas from fuzz.random_formula
    for differential tests: seeds 0..59 at the fuzzer's default width of
    4 bits; at a wider max_width, the first 30 formulas that declare a
    vector that wide, under a bit budget that admits three of them."""
    if max_width == 4:
        return [(seed, random_formula(seed)) for seed in range(60)]
    out = []
    for seed in itertools.count():
        f = random_formula(seed, max_width=max_width,
                           bit_budget=3 * max_width)
        if any(not sort.is_bool and sort.num_bits == max_width
               for _, sort in f.bv_bool_vars()):
            out.append((seed, f))
            if len(out) == 30:
                return out
