"""Helpers that only tests use."""

from __future__ import annotations

import gc
import itertools
import types

from pansampler.bitblast import Cnf
from pansampler.coverage import AstBitUniverse, cover_set
from pansampler.evaluate import Evaluator
from pansampler.fuzz import random_formula
from pansampler.parser import ParseError, parse_formula
from pansampler.terms import Formula
from pansampler.values import Assignment, BoolVal, BvVal


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


def cover(f: Formula, universe: AstBitUniverse, a: Assignment) -> int:
    """coverage.cover_set of an assignment, evaluated from scratch."""
    return cover_set(universe, Evaluator(f.table, a).fill(universe.order))


def manhattan_score_per_bit(solutions: list[Assignment],
                            assignment: Assignment) -> int:
    """coverage.manhattan_score as first written: one step per prior
    solution and tracked bit."""
    bits = assignment.scalar_bits()
    total = 0
    for other in solutions:
        for name, bit, v in bits:
            o = other.get(name)
            if isinstance(o, BoolVal):
                total += v ^ o.as_int()
            elif isinstance(o, BvVal):
                total += v ^ o.bit(bit)
            else:
                raise ValueError(f"solutions disagree on inventory at {name}")
    return total


def wide_formulas() -> list[tuple[int, Formula]]:
    """(seed, formula) pairs in the shape of perfbench's ablation
    fixtures, a 224-, 256- or 288-bit x or'd with a Bool gate circuit of
    two or three levels, plus one Bool-only circuit per seed."""
    gates = ("and", "or", "distinct")
    out = []
    for seed in range(6):
        w = (224, 256, 288)[seed % 3]
        a, b, c, d = (gates[(seed + k) % 3] for k in range(4))
        bools = "".join(f"(declare-const b{i} Bool)" for i in range(1, 7))
        circuit = f"({d} ({c} ({a} b1 b2) ({b} b3 b4)) ({a} b5 b6))"
        if seed % 2:
            circuit = f"({c} ({a} b1 b2) ({b} b3 b4))"
        out.append((seed, parse_formula(
            f"(declare-const x (_ BitVec {w})){bools}"
            f"(assert (or {circuit} (bvule x x)))")))
        out.append((seed, parse_formula(f"{bools}(assert {circuit})")))
    return out


_SYMBOL_EXTRA = set("~!@$%^&*_-+=<>.?/")


def _is_symbol_char(ch: str) -> bool:
    return ch.isalnum() or ch in _SYMBOL_EXTRA


def tokenize(text: str):
    """Yield (token, line, col) with 1-based positions: the char-by-char
    reference for the parser's tokens, their positions and its lexical
    errors."""
    i, n = 0, len(text)
    line, col = 1, 1

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                advance(1)
            continue
        if ch in "()":
            yield ch, line, col
            advance(1)
            continue
        start_line, start_col = line, col
        if ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise ParseError("unterminated |symbol|", start_line, start_col)
            tok = text[i:j + 1]
            advance(j + 1 - i)
            yield tok, start_line, start_col
            continue
        if ch == '"':
            j = i + 1
            while j < n:
                if text[j] == '"':
                    if j + 1 < n and text[j + 1] == '"':  # escaped quote
                        j += 2
                        continue
                    break
                j += 1
            if j >= n:
                raise ParseError("unterminated string", start_line, start_col)
            tok = text[i:j + 1]
            advance(j + 1 - i)
            yield tok, start_line, start_col
            continue
        if ch == "#":
            j = i + 1
            if j < n and text[j] in "bx":
                j += 1
                while j < n and _is_symbol_char(text[j]):
                    j += 1
                tok = text[i:j]
                advance(j - i)
                yield tok, start_line, start_col
                continue
            raise ParseError("bad literal after '#'", start_line, start_col)
        if ch == ":" or _is_symbol_char(ch):
            j = i + 1
            while j < n and _is_symbol_char(text[j]):
                j += 1
            tok = text[i:j]
            advance(j - i)
            yield tok, start_line, start_col
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)


def reference_read(text: str) -> list[tuple[str, int, int]]:
    """What read_sexprs reads from text, by the reference tokenizer and
    the same balance checks, in reading order: (token, line, col) for
    each "(" and each atom, and (")", 0, 0) where a list closes."""
    out: list[tuple[str, int, int]] = []
    opened: list[tuple[int, int]] = []
    for tok, line, col in tokenize(text):
        if tok == "(":
            opened.append((line, col))
        elif tok == ")":
            if not opened:
                raise ParseError("unbalanced ')'", line, col)
            opened.pop()
            line = col = 0
        out.append((tok, line, col))
    if opened:
        raise ParseError("unbalanced '('", *opened[-1])
    return out
