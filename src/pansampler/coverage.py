"""AST-bit coverage: universe construction, cover sets, and scoring.

Every non-constant Bool or BitVec node of the assertion DAG contributes
one tracked entry per bit; each entry can be observed at value 0 and at
value 1, so the universe holds twice as many AST-bits as entries. Cover
bitsets are plain ints: slot 2k marks entry k seen at 0, slot 2k+1 at 1.

The entries of one node lie next to each other, bit 0 first, and the
nodes follow node_ids. So a node of width w whose first entry is k and
whose value is v covers the slots of (ONES_w + int(format(v, "b"), 4))
<< 2k, where ONES_w = int("1" * w, 4): bit b of v becomes base-4 digit
b, 1 for a 0 bit and 2 for a 1 bit, which sets slot 2(k+b) + v_b. A
cover set is therefore one base-4 number, read from the nodes' binary
digits laid end to end, last node first, plus the all-ones number over
every entry.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

from .terms import Formula, Op
from .values import Assignment, BoolVal, BvVal, Value


@dataclass(frozen=True)
class AstBitUniverse:
    entries: tuple[tuple[int, int], ...]  # (node id, bit index)
    node_ids: tuple[int, ...]
    # Every id reachable from the assertions, ascending, for
    # Evaluator.fill.
    order: tuple[int, ...] = ()

    @cached_property
    def digits(self) -> tuple[tuple[int, str], ...]:
        """Per node, last first: its id and the format of its value as
        one binary digit per entry (see above)."""
        widths = Counter(tid for tid, _ in self.entries)
        return tuple((tid, f"0{widths[tid]}b")
                     for tid in reversed(self.node_ids))

    @cached_property
    def ones(self) -> int:
        """The base-4 number whose every entry's digit is 1."""
        return (4 ** len(self.entries) - 1) // 3

    @property
    def num_entries(self) -> int:
        return len(self.entries)

    @property
    def num_ast_bits(self) -> int:
        return 2 * len(self.entries)


def build_universe(f: Formula) -> AstBitUniverse:
    """Collect countable nodes reachable from the assertions.

    Constants carry no information and are excluded; arrays and function
    applications of array sort cannot occur (element sorts are scalar), so
    exclusion is only by op/sort."""
    entries: list[tuple[int, int]] = []
    node_ids: list[int] = []
    order = f.table.reachable(list(f.assertions))
    for tid in order:
        term = f.table[tid]
        if term.op is Op.CONST:
            continue
        if not (term.sort.is_bool or term.sort.is_bv):
            continue
        node_ids.append(tid)
        entries.extend(zip(repeat(tid), range(term.sort.num_bits)))
    return AstBitUniverse(tuple(entries), tuple(node_ids), tuple(order))


def cover_set(universe: AstBitUniverse, memo: dict[int, Value]) -> int:
    """Bitset of the AST-bits covered by the node values in memo (see
    Evaluator.fill). Popcount equals the number of entries: every entry
    lands on exactly one of its two slots."""
    digits = "".join([format(memo[tid].value, spec)
                      for tid, spec in universe.digits])
    return universe.ones + int(digits or "0", 4)


@dataclass
class CoverState:
    """Accumulated coverage over a growing solution set."""

    universe: AstBitUniverse
    covered: int = 0
    num_solutions: int = 0

    def absorb(self, slots: int) -> None:
        if slots.bit_length() > self.universe.num_ast_bits:
            raise ValueError("cover bitset exceeds the universe")
        self.covered |= slots
        self.num_solutions += 1

    @property
    def covered_slots(self) -> int:
        return self.covered.bit_count()

    def coverage_star(self) -> float:
        total = self.universe.num_ast_bits
        if total == 0:
            # Degenerate constant-only formula: vacuously covered once
            # anything has been absorbed.
            return 1.0 if self.num_solutions > 0 else 0.0
        return self.covered.bit_count() / total

    def gain(self, slots: int) -> int:
        """AST-bits of a cover set (see cover_set) not covered yet."""
        return (slots & ~self.covered).bit_count()

    def report(self) -> dict:
        return {
            "covered_slots": self.covered_slots,
            "total_slots": self.universe.num_ast_bits,
            "coverage_star": self.coverage_star(),
            "num_solutions": self.num_solutions,
        }


def manhattan_score(solutions: list[Assignment], assignment: Assignment) -> int:
    """Sum of Hamming distances to each prior solution over the tracked
    variable bits: per variable, the set bits of one XOR, masked to the
    variable's width in assignment, where a prior Bool stands for all
    zeros or all ones. Assignments must share the variable inventory."""
    scalars = []  # (name, raw value, width mask)
    for name, val in assignment.bindings.items():
        if isinstance(val, BoolVal):
            scalars.append((name, val.as_int(), 1))
        elif isinstance(val, BvVal):
            scalars.append((name, val.value, (1 << val.width) - 1))
    total = 0
    for other in solutions:
        for name, v, mask in scalars:
            o = other.get(name)
            if isinstance(o, BvVal):
                total += ((v ^ o.value) & mask).bit_count()
            elif isinstance(o, BoolVal):
                total += (v ^ (mask if o.value else 0)).bit_count()
            else:
                raise ValueError(f"solutions disagree on inventory at {name}")
    return total
