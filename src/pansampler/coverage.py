"""AST-bit coverage: universe construction, cover sets, and scoring.

Every non-constant Bool or BitVec node of the assertion DAG contributes
one tracked entry per bit; each entry can be observed at value 0 and at
value 1, so the universe holds twice as many AST-bits as entries. Cover
bitsets are plain ints: slot 2k marks entry k seen at 0, slot 2k+1 at 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .evaluate import Evaluator
from .terms import Formula, Op
from .values import Assignment, BoolVal, BvVal


@dataclass(frozen=True)
class AstBitUniverse:
    entries: tuple[tuple[int, int], ...]  # (node id, bit index)
    node_ids: tuple[int, ...]

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
    for tid in f.table.reachable(list(f.assertions)):
        term = f.table[tid]
        if term.op is Op.CONST:
            continue
        if not (term.sort.is_bool or term.sort.is_bv):
            continue
        node_ids.append(tid)
        entries.extend((tid, b) for b in range(term.sort.num_bits))
    return AstBitUniverse(tuple(entries), tuple(node_ids))


def cover_set(f: Formula, universe: AstBitUniverse, assignment: Assignment) -> int:
    """Bitset of AST-bits this assignment covers. Popcount equals the
    number of entries: every entry lands on exactly one of its two slots."""
    ev = Evaluator(f.table, assignment)
    values = {tid: ev.value(tid).as_int() for tid in universe.node_ids}
    slots = 0
    for k, (tid, bit) in enumerate(universe.entries):
        v = (values[tid] >> bit) & 1
        slots |= 1 << (2 * k + v)
    return slots


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
    variable bits. Assignments must share the variable inventory."""
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
