"""Universe construction, cover sets, and the coverage scores."""

import random

import pytest

from pansampler.coverage import (AstBitUniverse, CoverState, build_universe,
                                 manhattan_score)
from pansampler.oracle import slow_cover_set
from pansampler.parser import parse_formula
from pansampler.sorts import bv
from pansampler.terms import Formula, Op, TermTable
from pansampler.values import ArrayVal, Assignment, BoolVal, BvVal

from helpers import cover, fuzzed_bv, manhattan_score_per_bit, wide_formulas


def random_scalar_assignment(f, rng):
    a = Assignment()
    for name, sort in f.bv_bool_vars():
        if sort.is_bool:
            a.set(name, BoolVal(rng.random() < 0.5))
        else:
            a.set(name, BvVal(sort.num_bits, rng.randrange(1 << sort.num_bits)))
    return a


def test_single_bv3_variable_universe():
    # A bare BitVec term as the only root: 3 entries, one per bit.
    t = TermTable()
    f = Formula(t)
    x = f.declare("x", bv(3))
    f.assertions.append(x)
    u = build_universe(f)
    assert u.num_entries == 3
    assert u.num_ast_bits == 6
    assert u.node_ids == (x,)
    assert u.entries == ((x, 0), (x, 1), (x, 2))


def test_single_bool_variable_universe():
    f = parse_formula("(declare-const x Bool)(assert x)")
    u = build_universe(f)
    assert u.num_entries == 1
    assert u.num_ast_bits == 2


def test_adder_universe_counts_every_node_bit():
    f = parse_formula(
        "(declare-const a (_ BitVec 2))(declare-const b (_ BitVec 2))"
        "(assert (= (bvadd a b) #b00))")
    u = build_universe(f)
    # =:1, bvadd:2, a:2, b:2; the constant contributes nothing.
    assert u.num_entries == 7
    assert u.num_ast_bits == 14
    assert all(f.table[tid].op is not Op.CONST for tid in u.node_ids)


def test_universe_ignores_unreachable_declarations():
    f = parse_formula(
        "(declare-const x Bool)(declare-const y (_ BitVec 8))(assert x)")
    u = build_universe(f)
    assert u.num_entries == 1


def test_cover_set_slots():
    f = parse_formula("(declare-const x Bool)(assert x)")
    u = build_universe(f)
    assert cover(f, u, Assignment({"x": BoolVal(True)})) == 0b10
    assert cover(f, u, Assignment({"x": BoolVal(False)})) == 0b01


def test_cover_set_popcount_is_entry_count():
    f = parse_formula(
        "(declare-const l Bool)(declare-const m (_ BitVec 32))"
        "(assert (=> (= m #x00000003) l))")
    u = build_universe(f)
    rng = random.Random(11)
    for _ in range(40):
        a = random_scalar_assignment(f, rng)
        assert cover(f, u, a).bit_count() == u.num_entries


@pytest.mark.parametrize("max_width", [None, 8, 16, 32, "wide"],
                         ids=["fixed", "8", "16", "32", "wide"])
def test_cover_set_matches_slow_walker(max_width):
    fixed = parse_formula(
        "(declare-const l Bool)(declare-const m (_ BitVec 32))"
        "(assert (=> (= m #x00000003) l))")
    if max_width == "wide":
        formulas = wide_formulas()
    else:
        formulas = fuzzed_bv(max_width) if max_width else [(3, fixed)]
    for seed, f in formulas:
        u = build_universe(f)
        rng = random.Random(seed)
        for _ in range(20):
            a = random_scalar_assignment(f, rng)
            assert cover(f, u, a) == slow_cover_set(f, u, a), seed
    if max_width:
        return
    # Spot check one concrete point: m=3 with l=true drives the equality
    # and the implication both to 1.
    a = Assignment({"l": BoolVal(True), "m": BvVal(32, 3)})
    slots = cover(f, u, a)
    eq = [tid for tid in u.node_ids if f.table[tid].op is Op.EQ][0]
    imp = [tid for tid in u.node_ids if f.table[tid].op is Op.IMPLIES][0]
    for tid in (eq, imp):
        k = u.entries.index((tid, 0))
        assert slots >> (2 * k + 1) & 1 == 1


def test_each_node_lays_out_its_entries_together_in_node_order():
    # cover_set reads each node's slots as one run starting at its first
    # entry, so build_universe must list them that way.
    formulas = [(None, parse_formula(
        "(declare-const l Bool)(declare-const m (_ BitVec 32))"
        "(assert (=> (= m #x00000003) l))"))]
    formulas += fuzzed_bv(8) + wide_formulas()
    for seed, f in formulas:
        u = build_universe(f)
        assert u.entries == tuple(
            (tid, b) for tid in u.node_ids
            for b in range(f.table[tid].sort.num_bits)), seed
        assert u.order == tuple(f.table.reachable(list(f.assertions)))


def test_coverage_star_empty_then_half():
    f = parse_formula(
        "(declare-const a (_ BitVec 2))(declare-const b (_ BitVec 2))"
        "(assert (= (bvadd a b) #b00))")
    u = build_universe(f)
    st = CoverState(u)
    assert st.coverage_star() == 0.0
    st.absorb(cover(f, u, Assignment({"a": BvVal(2, 0), "b": BvVal(2, 0)})))
    # One assignment hits exactly one slot of every entry.
    assert st.coverage_star() == 0.5


def test_coverage_star_full_from_complementary_assignments():
    f = parse_formula("(declare-const x Bool)(assert x)")
    u = build_universe(f)
    st = CoverState(u)
    # cover_set does not require a satisfying assignment.
    st.absorb(cover(f, u, Assignment({"x": BoolVal(True)})))
    st.absorb(cover(f, u, Assignment({"x": BoolVal(False)})))
    assert st.coverage_star() == 1.0
    assert st.num_solutions == 2


def test_coverage_star_empty_universe_is_vacuous():
    f = parse_formula("(assert true)")
    u = build_universe(f)
    assert u.num_entries == 0
    st = CoverState(u)
    assert st.coverage_star() == 0.0
    st.absorb(0)
    assert st.coverage_star() == 1.0


def test_absorb_accumulates():
    u = AstBitUniverse(((0, 0), (1, 0)), (0, 1))
    st = CoverState(u)
    st.absorb(0b0110)
    assert st.covered == 0b0110
    st.absorb(0b0110)
    assert st.covered == 0b0110
    assert st.num_solutions == 2
    assert st.covered_slots == 2


def test_absorb_rejects_oversized_bitset():
    u = AstBitUniverse(((0, 0),), (0,))
    st = CoverState(u)
    with pytest.raises(ValueError):
        st.absorb(0b100)


def test_gain_counts_new_slots_only():
    u = AstBitUniverse(((0, 0), (1, 0)), (0, 1))
    st = CoverState(u)
    st.absorb(0b0011)
    assert st.gain(0b0011) == 0
    assert st.gain(0b0110) == 1
    assert st.gain(0b1100) == 2


def test_ast_score_examples():
    f = parse_formula(
        "(declare-const a (_ BitVec 2))(declare-const b (_ BitVec 2))"
        "(assert (= (bvadd a b) #b00))")
    u = build_universe(f)
    st = CoverState(u)
    a0 = Assignment({"a": BvVal(2, 0), "b": BvVal(2, 0)})
    # Against an empty state every entry is new.
    assert st.gain(cover(f, u, a0)) == u.num_entries
    st.absorb(cover(f, u, a0))
    assert st.gain(cover(f, u, a0)) == 0


def test_ast_score_is_slot_difference():
    f = parse_formula(
        "(declare-const a (_ BitVec 2))(declare-const b (_ BitVec 2))"
        "(assert (= (bvadd a b) #b00))")
    u = build_universe(f)
    rng = random.Random(19)
    for _ in range(20):
        st = CoverState(u)
        for _ in range(rng.randrange(3)):
            st.absorb(cover(f, u, random_scalar_assignment(f, rng)))
        cand = random_scalar_assignment(f, rng)
        want = (cover(f, u, cand) & ~st.covered).bit_count()
        assert st.gain(cover(f, u, cand)) == want


def test_manhattan_score_examples():
    base = Assignment({"x": BvVal(4, 0b0000)})
    assert manhattan_score([], base) == 0
    assert manhattan_score([base], base) == 0
    flipped = Assignment({"x": BvVal(4, 0b1111)})
    assert manhattan_score([base], flipped) == 4
    assert manhattan_score([base, base], flipped) == 8
    mixed = Assignment({"x": BvVal(4, 0b0101)})
    assert manhattan_score([base, flipped], mixed) == 4


def test_manhattan_score_needs_shared_inventory():
    a = Assignment({"x": BvVal(4, 0)})
    b = Assignment({"y": BvVal(4, 0)})
    with pytest.raises(ValueError):
        manhattan_score([b], a)
    arr = Assignment({"x": ArrayVal(bv(4), bv(4))})
    with pytest.raises(ValueError):
        manhattan_score([arr], a)


def test_manhattan_score_matches_the_per_bit_definition():
    # Widths and kinds that differ between solutions are accepted too;
    # per variable, the score counts the bits of the scored assignment.
    rng = random.Random(5)

    def value():
        if rng.random() < 0.3:
            return BoolVal(rng.random() < 0.5)
        w = rng.choice((1, 3, 8, 64, 288))
        return BvVal(w, rng.randrange(1 << w))

    names = ("p", "q", "x", "y")
    for _ in range(300):
        cand = Assignment({n: value() for n in names})
        prior = [Assignment({n: value() for n in names})
                 for _ in range(rng.randrange(4))]
        assert manhattan_score(prior, cand) == \
            manhattan_score_per_bit(prior, cand)


def test_report_shape():
    f = parse_formula("(declare-const x Bool)(assert x)")
    u = build_universe(f)
    st = CoverState(u)
    st.absorb(cover(f, u, Assignment({"x": BoolVal(True)})))
    rep = st.report()
    assert rep == {
        "covered_slots": 1,
        "total_slots": 2,
        "coverage_star": 0.5,
        "num_solutions": 1,
    }
