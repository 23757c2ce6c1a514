"""Concrete evaluation semantics, fast path against the slow reference."""

import random

import pytest

from pansampler.evaluate import Evaluator, satisfies
from pansampler.fuzz import random_formula
from pansampler.oracle import slow_evaluate
from pansampler.parser import parse_formula
from pansampler.sorts import BOOL, array, bv, fun
from pansampler.terms import Formula, Op, TermTable
from pansampler.values import (ArrayVal, Assignment, BoolVal, BvVal, FunVal,
                               value_of_sort)


def ev(f, tid, a):
    return Evaluator(f.table, a).value(tid)


def test_reflexive_equality_on_constant():
    f = parse_formula("(declare-const m (_ BitVec 32))(assert (= m #x00000003))")
    a = Assignment({"m": BvVal(32, 3)})
    assert ev(f, f.assertions[0], a) == BoolVal(True)
    a2 = Assignment({"m": BvVal(32, 4)})
    assert ev(f, f.assertions[0], a2) == BoolVal(False)


def test_read_over_write():
    t = TermTable()
    f = Formula(t)
    a = f.declare("a", array(bv(4), bv(8)))
    i = f.declare("i", bv(4))
    v = f.declare("v", bv(8))
    sel = t.mk_select(t.mk(Op.STORE, (a, i, v)), i)
    rng = random.Random(7)
    for _ in range(25):
        asg = Assignment({
            "a": ArrayVal.make(bv(4), bv(8), rng.randrange(256),
                               {rng.randrange(16): rng.randrange(256)}),
            "i": BvVal(4, rng.randrange(16)),
            "v": BvVal(8, rng.randrange(256)),
        })
        assert ev(f, sel, asg) == asg["v"]


def test_bvadd_wraps():
    f = parse_formula(
        "(declare-const a (_ BitVec 2))(declare-const b (_ BitVec 2))"
        "(assert (= (bvadd a b) #b01))")
    add = [t for t in f.table.reachable(list(f.assertions))
           if f.table[t].op is Op.BVADD][0]
    a = Assignment({"a": BvVal(2, 3), "b": BvVal(2, 2)})
    assert ev(f, add, a) == BvVal(2, (3 + 2) % 4)


def test_shift_semantics():
    f = parse_formula(
        "(declare-const x (_ BitVec 4))(declare-const k (_ BitVec 4))"
        "(assert (= (bvshl x k) (bvlshr x k)))(assert (= (bvashr x k) x))")
    shl, lshr = f.table[f.assertions[0]].children
    ashr = f.table[f.assertions[1]].children[0]
    a = Assignment({"x": BvVal(4, 0b1010), "k": BvVal(4, 1)})
    assert ev(f, shl, a) == BvVal(4, 0b0100)
    assert ev(f, lshr, a) == BvVal(4, 0b0101)
    assert ev(f, ashr, a) == BvVal(4, 0b1101)  # sign fill
    # amounts >= width zero- or sign-fill completely
    big = Assignment({"x": BvVal(4, 0b1010), "k": BvVal(4, 9)})
    assert ev(f, shl, big) == BvVal(4, 0)
    assert ev(f, lshr, big) == BvVal(4, 0)
    assert ev(f, ashr, big) == BvVal(4, 0b1111)


def test_signed_comparisons_use_twos_complement():
    f = parse_formula(
        "(declare-const x (_ BitVec 3))(declare-const y (_ BitVec 3))"
        "(assert (bvslt x y))(assert (bvsle x y))")
    slt, sle = f.assertions
    for xv in range(8):
        for yv in range(8):
            a = Assignment({"x": BvVal(3, xv), "y": BvVal(3, yv)})
            sx, sy = BvVal(3, xv).signed(), BvVal(3, yv).signed()
            assert ev(f, slt, a).value == (sx < sy)
            assert ev(f, sle, a).value == (sx <= sy)


def test_concat_extract():
    f = parse_formula(
        "(declare-const h (_ BitVec 3))(declare-const l (_ BitVec 2))"
        "(assert (= ((_ extract 3 1) (concat h l)) #b000))")
    root_eq = f.table[f.assertions[0]]
    extract = root_eq.children[0]
    a = Assignment({"h": BvVal(3, 0b101), "l": BvVal(2, 0b10)})
    # concat = 10110; bits 3..1 = 011
    assert ev(f, extract, a) == BvVal(3, 0b011)


def test_array_equality_is_extensional():
    t = TermTable()
    f = Formula(t)
    x = f.declare("x", array(BOOL, bv(2)))
    y = f.declare("y", array(BOOL, bv(2)))
    eq = t.mk_eq(x, y)
    same = Assignment({
        "x": ArrayVal.make(BOOL, bv(2), 1, {0: 3, 1: 3}),
        "y": ArrayVal.make(BOOL, bv(2), 2, {0: 3, 1: 3}),
    })
    assert ev(f, eq, same).value  # overrides blanket the domain
    diff = Assignment({
        "x": ArrayVal.make(BOOL, bv(2), 1, {}),
        "y": ArrayVal.make(BOOL, bv(2), 2, {}),
    })
    assert not ev(f, eq, diff).value


def test_apply_uses_table_and_default():
    t = TermTable()
    f = Formula(t)
    g = fun((bv(2),), bv(4))
    f.declare("g", g)
    i = f.declare("i", bv(2))
    app = t.mk_apply("g", g, (i,))
    val = FunVal.make((bv(2),), bv(4), 9, {(1,): 5})
    hit = Assignment({"g": val, "i": BvVal(2, 1)})
    miss = Assignment({"g": val, "i": BvVal(2, 2)})
    assert ev(f, app, hit) == BvVal(4, 5)
    assert ev(f, app, miss) == BvVal(4, 9)


def test_missing_binding_raises():
    f = parse_formula("(declare-const b Bool)(assert b)")
    with pytest.raises(KeyError):
        ev(f, f.assertions[0], Assignment())


def random_assignment(f, rng):
    a = Assignment()
    for name, sort in f.decls.items():
        if sort.is_bool or sort.is_bv:
            a.set(name, value_of_sort(sort, rng.randrange(1 << sort.num_bits)))
        elif sort.is_array:
            n = rng.randint(0, 3)
            overrides = {rng.randrange(1 << sort.index.num_bits):
                         rng.randrange(1 << sort.element.num_bits)
                         for _ in range(n)}
            a.set(name, ArrayVal.make(sort.index, sort.element,
                                      rng.randrange(1 << sort.element.num_bits),
                                      overrides))
        else:
            n = rng.randint(0, 3)
            table = {tuple(rng.randrange(1 << s.num_bits) for s in sort.args):
                     rng.randrange(1 << sort.ret.num_bits) for _ in range(n)}
            a.set(name, FunVal.make(sort.args, sort.ret,
                                    rng.randrange(1 << sort.ret.num_bits), table))
    return a


def test_fast_and_slow_evaluators_agree():
    # Independent implementations: int arithmetic with memoized traversal
    # vs positional bit-tuple arithmetic with plain recursion.
    rng = random.Random(20240817)
    for seed in range(150):
        logic = ("QF_BV", "QF_ABV", "QF_AUFBV")[seed % 3]
        f = random_formula(seed, logic=logic)
        for _ in range(6):
            a = random_assignment(f, rng)
            for t in f.assertions:
                fast = ev(f, t, a)
                slow = slow_evaluate(f, t, a)
                assert fast == slow, f"seed {seed} term {t}: {fast} vs {slow}"


def test_fill_gives_every_constant_its_value_of_sort():
    t = TermTable()
    consts = [t.mk_true(), t.mk_false(), t.mk_bv_const(1, 1),
              t.mk_bv_const(8, 0xA5), t.mk_bv_const(256, (1 << 256) - 3),
              t.mk_bv_const(300, 1 << 299)]
    consts.append(t.mk_bv_const(8, 0xA5))  # hash-consed: the same id
    for _ in range(2):
        memo = Evaluator(t, Assignment()).fill(sorted(set(consts)))
        for tid in consts:
            term = t[tid]
            assert memo[tid] == value_of_sort(term.sort, term.value)
            assert type(memo[tid]) is (BoolVal if term.sort.is_bool else BvVal)
    # Built once per table: every evaluation shares the one value.
    again = Evaluator(t, Assignment()).fill(consts)
    assert all(again[tid] is memo[tid] for tid in consts)


def test_satisfies_is_conjunction():
    f = parse_formula(
        "(declare-const b Bool)(declare-const c Bool)(assert b)(assert c)")
    assert satisfies(f, Assignment({"b": BoolVal(True), "c": BoolVal(True)}))
    assert not satisfies(f, Assignment({"b": BoolVal(True), "c": BoolVal(False)}))


def test_select_from_a_non_array_value_raises():
    t = TermTable()
    f = Formula(t)
    a = f.declare("a", array(bv(4), bv(8)))
    sel = t.mk_select(a, t.mk_bv_const(4, 1))
    with pytest.raises(TypeError, match="select"):
        ev(f, sel, Assignment({"a": BvVal(8, 3)}))


def test_store_into_a_non_array_value_raises():
    t = TermTable()
    f = Formula(t)
    a = f.declare("a", array(bv(4), bv(8)))
    st = t.mk(Op.STORE, (a, t.mk_bv_const(4, 1), t.mk_bv_const(8, 2)))
    with pytest.raises(TypeError, match="store"):
        ev(f, st, Assignment({"a": BvVal(8, 3)}))
