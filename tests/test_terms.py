"""Term DAG construction, sort checking, and the bit inventory."""

import pytest

from pansampler.sorts import BOOL, SortKind, array, bv, fun
from pansampler.terms import Formula, Op, TermTable

from helpers import var_bits


def test_bv_sort_basics():
    s = bv(8)
    assert s.kind is SortKind.BV and s.width == 8 and s.num_bits == 8
    assert BOOL.num_bits == 1
    assert bv(8) is s  # widths are cached
    with pytest.raises(ValueError):
        bv(0)


def test_array_and_fun_sort_limits():
    a = array(bv(4), BOOL)
    assert a.is_array and a.index == bv(4) and a.element is BOOL
    with pytest.raises(ValueError):
        array(a, bv(2))  # no nested arrays
    g = fun((bv(2), BOOL), bv(3))
    assert g.is_fun and g.ret == bv(3)
    with pytest.raises(ValueError):
        fun((), bv(2))
    with pytest.raises(ValueError):
        fun((array(bv(1), bv(1)),), bv(2))


def test_hash_consing_merges_duplicates():
    t = TermTable()
    x = t.mk_var("x", bv(4))
    y = t.mk_var("y", bv(4))
    a1 = t.mk(Op.BVADD, (x, y))
    a2 = t.mk(Op.BVADD, (x, y))
    assert a1 == a2
    assert t.mk(Op.BVADD, (y, x)) != a1  # argument order matters
    n = len(t)
    t.mk_eq(a1, a2)
    assert len(t) == n + 1  # only the = node is new


def test_constants_normalize_modulo_width():
    t = TermTable()
    assert t.mk_bv_const(4, 16 + 5) == t.mk_bv_const(4, 5)
    assert t.mk_true() == t.mk_bool_const(True)


def test_sort_errors():
    t = TermTable()
    x = t.mk_var("x", bv(4))
    b = t.mk_var("b", BOOL)
    w2 = t.mk_var("w", bv(2))
    with pytest.raises(ValueError):
        t.mk(Op.BVADD, (x,))  # arity
    with pytest.raises(ValueError):
        t.mk(Op.BVADD, (x, w2))  # width clash
    with pytest.raises(ValueError):
        t.mk(Op.BVADD, (x, b))  # Bool operand
    with pytest.raises(ValueError):
        t.mk(Op.AND, (x, b))
    with pytest.raises(ValueError):
        t.mk(Op.EXTRACT, (x,), hi=4, lo=0)  # out of range
    with pytest.raises(ValueError):
        t.mk(Op.ITE, (b, x, w2))  # branch sorts differ
    with pytest.raises(ValueError):
        t.mk_eq(x, b)
    with pytest.raises(ValueError):
        t.mk_var("g", fun((bv(2),), bv(2)))  # functions are not terms


def test_extract_and_concat_widths():
    t = TermTable()
    x = t.mk_var("x", bv(8))
    e = t.mk(Op.EXTRACT, (x,), hi=6, lo=3)
    assert t.sort_of(e) == bv(4)
    c = t.mk(Op.CONCAT, (x, e))
    assert t.sort_of(c) == bv(12)


def test_single_operand_and_or_collapse():
    t = TermTable()
    b = t.mk_var("b", BOOL)
    assert t.mk(Op.AND, (b,)) == b
    assert t.mk(Op.OR, (b,)) == b
    assert t.mk_and() == t.mk_true()
    assert t.mk_or() == t.mk_false()


def test_select_store_apply_checking():
    t = TermTable()
    a = t.mk_var("a", array(bv(4), bv(8)))
    i = t.mk_var("i", bv(4))
    v = t.mk_var("v", bv(8))
    sel = t.mk_select(a, i)
    assert t.sort_of(sel) == bv(8)
    st = t.mk(Op.STORE, (a, i, v))
    assert t.sort_of(st).is_array
    with pytest.raises(ValueError):
        t.mk_select(a, v)  # index width mismatch
    with pytest.raises(ValueError):
        t.mk(Op.STORE, (a, i, i))  # value sort mismatch
    g = fun((bv(4), bv(4)), BOOL)
    ap = t.mk_apply("g", g, (i, i))
    assert t.sort_of(ap) is BOOL
    with pytest.raises(ValueError):
        t.mk_apply("g", g, (i,))


def test_declare_rejects_duplicates():
    f = Formula(TermTable())
    f.declare("x", bv(4))
    with pytest.raises(ValueError):
        f.declare("x", bv(4))


def test_assertions_must_be_bool():
    f = Formula(TermTable())
    x = f.declare("x", bv(4))
    with pytest.raises(ValueError):
        f.assert_term(x)


def test_var_bits_order_and_width():
    f = Formula(TermTable())
    f.declare("x", bv(3))
    f.declare("y", BOOL)
    assert var_bits(f) == [("x", 0), ("x", 1), ("x", 2), ("y", 0)]


def test_var_bits_mixed_width_inventory():
    f = Formula(TermTable())
    f.declare("m", bv(32))
    f.declare("l", BOOL)
    assert len(var_bits(f)) == 33


def test_var_bits_skips_arrays_and_functions():
    f = Formula(TermTable())
    f.declare("a", array(bv(4), bv(4)))
    f.declare("g", fun((bv(2),), bv(2)))
    assert var_bits(f) == []


def test_reachable_is_transitive_and_sorted():
    t = TermTable()
    x = t.mk_var("x", bv(2))
    y = t.mk_var("y", bv(2))
    add = t.mk(Op.BVADD, (x, y))
    eq = t.mk_eq(add, t.mk_bv_const(2, 0))
    ids = t.reachable([eq])
    assert ids == sorted(ids)
    assert {x, y, add, eq} <= set(ids)
