"""CNF encoding of pure-bitvector formulas."""

import hashlib
import itertools
import random

import pytest

from pansampler.bitblast import BlastError, Blaster, Cnf, bit_blast, to_dimacs
from pansampler.evaluate import satisfies
from pansampler.parser import parse_formula
from pansampler.sat import solve
from pansampler.sorts import array, bv
from pansampler.terms import Formula, TermTable
from pansampler.values import Assignment, BoolVal, BvVal

from helpers import fuzzed_bv, parse_dimacs, scalar_bits


def forced(cnf, blast_map, a):
    """The CNF with the assignment pinned by unit clauses."""
    pins = []
    for name, bit, v in scalar_bits(a):
        var = blast_map.bits[name][bit]
        pins.append((var,) if v else (-var,))
    return Cnf(cnf.num_vars, [*cnf.all_clauses(), *pins])


def tracked_models(f, cnf, blast_map):
    """Tracked-bit assignments the CNF can extend to a full model."""
    names = [(n, s) for n, s in f.bv_bool_vars()]
    bits = sum(s.num_bits for _, s in names)
    out = []
    for raw in range(1 << bits):
        a = Assignment()
        pos = 0
        for name, sort in names:
            chunk = (raw >> pos) & ((1 << sort.num_bits) - 1)
            pos += sort.num_bits
            if sort.is_bool:
                a.set(name, BoolVal(bool(chunk)))
            else:
                a.set(name, BvVal(sort.num_bits, chunk))
        if solve(forced(cnf, blast_map, a)) is not None:
            out.append(a)
    return out


def test_asserted_bool_var_is_one_unit():
    f = parse_formula("(declare-const x Bool)(assert x)")
    cnf, bmap = bit_blast(f.table, f.decls, f.assertions)
    assert bmap.bits == {"x": [1]}
    assert cnf.num_vars == 1
    assert cnf.clauses == ((1,),)


def test_bv1_equality_has_two_models():
    f = parse_formula(
        "(declare-const a (_ BitVec 1))(declare-const b (_ BitVec 1))"
        "(assert (= a b))")
    cnf, bmap = bit_blast(f.table, f.decls, f.assertions)
    models = tracked_models(f, cnf, bmap)
    got = {(a["a"].as_int(), a["b"].as_int()) for a in models}
    assert got == {(0, 0), (1, 1)}


def test_bvult_has_six_models_over_two_bit_words():
    f = parse_formula(
        "(declare-const a (_ BitVec 2))(declare-const b (_ BitVec 2))"
        "(assert (bvult a b))")
    cnf, bmap = bit_blast(f.table, f.decls, f.assertions)
    models = tracked_models(f, cnf, bmap)
    got = {(a["a"].as_int(), a["b"].as_int()) for a in models}
    assert got == {(x, y) for x in range(4) for y in range(4) if x < y}


def test_variable_allocation_order():
    # Declaration order, LSB first; unconstrained variables still get
    # SAT variables.
    f = parse_formula(
        "(declare-const m (_ BitVec 3))(declare-const l Bool)(assert true)")
    cnf, bmap = bit_blast(f.table, f.decls, f.assertions)
    assert bmap.bits == {"m": [1, 2, 3], "l": [4]}
    assert cnf.num_vars >= 4


def test_unconstrained_formula_accepts_every_assignment():
    f = parse_formula("(declare-const m (_ BitVec 2))(assert true)")
    cnf, bmap = bit_blast(f.table, f.decls, f.assertions)
    assert len(tracked_models(f, cnf, bmap)) == 4


def test_contradiction_has_no_models():
    f = parse_formula("(declare-const x Bool)(assert x)(assert (not x))")
    cnf, bmap = bit_blast(f.table, f.decls, f.assertions)
    assert solve(cnf) is None


@pytest.mark.parametrize("max_width", [4, 8, 16, 32])
def test_blaster_agrees_with_evaluator(max_width):
    for seed, f in fuzzed_bv(max_width):
        cnf, bmap = bit_blast(f.table, f.decls, f.assertions)
        rng = random.Random(seed)
        for _ in range(8):
            a = Assignment()
            for name, sort in f.bv_bool_vars():
                if sort.is_bool:
                    a.set(name, BoolVal(rng.random() < 0.5))
                else:
                    a.set(name, BvVal(sort.num_bits,
                                      rng.randrange(1 << sort.num_bits)))
            want = satisfies(f, a)
            got = solve(forced(cnf, bmap, a)) is not None
            assert got == want, f"seed {seed}: CNF and evaluator disagree"


def test_arithmetic_gates_cover_exact_tables():
    # One sweep per operator over all 4-bit operand pairs.
    ops = {
        "bvadd": lambda x, y: (x + y) % 16,
        "bvmul": lambda x, y: (x * y) % 16,
        "bvand": lambda x, y: x & y,
        "bvxor": lambda x, y: x ^ y,
    }
    for op, semantics in ops.items():
        f = parse_formula(
            "(declare-const a (_ BitVec 4))(declare-const b (_ BitVec 4))"
            f"(declare-const c (_ BitVec 4))(assert (= c ({op} a b)))")
        cnf, bmap = bit_blast(f.table, f.decls, f.assertions)
        for x, y in itertools.product(range(0, 16, 3), range(0, 16, 5)):
            a = Assignment({"a": BvVal(4, x), "b": BvVal(4, y),
                            "c": BvVal(4, semantics(x, y))})
            assert solve(forced(cnf, bmap, a)) is not None, (op, x, y)
            bad = a.copy()
            bad.set("c", BvVal(4, (semantics(x, y) + 1) % 16))
            assert solve(forced(cnf, bmap, bad)) is None, (op, x, y)


def test_shift_by_oversized_amount():
    f = parse_formula(
        "(declare-const x (_ BitVec 2))(declare-const k (_ BitVec 2))"
        "(declare-const r (_ BitVec 2))(assert (= r (bvshl x k)))")
    cnf, bmap = bit_blast(f.table, f.decls, f.assertions)
    a = Assignment({"x": BvVal(2, 3), "k": BvVal(2, 2), "r": BvVal(2, 0)})
    assert solve(forced(cnf, bmap, a)) is not None


def test_theory_ops_are_rejected():
    t = TermTable()
    f = Formula(t)
    arr = f.declare("a", array(bv(2), bv(4)))
    i = f.declare("i", bv(2))
    sel = t.mk_select(arr, i)
    eq = t.mk_eq(sel, t.mk_bv_const(4, 0))
    with pytest.raises(BlastError):
        bit_blast(t, {"i": bv(2)}, [eq])
    with pytest.raises(BlastError):
        bit_blast(t, dict(f.decls), [])


def test_constant_bits_share_one_pinned_variable():
    b = Blaster(TermTable())
    t1 = b.true_lit()
    t2 = b.true_lit()
    assert t1 == t2
    assert b.false_lit() == -t1
    assert (t1,) in b.clauses


def test_tautological_clauses_are_dropped():
    b = Blaster(TermTable())
    v = b.new_var()
    b.add_clause(v, -v)
    assert b.clauses == []
    b.add_clause(v, v)
    assert b.clauses == [(v,)]


def test_dimacs_output_format():
    cnf = Cnf(3, [(1, -2), (3,)])
    assert to_dimacs(cnf) == "p cnf 3 2\n1 -2 0\n3 0\n"


def test_dimacs_round_trip():
    f = parse_formula(
        "(declare-const a (_ BitVec 3))(declare-const b (_ BitVec 3))"
        "(assert (bvult (bvadd a b) a))")
    cnf, _ = bit_blast(f.table, f.decls, f.assertions)
    back = parse_dimacs(to_dimacs(cnf))
    assert back.num_vars == cnf.num_vars
    assert back.clauses == cnf.clauses
    # An extension prints its base's clauses, then its own: as one blast
    # of all the terms would.
    more = [f.table.mk_distinct(f.table.mk_var("a", f.decls["a"]),
                                f.table.mk_bv_const(3, 5))]
    blaster = Blaster(f.table, cnf)
    blaster.assert_term(more[0])
    ext = Cnf(blaster.num_vars, blaster.clauses, base=cnf)
    flat, _ = bit_blast(f.table, f.decls, list(f.assertions) + more)
    assert ext.base is cnf and 0 < len(ext.clauses) < len(flat.clauses)
    assert to_dimacs(ext) == to_dimacs(flat)


def test_dimacs_parser_tolerates_comments_and_blank_lines():
    cnf = parse_dimacs("c header\n\np cnf 2 2\nc mid\n1 2 0\n-1 0\n")
    assert cnf.num_vars == 2
    assert cnf.clauses == ((1, 2), (-1,))


def test_dimacs_parser_requires_header():
    with pytest.raises(ValueError):
        parse_dimacs("1 2 0\n")


def test_unsigned_compare_of_zero_width_words_raises():
    with pytest.raises(BlastError, match="zero-width"):
        Blaster(TermTable())._ult([], [])


def _wide_gates_formula():
    decls = "".join(f"(declare-const b{i} Bool)" for i in range(240))
    decls += "".join(f"(declare-const c{i} Bool)" for i in range(20))
    decls += "".join(f"(declare-const v{i} (_ BitVec 4))" for i in range(24))
    decls += "(declare-const q Bool)"
    # 260 operands over 240 variables: 20 duplicates, a TRUE every 50th
    # operand, and negated variables that appear nowhere else.
    ops = [f"b{(i * 7) % 240}" if i % 50 else "true" for i in range(260)]
    ops += [f"(not c{i})" for i in range(20)]
    wide = " ".join(ops)
    vs = " ".join(f"v{i}" for i in range(24))
    return parse_formula(
        decls
        + f"(assert (or q (and {wide})))"
        + f"(assert (or q (or {wide} false)))"
        + "(assert (or q (and b0 b1 c3 (not b0))))"  # complement pair
        + f"(assert (or q (distinct {vs})))"
        + "(assert (or q (distinct v0 v1 v0)))"  # a pair equal by itself
        + "(assert (or q (distinct #x1 #x2 v0)))")  # a pair distinct by itself


def test_wide_gates_blast_to_the_pinned_cnf():
    # The digest is of the CNF the list-based g_and emitted; the gate
    # library must keep every variable and clause in the same order.
    f = _wide_gates_formula()
    cnf, _ = bit_blast(f.table, f.decls, f.assertions)
    assert (cnf.num_vars, len(cnf.clauses)) == (1756, 6401)
    digest = hashlib.sha256(to_dimacs(cnf).encode()).hexdigest()
    assert digest == ("bce8e6bb76b112a7cfa278ee8b21aea2"
                      "6feb389b69cfb5dac369c39d9246da87")


def test_and_gate_drops_true_and_duplicates_in_first_seen_order():
    b = Blaster(TermTable())
    x, y, z = b.new_var(), b.new_var(), b.new_var()
    t = b.true_lit()
    g = b.g_and([y, x, t, y, -z, x])
    assert b.clauses[1:] == [(-g, y), (-g, x), (-g, -z), (g, -y, -x, z)]
    before = len(b.clauses)
    assert b.g_and([x, y, -x]) == -t
    assert b.g_and([x, -t]) == -t
    assert b.g_and([t, x, t]) == x
    assert b.g_and([t]) == t
    assert len(b.clauses) == before
