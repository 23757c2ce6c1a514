"""Array and uninterpreted-function reasoning over candidate models.

Candidates assign the purified atoms of an abstraction. The check
either completes the candidate into a full model (concrete array tables
and function tables) or reports the first conflict lemma it meets: a
Bool term valid in the theory that the candidate falsifies. Lemmas are
stated over existing terms only, so the space of distinct lemmas is
statically bounded; the one exception is extensionality, which
introduces a single fresh witness index variable per disequality atom.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abstraction import Abstraction
from .evaluate import Evaluator
from .terms import Formula, Op, TermTable
from .values import ArrayVal, Assignment, FunVal


@dataclass
class Consistent:
    assignment: Assignment


@dataclass
class Conflict:
    lemmas: list[int]


TheoryVerdict = Consistent | Conflict


@dataclass
class _Read:
    """Justified base-array cell: conds entail (select base idx_term) = vterm."""
    value: int
    vterm: int
    idx_term: int
    conds: tuple[int, ...]


def _chain(table: TermTable, array_term: int
           ) -> tuple[list[tuple[int, int]], str]:
    """A store chain's (index term, value term) pairs, outermost first,
    and the name of the array variable under it."""
    stores = []
    term = table[array_term]
    while term.op is Op.STORE:
        stores.append((term.children[1], term.children[2]))
        term = table[term.children[0]]
    if term.op is not Op.VAR:
        raise AssertionError("array chain holds a non-store, non-var node")
    return stores, term.name


class _TheoryState:
    def __init__(self, f: Formula, abs_: Abstraction,
                 assignment: Assignment) -> None:
        self.abs = abs_
        self.a = assignment
        self.table: TermTable = f.table
        self.ev = Evaluator(f.table, assignment)
        # Snapshot: atoms registered after this point belong to new lemmas
        # and have no candidate value yet.
        self.select_atoms = list(abs_.select_atoms())
        self.eq_atoms = list(abs_.array_eq_atoms())
        self.apply_atoms = list(abs_.apply_atoms())
        self.base_reads: dict[str, dict[int, _Read]] = {}
        self.fun_tables: dict[str, dict[tuple[int, ...], int]] = {}

    # -- shared helpers -------------------------------------------------

    def atom_value(self, name: str) -> int:
        return self.a[name].as_int()

    def refuted(self, lemma: int) -> int:
        """The lemma, checked to be false under the candidate."""
        img = self.abs.rewrite(lemma)
        if Evaluator(self.table, self.a).value(img).as_int() != 0:
            raise AssertionError("conflict lemma holds under the candidate")
        return lemma

    def walk(self, array_term: int, d: int
             ) -> tuple[list[tuple[int, int]], tuple[int, int] | None, str]:
        """A read at index value d: the stores it passes, the store it
        hits or None, and the chain's base array."""
        stores, base = _chain(self.table, array_term)
        for k, (idx_t, _) in enumerate(stores):
            if self.ev.value(idx_t).as_int() == d:
                return stores[:k], stores[k], base
        return stores, None, base

    def determined(self, array_term: int, d: int) -> _Read | None:
        """The justified cell this chain reads at index value d, or None
        when it bottoms out in an unconstrained base cell."""
        t = self.table
        passed, hit, base = self.walk(array_term, d)
        if hit is not None:
            hit_idx, hit_val = hit
            conds = tuple(t.mk_distinct(hit_idx, it) for it, _ in passed)
            return _Read(self.ev.value(hit_val).as_int(), hit_val, hit_idx,
                         conds)
        rec = self.base_reads.get(base, {}).get(d)
        if rec is None:
            return None
        conds = tuple(t.mk_distinct(rec.idx_term, it) for it, _ in passed)
        return _Read(rec.value, rec.vterm, rec.idx_term, conds + rec.conds)


# -- arrays -------------------------------------------------------------


def _touched_indices(st: _TheoryState) -> list[int]:
    seen: set[int] = set()
    for _, atom in st.select_atoms:
        seen.add(st.ev.value(st.table[atom].children[1]).as_int())
        seen.update(_store_index_values(st, st.table[atom].children[0]))
    for _, atom in st.eq_atoms:
        for side in st.table[atom].children:
            seen.update(_store_index_values(st, side))
    return sorted(seen)


def _store_index_values(st: _TheoryState, array_term: int) -> list[int]:
    return [st.ev.value(it).as_int() for it, _ in _chain(st.table, array_term)[0]]


def _check_selects(st: _TheoryState) -> int | None:
    """Row consistency and base-read congruence: the first lemma the
    candidate violates, or None."""
    t = st.table
    for name, atom in st.select_atoms:
        term = t[atom]
        arr, idx_t = term.children
        d = st.ev.value(idx_t).as_int()
        result = st.atom_value(name)
        passed, hit, base = st.walk(arr, d)
        if hit is not None:
            hit_idx, hit_val = hit
            if st.ev.value(hit_val).as_int() != result:
                ante = [t.mk_distinct(idx_t, it) for it, _ in passed]
                ante.append(t.mk_eq(idx_t, hit_idx))
                return st.refuted(t.mk_implies(t.mk_and(*ante),
                                               t.mk_eq(atom, hit_val)))
            continue
        conds = tuple(t.mk_distinct(idx_t, it) for it, _ in passed)
        cell = st.base_reads.setdefault(base, {})
        rec = cell.get(d)
        if rec is None:
            cell[d] = _Read(result, atom, idx_t, conds)
        elif rec.value != result:
            ante = list(rec.conds) + list(conds) + [t.mk_eq(rec.idx_term, idx_t)]
            return st.refuted(t.mk_implies(t.mk_and(*ante),
                                           t.mk_eq(rec.vterm, atom)))
    return None


def _check_equalities(st: _TheoryState, touched: list[int]) -> int | None:
    t = st.table
    # Fixpoint: true equalities propagate determined cells across sides.
    changed = True
    while changed:
        changed = False
        for name, atom in st.eq_atoms:
            if st.atom_value(name) != 1:
                continue
            lhs, rhs = t[atom].children
            for d in touched:
                dl = st.determined(lhs, d)
                dr = st.determined(rhs, d)
                if dl is not None and dr is not None:
                    if dl.value != dr.value:
                        ante = ([atom] + list(dl.conds) + list(dr.conds)
                                + [t.mk_eq(dl.idx_term, dr.idx_term)])
                        return st.refuted(t.mk_implies(
                            t.mk_and(*ante), t.mk_eq(dl.vterm, dr.vterm)))
                elif dl is not None or dr is not None:
                    src, dst = (dl, rhs) if dl is not None else (dr, lhs)
                    passed, hit, base = st.walk(dst, d)
                    if hit is not None:
                        raise AssertionError("undetermined read hit a store")
                    conds = ((atom,)
                             + tuple(t.mk_distinct(src.idx_term, it)
                                     for it, _ in passed)
                             + src.conds)
                    st.base_reads.setdefault(base, {})[d] = _Read(
                        src.value, src.vterm, src.idx_term, conds)
                    changed = True
    # Disequalities need a differing cell, or a fresh witness index.
    for name, atom in st.eq_atoms:
        if st.atom_value(name) != 0:
            continue
        lhs, rhs = t[atom].children
        justified = False
        for d in touched:
            dl = st.determined(lhs, d)
            dr = st.determined(rhs, d)
            if dl is not None and dr is not None and dl.value != dr.value:
                justified = True
                break
        if justified:
            continue
        if atom in st.abs.witness_of:
            raise AssertionError(
                "disequality unjustified although its witness lemma exists")
        idx_sort = t[lhs].sort.index
        wname = st.abs.fresh_witness(atom, idx_sort)
        wvar = t.mk_var(wname, idx_sort)
        # The witness is fresh, so the candidate gives it no value.
        return t.mk_implies(
            t.mk_not(atom),
            t.mk_distinct(t.mk_select(lhs, wvar), t.mk_select(rhs, wvar)))
    return None


# -- uninterpreted functions -------------------------------------------


def _check_applies(st: _TheoryState) -> int | None:
    t = st.table
    groups: dict[str, list[tuple[str, int, tuple[int, ...], int]]] = {}
    for name, atom in st.apply_atoms:
        term = t[atom]
        args = tuple(st.ev.value(c).as_int() for c in term.children)
        groups.setdefault(term.name, []).append((name, atom, args, st.atom_value(name)))
    for fname, rows in groups.items():
        table: dict[tuple[int, ...], int] = {}
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                _, atom_i, args_i, res_i = rows[i]
                _, atom_j, args_j, res_j = rows[j]
                if args_i == args_j and res_i != res_j:
                    ante = [t.mk_eq(ci, cj) for ci, cj in
                            zip(t[atom_i].children, t[atom_j].children)]
                    return st.refuted(t.mk_implies(t.mk_and(*ante),
                                                   t.mk_eq(atom_i, atom_j)))
        for _, _, args, res in rows:
            table.setdefault(args, res)
        st.fun_tables[fname] = table
    return None


# -- entry point --------------------------------------------------------


def theory_check(f: Formula, abs_: Abstraction,
                 assignment: Assignment) -> TheoryVerdict:
    """Arrays first, then functions; Consistent means both passed and the
    returned assignment, which binds f's symbols in declaration order,
    satisfies every assertion of f. A Conflict holds the first lemma the
    candidate violates. With no array and no function symbol (an
    identity abstraction) there is nothing to check, and the candidate,
    which binds f's symbols, is returned as it is."""
    if abs_.identity:
        return Consistent(assignment)
    st = _TheoryState(f, abs_, assignment)
    lemma = _check_selects(st)
    if lemma is None:
        lemma = _check_equalities(st, _touched_indices(st))
    if lemma is None:
        lemma = _check_applies(st)
    if lemma is not None:
        return Conflict([lemma])
    model = Assignment()
    for name, sort in f.decls.items():
        if sort.is_array:
            cells = st.base_reads.get(name, {})
            model.set(name, ArrayVal.make(sort.index, sort.element, 0,
                                          {d: r.value for d, r in cells.items()}))
        elif sort.is_fun:
            model.set(name, FunVal.make(sort.args, sort.ret, 0,
                                        st.fun_tables.get(name, {})))
        else:
            model.set(name, assignment[name])
    return Consistent(model)


def axiom_instance_bound(f: Formula, abs_: Abstraction) -> int:
    """Static cap on distinct lemma instances, hence on lemma-loop rounds.

    Counts select/equality/apply atoms of the current abstraction plus
    the growth extensionality can cause (two selects and one witness
    index variable per disequality atom). Lemmas are terms over this
    finite vocabulary, so each family below over-approximates its
    member count."""
    t = f.table
    s0 = len(abs_.select_atoms())
    e = len(abs_.array_eq_atoms())
    depth = 1
    index_terms: set[int] = set()
    for _, atom in abs_.select_atoms() + abs_.array_eq_atoms():
        for c in t[atom].children:
            if t.sort_of(c).is_array:
                stores, _ = _chain(t, c)
                index_terms.update(it for it, _ in stores)
                depth = max(depth, len(stores))
            else:  # a select's index
                index_terms.add(c)
    s = s0 + 2 * e
    touched = len(index_terms) + e
    uf_pairs = 0
    counts: dict[str, int] = {}
    for _, atom in abs_.apply_atoms():
        fname = t[atom].name
        counts[fname] = counts.get(fname, 0) + 1
    for n in counts.values():
        uf_pairs += n * (n - 1) // 2
    return (s * depth + s * s * (depth + 1) ** 2
            + e * (touched + 1) * (s + depth + 2) ** 2
            + e + uf_pairs + 1)
