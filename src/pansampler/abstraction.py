"""Bitvector abstraction: theory atoms become fresh tracked variables.

Select applications, uninterpreted function applications, and array
(dis)equalities are replaced by fresh Bool/BitVec variables so the rest
of the engine sees a pure QF_BV problem. Atoms are purified bottom-up:
an atom's scalar subterms contain no select/apply (inner applications
are abstracted first), and its array subterms are variables or store
chains over purified scalars. The map between fresh variables and
purified atoms is a bijection; hash consing makes syntactically equal
atoms share one fresh variable.

A formula that declares no array or function symbol holds no select,
apply or array equality, so it is its own abstraction: its assertions
as they are, no atoms, and a rewrite that returns its argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .evaluate import Evaluator
from .sorts import BOOL, Sort
from .terms import Formula, Op
from .values import Assignment


@dataclass
class Abstraction:
    base: Formula
    formula: Formula  # shares base.table; assertions rewritten
    atom_map: dict[str, int] = field(default_factory=dict)  # fresh name -> atom id
    name_of_atom: dict[int, str] = field(default_factory=dict)
    witness_of: dict[int, str] = field(default_factory=dict)  # eq atom -> index var
    identity: bool = False  # no array or function symbol: rewrite is the identity
    _rewrite_memo: dict[int, int] = field(default_factory=dict)
    _fresh_counts: dict[str, int] = field(default_factory=dict)

    def _fresh_name(self, prefix: str) -> str:
        n = self._fresh_counts.get(prefix, 0)
        self._fresh_counts[prefix] = n + 1
        name = f"{prefix}!{n}"
        while name in self.base.decls or name in self.formula.decls:
            n += 1
            self._fresh_counts[prefix] = n + 1
            name = f"{prefix}!{n}"
        return name

    def fresh_witness(self, eq_atom: int, index_sort: Sort) -> str:
        """Witness index variable for an array disequality, created once.

        The variable joins the abstraction's tracked inventory so the
        witness lemma can constrain it after the next blast."""
        name = self.witness_of.get(eq_atom)
        if name is None:
            name = self._fresh_name("wit")
            self.witness_of[eq_atom] = name
            self.formula.decls[name] = index_sort
        return name

    def _abstract_atom(self, atom_id: int, prefix: str, sort: Sort) -> int:
        name = self.name_of_atom.get(atom_id)
        if name is None:
            name = self._fresh_name(prefix)
            self.formula.decls[name] = sort
            self.atom_map[name] = atom_id
            self.name_of_atom[atom_id] = name
        return self.formula.table.mk_var(name, sort)

    def rewrite(self, term_id: int) -> int:
        """Abstracted image of a term; extends the atom map on demand.

        Scalar terms map to pure bitvector terms; array-sorted terms map
        to purified variables/store chains (legal only below atoms).
        Nodes finish children first, the last child first, and each
        fresh atom is numbered as its node finishes."""
        if self.identity:
            return term_id
        memo = self._rewrite_memo
        got = memo.get(term_id)
        if got is not None:
            return got
        table = self.base.table
        # One frame per node: its id and an iterator over its children,
        # last first. A node finishes once no child is left without an
        # image; only a changed child makes a new tuple of children.
        stack = [(term_id, reversed(table[term_id].children))]
        while stack:
            tid, todo = stack[-1]
            for c in todo:
                if c not in memo:
                    stack.append((c, reversed(table[c].children)))
                    break
            else:
                stack.pop()
                term = table[tid]
                kids = children = term.children
                for c in children:
                    if memo[c] != c:
                        kids = tuple(map(memo.__getitem__, children))
                        break
                if term.op is Op.SELECT:
                    purified = (table.mk(Op.SELECT, kids)
                                if kids is not children else tid)
                    memo[tid] = self._abstract_atom(purified, "sel", term.sort)
                elif term.op is Op.APPLY:
                    purified = (table.mk_apply(term.name,
                                               self.base.decls[term.name], kids)
                                if kids is not children else tid)
                    memo[tid] = self._abstract_atom(purified, "uf", term.sort)
                elif term.op in (Op.EQ, Op.DISTINCT) and \
                        table.sort_of(children[0]).is_array:
                    memo[tid] = self._array_cmp(term.op, kids)
                elif kids is children:
                    memo[tid] = tid
                elif term.op is Op.EXTRACT:
                    memo[tid] = table.mk(Op.EXTRACT, kids, hi=term.hi, lo=term.lo)
                else:
                    memo[tid] = table.mk(term.op, kids)
        return memo[term_id]

    def _array_cmp(self, op: Op, kids: tuple[int, ...]) -> int:
        """Each purified array equality gets one fresh Bool; distinct over
        arrays expands into negated pairwise equalities first."""
        table = self.base.table
        if op is Op.EQ:
            bools = [self._abstract_atom(table.mk_eq(kids[i], kids[i + 1]), "aeq", BOOL)
                     for i in range(len(kids) - 1)]
            return bools[0] if len(bools) == 1 else table.mk_and(*bools)
        negs = []
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                eq = table.mk_eq(kids[i], kids[j])
                negs.append(table.mk_not(self._abstract_atom(eq, "aeq", BOOL)))
        return negs[0] if len(negs) == 1 else table.mk_and(*negs)

    def array_eq_atoms(self) -> list[tuple[str, int]]:
        """(fresh name, equality atom id) pairs in creation order."""
        return [(n, a) for n, a in self.atom_map.items() if n.startswith("aeq!")]

    def select_atoms(self) -> list[tuple[str, int]]:
        return [(n, a) for n, a in self.atom_map.items() if n.startswith("sel!")]

    def apply_atoms(self) -> list[tuple[str, int]]:
        return [(n, a) for n, a in self.atom_map.items() if n.startswith("uf!")]


def abstract_formula(f: Formula) -> Abstraction:
    """Build the pure-bitvector abstraction of f.

    The abstracted formula shares f's term table. Its declarations are
    f's Bool/BitVec variables (declaration order preserved) followed by
    fresh atom variables in first-encounter order. When those variables
    are all f declares, it is the identity abstraction (see above)."""
    abstracted = Formula(f.table, logic=f.logic)
    for name, sort in f.decls.items():
        if sort.is_bool or sort.is_bv:
            abstracted.decls[name] = sort
    abs_ = Abstraction(base=f, formula=abstracted,
                       identity=len(abstracted.decls) == len(f.decls))
    abstracted.assertions.extend(map(abs_.rewrite, f.assertions))
    return abs_


def project_assignment(abs_: Abstraction, assignment: Assignment) -> Assignment:
    """Project a full assignment of the base formula onto the abstraction:
    original scalars copy over, each fresh variable takes its atom's value.

    Purified atoms may reference inner fresh variables; atom creation
    order is bottom-up, so one growing evaluation context suffices.
    Atoms over witness index variables have no base value and stay
    unbound (callers treat missing bits as untracked)."""
    ctx = assignment.copy()
    ev = Evaluator(abs_.base.table, ctx)
    for name, atom in abs_.atom_map.items():
        try:
            ctx.set(name, ev.value(atom))
        except KeyError:
            pass
    out = Assignment()
    for name in abs_.formula.decls:
        # Witness index variables have no base counterpart; leave them out.
        if name in ctx:
            out.set(name, ctx[name])
    return out

