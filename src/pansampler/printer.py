"""Stable printing of formulas, terms, and solution model blocks."""

from __future__ import annotations

import math

from .parser import Atom, ParseError, SList, bv_literal, read_sexprs
from .sorts import Sort, SortKind
from .terms import Formula, Op, TermTable
from .values import ArrayVal, Assignment, BoolVal, BvVal, FunVal, Value

_SIMPLE_EXTRA = set("~!@$%^&*_-+=<>.?/")


def _symbol(name: str) -> str:
    ok = name and not name[0].isdigit() and all(
        c.isalnum() or c in _SIMPLE_EXTRA for c in name)
    return name if ok else f"|{name}|"


def print_sort(sort: Sort) -> str:
    if sort.kind is SortKind.BOOL:
        return "Bool"
    if sort.kind is SortKind.BV:
        return f"(_ BitVec {sort.width})"
    if sort.kind is SortKind.ARRAY:
        return f"(Array {print_sort(sort.index)} {print_sort(sort.element)})"
    raise ValueError("function sorts print only inside declare-fun")


def print_bv_const(width: int, value: int) -> str:
    if width % 4 == 0:
        return f"#x{value:0{width // 4}x}"
    return f"#b{value:0{width}b}"


def print_term(table: TermTable, term_id: int, limit: int | None = None) -> str:
    """The term as SMT-LIB text, written left to right from an explicit
    stack of term ids still to print and text still to close them. With a
    limit, only the text's first limit characters: the writing stops once
    it has them, so a node shared many times over is not written out."""
    out: list[str] = []
    size = 0
    budget = math.inf if limit is None else limit
    stack: list[int | str] = [term_id]
    while stack and size < budget:
        item = stack.pop()
        if isinstance(item, str):
            piece = item
        else:
            term = table[item]
            if term.op is Op.VAR:
                piece = _symbol(term.name)
            elif term.op is Op.CONST:
                if term.sort.is_bool:
                    piece = "true" if term.value else "false"
                else:
                    piece = print_bv_const(term.sort.width, term.value)
            elif term.op is Op.EXTRACT:
                piece = f"((_ extract {term.hi} {term.lo}) "
                stack += [")", term.children[0]]
            else:
                head = _symbol(term.name) if term.op is Op.APPLY else term.op.value
                piece = f"({head} "
                stack.append(")")
                for k, c in enumerate(reversed(term.children)):
                    if k:
                        stack.append(" ")
                    stack.append(c)
        out.append(piece)
        size += len(piece)
    return "".join(out)[:limit]


def print_formula(f: Formula) -> str:
    lines: list[str] = []
    if f.logic:
        lines.append(f"(set-logic {f.logic})")
    for name, sort in f.decls.items():
        if sort.is_fun:
            args = " ".join(print_sort(a) for a in sort.args)
            lines.append(f"(declare-fun {_symbol(name)} ({args}) {print_sort(sort.ret)})")
        else:
            lines.append(f"(declare-const {_symbol(name)} {print_sort(sort)})")
    for a in f.assertions:
        lines.append(f"(assert {print_term(f.table, a)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# -- model blocks -------------------------------------------------------


def _print_scalar(sort: Sort, raw: int) -> str:
    if sort.is_bool:
        return "true" if raw else "false"
    return print_bv_const(sort.width, raw)


def _print_value_body(val: Value, params: list[str]) -> str:
    if isinstance(val, BoolVal):
        return "true" if val.value else "false"
    if isinstance(val, BvVal):
        return print_bv_const(val.width, val.value)
    if isinstance(val, ArrayVal):
        sort_txt = f"(Array {print_sort(val.index_sort)} {print_sort(val.element_sort)})"
        body = f"((as const {sort_txt}) {_print_scalar(val.element_sort, val.default)})"
        for idx, cell in val.overrides:
            body = (f"(store {body} {_print_scalar(val.index_sort, idx)} "
                    f"{_print_scalar(val.element_sort, cell)})")
        return body
    if isinstance(val, FunVal):
        body = _print_scalar(val.ret_sort, val.default)
        for args, res in reversed(val.table):
            conds = [f"(= {p} {_print_scalar(s, a)})"
                     for p, s, a in zip(params, val.arg_sorts, args)]
            cond = conds[0] if len(conds) == 1 else f"(and {' '.join(conds)})"
            body = f"(ite {cond} {_print_scalar(val.ret_sort, res)} {body})"
        return body
    raise TypeError(f"unprintable value {val!r}")


def print_model(f: Formula, assignment: Assignment) -> str:
    """One solution as an SMT-LIB model block."""
    lines = ["(model"]
    for name, sort in f.decls.items():
        val = assignment.get(name)
        if val is None:
            raise ValueError(f"assignment misses declared symbol {name}")
        if isinstance(val, FunVal):
            params = [f"x!{i}" for i in range(len(val.arg_sorts))]
            sig = " ".join(f"({p} {print_sort(s)})"
                           for p, s in zip(params, val.arg_sorts))
            body = _print_value_body(val, params)
            lines.append(f"  (define-fun {_symbol(name)} ({sig}) "
                         f"{print_sort(val.ret_sort)} {body})")
        else:
            lines.append(f"  (define-fun {_symbol(name)} () {print_sort(sort)} "
                         f"{_print_value_body(val, [])})")
    lines.append(")")
    return "\n".join(lines)


def print_models(f: Formula, assignments: list[Assignment]) -> str:
    return "\n".join(print_model(f, a) for a in assignments) + "\n"


# -- model block reading ------------------------------------------------


def _scalar_from_node(node, sort: Sort) -> int:
    if not isinstance(node, Atom):
        raise ParseError("expected a scalar constant", node.line, node.col)
    text = node.text
    if sort.is_bool:
        if text == "true":
            return 1
        if text == "false":
            return 0
        raise ParseError(f"bad Bool constant {text}", node.line, node.col)
    try:
        literal = bv_literal(text)
    except ValueError as exc:
        raise ParseError(str(exc), node.line, node.col) from None
    if literal is None:
        raise ParseError(f"bad bitvector constant {text}", node.line, node.col)
    width, value = literal
    if width != sort.width:
        raise ParseError(f"{text} is {width} bits wide, not {sort.width}",
                         node.line, node.col)
    return value


def _array_from_node(node, sort: Sort) -> ArrayVal:
    overrides: dict[int, int] = {}
    while (isinstance(node, SList) and node.items
           and isinstance(node.items[0], Atom) and node.items[0].text == "store"):
        if len(node.items) != 4:
            raise ParseError("bad store in model", node.line, node.col)
        idx = _scalar_from_node(node.items[2], sort.index)
        cell = _scalar_from_node(node.items[3], sort.element)
        overrides.setdefault(idx, cell)  # outermost store wins
        node = node.items[1]
    if (isinstance(node, SList) and len(node.items) == 2
            and isinstance(node.items[0], SList)):
        default = _scalar_from_node(node.items[1], sort.element)
        return ArrayVal.make(sort.index, sort.element, default, overrides)
    raise ParseError("bad array base in model", node.line, node.col)


def _params_from_node(node, sort: Sort) -> list[str]:
    """The parameter names of a function's define-fun: a list of one
    (name sort) pair per argument of sort."""
    arity = len(sort.args)
    if not isinstance(node, SList) or len(node.items) != arity:
        raise ParseError(f"expected a parameter list of length {arity}",
                         node.line, node.col)
    for param in node.items:
        if not (isinstance(param, SList) and len(param.items) == 2
                and isinstance(param.items[0], Atom)):
            raise ParseError("expected a (name sort) parameter",
                             param.line, param.col)
    return [param.items[0].text for param in node.items]


def _fun_from_node(node, params: list[str], sort: Sort) -> FunVal:
    table: dict[tuple[int, ...], int] = {}

    def read_cond(cond) -> tuple[int, ...]:
        eqs = []
        if (isinstance(cond, SList) and cond.items
                and isinstance(cond.items[0], Atom) and cond.items[0].text == "and"):
            eqs = cond.items[1:]
        else:
            eqs = [cond]
        by_param: dict[str, int] = {}
        for eq in eqs:
            if not (isinstance(eq, SList) and len(eq.items) == 3
                    and isinstance(eq.items[0], Atom) and eq.items[0].text == "="
                    and isinstance(eq.items[1], Atom)):
                raise ParseError("bad ite condition in model", cond.line, cond.col)
            pname = eq.items[1].text
            if pname not in params:
                raise ParseError(f"unknown parameter {pname}", eq.line, eq.col)
            psort = sort.args[params.index(pname)]
            by_param[pname] = _scalar_from_node(eq.items[2], psort)
        try:
            return tuple(by_param[p] for p in params)
        except KeyError:
            raise ParseError("ite condition misses a parameter",
                             cond.line, cond.col) from None

    while (isinstance(node, SList) and node.items
           and isinstance(node.items[0], Atom) and node.items[0].text == "ite"):
        if len(node.items) != 4:
            raise ParseError("bad ite in model", node.line, node.col)
        args = read_cond(node.items[1])
        table.setdefault(args, _scalar_from_node(node.items[2], sort.ret))
        node = node.items[3]
    default = _scalar_from_node(node, sort.ret)
    return FunVal.make(sort.args, sort.ret, default, table)


def parse_model_blocks(text: str, f: Formula) -> list[Assignment]:
    """Read solutions printed by print_models back into assignments."""
    out: list[Assignment] = []
    for block in read_sexprs(text):
        if not (isinstance(block, SList) and block.items
                and isinstance(block.items[0], Atom)
                and block.items[0].text == "model"):
            raise ParseError("expected a (model ...) block", block.line, block.col)
        a = Assignment()
        for df in block.items[1:]:
            if not (isinstance(df, SList) and len(df.items) == 5
                    and isinstance(df.items[0], Atom)
                    and df.items[0].text == "define-fun"):
                raise ParseError("expected define-fun", df.line, df.col)
            name_tok = df.items[1]
            if not isinstance(name_tok, Atom):
                raise ParseError("bad symbol", name_tok.line, name_tok.col)
            name = name_tok.text[1:-1] if name_tok.text.startswith("|") else name_tok.text
            sort = f.decls.get(name)
            if sort is None:
                raise ParseError(f"model binds undeclared symbol {name}",
                                 name_tok.line, name_tok.col)
            body = df.items[4]
            if sort.is_fun:
                params = _params_from_node(df.items[2], sort)
                a.set(name, _fun_from_node(body, params, sort))
            elif sort.is_array:
                a.set(name, _array_from_node(body, sort))
            elif sort.is_bool:
                a.set(name, BoolVal(bool(_scalar_from_node(body, sort))))
            else:
                a.set(name, BvVal(sort.width, _scalar_from_node(body, sort)))
        out.append(a)
    return out
