"""SMT-LIB v2 front end for the QF_BV / QF_ABV / QF_AUFBV fragment.

Supported commands: set-logic, declare-fun, declare-const, assert,
check-sat, exit. Commands that cannot be skipped soundly (define-fun,
define-sort, push, pop) are errors; informational commands are recorded
as warnings and ignored. No let binders, no quantifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sorts import BOOL, Sort, array, bv, fun
from .terms import Formula, Op, ParseWarning, TermTable

SUPPORTED_LOGICS = ("QF_BV", "QF_ABV", "QF_AUFBV")

_IGNORED_COMMANDS = {
    "set-info", "set-option", "get-info", "get-option", "get-model",
    "get-value", "get-assignment", "get-unsat-core", "echo", "reset",
    "reset-assertions", "get-assertions", "check-sat-assuming",
}

_UNSUPPORTED_COMMANDS = {
    "define-fun", "define-fun-rec", "define-funs-rec", "define-sort",
    "declare-sort", "declare-datatype", "declare-datatypes", "push", "pop",
}

# Ops parsed 1:1 into the DAG.
_DIRECT_OPS = {op.value: op for op in Op if op not in (Op.VAR, Op.CONST, Op.EXTRACT, Op.APPLY)}

_QUANTIFIERS = {"forall", "exists"}


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class Atom:
    text: str
    line: int
    col: int


@dataclass
class SList:
    items: list
    line: int
    col: int


_SYMBOL_EXTRA = set("~!@$%^&*_-+=<>.?/")


def _is_symbol_char(ch: str) -> bool:
    return ch.isalnum() or ch in _SYMBOL_EXTRA


def tokenize(text: str):
    """Yield (token, line, col) with 1-based positions."""
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


def read_sexprs(text: str) -> list:
    """Read all top-level s-expressions as Atom/SList trees."""
    top: list = []
    stack: list[SList] = []
    for tok, line, col in tokenize(text):
        if tok == "(":
            node = SList([], line, col)
            (stack[-1].items if stack else top).append(node)
            stack.append(node)
        elif tok == ")":
            if not stack:
                raise ParseError("unbalanced ')'", line, col)
            stack.pop()
        else:
            (stack[-1].items if stack else top).append(Atom(tok, line, col))
    if stack:
        raise ParseError("unbalanced '('", stack[-1].line, stack[-1].col)
    return top


def _atom(node, what: str) -> Atom:
    if not isinstance(node, Atom):
        raise ParseError(f"expected {what}", node.line, node.col)
    return node


def _symbol_name(node: Atom) -> str:
    if node.text.startswith("|") and node.text.endswith("|"):
        return node.text[1:-1]
    return node.text


class _TermParser:
    def __init__(self, formula: Formula) -> None:
        self.f = formula
        self.t: TermTable = formula.table

    def parse_sort(self, node) -> Sort:
        if isinstance(node, Atom):
            if node.text == "Bool":
                return BOOL
            raise ParseError(f"unknown sort {node.text}", node.line, node.col)
        items = node.items
        if not items:
            raise ParseError("empty sort", node.line, node.col)
        head = items[0]
        if isinstance(head, Atom) and head.text == "_":
            if (len(items) == 3 and isinstance(items[1], Atom)
                    and items[1].text == "BitVec"):
                width_tok = _atom(items[2], "bitvector width")
                if not width_tok.text.isdigit():
                    raise ParseError("bad BitVec width", width_tok.line, width_tok.col)
                width = int(width_tok.text)
                if width < 1:
                    raise ParseError("BitVec width must be >= 1",
                                     width_tok.line, width_tok.col)
                return bv(width)
            raise ParseError("unknown indexed sort", node.line, node.col)
        if isinstance(head, Atom) and head.text == "Array":
            if len(items) != 3:
                raise ParseError("Array takes two sorts", node.line, node.col)
            try:
                return array(self.parse_sort(items[1]), self.parse_sort(items[2]))
            except ValueError as exc:
                raise ParseError(str(exc), node.line, node.col) from None
        raise ParseError("unknown sort", node.line, node.col)

    def parse_term(self, node) -> int:
        """The term an s-expression denotes.

        Explicit stack of nodes to parse and of builds waiting for their
        arguments. A list's head is checked when the list is reached,
        and it is built once its arguments are, left to right, so terms
        are made and errors raised in the order of a recursive descent."""
        done: list[int] = []
        stack: list = [node]
        while stack:
            item = stack.pop()
            if isinstance(item, tuple):
                build, node, argc = item
                args = done[len(done) - argc:]
                del done[len(done) - argc:]
                done.append(build(node, args))
            elif isinstance(item, Atom):
                done.append(self._parse_atom_term(item))
            else:
                build, args = self._open_list(item)
                stack.append((build, item, len(args)))
                stack.extend(reversed(args))
        return done[0]

    def _open_list(self, node: SList):
        """Check a list term's head: its build and its argument nodes."""
        items = node.items
        if not items:
            raise ParseError("empty term", node.line, node.col)
        head = items[0]
        if isinstance(head, SList):
            return self._extract_build, [self._extract_arg(node)]
        text = head.text
        if text == "_":
            return self._parse_indexed_leaf, []
        if text == "let":
            raise ParseError("let binders are unsupported", head.line, head.col)
        if text in _QUANTIFIERS:
            raise ParseError("quantifiers are unsupported", head.line, head.col)
        if text == "(":
            raise ParseError("bad term head", head.line, head.col)
        return self._build_app, items[1:]

    def _build_app(self, node: SList, args: list[int]) -> int:
        try:
            return self._build(node.items[0].text, args, node, node.items)
        except ValueError as exc:
            raise ParseError(str(exc), node.line, node.col) from None

    def _parse_atom_term(self, node: Atom) -> int:
        text = node.text
        if text == "true":
            return self.t.mk_true()
        if text == "false":
            return self.t.mk_false()
        if text.startswith("#b"):
            bits = text[2:]
            if not bits or any(c not in "01" for c in bits):
                raise ParseError(f"bad binary literal {text}", node.line, node.col)
            return self.t.mk_bv_const(len(bits), int(bits, 2))
        if text.startswith("#x"):
            digits = text[2:]
            if not digits or any(c not in "0123456789abcdefABCDEF" for c in digits):
                raise ParseError(f"bad hex literal {text}", node.line, node.col)
            return self.t.mk_bv_const(4 * len(digits), int(digits, 16))
        name = _symbol_name(node)
        sort = self.f.decls.get(name)
        if sort is None:
            raise ParseError(f"undeclared symbol {name}", node.line, node.col)
        if sort.is_fun:
            raise ParseError(f"function symbol {name} needs arguments",
                             node.line, node.col)
        return self.t.mk_var(name, sort)

    def _parse_indexed_leaf(self, node: SList, args: list[int]) -> int:
        items = node.items
        if (len(items) == 3 and isinstance(items[1], Atom)
                and items[1].text.startswith("bv")
                and items[1].text[2:].isdigit()):
            width_tok = _atom(items[2], "width")
            if not width_tok.text.isdigit():
                raise ParseError("bad (_ bvN w) width", width_tok.line, width_tok.col)
            width = int(width_tok.text)
            if width < 1:
                raise ParseError("width must be >= 1", width_tok.line, width_tok.col)
            return self.t.mk_bv_const(width, int(items[1].text[2:]))
        raise ParseError("unknown indexed term", node.line, node.col)

    def _build(self, text: str, args: list[int], node, items) -> int:
        t = self.t
        # Standard abbreviations, desugared to the core op set.
        if text == "bvsub":
            if len(args) != 2:
                raise ParseError("bvsub is binary", node.line, node.col)
            return t.mk(Op.BVADD, (args[0], t.mk(Op.BVNEG, (args[1],))))
        if text in ("bvugt", "bvuge", "bvsgt", "bvsge"):
            if len(args) != 2:
                raise ParseError(f"{text} is binary", node.line, node.col)
            flipped = {"bvugt": Op.BVULT, "bvuge": Op.BVULE,
                       "bvsgt": Op.BVSLT, "bvsge": Op.BVSLE}[text]
            return t.mk(flipped, (args[1], args[0]))
        if text == "extract":
            raise ParseError("use ((_ extract hi lo) x)", node.line, node.col)
        op = _DIRECT_OPS.get(text)
        if op is not None:
            if op is Op.IMPLIES and len(args) > 2:  # right-associative chain
                folded = args[-1]
                for a in reversed(args[:-1]):
                    folded = t.mk_implies(a, folded)
                return folded
            if op is Op.CONCAT and len(args) > 2:  # left-associative chain
                folded = args[0]
                for a in args[1:]:
                    folded = t.mk(Op.CONCAT, (folded, a))
                return folded
            return t.mk(op, tuple(args))
        name = _symbol_name(_atom(items[0], "symbol"))
        sort = self.f.decls.get(name)
        if sort is not None and sort.is_fun:
            return t.mk_apply(name, sort, tuple(args))
        if sort is not None:
            raise ParseError(f"{name} is not a function", node.line, node.col)
        raise ParseError(f"unknown operator or symbol {text}", node.line, node.col)

    def _extract_arg(self, node: SList):
        """The argument node of ((_ extract hi lo) x), once the head is
        checked."""
        head = node.items[0]
        hitems = head.items
        if (len(hitems) == 4 and isinstance(hitems[0], Atom)
                and hitems[0].text == "_" and isinstance(hitems[1], Atom)
                and hitems[1].text == "extract"):
            hi_tok = _atom(hitems[2], "extract hi")
            lo_tok = _atom(hitems[3], "extract lo")
            if not (hi_tok.text.isdigit() and lo_tok.text.isdigit()):
                raise ParseError("extract indices must be numerals",
                                 head.line, head.col)
            if len(node.items) != 2:
                raise ParseError("extract takes one argument", node.line, node.col)
            return node.items[1]
        raise ParseError("unknown indexed operator", head.line, head.col)

    def _extract_build(self, node: SList, args: list[int]) -> int:
        _, _, hi_tok, lo_tok = node.items[0].items
        try:
            return self.t.mk(Op.EXTRACT, (args[0],),
                             hi=int(hi_tok.text), lo=int(lo_tok.text))
        except ValueError as exc:
            raise ParseError(str(exc), node.line, node.col) from None


def parse_formula(text: str) -> Formula:
    """Parse an SMT-LIB script into a Formula."""
    formula = Formula(TermTable())
    tp = _TermParser(formula)
    for node in read_sexprs(text):
        if isinstance(node, Atom):
            raise ParseError(f"stray token {node.text}", node.line, node.col)
        if not node.items:
            raise ParseError("empty command", node.line, node.col)
        head = _atom(node.items[0], "command name")
        cmd = head.text
        items = node.items
        if cmd == "set-logic":
            if len(items) != 2:
                raise ParseError("set-logic takes one argument", node.line, node.col)
            logic = _atom(items[1], "logic name").text
            if logic not in SUPPORTED_LOGICS:
                raise ParseError(f"unsupported logic {logic}", node.line, node.col)
            formula.logic = logic
        elif cmd == "declare-const":
            if len(items) != 3:
                raise ParseError("declare-const takes a name and a sort",
                                 node.line, node.col)
            name = _symbol_name(_atom(items[1], "symbol"))
            sort = tp.parse_sort(items[2])
            try:
                formula.declare(name, sort)
            except ValueError as exc:
                raise ParseError(str(exc), node.line, node.col) from None
        elif cmd == "declare-fun":
            if len(items) != 4:
                raise ParseError("declare-fun takes name, argument sorts, sort",
                                 node.line, node.col)
            name = _symbol_name(_atom(items[1], "symbol"))
            if not isinstance(items[2], SList):
                raise ParseError("declare-fun argument sorts must be a list",
                                 items[2].line, items[2].col)
            arg_sorts = tuple(tp.parse_sort(s) for s in items[2].items)
            ret = tp.parse_sort(items[3])
            try:
                sort = fun(arg_sorts, ret) if arg_sorts else ret
                formula.declare(name, sort)
            except ValueError as exc:
                raise ParseError(str(exc), node.line, node.col) from None
        elif cmd == "assert":
            if len(items) != 2:
                raise ParseError("assert takes one term", node.line, node.col)
            term_id = tp.parse_term(items[1])
            if not formula.table.sort_of(term_id).is_bool:
                raise ParseError("asserted term must be Bool",
                                 items[1].line, items[1].col)
            formula.assert_term(term_id)
        elif cmd == "check-sat":
            pass  # sampling itself answers this
        elif cmd == "exit":
            break
        elif cmd in _UNSUPPORTED_COMMANDS:
            raise ParseError(f"unsupported command {cmd}", node.line, node.col)
        else:
            formula.warnings.append(
                ParseWarning(node.line, node.col, f"ignored command {cmd}"))
    return formula


def parse_file(path: str) -> Formula:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_formula(fh.read())
