"""SMT-LIB v2 front end for the QF_BV / QF_ABV / QF_AUFBV fragment.

Supported commands: set-logic, declare-fun, declare-const, assert,
check-sat, exit. Commands that cannot be skipped soundly (define-fun,
define-sort, push, pop) are errors; informational commands are recorded
as warnings and ignored. No let binders, no quantifiers.

Tokens are SMT-LIB 2.6's. One compiled pattern, `_TOKEN`, splits a
script in one `findall`: each match is a run of whitespace and comments
followed by a token, or by one character that starts no token, which
reads as '' and is a lexical error. The reader builds Atom and SList
nodes that keep their token's number, not its position. A (line, col)
is worked out only when a ParseError or a ParseWarning asks for one, by
matching the tokens again up to that token and counting the newlines
before it. Lines and columns are 1-based and count characters. Numerals
are ASCII decimal digits. `parse_file` reads UTF-8, with or without a
byte-order mark, and turns "\\r\\n" and a lone "\\r" into "\\n".
"""

from __future__ import annotations

import re

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


# SMT-LIB 2.6 tokens. A symbol character is a letter or digit (any that
# str.isalnum accepts, which is what \w adds to "_") or one of
# ~!@$%^&*_-+=<>.?/. A string ends at the first '"' that is not part of
# a '""' escape; the lookahead stops a backtrack from ending it early.
_SYMBOL = r"[\w~!@$%^&*\-+=<>.?/]"
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|;[^\n]*)*"  # whitespace and comments
    r"(?:([()]"
    r"|\|[^|]*\|"
    r'|"[^"]*(?:""[^"]*)*"(?!")'
    r"|#[bx]" + _SYMBOL + r"*"
    r"|[:" + _SYMBOL[1:] + _SYMBOL + r"*)"
    r"|(?s:.))")  # a lexical error, whose group 1 reads ''
_LEXICAL_ERRORS = {"|": "unterminated |symbol|", '"': "unterminated string",
                   "#": "bad literal after '#'"}


class _Source:
    """A script's text, and where its tokens lie in it.

    Tokens are numbered in reading order. Nodes keep their token's
    number, and its (line, col) is found only when asked, by reading the
    tokens again up to it; a later question resumes where the last one
    stopped."""

    __slots__ = ("text", "_tok", "_at")

    def __init__(self, text: str) -> None:
        self.text = text
        self._tok = 0  # the last token asked for
        self._at = 0  # the start of its match: its whitespace, then it

    def offset(self, tok: int) -> int:
        """Where a token, or the character of a lexical error, starts."""
        if tok < self._tok:
            self._tok = self._at = 0
        for k, m in enumerate(_TOKEN.finditer(self.text, self._at), self._tok):
            if k == tok:
                break
        self._tok, self._at = tok, m.start()
        return m.start(1) if m.lastindex else m.end() - 1

    def position(self, tok: int) -> tuple[int, int]:
        return _line_col(self.text, self.offset(tok))


def _line_col(text: str, at: int) -> tuple[int, int]:
    """The 1-based (line, col) of an offset; col counts characters."""
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


class Atom:
    __slots__ = ("text", "src", "tok")

    def __init__(self, text: str, src: _Source, tok: int) -> None:
        self.text = text
        self.src = src
        self.tok = tok

    @property
    def line(self) -> int:
        return self.src.position(self.tok)[0]

    @property
    def col(self) -> int:
        return self.src.position(self.tok)[1]


class SList:
    __slots__ = ("items", "src", "tok")

    def __init__(self, src: _Source, tok: int) -> None:
        self.items: list = []
        self.src = src
        self.tok = tok

    line = Atom.line
    col = Atom.col


def read_sexprs(text: str) -> list:
    """Read all top-level s-expressions as Atom/SList trees.

    One compiled pattern splits the text into tokens; errors come in
    reading order, as a char-by-char reader would meet them."""
    # A newline goes on the end. After the last token only blanks are
    # left, and the last match hands that newline to the catch-all: its
    # '' ends the tokens, and any other '' is a lexical error. A match
    # never fails, so no run of blanks is backtracked over.
    src = _Source(text + "\n")
    tokens = _TOKEN.findall(src.text)
    last = len(tokens) - 1
    top: list = []
    items = top
    outer: list[list] = []  # the item lists of the open lists' parents
    for k, tok in enumerate(tokens):
        if tok == "(":
            node = SList(src, k)
            items.append(node)
            outer.append(items)
            items = node.items
        elif tok == ")":
            if not outer:
                raise ParseError("unbalanced ')'", *src.position(k))
            items = outer.pop()
        elif tok:
            items.append(Atom(tok, src, k))
        elif k < last:
            ch = text[src.offset(k)]
            message = _LEXICAL_ERRORS.get(ch, f"unexpected character {ch!r}")
            raise ParseError(message, *src.position(k))
    if outer:
        node = outer[-1][-1]
        raise ParseError("unbalanced '('", node.line, node.col)
    return top


def _atom(node, what: str) -> Atom:
    if not isinstance(node, Atom):
        raise ParseError(f"expected {what}", node.line, node.col)
    return node


def _is_numeral(text: str) -> bool:
    """Whether text is a numeral: ASCII decimal digits only, as SMT-LIB
    has them (str.isdigit alone accepts '²' and '٨')."""
    return text.isdigit() and text.isascii()


def _symbol_name(node: Atom) -> str:
    if node.text.startswith("|") and node.text.endswith("|"):
        return node.text[1:-1]
    return node.text


class _TermParser:
    def __init__(self, formula: Formula) -> None:
        self.f = formula
        self.t: TermTable = formula.table
        # Each atom text's term. A symbol is declared at most once and
        # before its first use, so the same text always gives the same term.
        self._leaves: dict[str, int] = {}

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
                if not _is_numeral(width_tok.text):
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
        leaves = self._leaves
        done: list[int] = []
        stack: list = [node]
        while stack:
            item = stack.pop()
            kind = type(item)
            if kind is Atom:
                term = leaves.get(item.text)
                if term is None:
                    term = leaves[item.text] = self._parse_atom_term(item)
                done.append(term)
            elif kind is SList:
                build, args = self._open_list(item)
                stack.append((build, item, len(args)))
                stack.extend(reversed(args))
            else:
                build, node, argc = item
                args = done[len(done) - argc:]
                del done[len(done) - argc:]
                done.append(build(node, args))
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
                and _is_numeral(items[1].text[2:])):
            width_tok = _atom(items[2], "width")
            if not _is_numeral(width_tok.text):
                raise ParseError("bad (_ bvN w) width", width_tok.line, width_tok.col)
            width = int(width_tok.text)
            if width < 1:
                raise ParseError("width must be >= 1", width_tok.line, width_tok.col)
            return self.t.mk_bv_const(width, int(items[1].text[2:]))
        raise ParseError("unknown indexed term", node.line, node.col)

    def _build(self, text: str, args: list[int], node, items) -> int:
        t = self.t
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
            if not (_is_numeral(hi_tok.text) and _is_numeral(lo_tok.text)):
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


def _universal_newlines(text: str) -> str:
    """The text as open() in text mode reads it: every "\\r\\n" and lone
    "\\r" becomes "\\n"."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_file(path: str) -> Formula:
    """Parse an SMT-LIB script file: UTF-8, with or without a byte-order
    mark. A byte that is not UTF-8 is a ParseError at its position."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        before = _universal_newlines(exc.object[:exc.start].decode("utf-8"))
        raise ParseError(f"byte {exc.object[exc.start]:#04x} is not UTF-8",
                         *_line_col(before, len(before))) from None
    return parse_formula(_universal_newlines(text))
