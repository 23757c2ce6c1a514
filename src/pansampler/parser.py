"""SMT-LIB v2 front end for the QF_BV / QF_ABV / QF_AUFBV fragment.

Supported commands: set-logic, declare-fun, declare-const, assert,
check-sat, exit. Commands that cannot be skipped soundly (define-fun,
define-sort, push, pop) are errors; informational commands are recorded
as warnings and ignored. No let binders, no quantifiers.

Tokens are SMT-LIB 2.6's. One compiled pattern, `_TOKEN`, splits a
script in one `findall`: each match is a run of whitespace and comments
followed by a token, or by one character that starts no token, which
reads as '' and is a lexical error. `parse_formula` then reads the
tokens once, left to right, and builds each term as its list closes, on
an explicit stack of the lists still open: a script becomes no tree.
Terms are interned, and errors met, in the order of a recursive descent
over the script's s-expressions, and token errors come first, as if the
whole script had been read before any command: a lexical error or a
top-level ')' wherever it lies, then a list still open at the end
("unbalanced '('" at the innermost one). So before raising any other
error, and at `exit`, the parser reads the tokens to the end for one of
those, and settles the item counts that a descent checks when it enters
a list but that a one-pass reader learns only when the list closes.
`read_sexprs` builds Atom and SList trees by the same rules for the
model reader.

Tokens are known by their number, not their position. A (line, col) is
worked out only when a ParseError or a ParseWarning asks for one, by
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

_UNSUPPORTED_COMMANDS = {
    "define-fun", "define-fun-rec", "define-funs-rec", "define-sort",
    "declare-sort", "declare-datatype", "declare-datatypes", "push", "pop",
}

# Ops parsed 1:1 into the DAG, and those of them built straight from
# their arguments, with no chain to fold.
_DIRECT_OPS = {op.value: op for op in Op if op not in (Op.VAR, Op.CONST, Op.EXTRACT, Op.APPLY)}
_PLAIN_OPS = {text: op for text, op in _DIRECT_OPS.items()
              if op not in (Op.IMPLIES, Op.CONCAT)}

_FLIPPED = {"bvugt": Op.BVULT, "bvuge": Op.BVULE,
            "bvsgt": Op.BVSLT, "bvsge": Op.BVSLE}

# Term heads that open no application: the rest name an operator or a
# function, checked when the list closes, or open an extract's head.
_SPECIAL_HEADS = {")", "", "_", "let", "forall", "exists"}


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

    Tokens are numbered in reading order, and a token's (line, col) is
    found only when asked, by reading the tokens again up to it; a later
    question resumes where the last one stopped."""

    __slots__ = ("text", "_tok", "_at")

    def __init__(self, text: str) -> None:
        # A newline goes on the end. After the last token only blanks are
        # left, and the last match hands that newline to the catch-all:
        # its '' ends the tokens, and any other '' is a lexical error. A
        # match never fails, so no run of blanks is backtracked over.
        self.text = text + "\n"
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

    def error(self, message: str, tok: int) -> ParseError:
        return ParseError(message, *self.position(tok))

    def lexical_error(self, tok: int) -> ParseError:
        """The error of a token that reads ''."""
        ch = self.text[self.offset(tok)]
        return self.error(_LEXICAL_ERRORS.get(ch, f"unexpected character {ch!r}"),
                          tok)


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

    Errors come in reading order, as a char-by-char reader would meet
    them."""
    src = _Source(text)
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
                raise src.error("unbalanced ')'", k)
            items = outer.pop()
        elif tok:
            items.append(Atom(tok, src, k))
        elif k < last:
            raise src.lexical_error(k)
    if outer:
        raise src.error("unbalanced '('", outer[-1][-1].tok)
    return top


def _is_numeral(text: str) -> bool:
    """Whether text is a numeral: ASCII decimal digits only, as SMT-LIB
    has them (str.isdigit alone accepts '²' and '٨')."""
    return text.isdigit() and text.isascii()


def bv_literal(text: str) -> tuple[int, int] | None:
    """The (width, value) of a #b or #x literal, None for a token that is
    not one. A literal with no digits, or with a character its base does
    not have (int() alone would take '1_0' and '²'), is a ValueError."""
    if text.startswith("#b"):
        what, base, digit_bits, digits = "binary", 2, 1, "01"
    elif text.startswith("#x"):
        what, base, digit_bits, digits = "hex", 16, 4, "0123456789abcdefABCDEF"
    else:
        return None
    body = text[2:]
    if not body or not set(body) <= set(digits):
        raise ValueError(f"bad {what} literal {text}")
    return digit_bits * len(body), int(body, base)


def _symbol_name(text: str) -> str:
    if text.startswith("|") and text.endswith("|"):
        return text[1:-1]
    return text


class _Script:
    """One script's tokens, read once into a Formula."""

    def __init__(self, text: str) -> None:
        self.src = _Source(text)
        self.tokens = _TOKEN.findall(self.src.text)
        self.formula = Formula(TermTable())
        self.table = self.formula.table
        # Each atom text's term. A symbol is declared at most once and
        # before its first use, so the same text always gives the same term.
        self.leaves: dict[str, int] = {}
        # (token, items, message) per open list whose item count a descent
        # checks on entering it, before anything inside, but this reader
        # only when it closes: an assert, or an extract application.
        self.counts: list[tuple[int, int, str]] = []

    def parse(self) -> Formula:
        tokens = self.tokens
        k = 0
        while True:
            tok = tokens[k]
            if tok == "(":
                k = self._command(k)
            elif tok and tok != ")":
                raise self._error(f"stray token {tok}", k)
            elif tok or k < len(tokens) - 1:
                raise self._earlier_error()
            else:
                return self.formula

    def _error(self, message: str, tok: int) -> ParseError:
        """The error to raise for message at token tok: the one a descent
        over the whole script would meet first."""
        return self._earlier_error() or self.src.error(message, tok)

    def _earlier_error(self, start: int = 0) -> ParseError | None:
        """The first lexical error or top-level ')', else "unbalanced '('"
        at the innermost list open at the end, else the first of
        self.counts whose list has another number of items. The tokens are
        read from start, which must be at the top level."""
        tokens, last = self.tokens, len(self.tokens) - 1
        opened: list[list[int]] = []  # [token, items so far] per open list
        items: dict[int, int] = {}
        for k, tok in enumerate(tokens[start:], start):
            if tok == ")":
                if not opened:
                    return self.src.error("unbalanced ')'", k)
                start, n = opened.pop()
                items[start] = n
                continue
            if opened:
                opened[-1][1] += 1
            if tok == "(":
                opened.append([k, 0])
            elif not tok and k < last:
                return self.src.lexical_error(k)
        if opened:
            return self.src.error("unbalanced '('", opened[-1][0])
        for start, n, message in self.counts:
            if items[start] != n:
                return self.src.error(message, start)
        return None

    def _items(self, k: int) -> tuple[list[int], int]:
        """The tokens that start the items of the list opened at token k,
        and the token after the list."""
        tokens = self.tokens
        items: list[int] = []
        depth = 0
        while True:
            k += 1
            tok = tokens[k]
            if tok == ")":
                if not depth:
                    return items, k + 1
                depth -= 1
            elif not tok:
                raise self._earlier_error()
            else:
                if not depth:
                    items.append(k)
                if tok == "(":
                    depth += 1

    def _atom(self, k: int, what: str) -> str:
        if self.tokens[k] == "(":
            raise self._error(f"expected {what}", k)
        return self.tokens[k]

    def _command(self, c: int) -> int:
        """Read the command opened at token c; the token after it."""
        tokens = self.tokens
        cmd = tokens[c + 1]
        if cmd == "assert":
            return self._assert(c)
        if cmd == ")":
            raise self._error("empty command", c)
        if cmd == "(":
            raise self._error("expected command name", c + 1)
        if not cmd:
            raise self._earlier_error()
        if cmd in _UNSUPPORTED_COMMANDS:
            raise self._error(f"unsupported command {cmd}", c)
        if cmd == "exit":
            error = self._earlier_error(c)  # the tokens before c are read
            if error:
                raise error
            return len(tokens) - 1
        items, end = self._items(c)
        f = self.formula
        if cmd == "set-logic":
            if len(items) != 2:
                raise self._error("set-logic takes one argument", c)
            logic = self._atom(items[1], "logic name")
            if logic not in SUPPORTED_LOGICS:
                raise self._error(f"unsupported logic {logic}", c)
            f.logic = logic
        elif cmd == "declare-const":
            if len(items) != 3:
                raise self._error("declare-const takes a name and a sort", c)
            name = _symbol_name(self._atom(items[1], "symbol"))
            self._declare(name, self._sort(items[2]), c)
        elif cmd == "declare-fun":
            if len(items) != 4:
                raise self._error("declare-fun takes name, argument sorts, sort", c)
            name = _symbol_name(self._atom(items[1], "symbol"))
            if tokens[items[2]] != "(":
                raise self._error("declare-fun argument sorts must be a list",
                                  items[2])
            arg_sorts = tuple(map(self._sort, self._items(items[2])[0]))
            ret = self._sort(items[3])
            try:
                sort = fun(arg_sorts, ret) if arg_sorts else ret
            except ValueError as exc:
                raise self._error(str(exc), c) from None
            self._declare(name, sort, c)
        elif cmd != "check-sat":  # sampling itself answers check-sat
            f.warnings.append(ParseWarning(*self.src.position(c),
                                           f"ignored command {cmd}"))
        return end

    def _declare(self, name: str, sort: Sort, c: int) -> None:
        try:
            self.formula.declare(name, sort)
        except ValueError as exc:
            raise self._error(str(exc), c) from None

    def _sort(self, k: int) -> Sort:
        """The sort whose first token is k."""
        tokens = self.tokens
        if tokens[k] != "(":
            if tokens[k] == "Bool":
                return BOOL
            raise self._error(f"unknown sort {tokens[k]}", k)
        items = self._items(k)[0]
        if not items:
            raise self._error("empty sort", k)
        head = tokens[items[0]]
        if head == "_":
            if len(items) == 3 and tokens[items[1]] == "BitVec":
                width = self._atom(items[2], "bitvector width")
                if not _is_numeral(width):
                    raise self._error("bad BitVec width", items[2])
                if int(width) < 1:
                    raise self._error("BitVec width must be >= 1", items[2])
                return bv(int(width))
            raise self._error("unknown indexed sort", k)
        if head == "Array":
            if len(items) != 3:
                raise self._error("Array takes two sorts", k)
            try:
                return array(self._sort(items[1]), self._sort(items[2]))
            except ValueError as exc:
                raise self._error(str(exc), k) from None
        raise self._error("unknown sort", k)

    def _assert(self, c: int) -> int:
        tokens = self.tokens
        self.counts.append((c, 2, "assert takes one term"))
        if tokens[c + 2] == ")":
            raise self._error("assert takes one term", c)
        term, end = self._term(c + 2)
        if not self.table.sort_of(term).is_bool:
            raise self._error("asserted term must be Bool", c + 2)
        if tokens[end] != ")":
            raise self._error("assert takes one term", c)
        self.counts.pop()
        self.formula.assert_term(term)
        return end + 1

    def _term(self, k: int) -> tuple[int, int]:
        """The term whose first token is k, and the token after it.

        Each open list waits on the stack with its head, its token and
        its parent's arguments; args holds the innermost one's. A list's
        head is checked when the list opens, and its term is built when
        it closes."""
        tokens, leaves, mk = self.tokens, self.leaves, self.table.mk
        stack: list[tuple] = []
        args: list[int] = []
        while True:
            tok = tokens[k]
            if tok == "(":
                head = tokens[k + 1]
                if head not in _SPECIAL_HEADS:
                    if head == "(":
                        head, j = self._extract_head(k)
                    else:
                        j = k + 2
                    stack.append((head, k, args))
                    args = []
                    k = j
                    continue
                term, k = self._indexed_leaf(k)
            elif tok == ")":
                head, start, outer = stack.pop()
                op = _PLAIN_OPS.get(head)
                try:
                    term = (mk(op, tuple(args)) if op is not None
                            else self._build(head, args))
                except ValueError as exc:
                    raise self._error(str(exc), start) from None
                args = outer
                k += 1
            elif tok:
                term = leaves.get(tok)
                if term is None:
                    term = leaves[tok] = self._leaf(k)
                k += 1
            else:
                raise self._earlier_error()
            if not stack:
                return term, k
            args.append(term)

    def _leaf(self, k: int) -> int:
        text = self.tokens[k]
        t = self.table
        if text == "true":
            return t.mk_true()
        if text == "false":
            return t.mk_false()
        try:
            literal = bv_literal(text)
        except ValueError as exc:
            raise self._error(str(exc), k) from None
        if literal is not None:
            return t.mk_bv_const(*literal)
        name = _symbol_name(text)
        sort = self.formula.decls.get(name)
        if sort is None:
            raise self._error(f"undeclared symbol {name}", k)
        if sort.is_fun:
            raise self._error(f"function symbol {name} needs arguments", k)
        return t.mk_var(name, sort)

    def _indexed_leaf(self, k: int) -> tuple[int, int]:
        """The (_ bvN w) term opened at token k, and the token after it;
        any other list whose head is in _SPECIAL_HEADS raises."""
        tokens = self.tokens
        head = tokens[k + 1]
        if head == ")":
            raise self._error("empty term", k)
        if not head:
            raise self._earlier_error()
        if head == "let":
            raise self._error("let binders are unsupported", k + 1)
        if head != "_":
            raise self._error("quantifiers are unsupported", k + 1)
        items, end = self._items(k)
        if (len(items) == 3 and tokens[items[1]].startswith("bv")
                and _is_numeral(tokens[items[1]][2:])):
            width = self._atom(items[2], "width")
            if not _is_numeral(width):
                raise self._error("bad (_ bvN w) width", items[2])
            if int(width) < 1:
                raise self._error("width must be >= 1", items[2])
            return (self.table.mk_bv_const(int(width), int(tokens[items[1]][2:])),
                    end)
        raise self._error("unknown indexed term", k)

    def _extract_head(self, k: int) -> tuple[tuple[int, int], int]:
        """The (hi, lo) of the ((_ extract hi lo) x) opened at token k,
        and the token after its head."""
        tokens = self.tokens
        items, end = self._items(k + 1)
        if (len(items) == 4 and tokens[items[0]] == "_"
                and tokens[items[1]] == "extract"):
            hi = self._atom(items[2], "extract hi")
            lo = self._atom(items[3], "extract lo")
            if not (_is_numeral(hi) and _is_numeral(lo)):
                raise self._error("extract indices must be numerals", k + 1)
            self.counts.append((k, 2, "extract takes one argument"))
            return (int(hi), int(lo)), end
        raise self._error("unknown indexed operator", k + 1)

    def _build(self, head, args: list[int]) -> int:
        """The term of a closing list that is no plain application of a
        direct op; a ValueError names what is wrong with it."""
        t = self.table
        if type(head) is tuple:  # ((_ extract hi lo) x)
            self.counts.pop()
            if len(args) != 1:
                raise ValueError("extract takes one argument")
            return t.mk(Op.EXTRACT, (args[0],), hi=head[0], lo=head[1])
        op = _DIRECT_OPS.get(head)
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
        if op is not None:
            return t.mk(op, tuple(args))
        # Standard abbreviations, desugared to the core op set.
        if head == "bvsub":
            if len(args) != 2:
                raise ValueError("bvsub is binary")
            return t.mk(Op.BVADD, (args[0], t.mk(Op.BVNEG, (args[1],))))
        if head in _FLIPPED:
            if len(args) != 2:
                raise ValueError(f"{head} is binary")
            return t.mk(_FLIPPED[head], (args[1], args[0]))
        if head == "extract":
            raise ValueError("use ((_ extract hi lo) x)")
        name = _symbol_name(head)
        sort = self.formula.decls.get(name)
        if sort is not None and sort.is_fun:
            return t.mk_apply(name, sort, tuple(args))
        if sort is not None:
            raise ValueError(f"{name} is not a function")
        raise ValueError(f"unknown operator or symbol {head}")


def parse_formula(text: str) -> Formula:
    """Parse an SMT-LIB script into a Formula."""
    return _Script(text).parse()


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
