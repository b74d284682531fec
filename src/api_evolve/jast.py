"""Lossless parser for the Java subset handled by api-evolve.

The parser is tolerant: any construct outside the subset becomes an
Opaque node whose bytes reprint verbatim. Every structured node carries
its position in the original text, so printing an unedited unit
reproduces the input byte-for-byte, and all rewriting is expressed as
span replacements (see splice / edited). A node indexes the text, not a
copy of it: a parsed node holds its position as two ints and the unit's
one text string, and its span and src are views built on access, so a
tree costs memory linear in the text at any nesting depth. Span is the
value type of edits and reports; a parse builds none. A parse keeps one
string per distinct token text and type text, and equal modifier sets
are one object. The parser indexes the lexer's lists of token kinds,
values and offsets and builds no Token. Nodes, spans and tokens are
plain classes that declare their own __slots__ and __init__, so building
them generates no code.
Record, the base of the package's value classes, compares and shows one
field by field. Nodes compare by identity; ast_equal compares structure.
Brackets are paired once per parse, by check_balanced's table, which the
member scan and the parser's verbatim regions jump through. A file can
also be read in islands, without a tree of the rest: blocks_around finds
the braces and the member or statement around an offset by that table,
and one walk (_Walk) lexes that member toward the offset, giving the
tokens in front of it and the `if` conditions on the way, and goes on
from there toward the member's next offset; parse_islands
parses the statements of given spans in place, all of a file's with one
lexer pass and one parser, and declarations finds, by the same walk and
its tokens alone, where the file or a class declares a name (declares: a
type's end or `class` in front of it).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import accumulate, chain
from operator import itemgetter
from typing import Iterator, Optional, Union


class ParseError(Exception):
    """The text cannot be parsed: an unterminated literal, broken nesting,
    or not exactly one expression or statement."""


class UnbalancedSource(ParseError):
    """Brace/paren/bracket nesting of the input cannot be recovered."""


class OverlappingEdits(Exception):
    """Two splice edits overlap; this is a caller bug."""


class Record:
    """The base of the package's value classes: a plain class whose
    __slots__ are its fields, in the order its __init__ takes them, and
    which compares and shows by them. Written once here, this is what
    @dataclass would generate for each class. A Record is unhashable, as
    a class that compares by mutable fields must be; see Frozen."""
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


class Frozen(Record):
    """A Record that is hashed by its fields and cannot be changed after
    __init__, which stores each field through object.__setattr__."""
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class Span(Record):
    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int):
        self.start = start
        self.end = end

    def contains(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end


class _Node:
    """The three fields of every syntax node, after its own. A parsed node
    holds its position as two ints, start and end, and its unit's text,
    one string that every node of the unit shares; span and src are views
    built on access: Span(start, end) and that slice of the text. A
    synthesized node holds none of them, and its span and src are None.

    A node class's __slots__ are its own fields, in source order, and its
    __init__ takes them positionally and sets start, end and unit_text to
    None, which only the parser sets (_Parser._finish). Nodes compare by
    identity, and repr names the class and span only: a field-by-field
    __eq__ or __repr__ would recurse once per nesting level. For
    structure, see ast_equal."""
    __slots__ = ("start", "end", "unit_text")

    def __init__(self):
        self.start = self.end = self.unit_text = None

    def __repr__(self) -> str:
        return "%s(span=%r)" % (type(self).__name__, self.span)

    @property
    def span(self) -> Optional[Span]:
        return None if self.unit_text is None else Span(self.start, self.end)

    @property
    def src(self) -> Optional[str]:
        text = self.unit_text
        return None if text is None else text[self.start:self.end]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Literal(_Node):
    __slots__ = ("kind", "lexeme")

    def __init__(self, kind: str, lexeme: str):
        self.kind = kind  # int | float | string | char | bool | null
        self.lexeme = lexeme
        self.start = self.end = self.unit_text = None


class Name(_Node):
    __slots__ = ("identifier",)

    def __init__(self, identifier: str):
        self.identifier = identifier
        self.start = self.end = self.unit_text = None


class FieldAccess(_Node):
    __slots__ = ("receiver", "identifier")

    def __init__(self, receiver: "Expr", identifier: str):
        self.receiver = receiver
        self.identifier = identifier
        self.start = self.end = self.unit_text = None


class MethodCall(_Node):
    __slots__ = ("receiver", "name", "args")

    def __init__(self, receiver: Optional["Expr"], name: str, args: list):
        self.receiver = receiver
        self.name = name
        self.args = args
        self.start = self.end = self.unit_text = None


class ObjectCreation(_Node):
    __slots__ = ("type_name", "args")

    def __init__(self, type_name: str, args: list):
        self.type_name = type_name
        self.args = args
        self.start = self.end = self.unit_text = None


class Binary(_Node):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: "Expr", rhs: "Expr"):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        self.start = self.end = self.unit_text = None


class Unary(_Node):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: "Expr"):
        self.op = op
        self.operand = operand
        self.start = self.end = self.unit_text = None


class Assign(_Node):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: "Expr", rhs: "Expr"):
        self.lhs = lhs
        self.rhs = rhs
        self.start = self.end = self.unit_text = None


class Cast(_Node):
    __slots__ = ("type_name", "operand")

    def __init__(self, type_name: str, operand: "Expr"):
        self.type_name = type_name
        self.operand = operand
        self.start = self.end = self.unit_text = None


class Paren(_Node):
    __slots__ = ("inner",)

    def __init__(self, inner: "Expr"):
        self.inner = inner
        self.start = self.end = self.unit_text = None


class OpaqueExpr(_Node):
    """Public for callers that test for it; the parser builds none."""
    __slots__ = ()


Expr = Union[Literal, Name, FieldAccess, MethodCall, ObjectCreation,
             Binary, Unary, Assign, Cast, Paren, OpaqueExpr]

# The one shape table: each expression kind's subexpression fields, in
# source order. Every other field of the kind (see _Node) is its label.
CHILDREN = {Literal: (), Name: (), FieldAccess: ("receiver",),
            MethodCall: ("receiver", "args"), ObjectCreation: ("args",),
            Binary: ("lhs", "rhs"), Unary: ("operand",), Assign: ("lhs", "rhs"),
            Cast: ("operand",), Paren: ("inner",), OpaqueExpr: ()}
LABELS = {kind: tuple(name for name in kind.__slots__ if name not in kids)
          for kind, kids in CHILDREN.items()}
_LAST_CHILD_FIRST = {kind: kids[::-1] for kind, kids in CHILDREN.items()}  # for iter_exprs


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

_NO_MODIFIERS = frozenset()  # shared by every declaration without modifiers
# each set of MODIFIERS that was parsed, once: at most 2**6 of them
_MODIFIER_SETS = {}


class LocalVarDecl(_Node):
    __slots__ = ("type_name", "name", "init", "modifiers")

    def __init__(self, type_name: str, name: str, init: Optional[Expr],
                 modifiers: frozenset = _NO_MODIFIERS):
        self.type_name = type_name
        self.name = name
        self.init = init
        self.modifiers = modifiers
        self.start = self.end = self.unit_text = None


class ExprStmt(_Node):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr):
        self.expr = expr
        self.start = self.end = self.unit_text = None


class If(_Node):
    __slots__ = ("cond", "then_block", "else_block")

    def __init__(self, cond: Expr, then_block: "Stmt", else_block: Optional["Stmt"] = None):
        self.cond = cond
        self.then_block = then_block
        self.else_block = else_block
        self.start = self.end = self.unit_text = None


class Return(_Node):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Expr] = None):
        self.value = value
        self.start = self.end = self.unit_text = None


class Block(_Node):
    __slots__ = ("stmts",)

    def __init__(self, stmts: Optional[list] = None):
        self.stmts = [] if stmts is None else stmts
        self.start = self.end = self.unit_text = None


class OpaqueStmt(_Node):
    """A statement outside the subset; its bytes are its src."""
    __slots__ = ()


Stmt = Union[LocalVarDecl, ExprStmt, If, Return, Block, OpaqueStmt]
# each statement kind's one expression field; the other kinds hold none
STMT_EXPR = {LocalVarDecl: "init", ExprStmt: "expr", If: "cond", Return: "value"}


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

class FieldDecl(_Node):
    __slots__ = ("modifiers", "type_name", "name", "initializer")

    def __init__(self, modifiers: frozenset, type_name: str, name: str,
                 initializer: Optional[Expr]):
        self.modifiers = modifiers
        self.type_name = type_name
        self.name = name
        self.initializer = initializer
        self.start = self.end = self.unit_text = None


# the view of a declaration's body_start and body_end, the offsets just
# inside its braces; None where it has no body of source
_BODY_SPAN = property(lambda d: None if d.body_start is None else Span(d.body_start, d.body_end))


class MethodDecl(_Node):
    __slots__ = ("modifiers", "return_type", "name", "params", "body", "body_start", "body_end",
                 "implicit")

    def __init__(self, modifiers: frozenset, return_type: str, name: str, params: list,
                 body: Optional[list] = None, body_start: Optional[int] = None,
                 body_end: Optional[int] = None, implicit: bool = False):
        self.modifiers = modifiers
        self.return_type = return_type
        self.name = name
        self.params = params  # of (type_name, name)
        self.body = [] if body is None else body  # of Stmt
        self.body_start = body_start
        self.body_end = body_end
        self.implicit = implicit
        self.start = self.end = self.unit_text = None

    body_span = _BODY_SPAN

    @property
    def arity(self) -> int:
        return len(self.params)


class TypeDecl(_Node):
    __slots__ = ("name", "fields", "methods", "nested", "modifiers", "body_start", "body_end",
                 "implicit")

    def __init__(self, name: str, fields: Optional[list] = None,
                 methods: Optional[list] = None, nested: Optional[list] = None,
                 modifiers: frozenset = _NO_MODIFIERS, body_start: Optional[int] = None,
                 body_end: Optional[int] = None, implicit: bool = False):
        self.name = name
        self.fields = [] if fields is None else fields
        self.methods = [] if methods is None else methods
        self.nested = [] if nested is None else nested
        self.modifiers = modifiers
        self.body_start = body_start
        self.body_end = body_end
        self.implicit = implicit
        self.start = self.end = self.unit_text = None

    body_span = _BODY_SPAN


class CompilationUnit(Record):
    __slots__ = ("package_name", "imports", "types", "text", "newline", "header_end",
                 "static_imports")

    def __init__(self, package_name: Optional[str], imports: list, types: list,
                 text: str = "", newline: str = "\n", header_end: int = 0,
                 static_imports: tuple = ()):
        self.package_name = package_name
        self.imports = imports  # of qualified name strings
        self.types = types  # of TypeDecl (may include one implicit wrapper)
        self.text = text
        self.newline = newline
        self.header_end = header_end  # offset just past package/import block
        self.static_imports = static_imports  # the imports declared `import static`


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

MODIFIERS = {"static", "final", "public", "private", "protected", "abstract"}


class Token(Record):
    __slots__ = ("kind", "value", "start", "end")

    def __init__(self, kind: str, value: str, start: int, end: int):
        self.kind = kind  # ident | num | str | char | punct | eof
        self.value = value
        self.start = start
        self.end = end


# Literal and comment syntax, written once for the lexer and the scans. A
# quote or `/*` that opens no literal or comment is `bad`. A text block
# opens with `"""` and a line break, and ends at the next unescaped `"""`.
# A literal's body is a negated class such as `[^"\\]`, unlike the code
# runs below: a literal is often written in the app's own script, and a
# negated class takes CJK, Cyrillic or Greek at the cost of any other
# character, where a positive Latin-1 run would step out of its loop at
# each run of them.
_STR = r''' """[ \t\f]*\r?\n[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*"""
          | "[^"\\\n]*(?:\\.[^"\\\n]*)*" '''
_CHAR = r""" '[^'\\]*(?:\\.[^'\\]*)*' """
_COMMENT = r""" //[^\n]* | /\*[^*]*\*+(?:[^/*][^*]*\*+)*/ """
_BAD = r""" ["'] | /\* """

# One match per token: group 1 is the blanks and comments skipped in front
# of it, unrolled as `blank* (comment blank*)*`, and group 2 the token, or
# empty at the end of the text. The alternatives are tried in order, the
# frequent ident and bracket first, so `bad` only sees a quote or comment
# opener whose literal or comment does not close.
_TOKEN_RE = re.compile(r"""
    ( [ \t\r\n]* (?: (?:%s) [ \t\r\n]* )* )
    ( [A-Za-z_$][A-Za-z0-9_$]*
    | [{}()\[\];,]
    | %s
    | %s
    | 0[xX][0-9a-fA-F_]+[lL]? | 0[bB][01_]+[lL]?
    | (?:\d[\d_]*\.[\d_]* | \.\d[\d_]*)(?:[eE][+-]?\d[\d_]*)?[fFdD]?
    | \d[\d_]*(?:[eE][+-]?\d[\d_]*)?[fFdDlL]?
    | %s
    | == | != | <= | >= | && | \|\| | \+\+ | -- | \+= | -= | \*=
    | /= | %%= | -> | :: | << | >> | .
    | \Z )""" % (_COMMENT, _STR, _CHAR, _BAD), re.VERBOSE | re.DOTALL)

# a token's kind by its first character; else punct, or num from a digit as
# \d reads one (`٣`, not `²`) or a `.` and more (`.5`)
_KIND = {"": "eof", '"': "str", "'": "char",
         **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$", "ident")}


def _latin1_except(excluded: str) -> str:
    """A positive class of the Latin-1 characters (U+0000-U+00FF) that are
    not in excluded, written as ranges of \\x escapes."""
    bounds = sorted(map(ord, excluded))
    return "[%s]" % "".join(r"\x%02x-\x%02x" % (lo + 1, hi - 1)
                            for lo, hi in zip([-1] + bounds, bounds + [256]) if hi - lo > 1)


# The scans' code runs, the text between literals, comments and the
# characters a scan stops at, are positive classes of Latin-1 characters,
# not negated classes such as `[^"'/]`: re tests a negated set with a
# nested call per character, which cost 5.0-6.7 ns a character where a
# positive one costs 1.9-2.2 ns (Python 3.11.7). A run of characters past
# Latin-1, _WIDE, is one more special case of each unrolled loop; its
# lookahead keeps it whole, so a failed match cannot try it split. Two
# traps: a class that runs on to U+10FFFF scans as fast, but re builds it
# with a Python loop over 65,536 code points, about 4 ms a class at
# import; and `(?:run|_WIDE)*` branches once a character, and
# `(?:run+|...)*` backtracks exponentially when a match fails, so each
# loop stays `run* (?: special run* )*` with the run and the special
# cases disjoint.
_WIDE = r"[^\x00-\xff]+(?![^\x00-\xff])"


# One match per bracket: runs of other characters, comments and literals
# are swallowed in front of it, and so is a `(...)` or `[...]` pair with
# nothing inside that the scan would stop at, which can never be at fault
# (see _close). A lone `/` must not start `/*`, or an unclosed comment
# would be swallowed as ordinary text. Like _MEMBER_RE, it is unrolled as
# `plain* (special plain*)*`: a run of plain text is one step, never an
# iteration of the outer group, and so is the inside of a pair.
_PLAIN = _latin1_except("\"'/{}()[]")
_INSIDE = "%s*(?:%s%s*)*" % (_PLAIN, _WIDE, _PLAIN)
_BRACKET_RE = re.compile(r"""
    %s* (?: (?: \(%s\) | \[%s\] | %s | %s | %s | /(?!\*) | %s ) %s* )*
    (?: (?P<open> [(\[{] ) | (?P<close> [)\]}] ) | (?P<bad> %s) | (?P<eof> \Z ) )
    """ % (_PLAIN, _INSIDE, _INSIDE, _COMMENT, _STR, _CHAR, _WIDE, _PLAIN, _BAD),
    re.VERBOSE | re.DOTALL)

_OPEN = {"{": "}", "(": ")", "[": "]"}
_CLOSE = {"}", ")", "]"}
_UNTERMINATED = {'"': "unterminated string literal", "'": "unterminated char literal",
                 "/*": "unterminated block comment"}


def tokenize(text: str) -> list:
    """_lex's tokens as Token objects; the last token is eof."""
    return list(map(Token, *_lex(text)))


def _lex(text: str, start: int = 0, end: Optional[int] = None) -> tuple:
    """Lex text[start:end]: the one-span case of _lex_spans."""
    return _lex_spans(text, ((start, len(text) if end is None else end),))


def _lex_spans(text: str, spans) -> tuple:
    """Lex each (start, end) of spans, in order, into four lists, kinds,
    values, starts and ends, one entry per token, with offsets into text
    and an eof at the end of each span. One findall per span, then one
    pass over all: the offsets are the running sums of the skipped and
    token lengths, a span's first skipped run counted from the end of the
    span before. Raises UnbalancedSource on an unterminated literal or
    comment; bracket nesting is not checked, as parse checks it first.
    The tokens of one call share one string per distinct text."""
    pairs, gaps, pos = [], [], 0
    for start, end in spans:
        run = _TOKEN_RE.findall(text, start, end)
        if len(run) > 1 and not run[-2][1]:
            run.pop()  # an empty match follows one that ends the span
        gaps.append((2 * len(pairs), start - pos))
        pairs += run
        pos = end
    lengths = list(map(len, chain.from_iterable(pairs)))
    for at, gap in gaps:
        lengths[at] += gap
    offsets = list(accumulate(lengths, initial=0))
    starts, ends = offsets[1::2], offsets[2::2]
    texts = {}  # one string per distinct token text, local to the call
    values = [value for _skipped, value in pairs]
    values = list(map(texts.setdefault, values, values))
    bad = [values.index(value) for value in _UNTERMINATED if value in texts]
    if bad:
        raise UnbalancedSource(_UNTERMINATED[values[min(bad)]])
    kinds = {value: _KIND.get(value[:1]) or (
        "num" if value[:1].isdecimal() or value[:1] == "." and len(value) > 1 else "punct")
        for value in texts}
    return list(map(kinds.__getitem__, values)), values, starts, ends


# An `else` token, after the whitespace and comments in front of it; one
# blank per step, as a run of them would be tried split every way on a miss
_ELSE_RE = re.compile(r"(?:[ \t\r\n] | %s)* else(?![A-Za-z0-9_$])" % _COMMENT,
                      re.VERBOSE | re.DOTALL)


# One match per `;`, `=` or opening or closing brace, and per `(` or `[`:
# runs of other characters, comments and literals are swallowed in front
# of it, unrolled as _BRACKET_RE is, and so is a `(...)` pair with no
# bracket, literal or comment inside, as _BRACKET_RE swallows one. A quote
# or `/*` that opens nothing cannot occur after check_balanced; matching it
# keeps a failed match from backtracking.
_MEMBER_TEXT = _latin1_except("\"'/;{}=([")
_MEMBER_RE = re.compile(r"""
    %s* (?: (?: \(%s\) | %s | %s | %s | /(?!\*) | %s ) %s* )*
    (?P<c> [;{}=(\[] | %s | \Z )""" % (_MEMBER_TEXT, _INSIDE, _COMMENT, _STR, _CHAR, _WIDE,
                                        _MEMBER_TEXT, _BAD), re.VERBOSE | re.DOTALL)


def _member_end(text: str, pos: int, partner: dict) -> Optional[int]:
    """The end of the type-body member, or statement, that starts at pos,
    without lexing: just past a `;`, or past the `}` of a `{` with no `=`
    before it, so an array initializer, anonymous class or lambda runs on
    to its `;`. None when the body's `}` comes first. Each bracket is
    jumped over to its partner (see _close), so what is inside one is
    never seen. Every such end is one where parse_unit's member loop ends
    a member, or parse_stmt a statement, but for the `if` whose statement
    an `else` follows: blocks_around runs on through it."""
    assigned = False
    while True:
        m = _MEMBER_RE.match(text, pos)
        c, pos = m["c"], m.end()
        if c == "{" or c == "(" or c == "[":
            pos = _close(text, partner, pos - 1) + 1
            if c == "{" and not assigned:
                return pos
        elif c == ";":
            return pos
        elif c == "=":
            assigned = True
        else:  # the body's `}`, or the end
            return None


# One match per literal or comment: group 1 is the code run in front of it
# (a `/` there opens no comment), and the last match ends at the end of the
# text. `bad`, a quote or `/*` that opens nothing, swallows the rest of the
# text, so that no later opener is tried. The literal syntax and its order
# are _BRACKET_RE's.
_CODE = _latin1_except("\"'/")
_LITERAL_RE = re.compile(r"""
    ( %s* (?: (?: /(?![*/]) | %s ) %s* )* )
    (?: %s | %s | %s | (?P<bad> %s) .* | \Z )""" % (_CODE, _WIDE, _CODE, _COMMENT, _STR, _CHAR,
                                                  _BAD), re.VERBOSE | re.DOTALL)
_NOT_BRACKETS = bytes(b for b in range(256) if b not in b"()[]{}")
_PAIR_PASSES = 32  # each removes at least one level of nesting


def require_balanced(text: str) -> None:
    """Raise exactly what check_balanced raises, without its table:
    the brackets outside literals and comments are kept as bytes, and
    adjacent pairs are removed with bytes.replace until none is left.
    A quote or `/*` that opens nothing, brackets left over, or nesting
    deeper than _PAIR_PASSES levels leave the verdict and the message to
    check_balanced, so the cost stays linear in the text."""
    runs = _LITERAL_RE.findall(text)
    if not any(map(itemgetter(1), runs)):
        code = "".join(map(itemgetter(0), runs)).encode("ascii", "ignore")
        brackets = code.translate(None, _NOT_BRACKETS)
        for _ in range(_PAIR_PASSES):
            if not brackets:
                return
            left = len(brackets)
            brackets = brackets.replace(b"()", b"").replace(b"[]", b"").replace(b"{}", b"")
            if len(brackets) == left:
                break
    check_balanced(text)


def check_balanced(text: str) -> dict:
    """Raise UnbalancedSource on an unterminated literal or comment, or on
    broken bracket nesting, without building tokens: at most one regex
    match per bracket. Returns the bracket table: each opening bracket it
    stops at, by offset, mapped to its partner's (see _close). The exact
    scanner: it alone pairs brackets, for the member scan, blocks_around
    and the parser, and words every message; require_balanced checks
    balance alone, faster, and falls back to it."""
    opened = []  # the offsets of the brackets still open
    partner = {}
    fault = None
    for m in _BRACKET_RE.finditer(text):
        kind = m.lastgroup
        if kind == "open":
            opened.append(m.end() - 1)
        elif kind == "close":
            if fault is None:
                value = m[kind]
                if opened and _OPEN[text[opened[-1]]] == value:
                    partner[opened.pop()] = m.end() - 1
                else:
                    fault = "unmatched '%s' at offset %d" % (value, m.end() - 1)
        elif kind == "bad":
            raise UnbalancedSource(_UNTERMINATED[m[kind]])
        else:
            break
    if fault is None and opened:
        fault = "unclosed '%s'" % _OPEN[text[opened[-1]]]
    if fault is not None:
        raise UnbalancedSource(fault)
    return partner


def _close(text: str, partner: dict, at: int) -> int:
    """The offset of the bracket that closes the one at `at`, from the
    table check_balanced returned: a pair the scan swallowed holds no
    literal, comment or bracket, so its closer is the next one in the text."""
    close = partner.get(at)
    return text.index(_OPEN[text[at]], at + 1) if close is None else close


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# binary operators by binding strength, loosest first
BINARY_LEVEL = {"||": 0, "&&": 1, "==": 2, "!=": 2, "<": 3, ">": 3, "<=": 3, ">=": 3,
                "+": 4, "-": 4, "*": 5, "/": 5, "%": 5}
_PREFIX = ("!", "-", "+", "~")


class _Backtrack(Exception):
    pass


# Java's reserved words, less those that start a primary: never a name or a call's name
_RESERVED = frozenset("""abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if implements import
    instanceof int interface long native package private protected public return short static
    strictfp switch synchronized throw throws transient try void volatile while""".split())


class _Parser:
    """Recursive descent, but for what can nest: expressions, statements and
    class bodies are each one loop over a stack of what is still open. It
    indexes _lex_spans' lists, where eof is the one token whose value is
    empty. It reads the given spans of the text, or all of it, and an eof
    between two spans ends the first as the end of the text would, since
    the token after one is read only after a token that is not eof. A
    region kept verbatim jumps over each bracket group (see _jump), up to
    stop, the index of the eof of the span being read."""

    def __init__(self, text: str, partner: Optional[dict] = None, spans=None):
        self.text = text
        self.partner = check_balanced(text) if partner is None else partner
        tokens = _lex_spans(text, ((0, len(text)),) if spans is None else spans)
        self.stop = len(tokens[0]) - 1
        for column in tokens:  # eof is never passed, so one more keeps i + 1 in range
            column.append(column[-1])
        self.kinds, self.values, self.starts, self.ends = tokens
        self.i = 0
        self.type_texts = {}

    # -- token plumbing -----------------------------------------------------

    def at(self, value: str) -> bool:
        # no literal's text equals a keyword or a punctuator
        return self.values[self.i] == value

    def eat(self) -> int:
        """The index of the token here, which is passed unless it is eof."""
        i = self.i
        if self.values[i]:
            self.i = i + 1
        return i

    def expect(self, value: str) -> int:
        i = self.i
        if self.values[i] != value:
            raise _Backtrack("expected %r, got %r" % (value, self.values[i]))
        self.i = i + 1
        return i

    def _finish(self, node, start: int, end: int):
        node.start = start
        node.end = end
        node.unit_text = self.text
        return node

    # -- unit ---------------------------------------------------------------

    def parse_unit(self) -> CompilationUnit:
        values, starts, ends = self.values, self.starts, self.ends
        package, imports, static_imports, header_end = self._parse_header()

        # One member loop for the file and every class in it, with a frame
        # (decl, offset of its first token) per open class. The file's frame
        # gathers its classes, fields and methods; the rest is statements.
        # The text is balanced and a class header stops at `}`, so a class
        # body always ends at its own `}`.
        top = TypeDecl(name="", implicit=True)
        frames = [(top, 0)]
        loose_stmts = []
        while True:
            decl, start = frames[-1]
            i = self.i
            if len(frames) > 1 and values[i] == "}":
                frames.pop()
                self.i = i + 1
                decl.body_end = starts[i]
                frames[-1][0].nested.append(self._finish(decl, start, ends[i]))
                continue
            if not values[i]:
                break
            after_modifiers = i
            while values[after_modifiers] in MODIFIERS:
                after_modifiers += 1
            member = ((values[after_modifiers] in ("class", "@") and self._try(self._type_header))
                      or self._try(self._parse_field_or_method))
            if isinstance(member, TypeDecl):
                frames.append((member, starts[i]))
            elif member is not None:
                (decl.fields if isinstance(member, FieldDecl) else decl.methods).append(member)
            elif len(frames) == 1:
                loose_stmts.append(self.parse_stmt())
            else:
                self._consume_opaque_region()  # unsupported member, kept via text

        types, fields, methods = top.nested, top.fields, top.methods
        if loose_stmts:
            start, end = loose_stmts[0].start, loose_stmts[-1].end
            wrapper = MethodDecl(_NO_MODIFIERS, "", "", [], loose_stmts, start, end, implicit=True)
            methods.append(self._finish(wrapper, start, end))
        if fields or methods:
            start = min(m.start for m in fields + methods)
            end = max(m.end for m in fields + methods)
            types.append(self._finish(TypeDecl("", fields, methods, body_start=start, body_end=end,
                                               implicit=True), start, end))

        return CompilationUnit(package, imports, types, text=self.text,
                               newline=newline_of(self.text), header_end=header_end,
                               static_imports=tuple(static_imports))

    def _parse_header(self) -> tuple:
        """The package and imports: (package, imports, static imports, the
        offset just past the last of them)."""
        package, imports, static_imports, header_end = None, [], [], 0
        keywords = ("package", "import")  # one package, first
        while self.values[self.i] in keywords:
            keyword, static = self.values[self.i], self.values[self.i + 1] == "static"
            keywords = ("import",)
            name = self._try(self._header_decl)
            if name is None and not self._skip_declaration():
                break  # the rest parses as members or statements
            if name is not None and keyword == "package":
                package = name
            elif name is not None:
                imports.append(name)
                if static:
                    static_imports.append(name)
            header_end = self.ends[self.i - 1]
        return package, imports, static_imports, header_end

    def _annotation(self) -> None:
        """An annotation, `@` and a name, with arguments or not."""
        self.eat()
        self._qualified_name()
        if self.at("("):
            self._jump()

    def _header_decl(self) -> str:
        """One package or import declaration; returns its name."""
        keyword = self.values[self.eat()]
        if keyword == "import" and self.at("static"):
            self.eat()
        name = self._qualified_name(allow_star=keyword == "import")
        self.expect(";")
        return name

    def _skip_declaration(self) -> bool:
        """Skip a malformed header declaration through its ';'. Returns
        False, consuming nothing, when a bracket or the end comes first."""
        values = self.values
        i = self.i
        while values[i] != ";":
            value = values[i]
            if not value or value in _OPEN or value in _CLOSE:
                return False
            i += 1
        self.i = i + 1
        return True

    def _jump(self) -> str:
        """Eat a token of a region kept verbatim and return its text; at a
        `(`, `[` or `{`, eat through its partner, found by bisecting the
        token starts for the offset the bracket table gives."""
        i = self.i
        value = self.values[i]
        if value in _OPEN:
            close = _close(self.text, self.partner, self.starts[i])
            self.i = bisect_left(self.starts, close, i + 1, self.stop) + 1
        elif value:
            self.i = i + 1
        return value

    def _try(self, fn):
        mark = self.i
        try:
            return fn()
        except _Backtrack:
            self.i = mark
            return None

    def _qualified_name(self, allow_star: bool = False) -> str:
        kinds, values = self.kinds, self.values
        first = i = self.i
        if kinds[i] != "ident":
            raise _Backtrack("expected identifier")
        while values[i + 1] == ".":
            i += 2
            if allow_star and values[i] == "*":
                break
            if kinds[i] != "ident":
                raise _Backtrack("expected identifier after '.'")
        self.i = i + 1
        return ".".join(values[first:i + 1:2])  # one name is its own string

    # -- declarations -------------------------------------------------------

    def _parse_modifiers(self, allowed=MODIFIERS) -> frozenset:
        """The modifiers here, as the one shared set of their values."""
        first = self.i
        while self.values[self.i] in allowed:
            self.i += 1
        if self.i == first:
            return _NO_MODIFIERS
        mods = frozenset(self.values[first:self.i])
        return _MODIFIER_SETS.setdefault(mods, mods)

    def _type_header(self) -> TypeDecl:
        """At a class's annotations and modifiers, which `class` follows:
        its name and header through its `{`, as a TypeDecl whose members
        parse_unit's loop reads."""
        while self.at("@"):
            self._annotation()
        mods = self._parse_modifiers()
        self.expect("class")
        if self.kinds[self.i] != "ident":
            raise _Backtrack("class name expected")
        name = self.values[self.eat()]
        # tolerate extends/implements clauses verbatim, up to a `;` too,
        # which ends a member for blocks_around (_member_end)
        while self.values[self.i] not in ("{", "}", ";", ""):
            self._jump()
        # body_end is set at the `}`
        return TypeDecl(name=name, modifiers=mods, body_start=self.ends[self.expect("{")])

    def _parse_field_or_method(self):
        start = self.starts[self.i]
        mods = self._parse_modifiers()
        type_name = self._parse_type_text()
        if self.kinds[self.i] != "ident":
            raise _Backtrack("member name expected")
        name = self.values[self.eat()]
        if self.at("("):
            return self._parse_method_rest(start, mods, type_name, name)
        init = None
        if self.at("="):
            self.eat()
            init = self.parse_expr()
        if not self.at(";"):
            raise _Backtrack("not a field")
        return self._finish(FieldDecl(mods, type_name, name, init), start, self.ends[self.eat()])

    def _parse_method_rest(self, start, mods, return_type, name) -> MethodDecl:
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                ptype = self._parse_type_text()
                if self.kinds[self.i] != "ident":
                    raise _Backtrack("param name expected")
                params.append((ptype, self.values[self.eat()]))
                if self.at(","):
                    self.eat()
                    continue
                break
        self.expect(")")
        if self.at("throws"):
            self.eat()
            self._qualified_name()
            while self.at(","):
                self.eat()
                self._qualified_name()
        if self.at(";"):  # abstract / interface-style
            return self._finish(MethodDecl(mods, return_type, name, params), start,
                                self.ends[self.eat()])
        if not self.at("{"):
            raise _Backtrack("method body expected")
        block = self.parse_stmt()
        m = MethodDecl(mods, return_type, name, params, block.stmts, block.start + 1, block.end - 1)
        return self._finish(m, start, block.end)

    def _parse_type_text(self) -> str:
        """A type's text: its one token's, or one string per distinct
        text of several tokens in this parse."""
        values = self.values
        first = self.i
        self._qualified_name()
        if values[self.i] == "<":
            depth = 0
            while True:
                value = self._jump()  # a bracket group is one step
                if value in ("", ";", "{", "}", ")", "]"):
                    raise _Backtrack("not a generic type")
                if value == "<":
                    depth += 1
                elif value == ">" or value == ">>":  # `>>>` lexes as `>>` then `>`
                    depth -= len(value)
                    if depth < 0:
                        raise _Backtrack("unbalanced type arguments")
                    if depth == 0:
                        break
        while values[self.i] == "[" and values[self.i + 1] == "]":
            self.i += 2
        if self.i == first + 1:
            return values[first]
        text = self.text[self.starts[first]:self.ends[self.i - 1]]
        return self.type_texts.setdefault(text, text)

    # -- statements ----------------------------------------------------------

    def parse_stmt(self) -> Stmt:
        """One statement, from a stack of the blocks and ifs still open
        around it: ["{", start offset, stmts], or ["if", index of the `if`,
        cond, then branch once read]. A statement that does not parse is
        an OpaqueStmt, and so is an if that does not, from its `if` on."""
        frames = []
        opaque = False  # an if failed: read it again, as an opaque region
        while True:
            try:
                i = self.i
                value = self.values[i]
                if opaque:
                    opaque = False
                    s = self._consume_opaque_region()
                elif value == "}" and frames and frames[-1][0] == "{":
                    _brace, start, stmts = frames.pop()
                    s = self._finish(Block(stmts), start, self.ends[self.eat()])
                elif value == "{":
                    frames.append(["{", self.starts[self.eat()], []])
                    continue
                elif value == "if":
                    cond = self._try(self._if_header)
                    if cond is not None:
                        frames.append(["if", i, cond, None])
                        continue
                    s = self._consume_opaque_region()
                else:
                    s = (self._try(self._parse_return) if value == "return" else
                         self._declares() and self._try(self._parse_local_var_decl)
                         or self._try(self._parse_expr_stmt)) or self._consume_opaque_region()
            except _Backtrack:
                # the innermost open if, from its `if` on, is opaque
                while frames and frames[-1][0] != "if":
                    frames.pop()
                if not frames:
                    raise
                self.i = frames.pop()[1]
                opaque = True
                continue
            while frames and frames[-1][0] == "if":  # s ends a branch
                top = frames[-1]
                if top[3] is None and self.at("else"):
                    top[3] = s
                    self.eat()
                    break
                frames.pop()
                then, other = (s, None) if top[3] is None else (top[3], s)
                s = self._finish(If(top[2], then, other), self.starts[top[1]], s.end)
            else:
                if not frames:
                    return s
                frames[-1][2].append(s)

    def _if_header(self) -> Expr:
        self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        return cond

    def _parse_return(self) -> Return:
        start = self.starts[self.expect("return")]
        value = None if self.at(";") else self.parse_expr()
        return self._finish(Return(value), start, self.ends[self.expect(";")])

    def _declares(self) -> bool:
        """Whether _parse_local_var_decl can succeed here: after any
        `final`s and a dotted name, a `<`, a `[` or a name follows."""
        kinds, values = self.kinds, self.values
        i = self.i
        while values[i] == "final":
            i += 1
        if kinds[i] != "ident":
            return False
        while values[i + 1] == "." and kinds[i + 2] == "ident":
            i += 2
        i += 1
        return kinds[i] == "ident" or values[i] == "<" or values[i] == "["

    def _parse_local_var_decl(self) -> LocalVarDecl:
        start = self.starts[self.i]
        mods = self._parse_modifiers(("final",))
        type_name = self._parse_type_text()
        if self.kinds[self.i] != "ident":
            raise _Backtrack("variable name expected")
        name = self.values[self.eat()]
        init = None
        if self.at("="):
            self.eat()
            init = self.parse_expr()
        return self._finish(LocalVarDecl(type_name, name, init, mods), start,
                            self.ends[self.expect(";")])

    def _parse_expr_stmt(self) -> ExprStmt:
        start = self.starts[self.i]
        expr = self.parse_expr()
        return self._finish(ExprStmt(expr), start, self.ends[self.expect(";")])

    def _consume_opaque_region(self) -> OpaqueStmt:
        """Consume a balanced statement-shaped region, each bracket group
        in one step: through a `;`, or a brace block with no `=` before it
        (as in _member_end), outside the groups, or up to an enclosing
        closer, which is not consumed."""
        values = self.values
        first = self.i
        assigned = False
        while values[self.i] and values[self.i] not in _CLOSE:
            value = self._jump()
            if value == ";" or value == "{" and not assigned:
                break
            assigned = assigned or value == "="
        if self.i == first:
            raise _Backtrack("nothing to consume")
        return self._finish(OpaqueStmt(), self.starts[first], self.ends[self.i - 1])

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        """One expression, from a stack of the constructs still open around
        the operand being read: ("pre", i) and ("cast", i, type) wait for
        their operand, ("bin", op, lhs, level) and ("=", lhs) for their
        right side, and ("(", i) and ("args", start, kind, labels, args)
        for their `)`, i being the index of the construct's first token.
        Binary operators associate to the left by BINARY_LEVEL; `=` binds
        loosest and associates to the right."""
        kinds, values, starts, ends = self.kinds, self.values, self.starts, self.ends
        stack = []
        e = None  # the operand just read, before any operator after it
        while True:
            i = self.i
            value = values[i]
            if e is None:  # read prefixes and openings up to a primary
                if value in _PREFIX:
                    self.i = i + 1
                    stack.append(("pre", i))
                elif value == "(":
                    self.i = i + 1
                    # a cast's type starts with a name
                    type_name = self._try(self._cast_type) if kinds[i + 1] == "ident" else None
                    stack.append(("(", i) if type_name is None else ("cast", i, type_name))
                else:
                    e = self._primary(stack)
                continue
            if value == ".":  # member access or call
                i += 1
                if kinds[i] != "ident":
                    raise _Backtrack("member name expected")
                self.i = i + 1
                if values[i + 1] == "(":
                    e = self._open_args(stack, e.start, MethodCall, e, values[i])
                else:
                    e = self._finish(FieldAccess(e, values[i]), e.start, ends[i])
                continue
            while stack and stack[-1][0] in ("pre", "cast"):
                f = stack.pop()
                node = Unary(values[f[1]], e) if f[0] == "pre" else Cast(f[2], e)
                e = self._finish(node, starts[f[1]], e.end)
            level = BINARY_LEVEL.get(value, -1)  # only a punctuator's text is an operator
            while stack and stack[-1][0] == "bin" and stack[-1][3] >= level:
                _bin, op, lhs, _level = stack.pop()
                e = self._finish(Binary(op, lhs, e), lhs.start, e.end)
            if level >= 0 or value == "=":
                if level < 0 and not isinstance(e, (Name, FieldAccess)):
                    raise _Backtrack("invalid assignment target")
                stack.append(("bin", value, e, level) if level >= 0 else ("=", e))
                self.i = i + 1
                e = None
                continue
            while stack and stack[-1][0] == "=":
                lhs = stack.pop()[1]
                e = self._finish(Assign(lhs, e), lhs.start, e.end)
            if not stack:
                return e
            f = stack[-1]
            if f[0] == "(":
                stack.pop()
                e = self._finish(Paren(e), starts[f[1]], ends[self.expect(")")])
                continue
            f[4].append(e)  # an argument
            e = None
            if value == ",":
                self.i = i + 1
            else:
                stack.pop()
                e = self._finish(f[2](*f[3], f[4]), f[1], ends[self.expect(")")])

    def _cast_type(self) -> str:
        """After a `(`: the type of a cast, `T)` and then a token that can
        start its operand; raises _Backtrack where the `(` opens a group."""
        type_name = self._parse_type_text()
        i = self.expect(")") + 1
        if not (self.kinds[i] in ("ident", "num", "str", "char") or self.values[i] == "("):
            raise _Backtrack("not a cast")
        return type_name

    def _open_args(self, stack: list, start: int, kind, *labels):
        """At the `(` of a call or creation of kind: the node, if `)` comes
        next; else None, with its ("args", ...) frame pushed on stack."""
        self.i += 1
        if self.at(")"):
            return self._finish(kind(*labels, []), start, self.ends[self.eat()])
        stack.append(("args", start, kind, labels, []))
        return None

    def _primary(self, stack: list):
        """The primary that the token here, which is eaten, starts, or None
        where it opens a call or creation with arguments (see _open_args).
        A reserved word other than true, false, null, new, this and super
        starts none."""
        i = self.eat()
        kind, value, start = self.kinds[i], self.values[i], self.starts[i]
        if kind == "num":
            literal = "float" if ("." in value or value.rstrip("fFdD") != value
                                  and not value.lower().startswith("0x")) else "int"
        elif kind in ("str", "char"):
            literal = "string" if kind == "str" else "char"
        elif kind != "ident" or value in _RESERVED:
            raise _Backtrack("unexpected token %r" % value)
        elif value in ("true", "false", "null"):
            literal = "null" if value == "null" else "bool"
        elif value == "new":
            type_name = self._parse_type_text()
            if not self.at("("):
                raise _Backtrack("array creation not in subset")
            return self._open_args(stack, start, ObjectCreation, type_name)
        elif self.at("("):
            return self._open_args(stack, start, MethodCall, None, value)
        else:
            return self._finish(Name(value), start, self.ends[i])
        return self._finish(Literal(literal, value), start, self.ends[i])


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def parse(text: str) -> CompilationUnit:
    """Parse source text into a CompilationUnit: the whole file, every
    member and statement of it; to read a file in parts, see parse_islands
    and declarations.

    Never fails on balanced input, however deep it nests; unsupported
    constructs fall back to Opaque nodes. Raises UnbalancedSource when
    nesting is broken, with its message: check_balanced runs once, first,
    and its bracket table serves the parser's jumps.
    """
    return _parse_with(_Parser(text), _Parser.parse_unit)


def parse_expr_text(text: str) -> Expr:
    """Parse text that holds exactly one expression; raises ParseError."""
    return _parse_with(_Parser(text), _Parser.parse_expr, "expression")


def parse_stmt_text(text: str) -> Stmt:
    """Parse text that holds exactly one statement; raises ParseError."""
    return _parse_with(_Parser(text), _Parser.parse_stmt, "statement")


def _parse_with(p: _Parser, rule, what: str = ""):
    """Run one parser rule over all of p's text, turning a failed rule or
    trailing tokens into ParseError."""
    try:
        node = rule(p)
    except _Backtrack as exc:
        raise ParseError(str(exc)) from None
    if p.values[p.i]:
        raise ParseError("trailing tokens after %s" % what)
    return node


# ---------------------------------------------------------------------------
# Islands: a file read around given offsets, without a tree of the rest
# ---------------------------------------------------------------------------

class Conditions:
    """The spans inside the `(…)` of the `if` headers around an offset,
    innermost first, as a persistent list: a cell holds one span and the
    chain outside it, so the offsets inside an `if` share its one cell.
    Iterating gives the spans; NO_CONDITIONS is the empty chain."""
    __slots__ = ("span", "outer")

    def __init__(self, span: tuple, outer: "Conditions"):
        self.span = span
        self.outer = outer

    def __iter__(self):
        c = self
        while c.outer is not None:
            yield c.span
            c = c.outer

    def __repr__(self) -> str:
        return "Conditions(%r)" % list(self)


NO_CONDITIONS = Conditions(None, None)


def blocks_around(text: str, partner: dict, offsets) -> Iterator[tuple]:
    """For each of the sorted offsets, (offset, blocks, start, end, tokens,
    conditions), found through text's bracket table partner: blocks are
    the braces around the offset, the file's first, each [open, close,
    kind (see _kind), conditions, ..., offset of its member's first token,
    header tokens (see _Walk.to)], and [start, end) is the member or
    statement of the innermost one that holds the offset, an if with its
    else chain being one. tokens are the values of that member's tokens
    in front of the offset, or None where the offset is in a comment or
    literal; conditions are the Conditions of the `if (…)` headers of the
    blocks and of that member, up to the offset, but of an `if` whose
    parentheses hold the offset or its block. Each block is walked once,
    member by member (_member_end), up to its last offset, and each member
    on the way to an offset is lexed up to it, once: its walk goes on from
    where it stopped for the offset before."""
    stack = [[-1, len(text), "file", NO_CONDITIONS, 0, 0, 0, []]]  # [4], [5]: the walk's member
    walks = [None]  # the walk of each block's member
    for at in offsets:
        while stack[-1][1] < at:
            stack.pop()
            walks.pop()
        while True:
            block = stack[-1]
            start, end = block[4], block[5]
            while end <= at:
                start, end = end, _member_end(text, end, partner)
                while end is not None and block[2] in ("stmt", "file") and (
                        after_else := _ELSE_RE.match(text, end)):
                    end = _member_end(text, after_else.end(), partner)
                end = block[1] if end is None else end  # or the body's rest
                if block[2] == "enum" and text[end - 1] == ";":
                    block[2] = "type"  # the constants end at the first `;`
            if end != block[5]:  # another member than the offset before's
                block[4], block[5] = start, end
                walks[-1] = _Walk(text, partner, start, block[3])
            tokens, conditions, inner = walks[-1].to(at, block[2])
            if inner is None:
                break
            stack.append(inner)
            walks.append(None)
        yield at, tuple(stack), start, end, tokens, conditions


class _Walk:
    """The walk of one member's tokens, from offset start, toward offsets
    given in increasing order (to), at their depth: a bracket pair that
    closes before the offset is one token, its closing bracket, and one
    that holds it is entered. Toward a later offset, each group entered
    that closes before it is left as a walk from start would have passed
    it, so a member is lexed once however many offsets it holds. An `if`
    adds its span to conditions, those of the block around the member at
    first, when its `(…)` is passed, not entered. partner is text's
    bracket table."""
    __slots__ = ("text", "partner", "m", "head", "tokens", "conditions", "groups", "words")

    def __init__(self, text: str, partner: dict, start: int, conditions=NO_CONDITIONS):
        self.text, self.partner = text, partner
        self.m = _TOKEN_RE.match(text, start)  # the token the walk stopped at
        self.head = self.m.start(2)
        self.tokens = []
        self.conditions = conditions
        self.groups = []  # per group entered: (index of its bracket, conditions, close, if span)
        self.words = {}  # per word of _KIND_WORDS met, the indices of its tokens

    def to(self, at: int, outer: Optional[str] = None) -> tuple:
        """Walk on to offset at: (tokens, conditions, block). Given outer,
        the kind of the block around the member, the walk stops at the
        first `{` that holds at (its `}` too) and opens a block (see
        _kind), returned as blocks_around lists one, and tokens are its
        header, or empty in a block of statements, where no header is
        read and one member may open many blocks. Else block is None, and
        tokens are the values in front of at, or None if no token starts
        at at: it is in a comment or literal. The lists returned are the
        caller's."""
        text, partner, tokens, groups, words = (
            self.text, self.partner, self.tokens, self.groups, self.words)
        m, conditions = self.m, self.conditions
        if groups and groups[-1][2] < at:
            while groups and groups[-1][2] < at:
                index, conditions, close, condition = groups.pop()
            del tokens[index:]
            for found in words.values():
                while found and found[-1] >= index:
                    found.pop()
            tokens.append(text[close])
            if condition is not None:
                conditions = Conditions(condition, conditions)
            m = _TOKEN_RE.match(text, close + 1)
        group = groups[-1][0] + 1 if groups else 0  # where the innermost group entered starts
        while True:
            tok, value, pos = m.start(2), m[2], m.end()
            if tok >= at:
                self.m, self.conditions = m, conditions
                return tokens[:] if tok == at else None, conditions, None
            if value in _OPEN:
                close = _close(text, partner, tok)
                condition = (pos, close) if tokens[-1:] == ["if"] else None
                if close < at:
                    if condition is not None:
                        conditions = Conditions(condition, conditions)
                    value, pos = text[close], close + 1
                elif value == "{" and outer and (kind := _kind(
                        {word for word, found in words.items() if found and found[-1] >= group},
                        tokens[-1:] if len(tokens) > group else [], group > 0, outer)):
                    self.m, self.conditions = m, conditions
                    header = tokens[:] if outer != "stmt" else []
                    return header, conditions, [tok, close, kind, conditions, pos, pos, self.head,
                                                header]
                else:
                    groups.append((len(tokens), conditions, close, condition))
                    group = len(tokens) + 1
            if value in _KIND_WORDS and (value == "new" or tokens[-1:] != ["."]):
                words.setdefault(value, []).append(len(tokens))
            tokens.append(value)
            m = _TOKEN_RE.match(text, pos)


_KIND_WORDS = frozenset(("class", "interface", "enum", "new"))


def _kind(words: set, last: list, grouped: bool, outer: str) -> Optional[str]:
    """The kind of block that a `{` opens after the tokens in front of it
    in the innermost group entered, if grouped, or in its member of a
    block of kind outer: words are which of _KIND_WORDS are among those
    tokens, `new` anywhere and the others not after a `.`, and last is the
    last token in a list, or empty. "type" for an anonymous class body (`)`
    last, `new` in front) or an enum constant's (outer is "enum" and not
    grouped); else "enum", "class" or "type" after `enum`, `class` or
    `interface`; else None, an array initializer, after `=`, `]` or `,`
    or first in a group; else "stmt"."""
    if outer == "enum" and not grouped or last == [")"] and "new" in words:
        return "type"
    if words - {"new"}:
        return "enum" if "enum" in words else "class" if "class" in words else "type"
    if last in (["="], ["]"], [","]) or grouped and not last:
        return None
    return "stmt"


# the token in front of a declared name: its type's end, or `class`
_TYPE_END = re.compile(r"(?!(?:new|return|else|throw)$)[A-Za-z_$][\w$]*|>>?|\]")


def declares(tokens: list) -> bool:
    """True iff the name after tokens, as blocks_around lists them from the
    start of its member, is declared there: no bracket holds it, and a
    type's end or `class` is in front of it."""
    return bool(tokens) and _TYPE_END.fullmatch(tokens[-1]) is not None and not any(
        value in _OPEN for value in tokens)


def declarations(text: str, partner: dict, names) -> dict:
    """Where text declares each of names in the file or in classes alone,
    by blocks_around (partner is as it takes it) and declares: for the `{`
    of each body that declares one (-1 for the file), a dict of ("class",
    name), ("field", name) and ("method", name, arity) keys, a member's
    mapped to its MODIFIERS, a frozenset, a class's to its body, as
    blocks_around lists a block, or None if it has none. A method is a
    name a `(` follows, its arity one more than the commas outside
    brackets in its parameters, if any; a field one that `=`, `;` or `,`
    follows."""
    found = {m.start(): name for name in names for m in re.finditer(  # a literal first is fast
        r"%s(?<![\w$]%s)(?![\w$])" % ((re.escape(name),) * 2), text)}
    declared = {}
    for at, blocks, start, end, tokens, _conditions in blocks_around(text, partner, sorted(found)):
        if tokens is None or not declares(tokens) or any(
                b[2] not in ("file", "class") for b in blocks):
            continue
        name, modifiers = found[at], frozenset(MODIFIERS.intersection(tokens))
        after = _TOKEN_RE.match(text, at + len(name))
        if tokens[-1] == "class":
            key, value = ("class", name), _Walk(text, partner, start, blocks[-1][3]).to(
                end - 1, blocks[-1][2])[2]
        elif after[2] == "(":
            params = outside_angles(_Walk(text, partner, after.end()).to(
                _close(text, partner, after.start(2)))[0])
            key, value = ("method", name, params.count(",") + 1 if params else 0), modifiers
        elif after[2] in ("=", ";", ","):
            key, value = ("field", name), modifiers
        else:
            continue
        declared.setdefault(blocks[-1][0], {})[key] = value
    return declared


def outside_angles(tokens: list) -> list:
    """The values of tokens that are outside `<` and `>`: outside type
    parameters and arguments, where tokens lists a declaration's."""
    depth, out = 0, []
    for value in tokens:
        if value == "<" or value == ">" or value == ">>":
            depth += 1 if value == "<" else -len(value)
        elif not depth:
            out.append(value)
    return out


def parse_islands(text: str, partner: dict, spans) -> list:
    """For each (start, end) of spans, the statement text[start:end]
    holds, past any `case …:`, `default:` or label, parsed in place (its
    nodes index text, whose bracket table partner is), or None. All spans
    are lexed in one pass (_lex_spans) and read by one parser, each from
    its first token; one span may hold another."""
    if not spans:
        return []
    p = _Parser(text, partner, spans)
    kinds, values = p.kinds, p.values
    islands = []
    first = 0
    for _span in spans:
        p.stop = stop = values.index("", first)
        i = first
        while True:  # past the labels
            j = i
            if values[j] == "case":
                while values[j] not in (":", "->", ";", ""):
                    j += 1
            elif kinds[j] == "ident":
                j += 1
            if values[j] != ":" or j == i:
                break
            i = j + 1
        p.i = i
        try:
            stmt = p.parse_stmt()
        except _Backtrack:
            stmt = None
        islands.append(stmt)
        first = stop + 1
    return islands


def parse_header(text: str, partner: dict) -> CompilationUnit:
    """The package and imports of text, as parse reads them, in a unit of
    no types; partner is text's bracket table."""
    bracket = _BRACKET_RE.match(text)  # the header holds no bracket
    p = _Parser(text, partner, ((0, bracket.start(bracket.lastgroup)),))
    package, imports, _static_imports, header_end = p._parse_header()
    return CompilationUnit(package, imports, [], text, newline_of(text), header_end)


def rename(text: str, renames: dict) -> str:
    """text with each name token that renames holds under its new name, in
    code, not in a comment or literal; one renamed to a qualified name not
    after a `.`, where it is part of a qualified name already."""
    before = ""

    def token(m):
        nonlocal before
        value, after_dot, before = m[2], before == ".", m[2]
        new = renames.get(value)
        return m[0] if new is None or after_dot and "." in new else m[1] + new

    return _TOKEN_RE.sub(token, text)


def newline_of(text: str) -> str:
    """The line break a unit of text writes: CRLF if text holds one."""
    # "\r" is found by memchr, and a text without one is searched no further
    return "\r\n" if "\r" in text and "\r\n" in text else "\n"


def print_unit(unit: CompilationUnit) -> str:
    """Reprint a unit: its source text, which every node's span indexes."""
    return unit.text


def splice(text: str, edits) -> str:
    """Apply (Span, replacement) edits to text.

    Edits must not overlap; they are applied in ascending span order.
    """
    out = []
    pos = 0
    for span, repl in sorted(edits, key=lambda e: (e[0].start, e[0].end)):
        if span.start < pos:
            raise OverlappingEdits("edit at %d overlaps previous" % span.start)
        out.append(text[pos:span.start])
        out.append(repl)
        pos = span.end
    out.append(text[pos:])
    return "".join(out)


def edited(unit: CompilationUnit, edits) -> CompilationUnit:
    """Splice edits and reparse, yielding a fresh unit."""
    return parse(splice(unit.text, edits))


# ---------------------------------------------------------------------------
# Tree utilities
# ---------------------------------------------------------------------------

def child_exprs(e: Expr) -> list:
    """e's subexpressions, left to right: its CHILDREN fields, with a list
    field's items in place and an absent receiver left out."""
    out = []
    for name in CHILDREN[type(e)]:
        c = getattr(e, name)
        if type(c) is list:
            out.extend(c)
        elif c is not None:
            out.append(c)
    return out


def rebuild(e: Expr, kids) -> Expr:
    """A synthesized copy of e: no span or source, the same label, and kids,
    in child_exprs order, as its children; the step of a fold that copies
    a tree. The copy is built positionally, its fields in __slots__ order,
    where CHILDREN lists the children in that order too."""
    kids = iter(kids)
    values = []
    for name, child in _SHAPE[type(e)]:
        c = getattr(e, name)
        if not child:
            values.append(c)
        elif type(c) is list:
            values.append([next(kids) for _ in c])
        else:
            values.append(None if c is None else next(kids))
    return type(e)(*values)


# each expression kind's fields in __slots__ order, each with whether it is a child
_SHAPE = {kind: tuple((name, name in kids) for name in kind.__slots__)
          for kind, kids in CHILDREN.items()}


def fold(root, f, kids=child_exprs):
    """f applied bottom-up to root and all below it: f(node, values), where
    values are the folds of kids(node), left to right, from an explicit
    stack, so any depth folds in linear time. kids may reach beyond the
    tree: dataflow follows a name to its definition."""
    stack = [(root, iter(kids(root)), [])]  # (node, kids not yet folded, folds so far)
    while True:
        node, rest, values = stack[-1]
        for k in rest:
            below = kids(k)
            if below:
                stack.append((k, iter(below), []))
                break
            values.append(f(k, ()))
        else:
            stack.pop()
            value = f(node, values)
            if not stack:
                return value
            stack[-1][2].append(value)


def iter_exprs(e: Expr) -> Iterator[Expr]:
    """Yield e and every expression below it in pre-order, each node before
    its children and children left to right, from an explicit stack: no
    recursion, so a chain of any depth is walked in time linear in its
    size. The children are child_exprs', expanded in place: this loop is
    hot, and a call per node more than doubles its cost."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        for name in _LAST_CHILD_FIRST[type(e)]:
            c = getattr(e, name)
            if type(c) is list:
                stack.extend(reversed(c))
            elif c is not None:
                stack.append(c)


def stmt_exprs(s: Stmt):
    """s's own expression, its STMT_EXPR field, in a list; empty if none."""
    name = STMT_EXPR.get(type(s))
    e = getattr(s, name) if name else None
    return [e] if e is not None else []


def child_stmts(s: Stmt):
    if isinstance(s, If):
        return [s.then_block] if s.else_block is None else [s.then_block, s.else_block]
    return list(s.stmts) if isinstance(s, Block) else []


def iter_statements(stmts) -> Iterator[tuple]:
    """Yield (stmt, chain) for every statement, where chain is the tuple of
    enclosing statements from outermost to innermost (excluding stmt)."""
    return _preorder(stmts, child_stmts)


def iter_types(unit: CompilationUnit) -> Iterator[tuple]:
    """Yield (type_decl, outer_chain) over all types, nested included."""
    return _preorder(unit.types, lambda t: t.nested)


def _preorder(roots, kids) -> Iterator[tuple]:
    """(node, chain of nodes above it) below roots through kids, in pre-order."""
    stack = [(iter(roots), ())]  # (nodes not yet walked, chain above them)
    while stack:
        rest, chain = stack[-1]
        for node in rest:
            yield node, chain
            below = kids(node)
            if below:
                stack.append((iter(below), chain + (node,)))
                break
        else:
            stack.pop()


def ast_equal(a, b) -> bool:
    """Structural equality ignoring spans and source slices, compared pair
    by pair in pre-order from an explicit stack."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, (list, tuple)):
            if len(a) != len(b):
                return False
            stack.extend(reversed(list(zip(a, b))))
        elif isinstance(a, (_Node, Record)):  # a node's __slots__ omit start, end and unit_text
            stack.extend(reversed([(getattr(a, n), getattr(b, n))
                                   for n in a.__slots__ if n not in ("body_start", "body_end")]))
        elif a != b:
            return False
    return True


# ---------------------------------------------------------------------------
# Rendering of synthesized nodes
# ---------------------------------------------------------------------------

def render_expr(e: Expr) -> str:
    """Render an expression. A node still backed by one line of source
    reuses its bytes; any other node gets canonical form, and it is the
    one place that decides parentheses: a child is put in them exactly
    where, left bare, it would bind differently (see _grouped), in one fold,
    which a root backed by one line of source needs none of."""
    text = e.unit_text
    if text is not None and text.find("\n", e.start, e.end) < 0:
        return text[e.start:e.end]
    return fold(e, _render_node, _render_kids)


def _render_kids(e: Expr):
    """The children render_expr renders e from: none where e is backed by
    one line of source, found in place, not sliced; else child_exprs(e)."""
    text = e.unit_text
    if text is not None and text.find("\n", e.start, e.end) < 0:
        return ()
    return child_exprs(e)


def _render_node(e: Expr, kids) -> str:
    """e's text, given its children's texts, in child_exprs order."""
    text = e.unit_text
    if text is not None:
        start, end = e.start, e.end
        if text.find("\n", start, end) < 0:
            return text[start:end]
    kind = type(e)
    if kind is Literal:
        return e.lexeme
    if kind is Name:
        return e.identifier
    if kind is FieldAccess:
        return "%s.%s" % (_grouped(e, e.receiver, kids[0]), e.identifier)
    if kind is MethodCall:
        if e.receiver is None:
            return "%s(%s)" % (e.name, ", ".join(kids))
        return "%s.%s(%s)" % (_grouped(e, e.receiver, kids[0]), e.name, ", ".join(kids[1:]))
    if kind is ObjectCreation:
        return "new %s(%s)" % (e.type_name, ", ".join(kids))
    if kind is Binary:
        return "%s %s %s" % (_grouped(e, e.lhs, kids[0]), e.op,
                             _grouped(e, e.rhs, kids[1], right=True))
    if kind is Unary:
        return e.op + _grouped(e, e.operand, kids[0])
    if kind is Assign:
        return "%s = %s" % (kids[0], kids[1])
    if kind is Cast:
        return "(%s) %s" % (e.type_name, _grouped(e, e.operand, kids[0]))
    if kind is Paren:
        return "(%s)" % kids[0]
    raise TypeError("cannot render %r" % (e,))


# per parent kind, the operand kinds that bind apart when left bare: a
# unary operand that is unary too would read as `--x`, a decrement
_LOOSER = {Binary: (Assign,), Unary: (Binary, Assign, Unary), Cast: (Binary, Assign),
           FieldAccess: (Binary, Assign, Unary, Cast), MethodCall: (Binary, Assign, Unary, Cast)}


def _grouped(parent: Expr, child: Expr, text: str, right: bool = False) -> str:
    """text, child's rendering, as parent's operand or receiver: in
    parentheses when, bare, it would bind differently: a looser binary
    operand, or one of the same level on the right, or a kind _LOOSER
    names for parent."""
    if isinstance(parent, Binary) and isinstance(child, Binary):
        outer, inner = BINARY_LEVEL[parent.op], BINARY_LEVEL[child.op]
        wrap = inner < outer or (inner == outer and right)
    else:
        wrap = isinstance(child, _LOOSER[type(parent)])
    return "(%s)" % text if wrap else text


def template_holes(e: Expr, marks: dict) -> list:
    """Each node of e that marks holds (by id), in pre-order, which is the
    order render_expr writes them in: (marks' value for it, the parent
    that render_expr groups it as an operand or receiver of (see _grouped)
    or else None, and whether it is a right operand)."""
    holes, stack = [], [(e, None, False)]
    while stack:
        e, parent, right = stack.pop()
        if id(e) in marks:
            holes.append((marks[id(e)], parent, right))
            continue
        # _render_node groups each child, but those in a list, of the kinds
        # that _LOOSER names
        grouping = e if type(e) in _LOOSER else None
        for name in reversed(CHILDREN[type(e)]):
            c = getattr(e, name)
            if type(c) is list:
                stack.extend((k, None, False) for k in reversed(c))
            elif c is not None:
                stack.append((c, grouping, name == "rhs"))
    return holes


def fill_template(pieces: list, holes: list, values: dict) -> str:
    """A rendering split at its holes (see template_holes), filled: values
    maps each hole's key to (text, node), the text of the node that stands
    there, which is put in parentheses where render_expr would put it."""
    out = [pieces[0]]
    for (key, parent, right), piece in zip(holes, pieces[1:]):
        text, node = values[key]
        out.append(text if parent is None else _grouped(parent, node, text, right))
        out.append(piece)
    return "".join(out)


def render_stmt(s: Stmt) -> str:
    """Render a statement of a patch's then branch or context line."""
    if isinstance(s, LocalVarDecl):
        mods = "".join(m + " " for m in sorted(s.modifiers))
        if s.init is not None:
            return "%s%s %s = %s;" % (mods, s.type_name, s.name, render_expr(s.init))
        return "%s%s %s;" % (mods, s.type_name, s.name)
    if isinstance(s, ExprStmt):
        return "%s;" % render_expr(s.expr)
    if isinstance(s, Return):
        return "return %s;" % render_expr(s.value) if s.value is not None else "return;"
    raise TypeError("cannot render %r" % (s,))


def line_of(text: str, offset: int) -> int:
    """1-based line number of a text offset."""
    return text.count("\n", 0, offset) + 1


def indent_at(text: str, offset: int) -> str:
    """Whitespace prefix of the line containing offset, up to the offset."""
    nl = text.rfind("\n", 0, offset)
    prefix = text[nl + 1:offset]
    return prefix if prefix.strip() == "" else ""
