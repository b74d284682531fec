"""Lossless parser for the Java subset handled by api-evolve.

The parser is tolerant: any construct outside the subset becomes an
Opaque node whose bytes reprint verbatim. Every structured node carries
a span into the original text, so printing an unedited unit reproduces
the input byte-for-byte, and all rewriting is expressed as span
replacements (see splice / edited).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union


class UnbalancedSource(Exception):
    """Brace/paren/bracket nesting of the input cannot be recovered."""


class OverlappingEdits(Exception):
    """Two splice edits overlap; this is a caller bug."""


@dataclass
class Span:
    start: int
    end: int

    def contains(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass
class Literal:
    kind: str  # int | float | string | char | bool | null
    lexeme: str
    span: Optional[Span] = None
    src: Optional[str] = None


@dataclass
class Name:
    identifier: str
    span: Optional[Span] = None
    src: Optional[str] = None


@dataclass
class FieldAccess:
    receiver: "Expr"
    identifier: str
    span: Optional[Span] = None
    src: Optional[str] = None


@dataclass
class MethodCall:
    receiver: Optional["Expr"]
    name: str
    args: list
    span: Optional[Span] = None
    src: Optional[str] = None


@dataclass
class ObjectCreation:
    type_name: str
    args: list
    span: Optional[Span] = None
    src: Optional[str] = None


@dataclass
class Binary:
    op: str
    lhs: "Expr"
    rhs: "Expr"
    span: Optional[Span] = None
    src: Optional[str] = None


@dataclass
class Unary:
    op: str
    operand: "Expr"
    span: Optional[Span] = None
    src: Optional[str] = None


@dataclass
class Assign:
    lhs: "Expr"
    rhs: "Expr"
    span: Optional[Span] = None
    src: Optional[str] = None


@dataclass
class Cast:
    type_name: str
    operand: "Expr"
    span: Optional[Span] = None
    src: Optional[str] = None


@dataclass
class Paren:
    inner: "Expr"
    span: Optional[Span] = None
    src: Optional[str] = None


@dataclass
class OpaqueExpr:
    text: str
    span: Optional[Span] = None
    src: Optional[str] = None


Expr = Union[Literal, Name, FieldAccess, MethodCall, ObjectCreation,
             Binary, Unary, Assign, Cast, Paren, OpaqueExpr]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass
class LocalVarDecl:
    type_name: str
    name: str
    init: Optional[Expr]
    modifiers: set = field(default_factory=set)
    span: Optional[Span] = None
    src: Optional[str] = None


@dataclass
class ExprStmt:
    expr: Expr
    span: Optional[Span] = None
    src: Optional[str] = None


@dataclass
class If:
    cond: Expr
    then_block: "Stmt"
    else_block: Optional["Stmt"] = None
    span: Optional[Span] = None
    src: Optional[str] = None


@dataclass
class Return:
    value: Optional[Expr] = None
    span: Optional[Span] = None
    src: Optional[str] = None


@dataclass
class Block:
    stmts: list = field(default_factory=list)
    span: Optional[Span] = None
    src: Optional[str] = None


@dataclass
class OpaqueStmt:
    text: str
    span: Optional[Span] = None
    src: Optional[str] = None


Stmt = Union[LocalVarDecl, ExprStmt, If, Return, Block, OpaqueStmt]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass
class FieldDecl:
    modifiers: set
    type_name: str
    name: str
    initializer: Optional[Expr]
    span: Optional[Span] = None
    src: Optional[str] = None


@dataclass
class MethodDecl:
    modifiers: set
    return_type: str
    name: str
    params: list  # of (type_name, name)
    body: list = field(default_factory=list)  # of Stmt
    span: Optional[Span] = None
    src: Optional[str] = None
    body_span: Optional[Span] = None  # between the braces, exclusive
    implicit: bool = False

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass
class TypeDecl:
    name: str
    fields: list = field(default_factory=list)
    methods: list = field(default_factory=list)
    nested: list = field(default_factory=list)
    modifiers: set = field(default_factory=set)
    span: Optional[Span] = None
    src: Optional[str] = None
    body_span: Optional[Span] = None
    implicit: bool = False


@dataclass
class CompilationUnit:
    package_name: Optional[str]
    imports: list  # of qualified name strings
    types: list  # of TypeDecl (may include one implicit wrapper)
    text: str = ""
    newline: str = "\n"
    header_end: int = 0  # offset just past package/import block


@dataclass
class SourceFile:
    path: str
    text: str
    unit: CompilationUnit


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

MODIFIERS = {"static", "final", "public", "private", "protected", "abstract"}


@dataclass
class Token:
    kind: str  # ident | num | str | char | punct | eof
    value: str
    start: int
    end: int


class TokenList(list):
    """The tokens of a text, eof last. `unbalanced` is the message of the
    first bracket fault the lexer saw, or None when nesting is sound."""
    unbalanced: Optional[str] = None


# Literal and comment syntax, written once for the lexer and the bracket
# scan. A quote or `/*` that opens no literal or comment is `bad`.
_STR = r""" "[^"\\\n]*(?:\\.[^"\\\n]*)*" """
_CHAR = r""" '[^'\\]*(?:\\.[^'\\]*)*' """
_COMMENT = r""" //[^\n]* | /\*.*?\*/ """
_BAD = r""" ["'] | /\* """

# One match per token: whitespace and comments are skipped in front of it,
# then exactly one named alternative matches, or `eof` at the end of the
# text. The alternatives are tried in order, so `bad` only sees a quote or
# comment opener whose literal or comment does not close.
_TOKEN_RE = re.compile(r"""
    (?:[ \t\r\n]+ | %s)*
    (?:
        (?P<str> %s)
      | (?P<char> %s)
      | (?P<num> 0[xX][0-9a-fA-F]+[lL]? | \d+\.\d*(?:[eE][+-]?\d+)?[fFdD]?
                 | \d+(?:[eE][+-]?\d+)?[fFdDlL]? )
      | (?P<ident> [A-Za-z_$][A-Za-z0-9_$]* )
      | (?P<open> [{(\[] )
      | (?P<close> [})\]] )
      | (?P<bad> %s)
      | (?P<punct> == | != | <= | >= | && | \|\| | \+\+ | -- | \+= | -= | \*= | /=
                 | %%= | -> | :: | << | >> | . )
      | (?P<eof> \Z )
    )""" % (_COMMENT, _STR, _CHAR, _BAD), re.VERBOSE | re.DOTALL)

# One match per bracket: runs of other characters, comments and literals
# are swallowed in front of it. A lone `/` must not start `/*`, or an
# unclosed comment would be swallowed as ordinary text.
_BRACKET_RE = re.compile(r"""
    (?:[^"'/{}()\[\]]+ | %s | %s | %s | /(?!\*) )*
    (?: (?P<open> [{(\[] ) | (?P<close> [})\]] ) | (?P<bad> %s) | (?P<eof> \Z ) )
    """ % (_COMMENT, _STR, _CHAR, _BAD), re.VERBOSE | re.DOTALL)

_OPEN = {"{": "}", "(": ")", "[": "]"}
_CLOSE = {"}", ")", "]"}
_UNTERMINATED = {'"': "unterminated string literal", "'": "unterminated char literal",
                 "/*": "unterminated block comment"}


def tokenize(text: str) -> TokenList:
    """Lex text in one pass, checking bracket nesting on the way.

    Raises UnbalancedSource on an unterminated literal or comment. A
    bracket fault does not raise here (slices of a file are lexed too);
    it is left in the result's `unbalanced` for parse to raise."""
    toks = TokenList()
    append = toks.append
    closers = []
    fault = None
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m[kind]
        end = m.end()
        if kind == "open":
            kind = "punct"
            closers.append(_OPEN[value])
        elif kind == "close":
            kind = "punct"
            if fault is None and (not closers or closers.pop() != value):
                fault = "unmatched '%s' at offset %d" % (value, end - 1)
        elif kind == "bad":
            raise UnbalancedSource(_UNTERMINATED[value])
        elif kind == "eof":
            break
        append(Token(kind, value, end - len(value), end))
    append(Token("eof", "", len(text), len(text)))
    if fault is None and closers:
        fault = "unclosed '%s'" % closers[-1]
    toks.unbalanced = fault
    return toks


def check_balanced(text: str) -> None:
    """Raise UnbalancedSource exactly when parse would, with the same
    message, but without building tokens: one regex match per bracket."""
    closers = []
    fault = None
    for m in _BRACKET_RE.finditer(text):
        kind = m.lastgroup
        if kind == "open":
            closers.append(_OPEN[m[kind]])
        elif kind == "close":
            value = m[kind]
            if fault is None and (not closers or closers.pop() != value):
                fault = "unmatched '%s' at offset %d" % (value, m.end() - 1)
        elif kind == "bad":
            raise UnbalancedSource(_UNTERMINATED[m[kind]])
        else:
            break
    if fault is None and closers:
        fault = "unclosed '%s'" % closers[-1]
    if fault is not None:
        raise UnbalancedSource(fault)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# binary operators by binding strength, loosest first
_BIN_LEVEL = {"||": 0, "&&": 1, "==": 2, "!=": 2, "<": 3, ">": 3, "<=": 3, ">=": 3,
              "+": 4, "-": 4, "*": 5, "/": 5, "%": 5}


class _Backtrack(Exception):
    pass


class _Parser:
    def __init__(self, text: str, toks: Optional[list] = None):
        self.text = text
        self.toks = tokenize(text) if toks is None else toks
        # eat() stops at eof, so one more eof keeps peek(1) in range
        self.toks.append(self.toks[-1])
        self.i = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self, off: int = 0) -> Token:
        return self.toks[self.i + off]

    def at(self, value: str) -> bool:
        # no literal's text equals a keyword or a punctuator
        return self.toks[self.i].value == value

    def eat(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, value: str) -> Token:
        if not self.at(value):
            raise _Backtrack("expected %r, got %r" % (value, self.peek().value))
        return self.eat()

    def src(self, start: int, end: int) -> str:
        return self.text[start:end]

    def _finish(self, node, start_tok: Token, end_off: int):
        node.span = Span(start_tok.start, end_off)
        node.src = self.src(start_tok.start, end_off)
        return node

    # -- unit ---------------------------------------------------------------

    def parse_unit(self) -> CompilationUnit:
        package = None
        imports = []
        header_end = 0
        keywords = ("package", "import")  # one package, first
        while self.peek().value in keywords:
            keyword = self.peek().value
            keywords = ("import",)
            name = self._try(self._header_decl)
            if name is None and not self._skip_declaration():
                break  # the rest parses as members or statements
            if name is not None and keyword == "package":
                package = name
            elif name is not None:
                imports.append(name)
            header_end = self.toks[self.i - 1].end

        types = []
        loose_fields, loose_methods, loose_stmts = [], [], []
        while self.peek().kind != "eof":
            mark = self.i
            decl = self._try(self._parse_type_decl)
            if decl is not None:
                types.append(decl)
                continue
            self.i = mark
            member = self._try(self._parse_field_or_method)
            if member is not None:
                (loose_fields if isinstance(member, FieldDecl) else loose_methods).append(member)
                continue
            self.i = mark
            stmt = self.parse_stmt()
            loose_stmts.append(stmt)

        if loose_stmts:
            first = loose_stmts[0].span.start
            last = loose_stmts[-1].span.end
            loose_methods.append(MethodDecl(
                modifiers=set(), return_type="", name="", params=[],
                body=loose_stmts, span=Span(first, last),
                src=self.src(first, last), body_span=Span(first, last),
                implicit=True))
        if loose_fields or loose_methods:
            start = min(m.span.start for m in loose_fields + loose_methods)
            end = max(m.span.end for m in loose_fields + loose_methods)
            types.append(TypeDecl(
                name="", fields=loose_fields, methods=loose_methods,
                span=Span(start, end), src=self.src(start, end),
                body_span=Span(start, end), implicit=True))

        newline = "\r\n" if "\r\n" in self.text else "\n"
        return CompilationUnit(package, imports, types, text=self.text,
                               newline=newline, header_end=header_end)

    def _header_decl(self) -> str:
        """One package or import declaration; returns its name."""
        keyword = self.eat().value
        if keyword == "import" and self.at("static"):
            self.eat()
        name = self._qualified_name(allow_star=keyword == "import")
        self.expect(";")
        return name

    def _skip_declaration(self) -> bool:
        """Skip a malformed header declaration through its ';'. Returns
        False, consuming nothing, when a bracket or the end comes first."""
        i = self.i
        while self.toks[i].value != ";":
            value = self.toks[i].value
            if self.toks[i].kind == "eof" or value in _OPEN or value in _CLOSE:
                return False
            i += 1
        self.i = i + 1
        return True

    def _eat_nested(self, nest: list) -> Token:
        """Eat a token of a region skipped verbatim, keeping `nest` the stack
        of ( and [ left open in it, so that the region stays balanced."""
        t = self.eat()
        if t.value in ("(", "["):
            nest.append(_OPEN[t.value])
        elif t.value in (")", "]") and (not nest or nest.pop() != t.value):
            raise _Backtrack("unbalanced %r" % t.value)
        return t

    def _try(self, fn):
        mark = self.i
        try:
            return fn()
        except _Backtrack:
            self.i = mark
            return None

    def _qualified_name(self, allow_star: bool = False) -> str:
        parts = []
        t = self.peek()
        if t.kind != "ident":
            raise _Backtrack("expected identifier")
        parts.append(self.eat().value)
        while self.at("."):
            self.eat()
            t = self.peek()
            if allow_star and t.value == "*":
                parts.append(self.eat().value)
                break
            if t.kind != "ident":
                raise _Backtrack("expected identifier after '.'")
            parts.append(self.eat().value)
        return ".".join(parts)

    # -- declarations -------------------------------------------------------

    def _parse_modifiers(self) -> set:
        mods = set()
        while self.peek().kind == "ident" and self.peek().value in MODIFIERS:
            mods.add(self.eat().value)
        return mods

    def _parse_type_decl(self) -> TypeDecl:
        start_tok = self.peek()
        mods = self._parse_modifiers()
        if self.peek().value != "class":
            raise _Backtrack("not a class")
        self.eat()
        name_tok = self.peek()
        if name_tok.kind != "ident":
            raise _Backtrack("class name expected")
        name = self.eat().value
        # tolerate extends/implements clauses verbatim
        nest = []
        while not self.at("{") and self.peek().kind != "eof":
            self._eat_nested(nest)
        if nest:
            raise _Backtrack("unbalanced class header")
        open_tok = self.expect("{")
        fields, methods, nested = [], [], []
        while not self.at("}"):
            if self.peek().kind == "eof":
                raise _Backtrack("unterminated class body")
            mark = self.i
            inner = self._try(self._parse_type_decl)
            if inner is not None:
                nested.append(inner)
                continue
            self.i = mark
            member = self._try(self._parse_field_or_method)
            if member is not None:
                (fields if isinstance(member, FieldDecl) else methods).append(member)
                continue
            self.i = mark
            self._consume_opaque_region()  # unsupported member, kept via text
        close_tok = self.expect("}")
        decl = TypeDecl(name=name, fields=fields, methods=methods, nested=nested,
                        modifiers=mods,
                        body_span=Span(open_tok.end, close_tok.start))
        return self._finish(decl, start_tok, close_tok.end)

    def _parse_field_or_method(self):
        start_tok = self.peek()
        mods = self._parse_modifiers()
        type_name = self._parse_type_text()
        name_tok = self.peek()
        if name_tok.kind != "ident":
            raise _Backtrack("member name expected")
        name = self.eat().value
        if self.at("("):
            return self._parse_method_rest(start_tok, mods, type_name, name)
        if self.at("="):
            self.eat()
            init = self.parse_expr()
            end = self.expect(";")
            return self._finish(FieldDecl(mods, type_name, name, init), start_tok, end.end)
        if self.at(";"):
            end = self.eat()
            return self._finish(FieldDecl(mods, type_name, name, None), start_tok, end.end)
        raise _Backtrack("not a field")

    def _parse_method_rest(self, start_tok, mods, return_type, name) -> MethodDecl:
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                ptype = self._parse_type_text()
                ptok = self.peek()
                if ptok.kind != "ident":
                    raise _Backtrack("param name expected")
                pname = self.eat().value
                params.append((ptype, pname))
                if self.at(","):
                    self.eat()
                    continue
                break
        self.expect(")")
        if self.peek().value == "throws":
            self.eat()
            self._qualified_name()
            while self.at(","):
                self.eat()
                self._qualified_name()
        if self.at(";"):  # abstract / interface-style
            end = self.eat()
            m = MethodDecl(mods, return_type, name, params, body=[])
            return self._finish(m, start_tok, end.end)
        open_tok = self.expect("{")
        body = []
        while not self.at("}"):
            if self.peek().kind == "eof":
                raise _Backtrack("unterminated method body")
            body.append(self.parse_stmt())
        close_tok = self.eat()
        m = MethodDecl(mods, return_type, name, params, body=body,
                       body_span=Span(open_tok.end, close_tok.start))
        return self._finish(m, start_tok, close_tok.end)

    def _parse_type_text(self) -> str:
        start = self.peek().start
        self._qualified_name()
        if self.at("<"):
            depth = 0
            nest = []
            while True:
                t = self._eat_nested(nest)
                if t.kind == "eof":
                    raise _Backtrack("unterminated type arguments")
                if t.value in ";{}":
                    raise _Backtrack("not a generic type")
                if nest:
                    continue
                if t.value == "<":
                    depth += 1
                elif t.value == ">":
                    depth -= 1
                    if depth == 0:
                        break
        while self.at("[") and self.peek(1).value == "]":
            self.eat()
            self.eat()
        return self.src(start, self.toks[self.i - 1].end)

    # -- statements ----------------------------------------------------------

    def parse_stmt(self) -> Stmt:
        t = self.peek()
        if t.value == "{":
            return self._parse_block()
        if t.value == "if":
            stmt = self._try(self._parse_if)
            if stmt is not None:
                return stmt
            return self._consume_opaque_region()
        if t.value == "return":
            stmt = self._try(self._parse_return)
            if stmt is not None:
                return stmt
            return self._consume_opaque_region()
        stmt = self._try(self._parse_local_var_decl)
        if stmt is not None:
            return stmt
        stmt = self._try(self._parse_expr_stmt)
        if stmt is not None:
            return stmt
        return self._consume_opaque_region()

    def _parse_block(self) -> Block:
        start_tok = self.expect("{")
        stmts = []
        while not self.at("}"):
            if self.peek().kind == "eof":
                raise _Backtrack("unterminated block")
            stmts.append(self.parse_stmt())
        close = self.eat()
        return self._finish(Block(stmts), start_tok, close.end)

    def _parse_if(self) -> If:
        start_tok = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_block = self.parse_stmt()
        else_block = None
        end = then_block.span.end
        if self.peek().value == "else":
            self.eat()
            else_block = self.parse_stmt()
            end = else_block.span.end
        return self._finish(If(cond, then_block, else_block), start_tok, end)

    def _parse_return(self) -> Return:
        start_tok = self.expect("return")
        value = None
        if not self.at(";"):
            value = self.parse_expr()
        end = self.expect(";")
        return self._finish(Return(value), start_tok, end.end)

    def _parse_local_var_decl(self) -> LocalVarDecl:
        start_tok = self.peek()
        mods = set()
        while self.peek().value == "final":
            mods.add(self.eat().value)
        type_name = self._parse_type_text()
        name_tok = self.peek()
        if name_tok.kind != "ident":
            raise _Backtrack("variable name expected")
        name = self.eat().value
        init = None
        if self.at("="):
            self.eat()
            init = self.parse_expr()
        end = self.expect(";")
        return self._finish(LocalVarDecl(type_name, name, init, mods), start_tok, end.end)

    def _parse_expr_stmt(self) -> ExprStmt:
        start_tok = self.peek()
        expr = self.parse_expr()
        end = self.expect(";")
        return self._finish(ExprStmt(expr), start_tok, end.end)

    def _consume_opaque_region(self) -> OpaqueStmt:
        """Consume a balanced statement-shaped region: up to ';' at depth 0,
        or through a brace block opened at depth 0."""
        toks, i = self.toks, self.i
        start_tok = toks[i]
        if start_tok.kind == "eof" or start_tok.value in _CLOSE:
            raise _Backtrack("nothing to consume")
        depth = 0
        saw_brace = False
        while True:
            t = toks[i]
            value = t.value
            if t.kind == "eof" or (depth == 0 and value in _CLOSE):
                break  # enclosing close; stop without consuming
            i += 1
            if value in _OPEN:
                depth += 1
                if value == "{":
                    saw_brace = True
            elif value in _CLOSE:
                depth -= 1
                if depth == 0 and value == "}" and saw_brace:
                    break
            elif value == ";" and depth == 0:
                break
        self.i = i
        end = toks[i - 1].end
        node = OpaqueStmt(self.src(start_tok.start, end))
        return self._finish(node, start_tok, end)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._parse_assign()

    def _parse_assign(self) -> Expr:
        start_tok = self.peek()
        lhs = self._parse_binary(0)
        if self.at("="):
            if not isinstance(lhs, (Name, FieldAccess)):
                raise _Backtrack("invalid assignment target")
            self.eat()
            rhs = self._parse_assign()
            return self._finish(Assign(lhs, rhs), start_tok, rhs.span.end)
        return lhs

    def _parse_binary(self, min_level: int) -> Expr:
        """Left-associative binary operators of level min_level or tighter,
        by precedence climbing."""
        start_tok = self.peek()
        lhs = self._parse_unary()
        while True:
            t = self.toks[self.i]
            level = _BIN_LEVEL.get(t.value, -1) if t.kind == "punct" else -1
            if level < min_level:
                return lhs
            self.i += 1
            rhs = self._parse_binary(level + 1)
            lhs = self._finish(Binary(t.value, lhs, rhs), start_tok, rhs.span.end)

    def _parse_unary(self) -> Expr:
        t = self.peek()
        if t.kind == "punct" and t.value in ("!", "-", "+", "~"):
            self.eat()
            operand = self._parse_unary()
            return self._finish(Unary(t.value, operand), t, operand.span.end)
        if t.value == "(":
            cast = self._try(self._parse_cast)
            if cast is not None:
                return cast
        return self._parse_postfix()

    def _parse_cast(self) -> Cast:
        start_tok = self.expect("(")
        type_name = self._parse_type_text()
        self.expect(")")
        nxt = self.peek()
        if not (nxt.kind in ("ident", "num", "str", "char") or nxt.value == "("):
            raise _Backtrack("not a cast")
        operand = self._parse_unary()
        return self._finish(Cast(type_name, operand), start_tok, operand.span.end)

    def _parse_postfix(self) -> Expr:
        start_tok = self.peek()
        e = self._parse_primary()
        while True:
            if self.at("."):
                self.eat()
                name_tok = self.peek()
                if name_tok.kind != "ident":
                    raise _Backtrack("member name expected")
                name = self.eat().value
                if self.at("("):
                    args, end = self._parse_args()
                    e = self._finish(MethodCall(e, name, args), start_tok, end)
                else:
                    e = self._finish(FieldAccess(e, name), start_tok, name_tok.end)
                continue
            break
        return e

    def _parse_args(self):
        self.expect("(")
        args = []
        if not self.at(")"):
            while True:
                args.append(self.parse_expr())
                if self.at(","):
                    self.eat()
                    continue
                break
        end = self.expect(")")
        return args, end.end

    def _parse_primary(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.eat()
            kind = "float" if ("." in t.value or t.value.rstrip("fFdD") != t.value
                               and not t.value.lower().startswith("0x")) else "int"
            return self._finish(Literal(kind, t.value), t, t.end)
        if t.kind == "str":
            self.eat()
            return self._finish(Literal("string", t.value), t, t.end)
        if t.kind == "char":
            self.eat()
            return self._finish(Literal("char", t.value), t, t.end)
        if t.kind == "ident":
            if t.value in ("true", "false"):
                self.eat()
                return self._finish(Literal("bool", t.value), t, t.end)
            if t.value == "null":
                self.eat()
                return self._finish(Literal("null", t.value), t, t.end)
            if t.value == "new":
                self.eat()
                type_name = self._parse_type_text()
                if not self.at("("):
                    raise _Backtrack("array creation not in subset")
                args, end = self._parse_args()
                return self._finish(ObjectCreation(type_name, args), t, end)
            self.eat()
            if self.at("("):
                args, end = self._parse_args()
                return self._finish(MethodCall(None, t.value, args), t, end)
            return self._finish(Name(t.value), t, t.end)
        if t.value == "(":
            self.eat()
            inner = self.parse_expr()
            end = self.expect(")")
            return self._finish(Paren(inner), t, end.end)
        raise _Backtrack("unexpected token %r" % t.value)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def parse(text: str) -> CompilationUnit:
    """Parse source text into a CompilationUnit.

    Never fails on balanced input; unsupported constructs fall back to
    Opaque nodes. Raises UnbalancedSource when nesting is broken.
    """
    toks = tokenize(text)
    if toks.unbalanced is not None:
        raise UnbalancedSource(toks.unbalanced)
    return _Parser(text, toks).parse_unit()


def parse_file(path: str) -> SourceFile:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    return SourceFile(path=path, text=text, unit=parse(text))


def parse_expr_text(text: str) -> Expr:
    p = _Parser(text)
    e = p.parse_expr()
    if p.peek().kind != "eof":
        raise _Backtrack("trailing tokens after expression")
    return e


def parse_stmt_text(text: str) -> Stmt:
    p = _Parser(text)
    s = p.parse_stmt()
    if p.peek().kind != "eof":
        raise _Backtrack("trailing tokens after statement")
    return s


def print_unit(unit: CompilationUnit) -> str:
    """Reprint a unit. Units are always backed by their source text
    (edits go through splice + reparse), so this is exact."""
    return unit.text


def splice(unit: CompilationUnit, edits) -> str:
    """Apply (Span, replacement) edits to the unit's text.

    Edits must not overlap; they are applied in ascending span order.
    """
    out = []
    pos = 0
    for span, repl in sorted(edits, key=lambda e: (e[0].start, e[0].end)):
        if span.start < pos:
            raise OverlappingEdits("edit at %d overlaps previous" % span.start)
        out.append(unit.text[pos:span.start])
        out.append(repl)
        pos = span.end
    out.append(unit.text[pos:])
    return "".join(out)


def edited(unit: CompilationUnit, edits) -> CompilationUnit:
    """Splice edits and reparse, yielding a fresh unit."""
    return parse(splice(unit, edits))


# ---------------------------------------------------------------------------
# Tree utilities
# ---------------------------------------------------------------------------

def child_exprs(e: Expr):
    if isinstance(e, FieldAccess):
        return [e.receiver]
    if isinstance(e, MethodCall):
        return ([e.receiver] if e.receiver is not None else []) + list(e.args)
    if isinstance(e, ObjectCreation):
        return list(e.args)
    if isinstance(e, Binary):
        return [e.lhs, e.rhs]
    if isinstance(e, (Unary,)):
        return [e.operand]
    if isinstance(e, Assign):
        return [e.lhs, e.rhs]
    if isinstance(e, Cast):
        return [e.operand]
    if isinstance(e, Paren):
        return [e.inner]
    return []


def iter_exprs(e: Expr) -> Iterator[Expr]:
    yield e
    for c in child_exprs(e):
        yield from iter_exprs(c)


def stmt_exprs(s: Stmt):
    if isinstance(s, LocalVarDecl):
        return [s.init] if s.init is not None else []
    if isinstance(s, ExprStmt):
        return [s.expr]
    if isinstance(s, If):
        return [s.cond]
    if isinstance(s, Return):
        return [s.value] if s.value is not None else []
    return []


def child_stmts(s: Stmt):
    if isinstance(s, If):
        out = [s.then_block]
        if s.else_block is not None:
            out.append(s.else_block)
        return out
    if isinstance(s, Block):
        return list(s.stmts)
    return []


def iter_statements(stmts, _chain=()) -> Iterator[tuple]:
    """Yield (stmt, chain) for every statement, where chain is the tuple of
    enclosing statements from outermost to innermost (excluding stmt)."""
    for s in stmts:
        yield s, _chain
        yield from iter_statements(child_stmts(s), _chain + (s,))


def iter_types(unit: CompilationUnit) -> Iterator[tuple]:
    """Yield (type_decl, outer_chain) over all types, nested included."""
    def rec(t, chain):
        yield t, chain
        for n in t.nested:
            yield from rec(n, chain + (t,))
    for t in unit.types:
        yield from rec(t, ())


def ast_equal(a, b) -> bool:
    """Structural equality ignoring spans and source slices."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(ast_equal(x, y) for x, y in zip(a, b))
    if not hasattr(a, "__dataclass_fields__"):
        return a == b
    for name in a.__dataclass_fields__:
        if name in ("span", "src", "body_span"):
            continue
        if not ast_equal(getattr(a, name), getattr(b, name)):
            return False
    return True


# ---------------------------------------------------------------------------
# Rendering of synthesized nodes (fixed 4-space indent convention)
# ---------------------------------------------------------------------------

def render_expr(e: Expr) -> str:
    """Render an expression. Nodes still backed by source reuse their
    original bytes when single-line; synthesized nodes get canonical form."""
    if e is None:
        return ""
    if getattr(e, "src", None) and "\n" not in e.src:
        return e.src
    if isinstance(e, Literal):
        return e.lexeme
    if isinstance(e, Name):
        return e.identifier
    if isinstance(e, FieldAccess):
        return "%s.%s" % (render_expr(e.receiver), e.identifier)
    if isinstance(e, MethodCall):
        args = ", ".join(render_expr(a) for a in e.args)
        if e.receiver is not None:
            return "%s.%s(%s)" % (render_expr(e.receiver), e.name, args)
        return "%s(%s)" % (e.name, args)
    if isinstance(e, ObjectCreation):
        return "new %s(%s)" % (e.type_name, ", ".join(render_expr(a) for a in e.args))
    if isinstance(e, Binary):
        return "%s %s %s" % (render_expr(e.lhs), e.op, render_expr(e.rhs))
    if isinstance(e, Unary):
        return "%s%s" % (e.op, render_expr(e.operand))
    if isinstance(e, Assign):
        return "%s = %s" % (render_expr(e.lhs), render_expr(e.rhs))
    if isinstance(e, Cast):
        return "(%s) %s" % (e.type_name, render_expr(e.operand))
    if isinstance(e, Paren):
        return "(%s)" % render_expr(e.inner)
    if isinstance(e, OpaqueExpr):
        return " ".join(e.text.split())
    raise TypeError("cannot render %r" % (e,))


def render_stmt(s: Stmt, indent: int = 0) -> str:
    pad = " " * indent
    if isinstance(s, OpaqueStmt):
        return pad + s.text
    if isinstance(s, LocalVarDecl):
        mods = "".join(m + " " for m in sorted(s.modifiers))
        if s.init is not None:
            return "%s%s%s %s = %s;" % (pad, mods, s.type_name, s.name, render_expr(s.init))
        return "%s%s%s %s;" % (pad, mods, s.type_name, s.name)
    if isinstance(s, ExprStmt):
        return "%s%s;" % (pad, render_expr(s.expr))
    if isinstance(s, Return):
        if s.value is not None:
            return "%sreturn %s;" % (pad, render_expr(s.value))
        return pad + "return;"
    if isinstance(s, Block):
        lines = [pad + "{"]
        for inner in s.stmts:
            lines.append(render_stmt(inner, indent + 4))
        lines.append(pad + "}")
        return "\n".join(lines)
    if isinstance(s, If):
        body = s.then_block
        lines = ["%sif (%s) {" % (pad, render_expr(s.cond))]
        for inner in (body.stmts if isinstance(body, Block) else [body]):
            lines.append(render_stmt(inner, indent + 4))
        if s.else_block is not None:
            lines.append(pad + "} else {")
            eb = s.else_block
            for inner in (eb.stmts if isinstance(eb, Block) else [eb]):
                lines.append(render_stmt(inner, indent + 4))
        lines.append(pad + "}")
        return "\n".join(lines)
    raise TypeError("cannot render %r" % (s,))


def line_of(text: str, offset: int) -> int:
    """1-based line number of a text offset."""
    return text.count("\n", 0, offset) + 1


def indent_at(text: str, offset: int) -> str:
    """Whitespace prefix of the line containing offset, up to the offset."""
    nl = text.rfind("\n", 0, offset)
    prefix = text[nl + 1:offset]
    return prefix if prefix.strip() == "" else ""
