"""API signatures of the form fqcn#name(paramTypes) and call-site lookup."""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Optional

from . import jast


class MalformedSignature(Exception):
    """Signature text does not match fqcn#name(type, ...)."""


class ApiSignature(jast.Frozen):
    __slots__ = ("class_name", "method_name", "param_types")

    def __init__(self, class_name: str, method_name: str, param_types: tuple):
        object.__setattr__(self, "class_name", class_name)
        object.__setattr__(self, "method_name", method_name)
        object.__setattr__(self, "param_types", param_types)

    @property
    def arity(self) -> int:
        return len(self.param_types)

    def __str__(self) -> str:
        return "%s#%s(%s)" % (self.class_name, self.method_name,
                              ", ".join(self.param_types))


class ApiMapping(jast.Frozen):
    __slots__ = ("deprecated", "replacement")

    def __init__(self, deprecated: ApiSignature, replacement: ApiSignature):
        object.__setattr__(self, "deprecated", deprecated)
        object.__setattr__(self, "replacement", replacement)
        if deprecated == replacement:
            raise MalformedSignature("deprecated and replacement signatures are identical")


class CallSite(jast.Record):
    __slots__ = ("call", "enclosing_stmt", "enclosing_method", "enclosing_type", "stmt_chain",
                 "field", "outer_types")

    def __init__(self, call: jast.MethodCall, enclosing_stmt: Optional[jast.Stmt],
                 enclosing_method: Optional[jast.MethodDecl], enclosing_type: jast.TypeDecl,
                 stmt_chain: tuple = (), field: Optional[jast.FieldDecl] = None,
                 outer_types: tuple = ()):
        self.call = call
        self.enclosing_stmt = enclosing_stmt  # None when the call sits in a field initializer
        self.enclosing_method = enclosing_method
        self.enclosing_type = enclosing_type
        self.stmt_chain = stmt_chain  # enclosing statements, outermost first; not enclosing_stmt
        self.field = field
        self.outer_types = outer_types  # types around enclosing_type, outermost first


_SIG_RE = re.compile(
    r"^\s*([A-Za-z_$][\w$]*(?:\.[A-Za-z_$][\w$]*)*)"
    r"#([A-Za-z_$][\w$]*)"
    r"\(([^)]*)\)\s*$")


def parse_signature(text: str) -> ApiSignature:
    m = _SIG_RE.match(text)
    if not m:
        raise MalformedSignature("malformed API signature: %r" % text)
    params = m.group(3).strip()
    types = tuple(p.strip() for p in params.split(",")) if params else ()
    if any(not t for t in types):
        raise MalformedSignature("empty parameter type in signature: %r" % text)
    return ApiSignature(m.group(1), m.group(2), types)


def simple_name(qualified: str) -> str:
    return qualified.rsplit(".", 1)[-1]


def find_invocations(unit: jast.CompilationUnit, sig: ApiSignature) -> list:
    """Every MethodCall matching sig's name and arity, in source order.

    Matching is name + arity only; receivers are captured, not typed.
    A parsed call's name is a slice of unit.text, so the name's offsets in
    the text are found once, and only what holds one is entered: a type,
    field or method whose span holds an offset, and in a statement list
    the statements that hold one, found by bisecting the list's starts for
    each offset inside it. A statement that holds none is never visited,
    nor a statement's expression that holds none.
    """
    text, name = unit.text, sig.method_name
    offsets, at = [], text.find(name)
    while at >= 0:
        offsets.append(at)
        at = text.find(name, at + 1)

    def inside(node) -> list:  # the offsets of the occurrences within node's span
        return offsets[bisect_left(offsets, node.start):
                       bisect_right(offsets, node.end - len(name))]

    sites = []
    # the file's implicit type comes last and spans its members, as the
    # loose statements' method may span others: they are tested one by one
    for tdecl, outer in jast._preorder(
            [t for t in unit.types if inside(t)],
            lambda t: [n for n, _held in _holding(t.nested, inside(t), len(name))]):
        held = inside(tdecl)
        for fdecl, _held in _holding(tdecl.fields, held, len(name)):
            if fdecl.initializer is None:
                continue
            for e in jast.iter_exprs(fdecl.initializer):
                if _matches(e, sig):
                    sites.append(CallSite(e, None, None, tdecl, field=fdecl, outer_types=outer))
        methods = ([(m, inside(m)) for m in tdecl.methods if inside(m)] if tdecl.implicit
                   else _holding(tdecl.methods, held, len(name)))
        for mdecl, held in methods:
            for (stmt, _held), chain in jast._preorder(_holding(mdecl.body, held, len(name)), (
                    lambda s: _holding(jast.child_stmts(s[0]), s[1], len(name)))):
                for root in jast.stmt_exprs(stmt):
                    if not inside(root):  # an if's condition, with the name in a branch
                        continue
                    for e in jast.iter_exprs(root):
                        if _matches(e, sig):
                            sites.append(CallSite(e, stmt, mdecl, tdecl, outer_types=outer,
                                                  stmt_chain=tuple(s for s, _ in chain)))
    sites.sort(key=lambda s: s.call.start)
    return sites


def _holding(nodes, offsets, length) -> list:
    """(node, the offsets it holds) for each of nodes, a list in source
    order, that holds an occurrence, of that length, at one of the sorted
    offsets, found by bisecting the list's starts."""
    held = {}
    for at in offsets:
        i = bisect_right(nodes, at, key=_START) - 1
        if i >= 0 and at + length <= nodes[i].end:
            held.setdefault(i, []).append(at)
    return [(nodes[i], inner) for i, inner in held.items()]


_START = attrgetter("start")


def _matches(e, sig: ApiSignature) -> bool:
    return (isinstance(e, jast.MethodCall)
            and e.name == sig.method_name
            and len(e.args) == sig.arity)
