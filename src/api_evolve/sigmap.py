"""API signatures of the form fqcn#name(paramTypes) and call-site lookup."""

from __future__ import annotations

import re
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
    A parsed call's name is a slice of unit.text, so a type, field, method
    or statement whose span never names the method is skipped unwalked.
    """
    text, name = unit.text, sig.method_name

    def names(node) -> bool:
        return text.find(name, node.start, node.end) >= 0

    sites = []
    for tdecl, outer in jast.iter_types(unit):
        if not names(tdecl):
            continue
        for fdecl in tdecl.fields:
            if fdecl.initializer is None or not names(fdecl):
                continue
            for e in jast.iter_exprs(fdecl.initializer):
                if _matches(e, sig):
                    sites.append(CallSite(e, None, None, tdecl, field=fdecl, outer_types=outer))
        for mdecl in tdecl.methods:
            if not names(mdecl):
                continue
            for stmt, chain in jast.iter_statements(mdecl.body):
                if not names(stmt):
                    continue
                for root in jast.stmt_exprs(stmt):
                    for e in jast.iter_exprs(root):
                        if _matches(e, sig):
                            sites.append(CallSite(e, stmt, mdecl, tdecl,
                                                  stmt_chain=chain, outer_types=outer))
    sites.sort(key=lambda s: s.call.start)
    return sites


def _matches(e, sig: ApiSignature) -> bool:
    return (isinstance(e, jast.MethodCall)
            and e.name == sig.method_name
            and len(e.args) == sig.arity)
