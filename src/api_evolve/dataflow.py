"""Bottom-up def-use resolution of expressions to ground forms.

A ground form is a literal, a static member, a method invocation, or an
object creation whose free identifiers are all static roots or type
names. Every name is looked up in a scope.Scope, the position of the
expression: it is chased through the nearest local definition before
that position in its block or an enclosing one, and otherwise through a
field of the enclosing type or an outer type. A parameter, a local
declared without a value, or a name the scope does not know resolves to
Unresolved, which callers treat as an in-band outcome.
"""

from __future__ import annotations

from typing import Optional

from . import jast, scope

LITERAL = "Literal"
STATIC_MEMBER = "StaticMember"
METHOD_INVOCATION = "MethodInvocation"
OBJECT_CREATION = "ObjectCreation"
UNRESOLVED = "Unresolved"


class ResolvedValue(jast.Record):
    __slots__ = ("kind", "expr", "needs")

    def __init__(self, kind: str, expr: jast.Expr, needs: Optional[list] = None):
        self.kind = kind
        self.expr = expr
        self.needs = [] if needs is None else needs  # MethodDecl / TypeDecl from the unit


def resolve_expression(e: jast.Expr, ctx: scope.Scope) -> ResolvedValue:
    """Ground e, at ctx, by one jast.fold over (expression, scope, fields
    on the path) nodes. The child of a Name is the value of its nearest
    definition, in that definition's scope, so a def-use chain of any
    length is a path in the fold; the fields on the path guard against a
    cycle. A call receiver that names a type or a static member is kept
    as written, at no scope."""
    methods, types = scope.members(ctx.unit)

    def kids(node):
        e, at, seen = node
        kind = type(e)
        if kind is jast.Name:
            found = at and _value(e.identifier, at, seen)
            return [found] if found else ()
        if at is None or kind not in _COMPOSITE:
            return ()
        receiver = e.receiver if kind is jast.MethodCall else None
        kept = receiver if isinstance(receiver, jast.FieldAccess) or (
            isinstance(receiver, jast.Name) and not at.is_variable(receiver.identifier)) else None
        return [(c, None if c is kept else at, seen) for c in jast.child_exprs(e)]

    def ground(node, values):
        e, at, _seen = node
        kind = type(e)
        if at is None:
            return ResolvedValue(STATIC_MEMBER, e)
        if kind is jast.Literal:
            return ResolvedValue(LITERAL, e)
        if kind is jast.Name:
            if values:
                return values[0]
            pinned = at.pinned.get(e.identifier)
            return ResolvedValue(UNRESOLVED if pinned is None else STATIC_MEMBER, pinned or e)
        if kind is jast.FieldAccess:
            root = _access_root(e)
            # a field read off a variable's object: no object model
            unknown = root is None or at.is_variable(root.identifier)
            return ResolvedValue(UNRESOLVED if unknown else STATIC_MEMBER, e)
        receiver = values[0].expr if kind is jast.MethodCall and e.receiver is not None else None
        if kind not in _COMPOSITE or any(v.kind == UNRESOLVED for v in values) or (
                type(receiver) is jast.Literal and receiver.kind != "string"):
            return ResolvedValue(UNRESOLVED, e)  # `5.intValue()` would lex as `5.`
        return _rebuilt(e, values, methods, types)

    return jast.fold((e, ctx, frozenset()), ground, kids)


def collect_dependencies(v: ResolvedValue, unit: jast.CompilationUnit) -> list:
    """Transitive closure of unit-local definitions reachable from v."""
    methods, types = scope.members(unit)
    return scope.closure(v.needs, methods, types, scope.fields(unit))


_COMPOSITE = (jast.MethodCall, jast.ObjectCreation, jast.Binary, jast.Unary, jast.Cast, jast.Paren)


def _value(name, at, seen):
    """The fold node of name's value at scope at: the nearest local
    definition, else an enclosing field's initializer unless a parameter
    hides it; None if there is no value, or the field is already on the
    path (a local definition is an earlier statement, so only fields recur)."""
    if name in at.pinned:
        return None
    found = at.definition(name)
    if found is not None:
        return found + (seen,) if found[0] is not None else None
    fdecl = None if at.parameter(name) is not None else at.enclosing_field(name)
    if fdecl is None or fdecl[0].initializer is None or id(fdecl[0]) in seen:
        return None
    return fdecl[0].initializer, fdecl[1], seen | {id(fdecl[0])}


def _access_root(e):
    while isinstance(e, jast.FieldAccess):
        e = e.receiver
    return e if isinstance(e, jast.Name) else None


def _rebuilt(e, values, methods, types) -> ResolvedValue:
    """e over its children's ground forms; arithmetic is never folded."""
    needs = [d for v in values for d in v.needs]
    local = None
    if isinstance(e, jast.MethodCall):
        kind = METHOD_INVOCATION
        local = methods.get((e.name, len(e.args))) if e.receiver is None else None
    elif isinstance(e, jast.ObjectCreation):
        kind = OBJECT_CREATION
        local = types.get(e.type_name.split("<")[0])
    else:
        # an operand holds a call exactly when it resolved to one, or to
        # arithmetic over one; its kind says so without walking its tree
        kinds = {v.kind for v in values}
        kind = (kinds.pop() if isinstance(e, jast.Paren)
                else METHOD_INVOCATION if kinds & {METHOD_INVOCATION, OBJECT_CREATION}
                else STATIC_MEMBER)
    if local is not None:
        needs.append(local)
    return ResolvedValue(kind, jast.rebuild(e, [v.expr for v in values]), needs)
