"""Bottom-up def-use resolution of expressions to ground values.

A ground value names no variable of the example, only literals, type
and package names, and metavariables (Scope.pinned). Every name is
looked up in a scope.Scope, the position of the expression: it is chased
through the nearest local definition before that position in its block
or an enclosing one, and otherwise through a field of the enclosing type
or an outer type. A parameter, a local declared without a value, or a
name the scope does not know leaves the value unresolved, which callers
treat as an in-band outcome.
"""

from __future__ import annotations

from . import jast, scope


class ResolvedValue(jast.Record):
    __slots__ = ("resolved", "expr")

    def __init__(self, resolved: bool, expr: jast.Expr):
        self.resolved = resolved
        self.expr = expr  # the ground value, or the subexpression that is not


def resolve_expression(e: jast.Expr, ctx: scope.Scope) -> ResolvedValue:
    """Ground e, at ctx, by one jast.fold over (expression, scope, fields
    on the path) nodes. The child of a Name is the value of its nearest
    definition, in that definition's scope, so a def-use chain of any
    length is a path in the fold; the fields on the path guard against a
    cycle. A call receiver that names a type or a static member is kept
    as written, at no scope. A definition that several names reach is
    grounded once: each composite's value is kept, keyed by its expression
    and the fields on its path (the expression's one position in the
    example fixes its scope), and a name whose definition has a kept value
    takes it as a leaf. Inside the fold a ground value is the expression
    itself, a literal or a kept receiver being its own, and only a value
    that is not ground is wrapped, as ResolvedValue(False, e)."""
    memo = {}  # (composite expression, fields on the path) -> its value

    def kids(node):
        e, at, seen = node
        kind = type(e)
        if kind is jast.Name:
            found = at and _value(e.identifier, at, seen)
            if not found:
                return ()
            known = memo.get((found[0], found[2]))
            return [found if known is None else (known, None, seen)]
        if at is None or kind not in _COMPOSITE:
            return ()
        receiver = e.receiver if kind is jast.MethodCall else None
        kept = receiver if isinstance(receiver, jast.FieldAccess) or (
            isinstance(receiver, jast.Name) and not at.is_variable(receiver.identifier)) else None
        return [(c, None if c is kept else at, seen) for c in jast.child_exprs(e)]

    def ground(node, values):
        e, at, seen = node
        kind = type(e)
        if at is None or kind is jast.Literal:  # kept as written, or grounded before
            return e
        if kind is jast.Name:
            if values:
                return values[0]
            pinned = at.pinned.get(e.identifier)
            return ResolvedValue(False, e) if pinned is None else pinned
        if kind is jast.FieldAccess:
            root = _access_root(e)
            # a field read off a variable's object: no object model
            return e if root is not None and not at.is_variable(root.identifier) else (
                ResolvedValue(False, e))
        receiver = values[0] if kind is jast.MethodCall and e.receiver is not None else None
        if kind not in _COMPOSITE or ResolvedValue in map(type, values) or (
                type(receiver) is jast.Literal and receiver.kind != "string"):
            value = ResolvedValue(False, e)  # `5.intValue()` would lex as `5.`
        else:
            value = jast.rebuild(e, values)
        memo[e, seen] = value
        return value

    value = jast.fold((e, ctx, frozenset()), ground, kids)
    return value if type(value) is ResolvedValue else ResolvedValue(True, value)


def collect_dependencies(d, ctx: scope.Scope, walked=None) -> list:
    """The definitions of ctx's unit that d (a patch hunk, in no table of
    the unit) reaches through scope.references, transitively, in the order
    found; never a type around ctx, which is the example itself. walked is
    scope.walk(d), where the caller reads it too."""
    methods, types = scope.members(ctx.unit)
    for t in ctx.types:
        types.pop(t.name, None)
    fields = scope.fields(ctx.unit)
    return scope.closure(scope.references(d, methods, types, fields, walked=walked),
                         methods, types, fields)


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
