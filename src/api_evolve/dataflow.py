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

from dataclasses import dataclass, field

from . import jast, scope

LITERAL = "Literal"
STATIC_MEMBER = "StaticMember"
METHOD_INVOCATION = "MethodInvocation"
OBJECT_CREATION = "ObjectCreation"
UNRESOLVED = "Unresolved"


@dataclass
class ResolvedValue:
    kind: str
    expr: jast.Expr
    needs: list = field(default_factory=list)  # MethodDecl / TypeDecl from the unit


def resolve_expression(e: jast.Expr, ctx: scope.Scope) -> ResolvedValue:
    return _Resolver(ctx).resolve(e, ctx, frozenset())


def collect_dependencies(v: ResolvedValue, unit: jast.CompilationUnit) -> list:
    """Transitive closure of unit-local definitions reachable from v."""
    methods, types = scope.members(unit)
    return scope.closure(v.needs, methods, types, scope.fields(unit))


class _Resolver:
    def __init__(self, root_ctx: scope.Scope):
        self.methods, self.types = scope.members(root_ctx.unit)

    def resolve(self, e, ctx, visited) -> ResolvedValue:
        if isinstance(e, jast.Literal):
            return ResolvedValue(LITERAL, e)
        if isinstance(e, jast.Name):
            return self._resolve_name(e, ctx, visited)
        if isinstance(e, jast.FieldAccess):
            root = _access_root(e)
            if root is None or ctx.is_variable(root.identifier):
                # a field read off a variable's object: no object model
                return ResolvedValue(UNRESOLVED, e)
            return ResolvedValue(STATIC_MEMBER, e)
        if isinstance(e, (jast.Assign, jast.OpaqueExpr)):
            return ResolvedValue(UNRESOLVED, e)
        return self._resolve_composite(e, ctx, visited)

    # -- names ---------------------------------------------------------------

    def _resolve_name(self, e, ctx, visited) -> ResolvedValue:
        name = e.identifier
        if name in ctx.pinned:
            return ResolvedValue(STATIC_MEMBER, ctx.pinned[name])

        found = ctx.definition(name)
        if found is not None:
            value, at = found
            # cycle guard keyed on the defining statement's value, so a
            # chain of reassignments through distinct statements resolves
            if value is None or id(value) in visited:
                return ResolvedValue(UNRESOLVED, e)
            return self.resolve(value, at, visited | {id(value)})

        # a parameter has no value here, and it hides a field of its name
        found = None if ctx.parameter(name) is not None else ctx.enclosing_field(name)
        if found is None or found[0].initializer is None or id(found[0]) in visited:
            return ResolvedValue(UNRESOLVED, e)
        fdecl, at = found
        return self.resolve(fdecl.initializer, at, visited | {id(fdecl)})

    # -- composite forms -------------------------------------------------------

    def _resolve_composite(self, e, ctx, visited) -> ResolvedValue:
        """Ground every child, stopping at the first Unresolved one, then
        rebuild e over the ground forms; arithmetic is never folded. A call
        receiver that names a type or a static member is kept as written."""
        receiver = e.receiver if isinstance(e, jast.MethodCall) else None
        kept = receiver if isinstance(receiver, jast.FieldAccess) or (
            isinstance(receiver, jast.Name) and not ctx.is_variable(receiver.identifier)) else None
        kids, kinds, needs = [], set(), []
        for c in jast.child_exprs(e):
            if c is kept:
                kids.append(c)
                continue
            v = self.resolve(c, ctx, visited)
            if v.kind == UNRESOLVED:
                return ResolvedValue(UNRESOLVED, e)
            kids.append(v.expr)
            kinds.add(v.kind)
            needs.extend(v.needs)
        out = jast.rebuild(e, kids)
        if isinstance(e, jast.MethodCall):
            kind = METHOD_INVOCATION
            local = self.methods.get((e.name, len(e.args))) if e.receiver is None else None
        elif isinstance(e, jast.ObjectCreation):
            kind = OBJECT_CREATION
            local = self.types.get(e.type_name.split("<")[0])
        else:
            # an operand holds a call exactly when it resolved to one, or to
            # arithmetic over one; its kind says so without walking its tree
            kind = (kinds.pop() if isinstance(e, jast.Paren)
                    else METHOD_INVOCATION if kinds & {METHOD_INVOCATION, OBJECT_CREATION}
                    else STATIC_MEMBER)
            local = None
        if local is not None:
            needs.append(local)
        return ResolvedValue(kind, out, needs)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _access_root(e):
    while isinstance(e, jast.FieldAccess):
        e = e.receiver
    return e if isinstance(e, jast.Name) else None
