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
    fields = scope.fields(unit)
    seen = []
    work = list(v.needs)
    while work:
        d = work.pop(0)
        if any(x is d for x in seen):
            continue
        seen.append(d)
        for ref in scope.references(d, methods, types, fields):
            if not any(x is ref for x in seen):
                work.append(ref)
    return seen


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
        if isinstance(e, jast.MethodCall):
            return self._resolve_call(e, ctx, visited)
        if isinstance(e, jast.ObjectCreation):
            return self._resolve_creation(e, ctx, visited)
        if isinstance(e, jast.Paren):
            inner = self.resolve(e.inner, ctx, visited)
            if inner.kind == UNRESOLVED:
                return ResolvedValue(UNRESOLVED, e)
            return ResolvedValue(inner.kind, jast.Paren(inner.expr), inner.needs)
        if isinstance(e, (jast.Binary, jast.Unary, jast.Cast)):
            return self._resolve_compound(e, ctx, visited)
        return ResolvedValue(UNRESOLVED, e)

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

    def _resolve_call(self, e, ctx, visited) -> ResolvedValue:
        # a variable or operator receiver is chased; a receiver that names
        # a type or a static member stays as written
        receiver = e.receiver
        if isinstance(receiver, jast.Name):
            chase = ctx.is_variable(receiver.identifier)
        else:
            chase = receiver is not None and not isinstance(receiver, jast.FieldAccess)
        resolved = self._resolve_all(([receiver] if chase else []) + e.args, ctx, visited)
        if resolved is None:
            return ResolvedValue(UNRESOLVED, e)
        args, needs = resolved
        if chase:
            receiver = guard_receiver(args.pop(0))
        local = self.methods.get((e.name, len(e.args))) if receiver is None else None
        if local is not None:
            needs.append(local)
        return ResolvedValue(METHOD_INVOCATION,
                             jast.MethodCall(receiver, e.name, args), needs)

    def _resolve_creation(self, e, ctx, visited) -> ResolvedValue:
        resolved = self._resolve_all(e.args, ctx, visited)
        if resolved is None:
            return ResolvedValue(UNRESOLVED, e)
        args, needs = resolved
        local = self.types.get(e.type_name.split("<")[0])
        if local is not None:
            needs.append(local)
        return ResolvedValue(OBJECT_CREATION,
                             jast.ObjectCreation(e.type_name, args), needs)

    def _resolve_all(self, exprs, ctx, visited):
        """(resolved forms, their needs) of exprs, or None as soon as one
        is Unresolved."""
        out, needs = [], []
        for x in exprs:
            v = self.resolve(x, ctx, visited)
            if v.kind == UNRESOLVED:
                return None
            out.append(v.expr)
            needs.extend(v.needs)
        return out, needs

    def _resolve_compound(self, e, ctx, visited) -> ResolvedValue:
        # arithmetic is never folded; operands are grounded in place,
        # parenthesized where inlining would change the parse
        if isinstance(e, jast.Binary):
            lv = self.resolve(e.lhs, ctx, visited)
            rv = self.resolve(e.rhs, ctx, visited)
            operands = (lv, rv)
            out = jast.Binary(e.op,
                              guard_operand(lv.expr, e.op, right=False),
                              guard_operand(rv.expr, e.op, right=True))
        else:
            ov = self.resolve(e.operand, ctx, visited)
            operands = (ov,)
            if isinstance(e, jast.Unary):
                out = jast.Unary(e.op, guard_tight(ov.expr, unary=True))
            else:
                out = jast.Cast(e.type_name, guard_tight(ov.expr))
        kinds = {v.kind for v in operands}
        if UNRESOLVED in kinds:
            return ResolvedValue(UNRESOLVED, e)
        # an operand holds a call exactly when it resolved to one, or to
        # arithmetic over one; its kind says so without walking its tree
        has_call = bool(kinds & {METHOD_INVOCATION, OBJECT_CREATION})
        kind = METHOD_INVOCATION if has_call else STATIC_MEMBER
        return ResolvedValue(kind, out, [d for v in operands for d in v.needs])


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def guard_operand(e, op, right):
    """Parenthesize an inlined operand when leaving it bare would bind it
    differently than the definition it came from."""
    if isinstance(e, jast.Assign):
        return jast.Paren(e)
    if isinstance(e, jast.Binary):
        outer = jast.BINARY_LEVEL.get(op, -1)
        inner = jast.BINARY_LEVEL.get(e.op, -1)
        if inner < outer or (inner == outer and right):
            return jast.Paren(e)
    return e


def guard_tight(e, unary=False):
    """Parenthesize a binary or assignment operand of a unary op or cast,
    and a unary operand of a unary op (`-(-x)`, not the decrement `--x`)."""
    if isinstance(e, (jast.Binary, jast.Assign)) or (unary and isinstance(e, jast.Unary)):
        return jast.Paren(e)
    return e


def guard_receiver(e):
    """Parenthesize an operator expression that becomes a call or field
    receiver (`(a + b).length()`, not `a + b.length()`)."""
    if isinstance(e, (jast.Binary, jast.Assign, jast.Unary, jast.Cast)):
        return jast.Paren(e)
    return e


def _access_root(e):
    while isinstance(e, jast.FieldAccess):
        e = e.receiver
    return e if isinstance(e, jast.Name) else None
