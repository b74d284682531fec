"""Bottom-up def-use resolution of expressions to ground forms.

A ground form is a literal, a static member, a method invocation, or an
object creation whose free identifiers are all static roots or type
names. Names are chased through the nearest preceding local definition
in source order, then through fields of the enclosing (and outer)
types. Anything else resolves to Unresolved, which callers treat as an
in-band outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import jast

LITERAL = "Literal"
STATIC_MEMBER = "StaticMember"
METHOD_INVOCATION = "MethodInvocation"
OBJECT_CREATION = "ObjectCreation"
UNRESOLVED = "Unresolved"


@dataclass
class ResolutionContext:
    enclosing_method: Optional[jast.MethodDecl]
    enclosing_type: jast.TypeDecl
    unit: jast.CompilationUnit
    anchor_stmt: Optional[jast.Stmt]
    outer_types: tuple = ()  # enclosing type chain, outermost first
    pinned: dict = field(default_factory=dict)  # name -> replacement Expr


@dataclass
class ResolvedValue:
    kind: str
    expr: jast.Expr
    needs: list = field(default_factory=list)  # MethodDecl / TypeDecl from the unit


def resolve_expression(e: jast.Expr, ctx: ResolutionContext) -> ResolvedValue:
    return _Resolver(ctx).resolve(e, ctx, frozenset())


def collect_dependencies(v: ResolvedValue, unit: jast.CompilationUnit) -> list:
    """Transitive closure of unit-local definitions reachable from v."""
    methods, types = _unit_defs(unit)
    seen = []
    work = list(v.needs)
    while work:
        d = work.pop(0)
        if any(x is d for x in seen):
            continue
        seen.append(d)
        for ref in _referenced_defs(d, methods, types):
            if not any(x is ref for x in seen):
                work.append(ref)
    return seen


class _Resolver:
    def __init__(self, root_ctx: ResolutionContext):
        self.unit = root_ctx.unit
        self.methods, self.types = _unit_defs(root_ctx.unit)

    def resolve(self, e, ctx, visited) -> ResolvedValue:
        if isinstance(e, jast.Literal):
            return ResolvedValue(LITERAL, e)
        if isinstance(e, jast.Name):
            return self._resolve_name(e, ctx, visited)
        if isinstance(e, jast.FieldAccess):
            root = _access_root(e)
            if root is None:
                return ResolvedValue(UNRESOLVED, e)
            if self._is_variable(root.identifier, ctx):
                # a field read off a local object: no object model
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

        found = self._preceding_definition(name, ctx)
        if found is not None:
            value, def_ctx = found
            if value is None:
                return ResolvedValue(UNRESOLVED, e)
            # cycle guard keyed on the definition site, so a chain of
            # reassignments through distinct statements still resolves
            key = id(def_ctx.anchor_stmt)
            if key in visited:
                return ResolvedValue(UNRESOLVED, e)
            return self.resolve(value, def_ctx, visited | {key})

        if ctx.enclosing_method is not None and any(
                p[1] == name for p in ctx.enclosing_method.params):
            return ResolvedValue(UNRESOLVED, e)

        for tdecl in (ctx.enclosing_type,) + tuple(reversed(ctx.outer_types)):
            for fdecl in tdecl.fields:
                if fdecl.name != name:
                    continue
                if fdecl.initializer is None or id(fdecl) in visited:
                    return ResolvedValue(UNRESOLVED, e)
                fctx = ResolutionContext(None, tdecl, ctx.unit, None,
                                         outer_types=ctx.outer_types,
                                         pinned=ctx.pinned)
                return self.resolve(fdecl.initializer, fctx, visited | {id(fdecl)})
        return ResolvedValue(UNRESOLVED, e)

    def _preceding_definition(self, name, ctx):
        """Nearest definition of name before ctx.anchor_stmt, walking
        enclosing blocks innermost-first. Returns (value_expr, ctx) or None."""
        if ctx.enclosing_method is None or ctx.anchor_stmt is None:
            return None
        path = _stmt_path(ctx.enclosing_method.body, ctx.anchor_stmt)
        if path is None:
            return None
        for stmts, idx in reversed(path):
            for s in reversed(stmts[:idx]):
                value = _defines(s, name)
                if value is not None:
                    new_ctx = ResolutionContext(
                        ctx.enclosing_method, ctx.enclosing_type, ctx.unit, s,
                        outer_types=ctx.outer_types, pinned=ctx.pinned)
                    return value if value is not _NO_INIT else None, new_ctx
        return None

    def _is_variable(self, name, ctx) -> bool:
        if self._preceding_definition(name, ctx) is not None:
            return True
        if ctx.enclosing_method is not None and any(
                p[1] == name for p in ctx.enclosing_method.params):
            return True
        for tdecl in (ctx.enclosing_type,) + tuple(reversed(ctx.outer_types)):
            if any(f.name == name for f in tdecl.fields):
                return True
        return False

    # -- composite forms -------------------------------------------------------

    def _resolve_call(self, e, ctx, visited) -> ResolvedValue:
        needs = []
        receiver = e.receiver
        if isinstance(receiver, jast.Name) and self._is_variable(receiver.identifier, ctx):
            rv = self.resolve(receiver, ctx, visited)
            if rv.kind == UNRESOLVED:
                return ResolvedValue(UNRESOLVED, e)
            receiver = guard_receiver(rv.expr)
            needs.extend(rv.needs)
        elif receiver is not None and not isinstance(receiver, (jast.Name, jast.FieldAccess)):
            rv = self.resolve(receiver, ctx, visited)
            if rv.kind == UNRESOLVED:
                return ResolvedValue(UNRESOLVED, e)
            receiver = guard_receiver(rv.expr)
            needs.extend(rv.needs)

        args = []
        for a in e.args:
            av = self.resolve(a, ctx, visited)
            if av.kind == UNRESOLVED:
                return ResolvedValue(UNRESOLVED, e)
            args.append(av.expr)
            needs.extend(av.needs)

        if e.receiver is None:
            local = self.methods.get((e.name, len(e.args)))
            if local is not None:
                needs.append(local)
        return ResolvedValue(METHOD_INVOCATION,
                             jast.MethodCall(receiver, e.name, args), needs)

    def _resolve_creation(self, e, ctx, visited) -> ResolvedValue:
        needs = []
        args = []
        for a in e.args:
            av = self.resolve(a, ctx, visited)
            if av.kind == UNRESOLVED:
                return ResolvedValue(UNRESOLVED, e)
            args.append(av.expr)
            needs.extend(av.needs)
        local = self.types.get(e.type_name.split("<")[0])
        if local is not None and not local.implicit:
            needs.append(local)
        return ResolvedValue(OBJECT_CREATION,
                             jast.ObjectCreation(e.type_name, args), needs)

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

_PRECEDENCE = {  # the binary operators jast parses, loosest first
    "||": 1, "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, ">": 4, "<=": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}


def guard_operand(e, op, right):
    """Parenthesize an inlined operand when leaving it bare would bind it
    differently than the definition it came from."""
    if isinstance(e, jast.Assign):
        return jast.Paren(e)
    if isinstance(e, jast.Binary):
        outer = _PRECEDENCE.get(op, 0)
        inner = _PRECEDENCE.get(e.op, 0)
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


_NO_INIT = object()


def _defines(s, name):
    """Value a statement assigns to name, _NO_INIT for a bare declaration,
    or None when the statement does not define name."""
    if isinstance(s, jast.LocalVarDecl) and s.name == name:
        return s.init if s.init is not None else _NO_INIT
    if isinstance(s, jast.ExprStmt) and isinstance(s.expr, jast.Assign):
        lhs = s.expr.lhs
        if isinstance(lhs, jast.Name) and lhs.identifier == name:
            return s.expr.rhs
    return None


def _stmt_path(stmts, target):
    """Path of (stmt_list, index) levels from the outer body down to the
    block containing target; None when target is not found."""
    for i, s in enumerate(stmts):
        if s is target:
            return [(stmts, i)]
        for inner in jast.child_stmts(s):
            inner_list = inner.stmts if isinstance(inner, jast.Block) else [inner]
            sub = _stmt_path(inner_list, target)
            if sub is not None:
                return [(stmts, i)] + sub
    return None


def _access_root(e):
    while isinstance(e, jast.FieldAccess):
        e = e.receiver
    return e if isinstance(e, jast.Name) else None


def _unit_defs(unit):
    methods = {}
    types = {}
    for tdecl, _outer in jast.iter_types(unit):
        if not tdecl.implicit:
            types[tdecl.name] = tdecl
        for m in tdecl.methods:
            if not m.implicit:
                methods[(m.name, m.arity)] = m
    return methods, types


def _referenced_defs(d, methods, types):
    """Unit-local methods/types referenced from a definition's body."""
    refs = []
    stmts = d.body if isinstance(d, jast.MethodDecl) else []
    exprs = []
    if isinstance(d, jast.TypeDecl):
        for m in d.methods:
            refs.extend(_referenced_defs(m, methods, types))
        for f in d.fields:
            if f.initializer is not None:
                exprs.append(f.initializer)
    for stmt, _chain in jast.iter_statements(stmts):
        exprs.extend(jast.stmt_exprs(stmt))
        if isinstance(stmt, jast.LocalVarDecl) and stmt.type_name in types:
            refs.append(types[stmt.type_name])
    for root in exprs:
        for e in jast.iter_exprs(root):
            if isinstance(e, jast.MethodCall) and e.receiver is None:
                m = methods.get((e.name, len(e.args)))
                if m is not None:
                    refs.append(m)
            if isinstance(e, jast.ObjectCreation):
                t = types.get(e.type_name.split("<")[0])
                if t is not None:
                    refs.append(t)
            if isinstance(e, jast.Name) and e.identifier in types:
                refs.append(types[e.identifier])
    return refs


def context_for_site(site, unit) -> ResolutionContext:
    """ResolutionContext for a call site found by sigmap."""
    outer = _outer_chain(unit, site.enclosing_type)
    return ResolutionContext(site.enclosing_method, site.enclosing_type,
                             unit, site.enclosing_stmt, outer_types=outer)


def _outer_chain(unit, tdecl):
    for t, chain in jast.iter_types(unit):
        if t is tdecl:
            return chain
    return ()
