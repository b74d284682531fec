"""Semantic-patch synthesis from an after-update example, plus the patch
file format (.cocci) reader/writer.

A generated patch abstracts the deprecated call into a context pattern
with metavariables, and carries the guarded replacement block as then
statement patterns. Helper definitions the replacement needs are
serialized verbatim in a trailing @needs@ section so application never
touches the example.
"""

from __future__ import annotations

import re
from typing import Optional

from . import dataflow, jast, scope, sigmap

PATCH_TEMP_PREFIX = "newParameterVariable"
# the statement kinds a patch line can be, and so the kinds a pattern matches
PATTERN_STMTS = (jast.ExprStmt, jast.Return, jast.LocalVarDecl)


class ExampleShapeError(Exception):
    """The example lacks the expected if/else deprecated/updated API pair,
    or the patch would use a name that is neither its own nor a target's
    (see _check_names)."""


class ResolutionError(Exception):
    """An updated-call argument could not be resolved to a ground value."""


class MultipleUse(Exception):
    """A tool temporary is used more than once, tool temporaries refer to
    each other in a cycle, or a patch would evaluate an argument that is
    not a plain name more than once; abort the file."""


class MalformedPatch(Exception):
    def __init__(self, message: str, line: int = 0):
        super().__init__("line %d: %s" % (line, message) if line else message)
        self.line = line


class SemanticPatch(jast.Record):
    """Equal to another when both render to the same text (render_patch)."""
    __slots__ = ("rule_name", "metavars", "guard_cond", "then_stmts", "context",
                 "needs_imports", "needs", "added_text", "applied")

    def __init__(self, rule_name: str, metavars: list, guard_cond: jast.Expr,
                 then_stmts: list, context: jast.Stmt, needs_imports: Optional[list] = None,
                 needs: Optional[list] = None):
        self.rule_name = rule_name
        self.metavars = metavars  # of (kind, name), kind in {expression, identifier}
        self.guard_cond = guard_cond
        self.then_stmts = then_stmts  # statement patterns of the guarded branch
        self.context = context  # the deprecated call's statement pattern, kept in the else branch
        self.needs_imports = [] if needs_imports is None else needs_imports
        self.needs = [] if needs is None else needs  # helpers, in @needs@ order
        self.added_text = None  # see added()
        self.applied = None  # what applying it derives from it alone: engine.plan_of

    def added(self) -> list:
        """The text of the guard, then of each then statement, rendered once."""
        if self.added_text is None:
            self.added_text = [jast.render_expr(self.guard_cond)] + list(
                map(jast.render_stmt, self.then_stmts))
        return self.added_text

    def metavar_names(self, kind: str) -> set:
        return {n for k, n in self.metavars if k == kind}

    def __eq__(self, other):
        return isinstance(other, SemanticPatch) and render_patch(self) == render_patch(other)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def generate_patch(example: jast.CompilationUnit, mapping: sigmap.ApiMapping,
                   rewire_shared_args: bool = False) -> SemanticPatch:
    dep_site, upd_site, if_stmt, ctx = _locate_pair(example, mapping)

    # metavariable slot per deprecated argument position
    shared = {arg.identifier: "iden%d" % i  # example variable name -> iden metavar name
              for i, arg in enumerate(dep_site.call.args) if isinstance(arg, jast.Name)}

    if rewire_shared_args:
        ctx.pinned = {name: jast.Name(mv) for name, mv in shared.items()}

    used_exp = []
    dep_receiver = _receiver_name(dep_site)
    context_stmt, context_call = _abstract_stmt(
        dep_site, dep_receiver and jast.Name("classIden"), used_exp,
        args_to=lambda i, a: jast.Name("iden%d" % i))

    temps = []  # a LocalVarDecl pattern per resolved argument

    def upd_arg(j, arg):
        if isinstance(arg, jast.Name) and arg.identifier in shared:
            return jast.Name(shared[arg.identifier])
        rv = dataflow.resolve_expression(arg, ctx)
        if not rv.resolved:
            raise ResolutionError(
                "cannot resolve updated-call argument %r" % jast.render_expr(rv.expr))
        temp = "%s%d" % (PATCH_TEMP_PREFIX, len(temps))
        ptype = sigmap.simple_name(mapping.replacement.param_types[j])
        temps.append(jast.LocalVarDecl(ptype, temp, rv.expr))
        return jast.Name(temp)

    # the deprecated call's receiver is classIden; any other is kept as written
    receiver = _receiver_name(upd_site)
    if receiver is None and dep_receiver is not None:
        raise ResolutionError("the updated call has no receiver, so the patch would drop the "
                              "deprecated call's receiver %r" % dep_receiver)
    updated_stmt, updated_call = _abstract_stmt(
        upd_site, receiver and jast.Name("classIden" if receiver == dep_receiver else receiver),
        used_exp, args_to=upd_arg)

    guard = if_stmt.cond
    if _within(if_stmt.else_block, upd_site.call):  # the guard must hold there
        guard = (jast.Binary(_NEGATED[guard.op], guard.lhs, guard.rhs)
                 if isinstance(guard, jast.Binary) and guard.op in _NEGATED
                 else jast.Unary("!", jast.Paren(guard)))
    metavars = _declared_metavars([context_call, updated_call], used_exp)

    then_stmts = temps + [updated_stmt]
    hunk = _hunk(metavars, guard, then_stmts)
    walked = scope.walk(hunk)  # the one walk of the hunk, which both checks read
    needs = dataflow.collect_dependencies(hunk, ctx, walked)
    _check_names(example, ctx, metavars, then_stmts, walked, needs)
    patch = SemanticPatch("update_%s" % mapping.deprecated.method_name, metavars, guard,
                          then_stmts, context_stmt, needs=needs)
    patch.needs_imports = _needed_imports(example, patch.added() + [d.src for d in needs])
    return patch


def _locate_pair(unit, mapping):
    """Best (deprecated site, updated site, if stmt, updated site's scope).

    When the two signatures share name and arity the calls are textually
    indistinguishable, so candidate pairings are ranked by how well the
    declared types of their arguments agree with the signature parameter
    types; a tie goes to the pairing whose updated site sits in the branch
    the guard's direction names (see _against_guard), then the earliest
    if, then the earliest deprecated site, then the earliest updated site.
    Sites match by name and arity alone, so signatures that share both
    share one walk's site list, and each site's scope is built once."""
    dep, upd = mapping.deprecated, mapping.replacement
    dep_sites = sigmap.find_invocations(unit, dep)
    upd_sites = (dep_sites if (dep.method_name, dep.arity) == (upd.method_name, upd.arity)
                 else sigmap.find_invocations(unit, upd))
    at = {id(s): scope.at_site(s, unit)
          for s in (dep_sites if upd_sites is dep_sites else dep_sites + upd_sites)}
    deps = [(d, _arg_type_score(d, dep, at[id(d)])) for d in dep_sites]
    upds = [(u, _arg_type_score(u, upd, at[id(u)])) for u in upd_sites]
    ranked = [((-(ds + us), _against_guard(s, u), s.start, d.call.start, u.call.start), (d, u, s))
              for d, ds in deps for u, us in upds
              for s in [_separating_if(d, u)] if s is not None]
    if not ranked:
        raise ExampleShapeError("example must pair %s and %s inside one if/else" % (dep, upd))
    d, u, s = min(ranked, key=lambda r: r[0])[1]
    return d, u, s, at[id(u)]


def _separating_if(a, b):
    """The if/else around site a whose other branch holds site b, or None."""
    for s in a.stmt_chain:
        if isinstance(s, jast.If) and s.else_block is not None:
            then, other, x, y = s.then_block, s.else_block, a.call, b.call
            if ((_within(then, x) and _within(other, y))
                    or (_within(then, y) and _within(other, x))):
                return s
    return None


# the guards `SDK_INT >= x`, `SDK_INT > x`, `x <= SDK_INT` and `x < SDK_INT`,
# as (operator, whether SDK_INT is on the left), which hold on newer devices
_NEWER = {(">=", True), (">", True), ("<=", False), ("<", False)}


def _against_guard(if_stmt, upd) -> int:
    """1 where updated site upd sits in the branch of if_stmt that its
    guard gives to older devices: the else branch of a guard in _NEWER, or
    the then branch of its negation (`SDK_INT < x`, ...); else 0, as for
    any other guard."""
    cond = if_stmt.cond
    if not isinstance(cond, jast.Binary) or cond.op not in _NEGATED:
        return 0
    left, right = _is_sdk_int(cond.lhs), _is_sdk_int(cond.rhs)
    if left == right:
        return 0
    return int(((cond.op, left) in _NEWER) != _within(if_stmt.then_block, upd.call))


def _is_sdk_int(e) -> bool:
    """Whether e is `SDK_INT`, bare or qualified (`Build.VERSION.SDK_INT`)."""
    return (isinstance(e, jast.Name) and e.identifier == "SDK_INT"
            or isinstance(e, jast.FieldAccess) and e.identifier == "SDK_INT")


def _within(outer, inner) -> bool:
    """Whether parsed node inner lies inside parsed node outer."""
    return outer.start <= inner.start and inner.end <= outer.end


_NUMERIC = {"byte", "short", "int", "long", "float", "double"}
_LITERAL_TYPES = {"int": _NUMERIC, "float": _NUMERIC, "string": {"String"}}
_NEGATED = {"<": ">=", ">=": "<", ">": "<=", "<=": ">"}  # a guard's negation


def _arg_type_score(site, sig, at):
    """Count arguments whose type agrees with the signature: a name's
    declared type at the site's scope at, T for `new T(...)`, String for a
    string literal, and any primitive numeric type for a numeric literal."""
    score = 0
    for arg, ptype in zip(site.call.args, sig.param_types):
        ptype = sigmap.simple_name(ptype)
        if isinstance(arg, jast.Literal):
            score += ptype in _LITERAL_TYPES.get(arg.kind, ())
        elif isinstance(arg, jast.Name):
            score += sigmap.simple_name(at.declared_type(arg.identifier) or "") == ptype
        elif isinstance(arg, jast.ObjectCreation):
            score += sigmap.simple_name(arg.type_name.split("<")[0]) == ptype
    return score


def _receiver_name(site):
    """The name that is the receiver of the site's call, or None for a call
    without one; raises ExampleShapeError for any other receiver."""
    receiver = site.call.receiver
    if receiver is not None and not isinstance(receiver, jast.Name):
        raise ExampleShapeError(
            "unsupported receiver %r on example call" % jast.render_expr(receiver))
    return receiver and receiver.identifier


def _abstract_stmt(site, pat_recv, used_exp, args_to):
    """Abstract a call statement into a pattern: the receiver is pat_recv,
    arguments go via args_to, an assignment/declaration left side -> exp0.
    Returns (the pattern statement, its call)."""
    call = site.call
    pat_call = jast.MethodCall(pat_recv, call.name,
                               [args_to(i, a) for i, a in enumerate(call.args)])

    stmt = site.enclosing_stmt
    if isinstance(stmt, jast.ExprStmt) and stmt.expr is call:
        return jast.ExprStmt(pat_call), pat_call
    if (isinstance(stmt, jast.ExprStmt) and isinstance(stmt.expr, jast.Assign)
            and stmt.expr.rhs is call) or (isinstance(stmt, jast.LocalVarDecl)
                                           and stmt.init is call):
        if "exp0" not in used_exp:
            used_exp.append("exp0")
        return jast.ExprStmt(jast.Assign(jast.Name("exp0"), pat_call)), pat_call
    if isinstance(stmt, jast.Return) and stmt.value is call:
        return jast.Return(pat_call), pat_call
    raise ExampleShapeError(
        "unsupported statement shape around example call: %r" % (stmt.src,))


def _declared_metavars(calls, used_exp):
    """The metavariables of the pattern calls, whose receiver and arguments
    are names or absent, read off them without a walk."""
    idents = {e.identifier for c in calls for e in [c.receiver] + c.args if type(e) is jast.Name
              and (re.match(r"^iden\d+$", e.identifier) or e.identifier == "classIden")}
    return [("expression", n) for n in used_exp] + [
        ("identifier", n) for n in sorted(idents, key=lambda n: (n == "classIden", n))]


def _check_names(example, ctx, metavars, then_stmts, walked, needs):
    """Raise ExampleShapeError at the first name of the guard or then
    statements that is neither the patch's own (a metavariable, temporary
    or need, or an import by name, which _needed_imports carries or
    refuses) nor one the example leaves to a target: not a variable of its
    method at ctx, a carried field with no value, `this` or a type around
    ctx, nor, with a wildcard static import, a name (not a receiver) or
    receiver-less call. walked is scope.walk of the hunk (_hunk): the then
    statements' nodes, then the guard's, which are read first."""
    own = {n for _k, n in metavars} | {s.name for s in then_stmts if is_patch_temp(s)}
    unset = {d.name for d in needs if type(d) is jast.FieldDecl and d.initializer is None}
    exprs = walked[-1] + [e for nodes in walked[:-1] for e in nodes]
    names = [e.identifier if type(e) is jast.Name else e.type_name.split("<")[0]
             for e in exprs if type(e) is jast.Name or type(e) is jast.ObjectCreation]
    variables = ctx.defined_names()
    for name in dict.fromkeys(names):  # in order, each once
        what = None if name in own else (
            "a variable of the example's method" if name in variables
            else "a parameter of the example's method" if ctx.parameter(name) is not None
            else "a field of the example with no initializer" if name in unset
            else "the example's own object" if name == "this"
            else "the example's own class" if any(t.name == name for t in ctx.types) else None)
        if what is not None:
            raise ExampleShapeError("the patch would use %s, %s, which a target does not share"
                                    % (name, what))
    wildcard = next((i for i in example.static_imports if i.endswith(".*")), None)
    if wildcard is None:
        return
    own.update([sigmap.simple_name(i) for i in example.imports] + [
        (d.name, d.arity) if isinstance(d, jast.MethodDecl) else d.name for d in needs])
    receivers = {id(e.receiver) for e in exprs if type(e) in (jast.FieldAccess, jast.MethodCall)}
    for e in exprs:
        if (type(e) is jast.Name and id(e) not in receivers and e.identifier not in own
                or type(e) is jast.MethodCall and e.receiver is None
                and not {e.name, (e.name, len(e.args))} & own):
            raise ExampleShapeError("the patch would use %s, which only the example's "
                                    "'import static %s;' declares, and @needs@ cannot carry it"
                                    % (jast.render_expr(e), wildcard))


def _needed_imports(example, texts):
    """The example's imports whose simple name occurs in one of texts.
    @needs@ holds plain imports only, so such a static import raises
    ExampleShapeError."""
    blob = "\n".join(texts)
    # \bname\b with the name first, so that re finds it by a literal search
    out = [imp for imp in example.imports for simple in [sigmap.simple_name(imp)]
           if simple != "*" and re.search(r"{0}(?<=\b{0})\b".format(re.escape(simple)), blob)]
    static = next((imp for imp in out if imp in example.static_imports), None)
    if static is not None:
        raise ExampleShapeError("the patch would use %s from the example's 'import static "
                                "%s;', which @needs@ cannot carry"
                                % (sigmap.simple_name(static), static))
    return out


# ---------------------------------------------------------------------------
# Rendering / parsing of the patch format
# ---------------------------------------------------------------------------

def render_patch(p: SemanticPatch) -> str:
    lines = ["@%s@" % p.rule_name]
    for kind in ("expression", "identifier"):
        names = [n for k, n in p.metavars if k == kind]
        if names:
            lines.append("%s %s;" % (kind, ", ".join(names)))
    lines += ["@@", "...", "+ if (%s) {" % p.added()[0]] + ["+ " + t for t in p.added()[1:]]
    lines += ["+ } else {", jast.render_stmt(p.context), "+ }"]
    if p.needs_imports or p.needs:
        lines += ["@needs@"] + ["import %s;" % imp for imp in p.needs_imports]
        for d in p.needs:
            lines += ["", d.src]
    return "\n".join(lines) + "\n"


def parse_patch(text: str) -> SemanticPatch:
    lines = text.splitlines()
    if not lines or not re.match(r"^@[\w]+@$", lines[0].strip()):
        raise MalformedPatch("expected @rulename@ header", 1)
    rule_name = lines[0].strip().strip("@")

    metavars = []
    i = 1
    while i < len(lines) and lines[i].strip() != "@@":
        m = re.match(r"^\s*(expression|identifier)\s+(.+);\s*$", lines[i])
        if not m:
            raise MalformedPatch("expected metavariable declaration or @@", i + 1)
        for name in m.group(2).split(","):
            name = name.strip()
            if not re.match(r"^[A-Za-z_$][\w$]*$", name):
                raise MalformedPatch("bad metavariable name %r" % name, i + 1)
            metavars.append((m.group(1), name))
        i += 1
    if i >= len(lines):
        raise MalformedPatch("missing @@ separator", len(lines))
    i += 1

    end = next((k for k in range(i, len(lines)) if lines[k].strip() == "@needs@"), len(lines))
    for k in range(i, end):  # a '-' line is reported before any other fault
        if lines[k].strip().startswith("-"):
            raise MalformedPatch("'-' lines are not supported; the deprecated call "
                                 "is the unprefixed context line", k + 1)

    needs_imports = []
    for ln in lines[end + 1:]:  # the @needs@ section: its leading imports, then the body
        m = re.match(r"^\s*import\s+([\w.]+)\s*;\s*$", ln)
        if m is None:
            break
        needs_imports.append(m.group(1))
    first_line = end + 2 + len(needs_imports)
    blob = "\n".join(lines[first_line - 1:])
    needs = _split_defs(blob, first_line) if blob.strip() else []
    guard, then_stmts, context, then_lines = _read_hunk(lines, i, end)
    hunk = _hunk(metavars, guard, then_stmts)
    walked = scope.walk(hunk)  # the one walk of the hunk, which both checks read
    _check_temps(then_stmts, then_lines, walked)
    patch = SemanticPatch(rule_name, metavars, guard, then_stmts, context, needs_imports, needs)
    _check_needs_used(patch, hunk, walked, blob, first_line)
    return patch


def _split_defs(blob: str, first_line: int) -> list:
    """The helper classes, methods and fields of a @needs@ section, which
    starts on line first_line, in source order. Anything else there would
    be dropped, so it is a fault; a lone `;`, Java's empty declaration,
    is not."""
    try:
        unit = jast.parse(blob)
    except jast.ParseError as exc:
        raise MalformedPatch("unparsable @needs@ section: %s" % exc)
    defs = []
    stray = [jast._lex(blob)[2][0]] if unit.header_end else []  # package or import
    for tdecl in unit.types:
        if not tdecl.implicit:
            defs.append(tdecl)
            continue
        defs += tdecl.fields + [m for m in tdecl.methods if not m.implicit]
        stray += [s.start for m in tdecl.methods if m.implicit
                  for s in m.body if s.src != ";"]
    if stray:
        line = jast.line_of(blob, stray[0])
        raise MalformedPatch("@needs@ line %r is not a field, method or class"
                             % blob.split("\n")[line - 1].strip(), first_line - 1 + line)
    return sorted(defs, key=lambda d: d.start)


def _check_needs_used(p: SemanticPatch, hunk, walked, blob: str, first_line: int):
    """Reject a @needs@ member that the guard and then statements, the
    hunk whose scope.walk is walked, do not reach through scope.references
    (qualified), since it would be copied into every updated target for
    nothing. The members are parsed from blob, which starts on line
    first_line."""
    if not p.needs:
        return
    methods = {(d.name, d.arity): d for d in p.needs if isinstance(d, jast.MethodDecl)}
    types = {d.name: d for d in p.needs if isinstance(d, jast.TypeDecl)}
    fields = {d.name: d for d in p.needs if isinstance(d, jast.FieldDecl)}
    refs = scope.references(hunk, methods, types, fields, qualified=True, walked=walked)
    used = {id(u) for u in scope.closure(refs, methods, types, fields, qualified=True)}
    for d in p.needs:
        if id(d) not in used:
            raise MalformedPatch("@needs@ member %s is never used" % d.name,
                                 first_line - 1 + jast.line_of(blob, d.start))


def _hunk(metavars, guard, then_stmts) -> jast.MethodDecl:
    """The patch's added lines as one method: the then statements, then the
    guard, with the metavariables as its parameters, so that their names,
    like the temporaries', are no uses in scope.references."""
    return jast.MethodDecl(frozenset(), "", "", [("", n) for _k, n in metavars],
                           body=then_stmts + [jast.ExprStmt(guard)])


def pattern_call(stmt):
    """The first method call in a pattern statement, or None."""
    for root in jast.stmt_exprs(stmt):
        for e in jast.iter_exprs(root):
            if isinstance(e, jast.MethodCall):
                return e
    return None


def pattern_names(stmt) -> list:
    """Every simple name in a pattern statement, in source order."""
    return [e.identifier for root in jast.stmt_exprs(stmt) for e in jast.iter_exprs(root)
            if isinstance(e, jast.Name)]


def is_patch_temp(stmt) -> bool:
    """True for a then-branch `newParameterVariable<N>` declaration, which
    the engine renders inline at its one use."""
    return (isinstance(stmt, jast.LocalVarDecl)
            and stmt.name.startswith(PATCH_TEMP_PREFIX))


def _read_hunk(lines, start: int, end: int):
    """(guard, then statements, context, the then statements' line
    numbers) of the hunk lines[start:end], which hold no '-' line; raises
    at the first fault, in line order."""
    guard = context = None
    seen_else = False
    then_stmts, then_lines = [], []
    for line in range(start + 1, end + 1):
        raw = lines[line - 1].strip()
        if not raw or raw == "...":
            continue
        add = raw.startswith("+")
        text = raw[1:].strip() if add else raw
        if guard is None:
            m = re.match(r"^if\s*\((.*)\)\s*\{$", text)
            if not add or not m:
                raise MalformedPatch("hunk must open with '+ if (<guard>) {'", line)
            try:
                guard = jast.parse_expr_text(m.group(1))
            except jast.ParseError:
                raise MalformedPatch("unparsable guard condition %r" % m.group(1), line)
        elif add and text in ("} else {", "}"):
            seen_else |= text == "} else {"
        else:
            try:
                stmt = jast.parse_stmt_text(text)
            except jast.ParseError:
                stmt = None
            if type(stmt) not in PATTERN_STMTS:
                raise MalformedPatch("pattern line %r is not one expression, declaration "
                                     "or return statement" % text, line)
            if add and seen_else:
                raise MalformedPatch("'+' statement after '+ } else {' is not supported; "
                                     "the else branch keeps the original statement", line)
            if add:
                then_stmts.append(stmt)
                then_lines.append(line)
            elif context is not None:
                raise MalformedPatch("multiple context lines", line)
            elif pattern_call(stmt) is None:
                raise MalformedPatch("context line %r carries no method call" % text, line)
            else:
                context = stmt
    if guard is None:
        raise MalformedPatch("empty hunk", start + 1)
    if context is None:
        raise MalformedPatch("missing context line", start + 1)
    if not seen_else:
        raise MalformedPatch("missing '+ } else {' line", start + 1)
    return guard, then_stmts, context, then_lines


def _check_temps(then_stmts, then_lines, walked):
    """Every patch temporary must have an initializer and be used exactly
    once, on a later then-branch line, so that it can be rendered inline.
    walked is scope.walk of the hunk (_hunk), the then statements first."""
    names = [[e.identifier for e in nodes if type(e) is jast.Name] for nodes in walked[:-1]]
    for i, stmt in enumerate(then_stmts):
        if not is_patch_temp(stmt):
            continue
        before = [then_lines[k] for k in range(i + 1) if stmt.name in names[k]]
        after = [then_lines[k] for k in range(i + 1, len(names))
                 for n in names[k] if n == stmt.name]
        if stmt.init is None:
            raise MalformedPatch("temporary %s has no initializer" % stmt.name, then_lines[i])
        if before:
            raise MalformedPatch("temporary %s is used before its declaration"
                                 % stmt.name, before[0])
        if len(after) != 1:
            raise MalformedPatch("temporary %s is used %d times; it must be used once"
                                 % (stmt.name, len(after)), after[1] if after else then_lines[i])
