"""Patch application: pattern matching with metavariables, guarded
rewriting of every match site, helper-definition transplantation, and
update(), the one function that runs the whole apply pipeline."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from . import jast, normal, patchgen, sigmap

ALREADY_GUARDED = "AlreadyGuarded"
NO_MATCH = "NoMatch"
NON_STATEMENT_CONTEXT = "NonStatementContext"

_SDK_TOKEN = re.compile(r"\bSDK_INT\b")


@dataclass
class MetaBinding:
    assignments: dict = field(default_factory=dict)  # metavar name -> Expr


@dataclass
class UpdateReport:
    file_path: str = ""
    sites_found: int = 0
    sites_updated: int = 0
    sites_skipped: list = field(default_factory=list)  # of (Span, reason); see to_json_dict
    definitions_copied: list = field(default_factory=list)  # of names

    def to_json_dict(self, text: str) -> dict:
        """`text` is the text the skip spans index: the unit given to
        apply_patch, or the input text for a report from update()."""
        return {
            "file": self.file_path,
            "sitesFound": self.sites_found,
            "sitesUpdated": self.sites_updated,
            "skipped": [{"line": jast.line_of(text, span.start), "reason": reason}
                        for span, reason in self.sites_skipped],
            "copied": list(self.definitions_copied),
        }


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------

def match_statement(pattern: jast.Stmt, stmt: jast.Stmt,
                    expr_metavars=(), ident_metavars=()) -> Optional[MetaBinding]:
    """Structurally unify a pattern statement against a concrete one.

    Identifier metavariables bind only simple names; expression
    metavariables bind any expression; repeated metavariables must bind
    structurally equal fragments.
    """
    binding = MetaBinding()
    if _match_stmt(pattern, stmt, set(expr_metavars), set(ident_metavars), binding):
        return binding
    return None


def _match_stmt(pattern, stmt, expr_mv, ident_mv, binding) -> bool:
    stmt = _unwrap_stmt(stmt)
    pattern = _unwrap_stmt(pattern)
    if type(pattern) is not type(stmt):
        return False
    if isinstance(pattern, jast.ExprStmt):
        return _match_expr(pattern.expr, stmt.expr, expr_mv, ident_mv, binding)
    if isinstance(pattern, jast.Return):
        if (pattern.value is None) != (stmt.value is None):
            return False
        return pattern.value is None or _match_expr(
            pattern.value, stmt.value, expr_mv, ident_mv, binding)
    if isinstance(pattern, jast.LocalVarDecl):
        if pattern.type_name != stmt.type_name or pattern.name != stmt.name:
            return False
        if (pattern.init is None) != (stmt.init is None):
            return False
        return pattern.init is None or _match_expr(
            pattern.init, stmt.init, expr_mv, ident_mv, binding)
    return False


def _unwrap_stmt(s):
    while isinstance(s, jast.Block) and len(s.stmts) == 1:
        s = s.stmts[0]
    return s


def _unwrap_expr(e):
    while isinstance(e, jast.Paren):
        e = e.inner
    return e


def _match_expr(pattern, actual, expr_mv, ident_mv, binding) -> bool:
    pattern = _unwrap_expr(pattern)
    actual = _unwrap_expr(actual)
    if isinstance(pattern, jast.Name):
        name = pattern.identifier
        if name in ident_mv or name in expr_mv:
            if name in ident_mv and not isinstance(actual, jast.Name):
                return False
            bound = binding.assignments.get(name)
            if bound is not None:
                return jast.ast_equal(bound, actual)
            binding.assignments[name] = actual
            return True
    if type(pattern) is not type(actual):
        return False
    if isinstance(pattern, jast.Literal):
        return pattern.lexeme == actual.lexeme
    if isinstance(pattern, jast.Name):
        return pattern.identifier == actual.identifier
    if isinstance(pattern, jast.FieldAccess):
        return (pattern.identifier == actual.identifier
                and _match_expr(pattern.receiver, actual.receiver, expr_mv, ident_mv, binding))
    if isinstance(pattern, jast.MethodCall):
        if pattern.name != actual.name or len(pattern.args) != len(actual.args):
            return False
        if (pattern.receiver is None) != (actual.receiver is None):
            return False
        if pattern.receiver is not None and not _match_expr(
                pattern.receiver, actual.receiver, expr_mv, ident_mv, binding):
            return False
        return all(_match_expr(p, a, expr_mv, ident_mv, binding)
                   for p, a in zip(pattern.args, actual.args))
    if isinstance(pattern, jast.ObjectCreation):
        return (pattern.type_name == actual.type_name
                and len(pattern.args) == len(actual.args)
                and all(_match_expr(p, a, expr_mv, ident_mv, binding)
                        for p, a in zip(pattern.args, actual.args)))
    if isinstance(pattern, jast.Binary):
        return (pattern.op == actual.op
                and _match_expr(pattern.lhs, actual.lhs, expr_mv, ident_mv, binding)
                and _match_expr(pattern.rhs, actual.rhs, expr_mv, ident_mv, binding))
    if isinstance(pattern, jast.Unary):
        return (pattern.op == actual.op
                and _match_expr(pattern.operand, actual.operand, expr_mv, ident_mv, binding))
    if isinstance(pattern, jast.Assign):
        return (_match_expr(pattern.lhs, actual.lhs, expr_mv, ident_mv, binding)
                and _match_expr(pattern.rhs, actual.rhs, expr_mv, ident_mv, binding))
    if isinstance(pattern, jast.Cast):
        return (pattern.type_name == actual.type_name
                and _match_expr(pattern.operand, actual.operand, expr_mv, ident_mv, binding))
    return False


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def substitute_expr(pattern: jast.Expr, binding: MetaBinding,
                    renames: Optional[dict] = None) -> jast.Expr:
    renames = renames or {}
    if isinstance(pattern, jast.Name):
        if pattern.identifier in binding.assignments:
            return binding.assignments[pattern.identifier]
        if pattern.identifier in renames:
            return jast.Name(renames[pattern.identifier])
        return jast.Name(pattern.identifier)
    if isinstance(pattern, jast.Literal):
        return jast.Literal(pattern.kind, pattern.lexeme)
    if isinstance(pattern, jast.FieldAccess):
        return jast.FieldAccess(substitute_expr(pattern.receiver, binding, renames),
                                pattern.identifier)
    if isinstance(pattern, jast.MethodCall):
        recv = (substitute_expr(pattern.receiver, binding, renames)
                if pattern.receiver is not None else None)
        name = renames.get(pattern.name, pattern.name)
        return jast.MethodCall(recv, name,
                               [substitute_expr(a, binding, renames) for a in pattern.args])
    if isinstance(pattern, jast.ObjectCreation):
        tname = renames.get(pattern.type_name, pattern.type_name)
        return jast.ObjectCreation(tname,
                                   [substitute_expr(a, binding, renames) for a in pattern.args])
    if isinstance(pattern, jast.Binary):
        return jast.Binary(pattern.op,
                           substitute_expr(pattern.lhs, binding, renames),
                           substitute_expr(pattern.rhs, binding, renames))
    if isinstance(pattern, jast.Unary):
        return jast.Unary(pattern.op, substitute_expr(pattern.operand, binding, renames))
    if isinstance(pattern, jast.Assign):
        return jast.Assign(substitute_expr(pattern.lhs, binding, renames),
                           substitute_expr(pattern.rhs, binding, renames))
    if isinstance(pattern, jast.Cast):
        return jast.Cast(pattern.type_name,
                         substitute_expr(pattern.operand, binding, renames))
    if isinstance(pattern, jast.Paren):
        return jast.Paren(substitute_expr(pattern.inner, binding, renames))
    if isinstance(pattern, jast.OpaqueExpr):
        return jast.OpaqueExpr(pattern.text)
    raise TypeError("cannot substitute into %r" % (pattern,))


def substitute_stmt(pattern: jast.Stmt, binding: MetaBinding,
                    renames: Optional[dict] = None) -> jast.Stmt:
    renames = renames or {}
    if isinstance(pattern, jast.ExprStmt):
        return jast.ExprStmt(substitute_expr(pattern.expr, binding, renames))
    if isinstance(pattern, jast.Return):
        value = (substitute_expr(pattern.value, binding, renames)
                 if pattern.value is not None else None)
        return jast.Return(value)
    if isinstance(pattern, jast.LocalVarDecl):
        init = (substitute_expr(pattern.init, binding, renames)
                if pattern.init is not None else None)
        return jast.LocalVarDecl(pattern.type_name,
                                 renames.get(pattern.name, pattern.name),
                                 init, set(pattern.modifiers))
    raise TypeError("cannot substitute into %r" % (pattern,))


# ---------------------------------------------------------------------------
# Guard detection
# ---------------------------------------------------------------------------

def already_guarded(site: sigmap.CallSite) -> bool:
    """True iff an enclosing condition textually mentions the SDK_INT token."""
    for stmt in site.stmt_chain:
        if isinstance(stmt, jast.If) and stmt.cond.src and _SDK_TOKEN.search(stmt.cond.src):
            return True
    return False


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------

def apply_patch(patch: patchgen.SemanticPatch, unit: jast.CompilationUnit,
                renames: Optional[dict] = None):
    """Apply the patch at every matching, unguarded site.

    Returns (unit', UpdateReport, patch_temps). The unit must already be
    normalized. Per-site failures become skip entries, never exceptions.
    """
    report = UpdateReport()
    patch_temps = []
    expr_mv = patch.metavar_names("expression")
    ident_mv = patch.metavar_names("identifier")
    ctx_call = patchgen.pattern_call(patch.context)
    temp_counter = normal._fresh_counter(unit.text, normal.PATCH_TEMP_PREFIX)

    edits = []
    handled = set()
    for site in _candidate_sites(unit, ctx_call):
        if already_guarded(site):
            report.sites_found += 1
            report.sites_skipped.append((site.call.span, ALREADY_GUARDED))
            continue
        if site.enclosing_stmt is None:
            report.sites_found += 1
            report.sites_skipped.append((site.call.span, NON_STATEMENT_CONTEXT))
            continue
        stmt = site.enclosing_stmt
        binding = match_statement(patch.context, stmt, expr_mv, ident_mv)
        if binding is None or id(stmt) in handled:
            report.sites_found += 1
            report.sites_skipped.append((site.call.span, NO_MATCH))
            continue
        handled.add(id(stmt))
        report.sites_found += 1
        report.sites_updated += 1

        site_renames = dict(renames or {})
        for s in patch.then_stmts:
            if isinstance(s, jast.LocalVarDecl) and s.name.startswith(normal.PATCH_TEMP_PREFIX):
                fresh = "%s%d" % (normal.PATCH_TEMP_PREFIX, next(temp_counter))
                site_renames[s.name] = fresh
                patch_temps.append(fresh)

        indent = jast.indent_at(unit.text, stmt.span.start)
        nl = unit.newline
        lines = ["if (%s) {" % jast.render_expr(patch.guard_cond)]
        for s in patch.then_stmts:
            concrete = substitute_stmt(s, binding, site_renames)
            lines.append(indent + "    " + jast.render_stmt(concrete))
        lines.append(indent + "} else {")
        lines.append(indent + "    " + stmt.src)
        lines.append(indent + "}")
        edits.append((stmt.span, nl.join(lines)))

    unit2 = jast.edited(unit, edits) if edits else unit
    return unit2, report, patch_temps


def _candidate_sites(unit, ctx_call):
    sig = sigmap.ApiSignature("", ctx_call.name, tuple("?" * len(ctx_call.args)))
    return sigmap.find_invocations(unit, sig)


# ---------------------------------------------------------------------------
# Transplantation
# ---------------------------------------------------------------------------

def transplant_definitions(unit: jast.CompilationUnit, defs, imports=()):
    """Copy helper definitions and imports into the target.

    defs is a sequence of verbatim member texts (methods or classes) from
    a patch @needs@ section. Returns (unit', copied_names, renames) where
    renames maps colliding names to their _androevolve aliases; pass the
    map to apply_patch so inserted lines reference the copied names.
    """
    if not defs and not imports:
        return unit, [], {}
    copied, renames = [], {}
    method_texts, type_texts = [], []
    parsed = jast.parse("\n\n".join(defs)) if defs else None
    new_methods, new_types = [], []
    if parsed is not None:
        for tdecl in parsed.types:
            if tdecl.implicit:
                new_methods.extend(m for m in tdecl.methods if not m.implicit)
            else:
                new_types.append(tdecl)

    existing_methods = {}
    existing_types = {}
    for tdecl, _outer in jast.iter_types(unit):
        if not tdecl.implicit:
            existing_types[tdecl.name] = tdecl
        for m in tdecl.methods:
            existing_methods.setdefault(m.name, set()).add(m.arity)

    for m in new_methods:
        arities = existing_methods.get(m.name, set())
        if m.arity in arities:
            continue  # identical-shape member exists; reuse it
        text = m.src
        name = m.name
        if arities:  # same name, different arity: copy under an alias
            name = m.name + "_androevolve"
            renames[m.name] = name
            text = re.sub(r"\b%s\b" % re.escape(m.name), name, text)
        method_texts.append(text)
        copied.append(name)
    for t in new_types:
        if t.name in existing_types:
            continue
        text = t.src
        name = t.name
        type_texts.append(text)
        copied.append(name)

    # imports: add when absent; on simple-name conflict, qualify references
    existing_imports = set(unit.imports)
    existing_simple = {sigmap.simple_name(i): i for i in unit.imports}
    import_lines = []
    for imp in imports:
        if imp in existing_imports:
            continue
        simple = sigmap.simple_name(imp)
        if simple in existing_simple:
            renames[simple] = imp  # fully qualify to avoid shadowing
            method_texts = [re.sub(r"\b%s\b" % re.escape(simple), imp, t)
                            for t in method_texts]
            type_texts = [re.sub(r"\b%s\b" % re.escape(simple), imp, t)
                          for t in type_texts]
            continue
        import_lines.append("import %s;" % imp)

    nl = unit.newline
    edits = []
    if import_lines:
        pos = unit.header_end
        prefix = nl if pos > 0 else ""
        suffix = "" if pos > 0 else nl
        edits.append((jast.Span(pos, pos), prefix + nl.join(import_lines) + suffix))

    primary = next((t for t in unit.types if not t.implicit), None)
    if method_texts:
        if primary is not None:
            at = primary.body_span.end
            indent = jast.indent_at(unit.text, primary.span.start)
            block = "".join(nl + indent + "    " + t.replace("\n", nl) + nl for t in method_texts)
            edits.append((jast.Span(at, at), block))
        else:
            tail = len(unit.text)
            block = "".join(nl + t.replace("\n", nl) + nl for t in method_texts)
            edits.append((jast.Span(tail, tail), block))
    if type_texts:
        tail = len(unit.text)
        block = "".join(nl + t.replace("\n", nl) + nl for t in type_texts)
        edits.append((jast.Span(tail, tail), block))

    unit2 = jast.edited(unit, edits) if edits else unit
    return unit2, copied, renames


# ---------------------------------------------------------------------------
# The apply pipeline
# ---------------------------------------------------------------------------

def update(text: str, patch: patchgen.SemanticPatch, mapping: sigmap.ApiMapping):
    """Update one target: parse, find sites, normalize, transplant helpers,
    apply the patch and denormalize.

    Returns (out_text, UpdateReport); out_text is `text` itself when no
    site was updated, and the report's skip spans index `text`. Raises
    jast.UnbalancedSource when the text does not parse and
    normal.MultipleUse when a tool temporary cannot be inlined.
    """
    unit = jast.parse(text)
    unit, nmap = normal.normalize(
        unit, sigmap.find_invocations(unit, mapping.deprecated), mapping)
    unit, copied, renames = transplant_definitions(
        unit, patch.needs_defs, patch.needs_imports)
    out, report, patch_temps = apply_patch(patch, unit, renames)
    report.definitions_copied = copied
    report.sites_skipped = [(jast.origin_span(unit, span), reason)
                            for span, reason in report.sites_skipped]
    if report.sites_updated == 0:
        return text, report
    return jast.print_unit(normal.denormalize(out, nmap, patch_temps)), report
