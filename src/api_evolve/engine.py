"""Patch application: pattern matching with metavariables, guarded
rewriting of every match site, helper-definition transplantation, and
update(), the one function that runs the whole apply pipeline."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from . import dataflow, jast, normal, patchgen, sigmap

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
        """`text` is the input text, which the skip spans index."""
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
    """Instantiate a pattern expression, parenthesizing a bound operand or
    receiver where leaving it bare would change how it binds."""
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
        return jast.FieldAccess(dataflow.guard_receiver(
            substitute_expr(pattern.receiver, binding, renames)), pattern.identifier)
    if isinstance(pattern, jast.MethodCall):
        recv = (dataflow.guard_receiver(substitute_expr(pattern.receiver, binding, renames))
                if pattern.receiver is not None else None)
        name = renames.get(pattern.name, pattern.name)
        return jast.MethodCall(recv, name,
                               [substitute_expr(a, binding, renames) for a in pattern.args])
    if isinstance(pattern, jast.ObjectCreation):
        tname = renames.get(pattern.type_name, pattern.type_name)
        return jast.ObjectCreation(tname,
                                   [substitute_expr(a, binding, renames) for a in pattern.args])
    if isinstance(pattern, jast.Binary):
        lhs = substitute_expr(pattern.lhs, binding, renames)
        rhs = substitute_expr(pattern.rhs, binding, renames)
        return jast.Binary(pattern.op, dataflow.guard_operand(lhs, pattern.op, right=False),
                           dataflow.guard_operand(rhs, pattern.op, right=True))
    if isinstance(pattern, jast.Unary):
        return jast.Unary(pattern.op, dataflow.guard_tight(
            substitute_expr(pattern.operand, binding, renames), unary=True))
    if isinstance(pattern, jast.Assign):
        return jast.Assign(substitute_expr(pattern.lhs, binding, renames),
                           substitute_expr(pattern.rhs, binding, renames))
    if isinstance(pattern, jast.Cast):
        return jast.Cast(pattern.type_name, dataflow.guard_tight(
            substitute_expr(pattern.operand, binding, renames)))
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
        return jast.LocalVarDecl(pattern.type_name, pattern.name, init,
                                 set(pattern.modifiers))
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
    """Plan the patch at every matching, unguarded site.

    Returns (edits, UpdateReport); the edits are (Span, text) pairs against
    unit.text. The context call's argument metavariables bind the argument
    expressions, and each patch temporary is rendered inline at
    its one use. Per-site failures become skip entries, never exceptions;
    normal.MultipleUse is raised when the then branch would evaluate an
    argument that is not a plain name more than once.
    """
    report = UpdateReport()
    ctx_call = patchgen.pattern_call(patch.context)
    ident_mv = patch.metavar_names("identifier")
    arg_mv = {a.identifier for a in ctx_call.args
              if isinstance(a, jast.Name) and a.identifier in ident_mv}
    expr_mv = patch.metavar_names("expression") | arg_mv
    then_uses = Counter(n for s in patch.then_stmts for n in patchgen.pattern_names(s))
    reused = sorted(mv for mv in arg_mv if then_uses[mv] > 1)
    sig = sigmap.ApiSignature("", ctx_call.name, ("?",) * len(ctx_call.args))

    edits = []
    handled = set()
    for site in sigmap.find_invocations(unit, sig):
        if already_guarded(site):
            report.sites_found += 1
            report.sites_skipped.append((site.call.span, ALREADY_GUARDED))
            continue
        if site.enclosing_stmt is None:
            report.sites_found += 1
            report.sites_skipped.append((site.call.span, NON_STATEMENT_CONTEXT))
            continue
        stmt = site.enclosing_stmt
        binding = match_statement(patch.context, stmt, expr_mv, ident_mv - arg_mv)
        if binding is None or id(stmt) in handled:
            report.sites_found += 1
            report.sites_skipped.append((site.call.span, NO_MATCH))
            continue
        for mv in reused:
            arg = binding.assignments[mv]
            if not isinstance(arg, jast.Name):
                raise normal.MultipleUse("line %d: the then branch would evaluate %s %d times"
                                         % (jast.line_of(unit.text, arg.span.start),
                                            arg.src, then_uses[mv]))
        handled.add(id(stmt))
        report.sites_found += 1
        report.sites_updated += 1

        indent = jast.indent_at(unit.text, stmt.span.start)
        lines = ["if (%s) {" % jast.render_expr(patch.guard_cond)]
        for s in patch.then_stmts:
            if patchgen.is_patch_temp(s):
                binding.assignments[s.name] = substitute_expr(s.init, binding, renames)
                continue
            concrete = substitute_stmt(s, binding, renames)
            lines.append(indent + "    " + jast.render_stmt(concrete))
        lines.append(indent + "} else {")
        lines.append(indent + "    " + stmt.src)
        lines.append(indent + "}")
        edits.append((stmt.span, unit.newline.join(lines)))
    return edits, report


# ---------------------------------------------------------------------------
# Transplantation
# ---------------------------------------------------------------------------

def transplant_definitions(unit: jast.CompilationUnit, defs, imports=()):
    """Copy helper definitions and imports into the target.

    defs is a sequence of verbatim member texts (methods or classes) from
    a patch @needs@ section. Returns (edits, copied_names, renames): the
    edits are (Span, text) pairs against unit.text, and renames maps
    colliding names to their _androevolve aliases; pass the map to
    apply_patch so inserted lines reference the copied names.
    """
    if not defs and not imports:
        return [], [], {}
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
        if t.name not in existing_types:
            type_texts.append(t.src)
            copied.append(t.name)

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
    return edits, copied, renames


# ---------------------------------------------------------------------------
# The apply pipeline
# ---------------------------------------------------------------------------

def update(text: str, patch: patchgen.SemanticPatch, mapping: sigmap.ApiMapping):
    """Update one target: parse it once, plan the helper transplant and the
    site rewrites against that one tree, and splice every edit at once.

    Returns (out_text, UpdateReport); out_text is `text` itself when no
    site was updated, and the report's skip spans index `text`. The sites
    are the calls the patch's context line names; `mapping` is not read.
    A text that never names the context call's method holds no site, since
    every parsed name is a slice of the text, so it is only checked for
    balance, not parsed. Raises jast.UnbalancedSource when the text does
    not parse and normal.MultipleUse when the patch would evaluate an
    argument twice.
    """
    if patchgen.pattern_call(patch.context).name not in text:
        jast.check_balanced(text)
        return text, UpdateReport()
    unit = jast.parse(text)
    helper_edits, copied, renames = transplant_definitions(
        unit, patch.needs_defs, patch.needs_imports)
    site_edits, report = apply_patch(patch, unit, renames)
    if report.sites_updated == 0:
        return text, report
    report.definitions_copied = copied
    return jast.splice(unit, helper_edits + site_edits), report
