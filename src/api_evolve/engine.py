"""Patch application: pattern matching with metavariables, guarded
rewriting of every match site, helper-definition transplantation, and
update(), the one function that runs the whole apply pipeline."""

from __future__ import annotations

import itertools
import re
from collections import Counter
from typing import Optional

from . import jast, patchgen, sigmap

ALREADY_GUARDED = "AlreadyGuarded"
NO_MATCH = "NoMatch"
NON_STATEMENT_CONTEXT = "NonStatementContext"
UNPARSED_STATEMENT = "UnparsedStatement"

_SDK_TOKEN = re.compile(r"\bSDK_INT\b")
# the token in front of a declared method's or field's name: its type's end
_TYPE_END = re.compile(r"(?!(?:new|return|else|throw)$)[A-Za-z_$][\w$]*|>>?|\]")
# in a class header, the class it extends: after the type parameters,
# which may hold a bound's `extends`, and before one level of type
# arguments and the implements clause or the header's end
_EXTENDS = re.compile(r"\bextends\s+([\w$]+)(?=(?:[^<>]|<[^<>]*>)*?(?:\bimplements\b|$))")


class MetaBinding(jast.Record):
    __slots__ = ("assignments",)

    def __init__(self, assignments: Optional[dict] = None):
        self.assignments = {} if assignments is None else assignments  # metavar name -> Expr


class UpdateReport(jast.Record):
    __slots__ = ("file_path", "sites_found", "sites_updated", "sites_skipped",
                 "definitions_copied")

    def __init__(self, file_path: str = "", sites_found: int = 0, sites_updated: int = 0,
                 sites_skipped: Optional[list] = None, definitions_copied: Optional[list] = None):
        self.file_path = file_path
        self.sites_found = sites_found
        self.sites_updated = sites_updated
        self.sites_skipped = [] if sites_skipped is None else sites_skipped  # of (Span, reason)
        self.definitions_copied = [] if definitions_copied is None else definitions_copied

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
    if type(pattern) is not type(stmt) or type(pattern) not in patchgen.PATTERN_STMTS or (
            isinstance(pattern, jast.LocalVarDecl)
            and (pattern.type_name, pattern.name) != (stmt.type_name, stmt.name)):
        return None
    p, a = jast.stmt_exprs(pattern), jast.stmt_exprs(stmt)
    binding = MetaBinding()
    if len(p) == len(a) and (not p or _match_expr(p[0], a[0], set(expr_metavars),
                                                  set(ident_metavars), binding)):
        return binding
    return None


def _unwrap_expr(e):
    while isinstance(e, jast.Paren):
        e = e.inner
    return e


def _match_expr(pattern, actual, expr_mv, ident_mv, binding) -> bool:
    """Unify pairs from an explicit stack, in pre-order, so a repeated
    metavariable binds at its first use and is compared at the later ones."""
    stack = [(pattern, actual)]
    while stack:
        pattern, actual = stack.pop()
        pattern = _unwrap_expr(pattern)
        actual = _unwrap_expr(actual)
        if isinstance(pattern, jast.Name):
            name = pattern.identifier
            if name in ident_mv or name in expr_mv:
                if name in ident_mv and not isinstance(actual, jast.Name):
                    return False
                bound = binding.assignments.setdefault(name, actual)
                if bound is not actual and not jast.ast_equal(bound, actual):
                    return False
                continue
        kind = type(pattern)
        if kind is not type(actual):
            return False
        for n in jast.LABELS[kind]:
            if getattr(pattern, n) != getattr(actual, n):
                return False
        pairs = []
        for n in jast.CHILDREN[kind]:
            p, a = getattr(pattern, n), getattr(actual, n)
            if type(p) is list and len(p) == len(a):
                pairs.extend(zip(p, a))
            elif type(p) is list or (p is None) != (a is None):
                return False
            elif p is not None:
                pairs.append((p, a))
        stack.extend(reversed(pairs))
    return True


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def substitute_expr(pattern: jast.Expr, binding: MetaBinding,
                    renames: Optional[dict] = None) -> jast.Expr:
    """Instantiate a pattern expression: a synthesized copy, by one
    jast.fold, with each metavariable replaced by its bound expression and
    each renamed name, method or created type under its new name.
    Parentheses are left to jast.render_expr."""
    renames = renames or {}

    def instantiate(p, kids):
        if isinstance(p, jast.Name):
            if p.identifier in binding.assignments:
                return binding.assignments[p.identifier]
            return jast.Name(renames.get(p.identifier, p.identifier))
        out = jast.rebuild(p, kids)
        if isinstance(out, jast.MethodCall):
            out.name = renames.get(out.name, out.name)
        elif isinstance(out, jast.ObjectCreation):
            out.type_name = renames.get(out.type_name, out.type_name)
        return out

    return jast.fold(pattern, instantiate)


def substitute_stmt(pattern: jast.Stmt, binding: MetaBinding,
                    renames: Optional[dict] = None) -> jast.Stmt:
    """A synthesized copy of a pattern statement, its expression
    instantiated by substitute_expr."""
    if type(pattern) not in patchgen.PATTERN_STMTS:
        raise TypeError("cannot substitute into %r" % (pattern,))
    name = jast.STMT_EXPR[type(pattern)]
    e = getattr(pattern, name)
    if e is not None:
        e = substitute_expr(e, binding, renames)
    kind = type(pattern)
    values = {field: getattr(pattern, field) for field in kind.__slots__}
    values[name] = e
    return kind(**values)


def compile_then(patch: patchgen.SemanticPatch, renames: Optional[dict] = None) -> list:
    """The patch's then branch as templates, built once per file. Each
    statement is instantiated (substitute_stmt) with each metavariable of
    the context line, and each temporary declared before it, bound to a
    placeholder Name; it is rendered once, or its initializer is if it
    declares a temporary, and split at the placeholders. Returns one
    (temporary's name or None, root, pieces, holes) per then statement
    (see jast.template_holes), where a temporary's root is its
    initializer's root node, or the name of the hole that stands for it;
    see render_then."""
    declared = patch.metavar_names("expression") | patch.metavar_names("identifier")
    bound = [n for n in patchgen.pattern_names(patch.context) if n in declared]
    then = []
    for s in patch.then_stmts:
        temp = s.name if patchgen.is_patch_temp(s) else None
        for mark in map(chr, itertools.count()):  # a character no other text holds
            binding = MetaBinding({n: jast.Name(mark) for n in bound})
            node = substitute_stmt(s, binding, renames)
            text = jast.render_stmt(node) if temp is None else jast.render_expr(node.init)
            marks = {id(v): n for n, v in binding.assignments.items()}
            holes = [h for e in jast.stmt_exprs(node) for h in jast.template_holes(e, marks)]
            pieces = text.split(mark)
            if len(pieces) == len(holes) + 1:
                break
        root = None if temp is None else marks.get(id(node.init), node.init)
        then.append((temp, root, pieces, holes))
        if temp is not None:
            bound.append(temp)
    return then


def render_then(then: list, binding: MetaBinding) -> list:
    """The then branch's lines at one site, from compile_then's templates:
    only the bound expressions are rendered (jast.render_expr), and a
    temporary's hole takes the text of its own template, grouped by the
    root node of its initializer."""
    values = {n: (jast.render_expr(e), e) for n, e in binding.assignments.items()}
    lines = []
    for temp, root, pieces, holes in then:
        text = jast.fill_template(pieces, holes, values)
        if temp is None:
            lines.append(text)
        else:
            values[temp] = (text, values[root][1] if type(root) is str else root)
    return lines


# ---------------------------------------------------------------------------
# Guard detection
# ---------------------------------------------------------------------------

def already_guarded(site: sigmap.CallSite, conditions=()) -> bool:
    """True iff an enclosing condition textually mentions the SDK_INT token:
    an If of the site's statement chain, or one of conditions, spans of the
    call's text, such as jast.blocks_around gives for the blocks around it."""
    # a condition is searched in place: it starts after `(` or a blank and
    # ends before `)` or one, so \b at its ends reads as in src
    spans = [(s.cond.start, s.cond.end) for s in site.stmt_chain if isinstance(s, jast.If)]
    return any(_SDK_TOKEN.search(site.call.unit_text, start, end)
               for start, end in spans + list(conditions))


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------

def apply_patch(patch: patchgen.SemanticPatch, unit: jast.CompilationUnit,
                partner: Optional[dict] = None):
    """Plan the patch at every matching, unguarded site of unit.text, and
    the helper transplant at the first.

    Returns (edits, UpdateReport); the edits are (Span, text) pairs against
    unit.text. Of unit, only the text and the members the transplant looks
    up are read: jast.blocks_around places each occurrence in code of the
    context call's name before a `(` (partner is its bracket table, built
    if not given). In a type body one is a declaration or
    NonStatementContext; elsewhere the statement holding it, its island,
    is parsed (jast.parse_island), and a call there of the context call's
    arity is a site, guarded by an If of the island or an if header of a
    block around it. An occurrence the island parses as no call is
    NonStatementContext after a `->`, else UnparsedStatement. The context
    call's argument metavariables bind the argument expressions, and each
    patch temporary is rendered inline at its one use. At the first site
    that matches, transplant_definitions plans the helpers into the site's
    top-level class (the file's block if it is none), and the then branch
    is compiled with its renames (compile_then); each site renders only
    what it binds into it.
    Per-site failures become skip entries, never exceptions;
    patchgen.MultipleUse is raised when the then branch would evaluate an
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
    text, name = unit.text, ctx_call.name
    if partner is None:
        partner = jast.check_balanced(text)
    found = [m.start() for m in re.finditer(
        r"%s(?<![\w$]%s)(?=[ \t\r\n]*\()" % (re.escape(name), re.escape(name)), text)]

    edits = []
    handled = set()
    then = None  # compiled at the first site that matches
    guard = "if (%s) {" % jast.render_expr(patch.guard_cond)
    skipped = report.sites_skipped.append
    # Each stage runs over all sites before the next: walk, parse, then
    # match and render. Run site by site, the same work took about 30%
    # longer on dense_sites.
    walked = list(jast.blocks_around(text, partner, found))
    parsed = {}  # by start: each island and the offsets where its tokens start
    for _at, blocks, start, end in walked:
        if blocks[-1][2] in ("stmt", "file") and start not in parsed:
            parsed[start] = jast.parse_island(text, partner, start, end)
    islands = {}  # by start: the token starts, and the calls of name by the name's offset
    for start, (island, starts) in parsed.items():
        islands[start] = starts, {
            text.find(name, e.start if e.receiver is None else e.receiver.end): (e, s, chain)
            for s, chain in jast.iter_statements([island] if island else [])
            for root in jast.stmt_exprs(s) for e in jast.iter_exprs(root)
            if type(e) is jast.MethodCall and e.name == name}
    for at, blocks, start, end in walked:
        kind = blocks[-1][2]
        if kind != "stmt":
            before = jast.token_before(text, start, at)
            if before is None or _TYPE_END.fullmatch(before):
                continue  # in a comment or literal, or a declaration
            if kind != "file":
                skipped((jast.Span(at, at + len(name)), NON_STATEMENT_CONTEXT))
                continue
        starts, calls = islands[start]
        if at not in calls:
            if at in starts:  # in code, not in a comment or literal
                skipped((jast.Span(at, at + len(name)), NON_STATEMENT_CONTEXT
                         if "->" in text[start:at] else UNPARSED_STATEMENT))
            continue
        call, stmt, chain = calls[at]
        if len(call.args) != len(ctx_call.args):
            continue
        conditions = [c for b in blocks for c in b[3]]
        if already_guarded(sigmap.CallSite(call, stmt, None, None, chain), conditions):
            skipped((call.span, ALREADY_GUARDED))
            continue
        binding = match_statement(patch.context, stmt, expr_mv, ident_mv - arg_mv)
        if binding is None or id(stmt) in handled:
            skipped((call.span, NO_MATCH))
            continue
        for mv in reused:
            arg = binding.assignments[mv]
            if not isinstance(arg, jast.Name):
                raise patchgen.MultipleUse("line %d: the then branch would evaluate %s %d times"
                                           % (jast.line_of(text, arg.start),
                                              arg.src, then_uses[mv]))
        handled.add(id(stmt))
        report.sites_updated += 1

        if then is None:
            body = blocks[1] if len(blocks) > 1 and blocks[1][2] == "class" else blocks[0]
            helper_edits, report.definitions_copied, renames = transplant_definitions(
                unit, body, patch.needs, patch.needs_imports)
            edits += helper_edits
            then = compile_then(patch, renames)
        indent = jast.indent_at(text, stmt.start)
        lines = [guard] + [indent + "    " + line for line in render_then(then, binding)]
        lines.append(indent + "} else {")
        lines.append(indent + "    " + stmt.src)
        lines.append(indent + "}")
        edits.append((stmt.span, unit.newline.join(lines)))
    report.sites_found = report.sites_updated + len(report.sites_skipped)
    return edits, report


# ---------------------------------------------------------------------------
# Transplantation
# ---------------------------------------------------------------------------

def _superclass_body(text: str, body: list) -> jast.Span:
    """The braces of the class of text that body's class extends, empty if
    it extends none that text declares."""
    name = body[2] == "class" and _EXTENDS.search(text, body[6], body[0])
    decl = name and re.search(r"class(?<![\w$]class)\s+%s(?![\w$])[^{;]*\{"
                              % re.escape(name[1]), text)  # a literal first is searched fast
    if not decl:
        return jast.Span(0, 0)
    return jast.Span(decl.end() - 1, jast.check_balanced(text).get(decl.end() - 1, 0))


def transplant_definitions(unit: jast.CompilationUnit, body: list, needs, imports=()):
    """Copy helper definitions and imports into the target.

    body is the block, as jast.blocks_around lists one, that receives the
    helper methods and fields: a top-level class, or the file's own block.
    needs holds the helper methods, fields and classes of a patch's
    @needs@ section, parsed (SemanticPatch.needs). A method of the same
    name and arity or a field of the same name declared in body, or in a
    class of the file that body's class extends and not private there,
    or a class of the same name at the top of the file or in body, is
    reused, not copied.
    Returns (edits, copied_names, renames): the edits are (Span, text)
    pairs against unit.text, and renames maps a colliding method name to
    its _androevolve alias and a colliding import's simple name to the
    qualified name. Each copied declaration is written through that one
    map; apply_patch compiles the inserted lines with it, so they
    reference the copied names.
    """
    if not needs and not imports:
        return [], [], {}
    inside = jast.Span(body[0], body[1]).contains
    inherited = _superclass_body(unit.text, body).contains
    existing_types = {t.name for t, outer in jast.iter_types(unit)
                      if not t.implicit and (not outer or inside(t.span))}
    declared = [d for t, _outer in jast.iter_types(unit) for d in t.fields + t.methods
                if inside(d.span) or inherited(d.span) and "private" not in d.modifiers]
    existing_fields = {d.name for d in declared if isinstance(d, jast.FieldDecl)}
    existing_methods = {(d.name, d.arity) for d in declared if isinstance(d, jast.MethodDecl)}
    existing_names = {name for name, _arity in existing_methods}

    # the plan: what is copied, and the renames it and the inserted lines share
    members, types, copied, renames = [], [], [], {}
    for d in needs:
        if isinstance(d, jast.TypeDecl):
            if d.name not in existing_types:
                types.append(d)
        elif isinstance(d, jast.FieldDecl):
            if d.name not in existing_fields:
                members.append(d)
                copied.append(d.name)
        elif (d.name, d.arity) not in existing_methods:
            if d.name in existing_names:  # same name, different arity: copy under an alias
                renames[d.name] = d.name + "_androevolve"
            members.append(d)
            copied.append(renames.get(d.name, d.name))
    copied += [t.name for t in types]
    # imports: add when absent; on simple-name conflict, qualify references
    existing_simple = {sigmap.simple_name(i) for i in unit.imports}
    import_lines, qualified = [], set()
    for imp in (i for i in imports if i not in unit.imports):
        simple = sigmap.simple_name(imp)
        if simple in existing_simple:
            renames[simple] = imp  # fully qualify to avoid shadowing
            qualified.add(simple)
        else:
            import_lines.append("import %s;" % imp)

    nl = unit.newline
    edits = []
    if import_lines:
        pos, block = unit.header_end, nl.join(import_lines)
        edits.append((jast.Span(pos, pos), nl + block if pos > 0 else block + nl))

    # an alias renames every use of its method; a simple name is qualified
    # only where no `.` puts it inside a name that is qualified already
    pattern = "|".join(r"%s\b%s\b" % (r"(?<!\.)" if name in qualified else "", re.escape(name))
                       for name in renames)

    def insert(at, indent, decls):
        if decls:
            texts = [re.sub(pattern, lambda m: renames[m.group()], d.src) if renames
                     else d.src for d in decls]
            block = "".join(nl + indent + t.replace("\n", nl) + nl for t in texts)
            edits.append((jast.Span(at, at), block))

    # methods and fields go before the class's `}`, indented past its first
    # line, or at the end of the file, the file block's close
    insert(body[1], jast.indent_at(unit.text, body[6]) + "    " if body[2] == "class" else "",
           members)
    insert(len(unit.text), "", types)
    return edits, copied, renames


# ---------------------------------------------------------------------------
# The apply pipeline
# ---------------------------------------------------------------------------

def update(text: str, patch: patchgen.SemanticPatch, mapping: sigmap.ApiMapping):
    """Update one target without parsing it whole: plan the site rewrites
    and the helper transplant, and splice every edit at once.

    Returns (out_text, UpdateReport); out_text is `text` itself when no
    site was updated, and the report's skip spans index `text`. The sites
    are the calls the patch's context line names; `mapping` is not read.
    A text that never names the context call's method holds no site: it
    is only checked by jast.require_balanced, which raises what a parse
    would. In a text that does, jast.check_balanced builds the bracket
    table once, jast.outline reads the header and the members that name a
    @needs@ helper, and apply_patch parses one island per statement that
    names the method and plans the transplant at the first updated site.
    Raises jast.UnbalancedSource when the nesting is broken, and
    patchgen.MultipleUse when the patch would evaluate an argument twice.
    """
    name = patchgen.pattern_call(patch.context).name
    if name not in text:
        jast.require_balanced(text)
        return text, UpdateReport()
    partner = jast.check_balanced(text)
    unit = jast.outline(text, partner, [d.name for d in patch.needs])
    edits, report = apply_patch(patch, unit, partner)
    if report.sites_updated == 0:
        return text, report
    return jast.splice(unit, edits), report
