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
    if len(p) == len(a) and (not p or _match_expr(p[0], a[0], expr_metavars, ident_metavars,
                                                  binding)):
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

def substitute_expr(pattern: jast.Expr, binding: MetaBinding) -> jast.Expr:
    """Instantiate a pattern expression: a synthesized copy, by one
    jast.fold, with each metavariable replaced by its bound expression.
    Parentheses are left to jast.render_expr."""

    def instantiate(p, kids):
        if isinstance(p, jast.Name) and p.identifier in binding.assignments:
            return binding.assignments[p.identifier]
        return jast.rebuild(p, kids)

    return jast.fold(pattern, instantiate)


def substitute_stmt(pattern: jast.Stmt, binding: MetaBinding) -> jast.Stmt:
    """A synthesized copy of a pattern statement, its expression
    instantiated by substitute_expr."""
    if type(pattern) not in patchgen.PATTERN_STMTS:
        raise TypeError("cannot substitute into %r" % (pattern,))
    name = jast.STMT_EXPR[type(pattern)]
    e = getattr(pattern, name)
    if e is not None:
        e = substitute_expr(e, binding)
    kind = type(pattern)
    values = {field: getattr(pattern, field) for field in kind.__slots__}
    values[name] = e
    return kind(**values)


class PatchPlan(jast.Record):
    """What apply_patch derives from a patch alone, made once per patch by
    plan_of: the context call's name and arity, the metavariable sets that
    match_statement takes, each argument metavariable the then branch uses
    more than once with its number of uses (reused), the guard line, the
    regular expression of an occurrence of the name, and the then branch's
    templates (compile_then)."""
    __slots__ = ("name", "arity", "expr_mv", "ident_mv", "reused", "guard", "occurrence", "then")

    def __init__(self, name: str, arity: int, expr_mv: set, ident_mv: set, reused: dict,
                 guard: str, occurrence: re.Pattern, then: list):
        self.name, self.arity = name, arity
        self.expr_mv, self.ident_mv, self.reused = expr_mv, ident_mv, reused
        self.guard, self.occurrence, self.then = guard, occurrence, then


def plan_of(patch: patchgen.SemanticPatch) -> PatchPlan:
    """patch's PatchPlan, made at its first application and kept in
    patch.applied, so every file the patch updates shares it; a patch is
    not changed once applied."""
    if patch.applied is None:
        call = patchgen.pattern_call(patch.context)
        ident_mv = patch.metavar_names("identifier")
        arg_mv = {a.identifier for a in call.args
                  if isinstance(a, jast.Name) and a.identifier in ident_mv}
        then_uses = Counter(n for s in patch.then_stmts for n in patchgen.pattern_names(s))
        name = re.escape(call.name)
        patch.applied = PatchPlan(
            call.name, len(call.args), patch.metavar_names("expression") | arg_mv,
            ident_mv - arg_mv, {mv: then_uses[mv] for mv in sorted(arg_mv) if then_uses[mv] > 1},
            "if (%s) {" % patch.added()[0],
            re.compile(r"%s(?<![\w$]%s)(?=[ \t\r\n]*\()" % (name, name)), compile_then(patch))
    return patch.applied


def compile_then(patch: patchgen.SemanticPatch) -> list:
    """The patch's then branch as templates, built once per patch
    (PatchPlan.then). Each statement is instantiated (substitute_stmt)
    with each metavariable of the context line, and each temporary
    declared before it, bound to a placeholder Name; it is rendered once,
    or its initializer is if it declares a temporary, and split at the
    placeholders. Returns one (temporary's name or None, root, pieces,
    holes) per then statement (see jast.template_holes), where a
    temporary's root is its initializer's root node, or the name of the
    hole that stands for it; see render_then."""
    declared = patch.metavar_names("expression") | patch.metavar_names("identifier")
    bound = [n for n in patchgen.pattern_names(patch.context) if n in declared]
    then = []
    for s in patch.then_stmts:
        temp = s.name if patchgen.is_patch_temp(s) else None
        for mark in map(chr, itertools.count()):  # a character no other text holds
            binding = MetaBinding({n: jast.Name(mark) for n in bound})
            node = substitute_stmt(s, binding)
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

def already_guarded(text: str, conditions) -> bool:
    """True iff one of conditions, spans of text such as
    jast.blocks_around gives for the `if` headers around a site, mentions
    the SDK_INT token."""
    # a condition is searched in place: it starts after `(` or a blank and
    # ends before `)` or one, so \b at its ends reads as in its text
    return any(_SDK_TOKEN.search(text, start, end) for start, end in conditions)


def _guarded(text: str, conditions: jast.Conditions, known: dict) -> bool:
    """already_guarded for a chain of jast.Conditions, where known, kept
    for one text, maps each cell tested to whether its chain is guarded:
    each cell is searched once per text, however many sites it is around."""
    path = []
    while conditions not in known:
        path.append(conditions)
        conditions = conditions.outer
    guarded = known[conditions]
    for cell in reversed(path):
        guarded = known[cell] = guarded or already_guarded(text, (cell.span,))
    return guarded


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------

def apply_patch(patch: patchgen.SemanticPatch, text: str, partner: Optional[dict] = None):
    """Plan the patch at every matching, unguarded site of text, and the
    helper transplant into each top-level class that holds one.

    Returns (edits, UpdateReport); the edits are (Span, text) pairs against
    text. jast.blocks_around walks to each occurrence of the context
    call's name before a `(` (partner is text's bracket table, built if
    not given), and gives the tokens in front of it, None in a comment or
    literal, and the `if` conditions around it. In a type body an
    occurrence is a declaration or NonStatementContext; elsewhere the
    statement that holds it is its island, and all islands are parsed in
    one call (jast.parse_islands). A call there of the context call's
    arity is a site, skipped when a condition names SDK_INT
    (already_guarded, each condition searched once: _guarded); an
    occurrence that is no call there is NonStatementContext after a `->`,
    else UnparsedStatement. Once every site is matched,
    transplant_definitions plans the helpers into each top-level class, or
    the file's block, that holds a matching site, in the order of their
    first sites, told whether a site there is in a static member (a header
    on the way to it says `static`), and the then branch, compiled once
    per patch (plan_of), is taken with that class's renames; each site
    renders only what it binds. An import or top-level class that two
    transplants plan is added once. Per-site failures become skip entries,
    never exceptions; patchgen.MultipleUse is raised when the then branch
    would evaluate an argument that is not a plain name more than once.
    """
    report = UpdateReport()
    plan = plan_of(patch)
    name = plan.name
    if partner is None:
        partner = jast.check_balanced(text)
    found = [m.start() for m in plan.occurrence.finditer(text)]

    edits = []
    handled = set()
    updates = []  # (statement, binding, the `{` of the class that receives its helpers)
    bodies = {}  # by that `{`: [the class's block, whether a site is in a static member]
    guarded = {jast.NO_CONDITIONS: False}  # see _guarded
    skipped = report.sites_skipped.append
    # Each stage runs over all sites before the next: walk, parse, match,
    # then transplant and render. Run site by site, the same work took
    # about 30% longer on dense_sites.
    walked = []  # each occurrence in code that is no declaration
    spans = {}  # by start: the span of each island
    for at, blocks, start, end, tokens, conditions in jast.blocks_around(text, partner, found):
        kind = blocks[-1][2]
        if tokens is None or kind != "stmt" and jast.declares(tokens):
            continue  # in a comment or literal, or a declaration
        if kind in ("stmt", "file"):
            spans.setdefault(start, (start, end))
        walked.append((at, blocks, start, conditions))
    islands = {}  # by start: the calls of name by the name's offset
    for start, island in zip(spans, jast.parse_islands(text, partner, spans.values())):
        islands[start] = {
            text.find(name, e.start if e.receiver is None else e.receiver.end): (e, s)
            for s, _chain in jast.iter_statements([island] if island else [])
            for root in jast.stmt_exprs(s) for e in jast.iter_exprs(root)
            if type(e) is jast.MethodCall and e.name == name}
    for at, blocks, start, conditions in walked:
        if blocks[-1][2] not in ("stmt", "file"):  # in a type body
            skipped((jast.Span(at, at + len(name)), NON_STATEMENT_CONTEXT))
            continue
        calls = islands[start]
        if at not in calls:
            skipped((jast.Span(at, at + len(name)), NON_STATEMENT_CONTEXT
                     if "->" in text[start:at] else UNPARSED_STATEMENT))
            continue
        call, stmt = calls[at]
        if len(call.args) != plan.arity:
            continue
        if _guarded(text, conditions, guarded):
            skipped((call.span, ALREADY_GUARDED))
            continue
        binding = match_statement(patch.context, stmt, plan.expr_mv, plan.ident_mv)
        if binding is None or id(stmt) in handled:
            skipped((call.span, NO_MATCH))
            continue
        for mv, uses in plan.reused.items():
            arg = binding.assignments[mv]
            if not isinstance(arg, jast.Name):
                raise patchgen.MultipleUse("line %d: the then branch would evaluate %s %d times"
                                           % (jast.line_of(text, arg.start), arg.src, uses))
        handled.add(id(stmt))
        k = 1 if len(blocks) > 1 and blocks[1][2] == "class" else 0
        body = bodies.setdefault(blocks[k][0], [blocks[k], False])
        if patch.needs and not body[1]:  # only a helper is told static from instance
            body[1] = any("static" in b[7] for b in blocks[k + 1:])
        updates.append((stmt, binding, blocks[k][0]))

    thens = {}  # by the `{` of the class that receives the helpers: its renamed then branch
    # another class's transplant may plan the same import or top-level
    # class, and copy the same names: each edit is planned, and each name
    # reported, once, looked up by value in a set
    planned, copied = set(), set()  # each helper edit's (start, end, text); the names
    for key, (body, static) in bodies.items():
        helper_edits, names, renames = transplant_definitions(
            text, partner, body, patch.needs, patch.needs_imports, static)
        for span, new in helper_edits:
            if (span.start, span.end, new) not in planned:
                planned.add((span.start, span.end, new))
                edits.append((span, new))
        report.definitions_copied += [n for n in names if n not in copied]
        copied.update(names)
        thens[key] = [(temp, root, [jast.rename(piece, renames) for piece in pieces], holes)
                      for temp, root, pieces, holes in plan.then] if renames else plan.then
    nl = jast.newline_of(text)
    for stmt, binding, key in updates:
        indent = jast.indent_at(text, stmt.start)
        then = render_then(thens[key], binding)
        lines = [plan.guard] + [indent + "    " + line for line in then]
        lines += [indent + "} else {", indent + "    " + stmt.src, indent + "}"]
        edits.append((stmt.span, nl.join(lines)))
    report.sites_updated = len(updates)
    report.sites_found = report.sites_updated + len(report.sites_skipped)
    return edits, report


# ---------------------------------------------------------------------------
# Transplantation
# ---------------------------------------------------------------------------

def _reindent(src: str, indent: str) -> str:
    """A declaration's text, which starts at its first token, at indent:
    its first line is put after indent, and each later line that is not
    blank is shifted by the difference between indent and the indent of
    the declaration's last, closing, line."""
    last = src[src.rfind("\n") + 1:]
    shift = len(indent) - (len(last) - len(last.lstrip(" \t")))
    if shift > 0:
        src = re.sub(r"\n(?=[ \t]*\S)", "\n" + indent[-shift:], src)
    elif shift < 0:
        src = re.sub(r"\n[ \t]{1,%d}(?=[ \t]*\S)" % -shift, "\n", src)
    return indent + src


def _superclass(block: list) -> Optional[str]:
    """The name after `extends` in the header of a class's block, as
    jast.blocks_around lists one, outside `<…>`; None if there is none."""
    header = jast.outside_angles(block[7]) if block[2] == "class" else []
    return header[header.index("extends") + 1] if "extends" in header[:-1] else None


def transplant_definitions(text: str, partner: dict, body: list, needs, imports=(),
                           static: bool = False):
    """Copy helper definitions and imports into the target text, whose
    bracket table partner is (jast.check_balanced).

    body is the block, as jast.blocks_around lists one, that receives the
    helper methods, fields and `static` classes: a top-level class, or the
    file's own block. A class declared without `static` goes to the end
    of the file, top-level.
    needs holds the helper methods, fields and classes of a patch's
    @needs@ section, parsed (SemanticPatch.needs). A method of the same
    name and arity or a field of the same name declared in body itself,
    not in a class nested in it, or in a top-level class that body's class
    extends, through any number of them, and not private there, or a class
    of the same name at the top of the file or in body itself, is reused,
    not copied; but where static, as a site in body is in a static member,
    a method or field is reused only if it is static, and the helper is
    otherwise copied under the alias. The target is never parsed:
    jast.declarations finds the helpers' names and modifiers, and each
    superclass, named after `extends` in the header of the class before
    it, outside `<…>`.
    Returns (edits, copied_names, renames): the edits are (Span, text)
    pairs against text, and renames maps a colliding member name to its
    _androevolve alias and a colliding import's simple name to the
    qualified name. Each copied declaration is written through that one
    map (jast.rename); apply_patch renames the inserted lines with it, so
    they reference the copied names.
    """
    if not needs and not imports:
        return [], [], {}
    names = [d.name for d in needs]
    extends = _superclass(body)
    declared = jast.declarations(text, partner, names + [extends] if extends else names)
    top, own = declared.get(-1, {}), declared.get(body[0], {})
    # what body's class inherits, from each superclass the file declares at
    # its top, the nearest first, up to one it does not or one seen already
    inherited, seen = {}, {body[0]}
    block = extends and top.get(("class", extends))
    while block and block[0] not in seen:
        seen.add(block[0])
        for key, modifiers in declared.get(block[0], {}).items():
            inherited.setdefault(key, modifiers)
        extends = _superclass(block)
        block = extends and jast.declarations(text, partner, [extends]).get(-1, {}).get(
            ("class", extends))
    # the members body's class sees, with their modifiers, its own first
    visible = {key: modifiers for key, modifiers in inherited.items()
               if key[0] != "class" and "private" not in modifiers}
    visible.update((key, value) for key, value in own.items() if key[0] != "class")
    reused = {key for key, modifiers in visible.items() if not static or "static" in modifiers}
    methods = {key[1] for key in visible if key[0] == "method"}

    # the plan: what is copied, and the renames it and the inserted lines share
    members, types, copied, renames = [], [], [], {}
    for d in needs:
        if isinstance(d, jast.TypeDecl):
            if ("class", d.name) not in own and ("class", d.name) not in top:
                types.append(d)
        elif isinstance(d, jast.FieldDecl):
            if ("field", d.name) not in reused:
                if ("field", d.name) in visible:  # an instance field: copy under an alias
                    renames[d.name] = d.name + "_androevolve"
                members.append(d)
                copied.append(renames.get(d.name, d.name))
        elif ("method", d.name, d.arity) not in reused:
            if d.name in methods:  # another arity, or an instance method: copy under an alias
                renames[d.name] = d.name + "_androevolve"
            members.append(d)
            copied.append(renames.get(d.name, d.name))
    copied += [t.name for t in types]
    # imports: add when absent; on simple-name conflict, qualify references
    unit = jast.parse_header(text, partner)
    existing_simple = {sigmap.simple_name(i) for i in unit.imports}
    import_lines = []
    for imp in (i for i in imports if i not in unit.imports):
        simple = sigmap.simple_name(imp)
        if simple in existing_simple:
            renames[simple] = imp  # fully qualify to avoid shadowing
        else:
            import_lines.append("import %s;" % imp)

    nl = unit.newline
    edits = []
    if import_lines:
        pos, block = unit.header_end, nl.join(import_lines)
        edits.append((jast.Span(pos, pos), nl + block if pos > 0 else block + nl))

    def insert(at, indent, decls):
        if decls:
            texts = [jast.rename(d.src, renames) for d in decls]
            block = "".join(nl + _reindent(t, indent).replace("\n", nl) + nl for t in texts)
            edits.append((jast.Span(at, at), block))

    # methods, fields and static classes go before the class's `}`, indented
    # past its first line, or at the end of the file, the file block's close;
    # a class without `static` would become an inner class there, which a
    # static helper cannot instantiate, so it stays top-level
    insert(body[1], jast.indent_at(text, body[6]) + "    " if body[2] == "class" else "",
           members + [t for t in types if "static" in t.modifiers])
    insert(len(text), "", [t for t in types if "static" not in t.modifiers])
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
    table once, and apply_patch parses the statements that name the
    method, as islands, in one call; only at the first updated site of a
    class does it plan the transplant, which reads the file's header and
    where it declares the @needs@ helpers' names (jast.declarations).
    Raises jast.UnbalancedSource when the nesting is broken, and
    patchgen.MultipleUse when the patch would evaluate an argument twice.
    """
    if plan_of(patch).name not in text:
        jast.require_balanced(text)
        return text, UpdateReport()
    edits, report = apply_patch(patch, text, jast.check_balanced(text))
    if report.sites_updated == 0:
        return text, report
    return jast.splice(text, edits), report
