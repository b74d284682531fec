"""Argument normalization and temporary-variable denormalization.

normalize hoists every non-trivial argument of a deprecated call into a
fresh single-use `normArg<N>` temporary, the form in which Coccinelle's
identifier metavariables can match it. denormalize inverts that, and also
inlines patch-introduced `newParameterVariable<N>` temporaries, leaving no
tool temporary behind.

No pipeline code calls normalize or denormalize: the engine binds argument
metavariables to argument expressions and renders patch temporaries
inline. Both stay as library functions.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from . import jast, sigmap
from .patchgen import PATCH_TEMP_PREFIX, MultipleUse

TARGET_TEMP_PREFIX = "normArg"


@dataclass
class NormalizationMap:
    entries: list = field(default_factory=list)  # of temp names, one per hoisted argument

    def temp_names(self) -> list:
        return list(self.entries)


def normalize(unit: jast.CompilationUnit, sites, mapping: sigmap.ApiMapping):
    """Hoist complex deprecated-call arguments into fresh temporaries.

    Returns (unit', NormalizationMap). Sites outside a statement (field
    initializers) are left for the engine to report. A site inside an
    argument that is hoisted moves with that argument, so its own
    arguments stay where they are.
    """
    nmap = NormalizationMap()
    edits = []
    hoisted = []  # spans of the arguments moved into temporaries
    used = [int(m) for m in re.findall(r"\b%s(\d+)\b" % TARGET_TEMP_PREFIX, unit.text)]
    counter = itertools.count(max(used) + 1 if used else 0)
    for site in sorted(sites, key=lambda s: s.call.start):
        stmt = site.enclosing_stmt
        if stmt is None or any(h.contains(site.call.span) for h in hoisted):
            continue
        indent = jast.indent_at(unit.text, stmt.start)
        for idx, arg in enumerate(site.call.args):
            if isinstance(arg, jast.Name):
                continue
            temp = "%s%d" % (TARGET_TEMP_PREFIX, next(counter))
            ptype = sigmap.simple_name(mapping.deprecated.param_types[idx])
            decl = "%s %s = %s;%s%s" % (ptype, temp, arg.src, unit.newline, indent)
            edits.append((jast.Span(stmt.start, stmt.start), decl))
            edits.append((arg.span, temp))
            hoisted.append(arg.span)
            nmap.entries.append(temp)
    if not edits:
        return unit, nmap
    return jast.edited(unit, edits), nmap


def denormalize(unit: jast.CompilationUnit, nmap: NormalizationMap,
                patch_temps=()) -> jast.CompilationUnit:
    """Inline every tool temporary back into its single use site and delete
    its declaration. A temporary used in another one's initializer is
    substituted into that initializer first; the file is then spliced and
    parsed once."""
    pending = set(nmap.temp_names()) | set(patch_temps)
    decls = {}  # temp name -> LocalVarDecl
    uses = {}   # temp name -> [(Name, temp whose initializer holds it, or None)]
    for tdecl, _outer in jast.iter_types(unit):
        roots = [(f.initializer, None) for f in tdecl.fields if f.initializer is not None]
        for mdecl in tdecl.methods:
            for stmt, _chain in jast.iter_statements(mdecl.body):
                owner = None
                if isinstance(stmt, jast.LocalVarDecl) and stmt.name in pending:
                    decls[stmt.name], owner = stmt, stmt.name
                roots.extend((root, owner) for root in jast.stmt_exprs(stmt))
        for root, owner in roots:
            for e in jast.iter_exprs(root):
                if isinstance(e, jast.Name) and e.identifier in pending:
                    uses.setdefault(e.identifier, []).append((e, owner))
    if not decls:
        return unit

    inner, top = {}, []  # owner -> [(Name, temp)]; [(Name, temp)] outside any temp
    for name in decls:
        found = uses.get(name, [])
        if len(found) > 1:
            raise MultipleUse("temporary %s used %d times" % (name, len(found)))
        for use, owner in found:
            (inner.setdefault(owner, []) if owner else top).append((use, name))

    inlined = {}

    def inline(name, active=()):
        """The initializer text of `name` with nested temporaries inlined."""
        if name in active:
            raise MultipleUse("cyclic temporary references: %s" % sorted(active))
        if name not in inlined:
            init = decls[name].init
            text = init.src
            for use, temp in sorted(inner.get(name, []), key=lambda u: -u[0].start):
                start, end = use.start - init.start, use.end - init.start
                text = text[:start] + inline(temp, active + (name,)) + text[end:]
            inlined[name] = text
        return inlined[name]

    for name, decl in decls.items():  # also finds cycles that no outside use reaches
        if decl.init is not None:
            inline(name)
    edits = [(_line_span(unit, decl.span), "") for decl in decls.values()]
    edits += [(use.span, inline(name)) for use, name in top]
    return jast.edited(unit, edits)


def purge_ok(text: str, patch_temps=()) -> bool:
    """True when no tool temporary name remains in the text."""
    if re.search(r"\b%s\d+\b" % TARGET_TEMP_PREFIX, text):
        return False
    if re.search(r"\b%s\d+\b" % PATCH_TEMP_PREFIX, text):
        return False
    return all(not re.search(r"\b%s\b" % re.escape(t), text) for t in patch_temps)


def _line_span(unit, span: jast.Span) -> jast.Span:
    """Expand a statement span to its whole line (including the trailing
    newline) when the statement sits alone on the line."""
    text = unit.text
    line_start = text.rfind("\n", 0, span.start) + 1
    nl = text.find("\n", span.end)
    line_end = len(text) if nl < 0 else nl + 1
    if (text[line_start:span.start].strip() == ""
            and text[span.end:line_end].strip() == ""):
        return jast.Span(line_start, line_end)
    return jast.Span(span.start, span.end)
