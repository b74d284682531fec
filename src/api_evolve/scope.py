"""Name lookup at one position in a compilation unit.

A Scope is a position: the unit, the types around it, its method, and
the path of blocks from the method body down to one statement, the
anchor. The path is built once per site, from the statement chain the
site search recorded. A lookup scans only what the anchor can see: the
statements before it in its block, then those before each enclosing
statement in its block; never a sibling branch or a later statement.
Names resolve in Java's order: such a local, a parameter, then a field
of the innermost enclosing type that declares one. Imports are not
resolved. The unit's method and type tables live here too, with the
lookup of the unit definitions a helper's body references.
"""

from __future__ import annotations

from typing import Optional

from . import jast


class Scope(jast.Record):
    __slots__ = ("unit", "types", "method", "path", "pinned")

    def __init__(self, unit: jast.CompilationUnit, types: tuple,
                 method: Optional[jast.MethodDecl] = None, path: tuple = (),
                 pinned: Optional[dict] = None):
        self.unit = unit
        self.types = types  # enclosing types, outermost first; the last holds the position
        self.method = method  # None in a field initializer
        self.path = path  # (stmt list, index) per block, method body first; last is the anchor
        self.pinned = {} if pinned is None else pinned  # name -> replacement Expr

    def definition(self, name):
        """Nearest definition of name before the anchor, as (value, scope at
        the defining statement); value is None for a declaration without
        an initializer. None when no visible statement defines name."""
        for level, j, stmt in self._before():
            if _defined_name(stmt) == name:
                value = stmt.init if isinstance(stmt, jast.LocalVarDecl) else stmt.expr.rhs
                return value, Scope(self.unit, self.types, self.method,
                                    self.path[:level] + ((self.path[level][0], j),), self.pinned)
        return None

    def defined_names(self) -> set:
        """The names whose definition() is not None, in one pass."""
        return {_defined_name(stmt) for _level, _j, stmt in self._before()} - {None}

    def parameter(self, name) -> Optional[str]:
        """Declared type of the enclosing method's parameter name, or None."""
        if self.method is not None:
            for ptype, pname in self.method.params:
                if pname == name:
                    return ptype
        return None

    def enclosing_field(self, name):
        """Field called name of the innermost enclosing type that declares
        one, as (FieldDecl, scope of its initializer), or None."""
        for k in range(len(self.types) - 1, -1, -1):
            for fdecl in self.types[k].fields:
                if fdecl.name == name:
                    return fdecl, Scope(self.unit, self.types[:k + 1], pinned=self.pinned)
        return None

    def declared_type(self, name) -> Optional[str]:
        """Declared type of name here: the nearest preceding local, then a
        parameter, then a field of the enclosing type or an outer type."""
        for _level, _j, stmt in self._before():
            if isinstance(stmt, jast.LocalVarDecl) and stmt.name == name:
                return stmt.type_name
        ptype = self.parameter(name)
        if ptype is not None:
            return ptype
        found = self.enclosing_field(name)
        return found[0].type_name if found else None

    def is_variable(self, name) -> bool:
        """True when name is a local, a parameter or a field here, as
        opposed to a type or package name."""
        return (self.definition(name) is not None or self.parameter(name) is not None
                or self.enclosing_field(name) is not None)

    def _before(self):
        """(level, index, stmt) for every statement the anchor can see,
        nearest first."""
        for level in range(len(self.path) - 1, -1, -1):
            stmts, idx = self.path[level]
            for j in range(idx - 1, -1, -1):
                yield level, j, stmts[j]


def at_site(site, unit: jast.CompilationUnit) -> Scope:
    """The scope of a call site found by sigmap.find_invocations."""
    types = site.outer_types + (site.enclosing_type,)
    if site.enclosing_stmt is None:  # a field initializer
        return Scope(unit, types)
    path = []
    stmts = site.enclosing_method.body
    for stmt in site.stmt_chain + (site.enclosing_stmt,):
        # an if's branch is not in a statement list, so it adds no level
        if stmts is not None:
            path.append((stmts, next(i for i, s in enumerate(stmts) if s is stmt)))
        stmts = stmt.stmts if isinstance(stmt, jast.Block) else None
    return Scope(unit, types, site.enclosing_method, tuple(path))


def members(unit: jast.CompilationUnit):
    """The unit's declared methods, keyed (name, arity), and its named
    types, keyed by name; the later of two duplicates wins."""
    methods = {}
    types = {}
    for tdecl, _outer in jast.iter_types(unit):
        if not tdecl.implicit:
            types[tdecl.name] = tdecl
        for m in tdecl.methods:
            if not m.implicit:
                methods[(m.name, m.arity)] = m
    return methods, types


def fields(unit: jast.CompilationUnit) -> dict:
    """The unit's fields keyed by name; the later of two duplicates wins."""
    return {f.name: f for tdecl, _outer in jast.iter_types(unit) for f in tdecl.fields}


def walk(d: jast.MethodDecl) -> list:
    """Each expression node of a method's statements, walked once: one
    list per statement, in jast.iter_statements order, of its expression
    and everything below it in pre-order, empty where it has none."""
    return [[e for root in jast.stmt_exprs(stmt) for e in jast.iter_exprs(root)]
            for stmt, _chain in jast.iter_statements(d.body)]


def references(d, methods, types, fields, hidden=frozenset(), qualified=False, walked=None):
    """Unit-local methods, types and fields a definition references, looked
    up in the tables members() and fields() return. A simple name is a
    field unless it is in hidden, a parameter or local of d, or a field of
    d itself; a field's references are those of its initializer. A call
    without a receiver or on `this` counts, and so does `this.x` unless x
    is in hidden or a field of d itself. With qualified, a member named
    through any receiver (`Outer.OFFSET`, `Outer.helper()`) counts as well.
    walked, for a method, is walk(d), where the caller reads it too."""
    refs, exprs, shadowed = [], [], hidden  # hidden, and d's own parameters and locals
    if isinstance(d, jast.FieldDecl):
        exprs = [d.initializer] if d.initializer is not None else []
    elif isinstance(d, jast.TypeDecl):
        hidden = shadowed = hidden | {f.name for f in d.fields}
        for m in d.methods:
            refs.extend(references(m, methods, types, fields, hidden, qualified))
        exprs = [f.initializer for f in d.fields if f.initializer is not None]
    else:
        shadowed = set(hidden).union(name for _type, name in d.params)
        for stmt, _chain in jast.iter_statements(d.body):
            if walked is None:
                exprs.extend(jast.stmt_exprs(stmt))
            if isinstance(stmt, jast.LocalVarDecl):
                shadowed.add(stmt.name)
                if stmt.type_name in types:
                    refs.append(types[stmt.type_name])
    for nodes in map(jast.iter_exprs, exprs) if walked is None else walked:
        for e in nodes:
            kind = type(e)
            if kind is jast.Name:
                if e.identifier in types:
                    refs.append(types[e.identifier])
                elif e.identifier in fields and e.identifier not in shadowed:
                    refs.append(fields[e.identifier])
            elif kind is jast.MethodCall and (e.receiver is None or qualified or (
                    type(e.receiver) is jast.Name and e.receiver.identifier == "this")):
                m = methods.get((e.name, len(e.args)))
                if m is not None:
                    refs.append(m)
            elif kind is jast.FieldAccess and e.identifier in fields and (qualified or (
                    type(e.receiver) is jast.Name and e.receiver.identifier == "this"
                    and e.identifier not in hidden)):
                refs.append(fields[e.identifier])
            elif kind is jast.ObjectCreation:
                t = types.get(e.type_name.split("<")[0])
                if t is not None:
                    refs.append(t)
    return refs


def closure(defs, methods, types, fields, qualified=False) -> list:
    """defs and every definition they reach through references(), in the
    order found; declarations are told apart by identity."""
    found, seen = [], set()
    work = list(defs)
    for d in work:  # by index while work grows: first in, first out
        if id(d) not in seen:
            seen.add(id(d))
            found.append(d)
            work.extend(references(d, methods, types, fields, qualified=qualified))
    return found


def _defined_name(s):
    """The name a statement declares or assigns, or None."""
    if isinstance(s, jast.LocalVarDecl):
        return s.name
    if (isinstance(s, jast.ExprStmt) and isinstance(s.expr, jast.Assign)
            and isinstance(s.expr.lhs, jast.Name)):
        return s.expr.lhs.identifier
    return None
