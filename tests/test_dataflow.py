import random

import pytest

from api_evolve import dataflow, jast, patchgen, scope, sigmap

import oracle_programs


def resolve_in(text, method_name="m", marker="use"):
    arg, ctx = marker_arg(text, method_name, marker)
    return dataflow.resolve_expression(arg, ctx), ctx


def reach(v, ctx):
    """The names of the definitions a hunk that uses v's value reaches."""
    hunk = jast.MethodDecl(frozenset(), "", "", [], body=[jast.ExprStmt(v.expr)])
    return [d.name for d in dataflow.collect_dependencies(hunk, ctx)]


def marker_arg(text, method_name="m", marker="use"):
    """The first argument of the last marker call in the method, and the
    scope at that call."""
    unit = jast.parse(text)
    sites = [s for s in sigmap.find_invocations(unit, sigmap.ApiSignature("", marker, ("?",)))
             if s.enclosing_method is not None and s.enclosing_method.name == method_name]
    return sites[-1].call.args[0], scope.at_site(sites[-1], unit)


def test_literal_direct():
    v, _ = resolve_in("class A { void m() { use(42); } }")
    assert v.resolved
    assert jast.render_expr(v.expr) == "42"


def test_local_chain_to_literal():
    v, _ = resolve_in(
        "class A { void m() { long d = 50; long e = d; use(e); } }")
    assert v.resolved
    assert jast.render_expr(v.expr) == "50"


def test_field_constant():
    v, _ = resolve_in(
        "class A { static final int DURATION = 50; void m() { use(DURATION); } }")
    assert v.resolved
    assert jast.render_expr(v.expr) == "50"


def test_nearest_definition_wins():
    v, _ = resolve_in(
        "class A { void m() { int x = 1; x = 2; use(x); } }")
    assert jast.render_expr(v.expr) == "2"


def test_reassignment_chain_through_other_variable():
    v, _ = resolve_in(
        "class A { void m() { int b = 5; int c = b * 2; b = c - 1; use(b); } }")
    assert v.resolved
    assert eval(jast.render_expr(v.expr)) == 9


def test_parameter_is_unresolved():
    v, _ = resolve_in("class A { void m(int p) { use(p); } }")
    assert not v.resolved


def test_undeclared_is_unresolved():
    v, _ = resolve_in("class A { void m() { use(ghost); } }")
    assert not v.resolved


def test_cyclic_fields_are_unresolved():
    v, _ = resolve_in(
        "class A { int x = y; int y = x; void m() { use(x); } }")
    assert not v.resolved


def test_static_member_access():
    v, _ = resolve_in(
        "class A { void m() { int u = AudioAttributes.USAGE_ALARM; use(u); } }")
    assert v.resolved
    assert jast.render_expr(v.expr) == "AudioAttributes.USAGE_ALARM"


def test_arithmetic_is_not_folded():
    v, _ = resolve_in(
        "class A { void m() { int a = 2; int b = a + 3; use(b); } }")
    assert jast.render_expr(v.expr) == "2 + 3"


def test_inlining_parenthesizes_when_precedence_demands():
    v, _ = resolve_in(
        "class A { void m() { int a = 2 + 3; int b = a * 4; use(b); } }")
    assert jast.render_expr(v.expr) == "(2 + 3) * 4"


def test_method_invocation_with_local_definition_is_needed():
    v, ctx = resolve_in(
        "class A {\n"
        "    int dur() { return 50; }\n"
        "    void m() { long d = dur(); use(d); }\n"
        "}")
    assert v.resolved
    assert jast.render_expr(v.expr) == "dur()"
    assert reach(v, ctx) == ["dur"]


def test_external_static_call_has_no_needs():
    v, ctx = resolve_in(
        "class A { void m() { Object e = VibrationEffect.createOneShot(50, 1); use(e); } }")
    assert v.resolved
    assert jast.render_expr(v.expr) == "VibrationEffect.createOneShot(50, 1)"
    assert reach(v, ctx) == []


def test_object_creation():
    v, _ = resolve_in(
        "class A { void m() { Object b = new Builder(5); use(b); } }")
    assert v.resolved
    assert jast.render_expr(v.expr) == "new Builder(5)"


def test_arguments_resolved_inside_calls():
    v, _ = resolve_in(
        "class A { static final int AMP = 175; void m() {\n"
        "    long d = 50; Object e = VibrationEffect.createOneShot(d, AMP); use(e); } }")
    assert jast.render_expr(v.expr) == "VibrationEffect.createOneShot(50, 175)"


def test_outer_class_field_visible_from_inner():
    v, _ = resolve_in(
        "class Outer { static final int K = 7;\n"
        "    class Inner { void m() { use(K); } } }")
    assert jast.render_expr(v.expr) == "7"


def test_block_scope_chain():
    v, _ = resolve_in(
        "class A { void m() { int x = 1; if (c) { int y = x + 2; use(y); } } }")
    assert eval(jast.render_expr(v.expr)) == 3


def test_bare_block_sees_its_earlier_statements():
    v, _ = resolve_in("class A { void m() { { int x = 1; use(x); } } }")
    assert jast.render_expr(v.expr) == "1"


def test_bare_block_inside_a_block_sees_outer_definitions():
    v, _ = resolve_in(
        "class A { void m() { int y = 2; { { int x = y; use(x); } } } }")
    assert jast.render_expr(v.expr) == "2"


def test_sibling_branch_definition_is_not_seen():
    v, _ = resolve_in(
        "class A { void m() { int x = 1; if (c) { x = 2; } else { use(x); } } }")
    assert jast.render_expr(v.expr) == "1"


def test_pinned_names_stay_symbolic():
    arg, ctx = marker_arg("class A { void m(Uri u) { use(u); } }")
    ctx.pinned = {"u": jast.Name("iden0")}
    v = dataflow.resolve_expression(arg, ctx)
    assert v.resolved
    assert jast.render_expr(v.expr) == "iden0"


def test_collect_dependencies_transitive():
    text = (
        "class A {\n"
        "    Object mk() { return mk2(); }\n"
        "    Object mk2() { return null; }\n"
        "    void m() { Object o = mk(); use(o); }\n"
        "}")
    v, ctx = resolve_in(text)
    assert reach(v, ctx) == ["mk", "mk2"]


def test_collect_dependencies_follows_fields_and_their_initializers():
    text = (
        "class A {\n"
        "    static final int BASE = 2;\n"
        "    static final int OFFSET = BASE + 1;\n"
        "    static final int UNUSED = 3;\n"
        "    Object mk(int usage) { int local = 1; return wrap(usage + local + OFFSET); }\n"
        "    Object wrap(int x) { return null; }\n"
        "    void m() { Object o = mk(1); use(o); }\n"
        "}")
    v, ctx = resolve_in(text)
    assert reach(v, ctx) == ["mk", "wrap", "OFFSET", "BASE"]


@pytest.mark.parametrize("helper, use, want", [
    ("Object mk(int usage) { int local = usage; return local; }", "mk(1)", ["mk"]),
    ("static class Box { int usage = 1; int get() { return usage; } }", "new Box()", ["Box"]),
    ("static class Box { int usage = 1; int get() { return this.usage; } }", "new Box()",
     ["Box"]),
    ("Object mk(int usage) { return this.usage + usage; }", "mk(1)", ["mk", "usage"]),
], ids=["parameter_and_local", "field_of_a_helper_class", "field_of_a_helper_class_through_this",
        "field_through_this_past_a_parameter"])
def test_collect_dependencies_skips_names_a_helper_declares(helper, use, want):
    text = ("class A {\n"
            "    int usage = 4;\n"
            "    int local = 5;\n"
            "    %s\n"
            "    void m() { Object o = %s; use(o); }\n"
            "}" % (helper, use))
    v, ctx = resolve_in(text)
    assert reach(v, ctx) == want


@pytest.mark.parametrize("seed", range(20))
def test_generated_program_matches_interpreter(seed):
    ok, text, detail = oracle_programs.check_one(random.Random(seed))
    assert ok, "%s\n%s" % (detail, text)


def test_resolve_walks_grow_no_faster_than_the_chain(monkeypatch):
    # x0 = 1; xi = x(i-1) * 2 + 1: each level resolves to a larger tree
    def chain(depth):
        defs = " ".join("long x%d = x%d * 2 + 1;" % (i, i - 1) for i in range(1, depth + 1))
        return "class A { void m() { long x0 = 1; %s use(x%d); } }" % (defs, depth)

    cases = [marker_arg(chain(depth)) for depth in (15, 30)]
    walk, walked = jast.iter_exprs, []
    monkeypatch.setattr(jast, "iter_exprs", lambda e: walked.append(e) or walk(e))
    counts = []
    for arg, ctx in cases:
        del walked[:]
        assert dataflow.resolve_expression(arg, ctx).resolved
        counts.append(len(walked))
    assert counts[1] <= 2 * counts[0]


@pytest.mark.parametrize("leaf, other", [("1", "p"), ("p", "1")],
                         ids=["parameter_as_the_other_argument", "parameter_at_the_leaf"])
def test_a_definition_used_twice_is_resolved_once(monkeypatch, vibrate_mapping, leaf, other):
    # a1 = a0 + a0, a2 = a1 + a1, ...: 2^40 paths from the call to a0, and
    # the parameter p leaves the value unresolved
    depth = 40
    defs = "".join("        int a%d = a%d + a%d;\n" % (i, i - 1, i - 1)
                   for i in range(1, depth + 1))
    example = jast.parse(
        "class A {\n    void m(Vibrator v, int p, long t) {\n        int a0 = %s;\n%s"
        "        if (android.os.Build.VERSION.SDK_INT >= 26) {\n"
        "            v.vibrate(VibrationEffect.createOneShot(a%d, %s));\n"
        "        } else {\n            v.vibrate(t);\n        }\n    }\n}\n"
        % (leaf, defs, depth, other))
    definition, calls = scope.Scope.definition, []

    def counted(self, name):
        calls.append(name)
        assert len(calls) <= 4 * depth, "Scope.definition called more than linearly"
        return definition(self, name)

    monkeypatch.setattr(scope.Scope, "definition", counted)
    with pytest.raises(patchgen.ResolutionError, match="cannot resolve"):
        patchgen.generate_patch(example, vibrate_mapping)
    assert calls.count("a%d" % depth) == 1 and calls.count("a0") == 2
