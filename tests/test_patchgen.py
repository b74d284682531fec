import pytest

from api_evolve import engine, jast, patchgen, scope, sigmap

from conftest import CORPUS


def read_case(case):
    root = CORPUS / "cases" / case
    dep, upd = (root / "mapping.txt").read_text().splitlines()
    mapping = sigmap.ApiMapping(sigmap.parse_signature(dep),
                                sigmap.parse_signature(upd))
    example = jast.parse((root / "example.java").read_text())
    return example, mapping


EXPECTED_VIBRATE_PATCH = """\
@update_vibrate@
identifier iden0, classIden;
@@
...
+ if (android.os.Build.VERSION.SDK_INT >= android.os.Build.VERSION_CODES.O) {
+ VibrationEffect newParameterVariable0 = VibrationEffect.createOneShot(50, 175);
+ classIden.vibrate(newParameterVariable0);
+ } else {
classIden.vibrate(iden0);
+ }
"""


def test_vibrate_patch_exact_text():
    example, mapping = read_case("vibrate")
    patch = patchgen.generate_patch(example, mapping)
    assert patchgen.render_patch(patch) == EXPECTED_VIBRATE_PATCH


@pytest.mark.parametrize("wrap", [
    '@SuppressWarnings("deprecation")\npublic class A {\n%s}\n',
    "%sstatic Object once = vibrator.vibrate(5L);\n",
], ids=["annotated_class", "call_in_a_field_initializer"])
def test_the_vibrate_example_generates_the_same_patch(wrap):
    # parse reads an annotated class as a class; a deprecated call in a
    # field initializer is a site whose scope has no method
    _example, mapping = read_case("vibrate")
    text = wrap % (CORPUS / "cases" / "vibrate" / "example.java").read_text()
    patch = patchgen.generate_patch(jast.parse(text), mapping)
    assert patchgen.render_patch(patch) == EXPECTED_VIBRATE_PATCH


def test_vibrate_patch_constants_inlined():
    # DURATION/AMPLITUDE field reads in the example surface as literals
    example, mapping = read_case("vibrate")
    rendered = patchgen.render_patch(patchgen.generate_patch(example, mapping))
    assert "createOneShot(50, 175)" in rendered
    assert "DURATION" not in rendered and "AMPLITUDE" not in rendered


@pytest.mark.parametrize("edits, want", [
    ([("int amplitude = AMPLITUDE;", "int amplitude = -AMPLITUDE;"),
      ("createOneShot(milliseconds, amplitude)", "createOneShot(milliseconds, -amplitude)")],
     "createOneShot(50, -(-175))"),
    ([("private static final int AMPLITUDE = 175;",
       'private static final String AMP = "1";'),
      ("int amplitude = AMPLITUDE;", 'String amp = AMP + "2";'),
      ("createOneShot(milliseconds, amplitude)", "createOneShot(milliseconds, amp.length())")],
     'createOneShot(50, ("1" + "2").length())'),
], ids=["unary_of_unary", "binary_receiver"])
def test_inlined_definition_keeps_its_grouping(edits, want):
    _example, mapping = read_case("vibrate")
    text = (CORPUS / "cases" / "vibrate" / "example.java").read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    rendered = patchgen.render_patch(patchgen.generate_patch(jast.parse(text), mapping))
    assert "= VibrationEffect.%s;" % want in rendered


def test_guard_condition_taken_from_example():
    example, mapping = read_case("set_sound")
    patch = patchgen.generate_patch(example, mapping, rewire_shared_args=True)
    assert "VERSION_CODES.LOLLIPOP" in jast.render_expr(patch.guard_cond)


def test_shared_argument_becomes_identifier_metavar():
    example, mapping = read_case("set_sound")
    rendered = patchgen.render_patch(
        patchgen.generate_patch(example, mapping, rewire_shared_args=True))
    assert "classIden.setSound(iden0)" in rendered          # context line
    assert "classIden.setSound(iden0, newParameterVariable0)" in rendered


def test_needed_definitions_are_transitive():
    example, mapping = read_case("set_sound")
    patch = patchgen.generate_patch(example, mapping, rewire_shared_args=True)
    assert [d.name for d in patch.needs] == ["makeAttrs", "buildAttrs"]
    assert patch.needs_imports == ["android.media.AudioAttributes"]


def test_assignment_context_uses_expression_metavar():
    example, mapping = read_case("get_current_minute")
    rendered = patchgen.render_patch(patchgen.generate_patch(example, mapping))
    assert "exp0 = classIden.getCurrentMinute();" in rendered
    assert "exp0 = classIden.getMinute();" in rendered
    assert "expression exp0;" in rendered


def test_static_receiver_abstracted():
    example, mapping = read_case("from_html")
    rendered = patchgen.render_patch(patchgen.generate_patch(example, mapping))
    assert "classIden.fromHtml(" in rendered
    assert "Html.fromHtml(" not in rendered.replace("classIden", "")


def test_unresolvable_example_raises():
    mapping = sigmap.ApiMapping(
        sigmap.parse_signature("android.os.Vibrator#vibrate(long)"),
        sigmap.parse_signature("android.os.Vibrator#vibrate(android.os.VibrationEffect)"))
    example = jast.parse(
        "void m(Vibrator v, long d, VibrationEffect mystery) {\n"
        "    if (android.os.Build.VERSION.SDK_INT >= 26) {\n"
        "        v.vibrate(mystery);\n"
        "    } else {\n"
        "        v.vibrate(d);\n"
        "    }\n"
        "}\n")
    with pytest.raises(patchgen.ResolutionError):
        patchgen.generate_patch(example, mapping)


def test_example_without_both_calls_raises():
    mapping = sigmap.ApiMapping(
        sigmap.parse_signature("android.os.Vibrator#vibrate(long)"),
        sigmap.parse_signature("android.os.Vibrator#vibrate(android.os.VibrationEffect)"))
    example = jast.parse("void m(Vibrator v, long d) { v.vibrate(d); }")
    with pytest.raises(patchgen.ExampleShapeError):
        generate = patchgen.generate_patch(example, mapping)


@pytest.mark.parametrize("case", sorted(p.name for p in (CORPUS / "cases").iterdir()))
def test_render_parse_roundtrip(case):
    example, mapping = read_case(case)
    patch = patchgen.generate_patch(example, mapping, rewire_shared_args=True)
    reparsed = patchgen.parse_patch(patchgen.render_patch(patch))
    assert reparsed == patch
    assert patchgen.render_patch(reparsed) == patchgen.render_patch(patch)


def test_helper_method_and_class_come_back_in_their_own_order():
    example = jast.parse(
        "class A {\n"
        "    void m(Vibrator v, long d) {\n"
        "        if (SDK_INT >= 26) { v.vibrate(effect()); } else { v.vibrate(d); }\n"
        "    }\n"
        "    static VibrationEffect effect() { return new Maker().make(); }\n"
        "    static class Maker {\n"
        "        VibrationEffect make() { return VibrationEffect.createOneShot(1, 2); }\n"
        "    }\n"
        "}\n")
    patch = patchgen.generate_patch(example, VIBRATE)
    assert [d.name for d in patch.needs] == ["effect", "Maker"]
    reparsed = patchgen.parse_patch(patchgen.render_patch(patch))
    assert [d.name for d in reparsed.needs] == ["effect", "Maker"]
    assert reparsed == patch


def test_hand_written_patch_parses_to_the_canonical_one():
    lines = EXPECTED_VIBRATE_PATCH.splitlines()
    lines[6] = "+classIden.vibrate(newParameterVariable0);"
    lines[4:4] = [""]
    lines += ["   ", "..."]
    patch = patchgen.parse_patch("\n".join(lines) + "\n")
    example, mapping = read_case("vibrate")
    assert patch == patchgen.generate_patch(example, mapping)
    assert patchgen.render_patch(patch) == EXPECTED_VIBRATE_PATCH


def test_parse_patch_rejects_missing_header():
    with pytest.raises(patchgen.MalformedPatch):
        patchgen.parse_patch("identifier x;\n@@\n+ a();\nb();\n")


def test_parse_patch_rejects_empty_hunk():
    with pytest.raises(patchgen.MalformedPatch):
        patchgen.parse_patch("@r@\n@@\n")


def test_parse_patch_rejects_missing_context_line():
    with pytest.raises(patchgen.MalformedPatch):
        patchgen.parse_patch(
            "@r@\nidentifier iden0;\n@@\n...\n+ if (x) {\n+ a();\n+ } else {\n+ b();\n+ }\n")


def test_parse_patch_reports_line_number():
    try:
        patchgen.parse_patch("@r@\nbogus line\n@@\na();\n")
    except patchgen.MalformedPatch as err:
        assert err.line == 2
    else:
        pytest.fail("expected MalformedPatch")


def test_parse_patch_keeps_needs_the_guard_or_a_used_helper_reaches():
    patch = patchgen.parse_patch(
        "@r@\nidentifier iden0, classIden;\n@@\n...\n"
        "+ if (android.os.Build.VERSION.SDK_INT >= MIN_API) {\n"
        "+ classIden.vibrate(effect(iden0));\n"
        "+ } else {\nclassIden.vibrate(iden0);\n+ }\n@needs@\n"
        "static final int MIN_API = 26;\n"
        "static VibrationEffect effect(long d) { return make(d); }\n"
        "static VibrationEffect make(long d) { return VibrationEffect.createOneShot(d, 1); }\n")
    assert [d.name for d in patch.needs] == ["MIN_API", "effect", "make"]


@pytest.mark.parametrize("use, names", [
    ("this.OFFSET", ["OFFSET"]),
    ("Main.OFFSET", ["OFFSET"]),
    ("this.effect(iden0)", ["effect", "OFFSET"]),
], ids=["this_field", "class_field", "this_method"])
def test_parse_patch_keeps_needs_a_then_line_names_through_a_receiver(use, names):
    helper = "static int effect(long d) { return OFFSET; }\n" if "effect" in names else ""
    patch = patchgen.parse_patch(
        "@r@\nidentifier iden0, classIden;\n@@\n...\n"
        "+ if (android.os.Build.VERSION.SDK_INT >= 26) {\n"
        "+ classIden.vibrate(VibrationEffect.createOneShot(iden0, %s));\n"
        "+ } else {\nclassIden.vibrate(iden0);\n+ }\n@needs@\n"
        "%sstatic final int OFFSET = 1;\n" % (use, helper))
    assert [d.name for d in patch.needs] == names


@pytest.mark.parametrize("lineno, replacement, message", [
    (7, "+ classIden.vibrate(newParameterVariable0;", "not one expression"),
    (9, "x = iden0;", "no method call"),
    (9, "- classIden.vibrate(iden0);", "'-' lines"),
    (10, "+ log(iden0);", "after '\\+ } else {'"),
    (7, "+ classIden.vibrate(%snewParameterVariable0 + newParameterVariable0%s);"
     % ("(" * 300, ")" * 300), "used 2 times"),
    (5, '+ if ("SDK_INT) {', "unparsable guard"),
], ids=["unparsable_add_line", "context_without_call", "remove_line", "add_after_else",
        "nesting_too_deep", "unterminated_string_in_guard"])
def test_parse_patch_rejects_lines_the_engine_cannot_apply(lineno, replacement, message):
    lines = EXPECTED_VIBRATE_PATCH.splitlines()
    lines[lineno - 1] = replacement
    with pytest.raises(patchgen.MalformedPatch, match=message) as err:
        patchgen.parse_patch("\n".join(lines) + "\n")
    assert err.value.line == lineno


def test_generate_finds_sites_twice(monkeypatch):
    # deprecated and replacement sites in the example, once each
    example, mapping = read_case("set_sound")
    find = sigmap.find_invocations
    calls = []
    monkeypatch.setattr(sigmap, "find_invocations",
                        lambda unit, sig: calls.append(sig) or find(unit, sig))
    patchgen.generate_patch(example, mapping)
    assert calls == [mapping.deprecated, mapping.replacement]


def test_generate_finds_sites_once_when_name_and_arity_match(monkeypatch):
    # vibrate(long) and vibrate(VibrationEffect): one walk finds both
    example, mapping = read_case("vibrate")
    find = sigmap.find_invocations
    calls = []
    monkeypatch.setattr(sigmap, "find_invocations",
                        lambda unit, sig: calls.append(sig) or find(unit, sig))
    assert patchgen.render_patch(patchgen.generate_patch(example, mapping)) == EXPECTED_VIBRATE_PATCH
    assert calls == [mapping.deprecated]


VIBRATE = sigmap.ApiMapping(
    sigmap.parse_signature("android.os.Vibrator#vibrate(long)"),
    sigmap.parse_signature("android.os.Vibrator#vibrate(android.os.VibrationEffect)"))

DECLARED_TYPES = {
    "preceding_local": ("long d = 5; v.vibrate(d);", "long"),
    "local_in_an_enclosing_block": ("long d = 5; if (c) { { v.vibrate(d); } }", "long"),
    "local_after_the_call": ("v.vibrate(d); long d = 5;", "Object"),
    "local_in_a_sibling_branch": ("if (c) { long d = 5; } else { v.vibrate(d); }", "Object"),
    "local_in_an_earlier_block": ("{ long d = 5; } v.vibrate(d);", "Object"),
    "parameter": ("v.vibrate(p);", "Effect"),
}


@pytest.mark.parametrize("body, want", DECLARED_TYPES.values(), ids=DECLARED_TYPES.keys())
def test_declared_type_sees_only_what_precedes_the_call(body, want):
    unit = jast.parse("class A { Object d; void m(Vibrator v, Effect p) { %s } }" % body)
    (site,) = sigmap.find_invocations(unit, VIBRATE.deprecated)
    arg = site.call.args[0].identifier
    assert scope.at_site(site, unit).declared_type(arg) == want


def test_declared_type_finds_a_field_of_an_outer_class():
    unit = jast.parse("class Outer { long d;\n"
                      "    class Inner { void m(Vibrator v) { v.vibrate(d); } } }")
    (site,) = sigmap.find_invocations(unit, VIBRATE.deprecated)
    assert scope.at_site(site, unit).declared_type("d") == "long"
    assert scope.at_site(site, unit).declared_type("ghost") is None


# Both vibrate signatures share name and arity, so every call is a
# candidate for both sides. The declared argument types rank the pairs; a
# tie goes to the earliest if, then the earliest deprecated site, then the
# earliest updated site. Shared arguments are rewired, so the value shows
# which deprecated call was picked.
SAME_ARITY_DECLS = (
    "long d = 50;\nlong d2 = 60;\n"
    "VibrationEffect e = VibrationEffect.createOneShot(d, 1);\n"
    "VibrationEffect e2 = VibrationEffect.createOneShot(d2, 2);\n")
SAME_ARITY_EXAMPLES = {
    "types_rank_the_pairs": (
        "if (SDK_INT >= 26) { v.vibrate(e); } else { v.vibrate(d); }",
        "SDK_INT >= 26", "VibrationEffect.createOneShot(iden0, 1)"),
    "tie_takes_the_earliest_if": (
        "if (SDK_INT >= 28) { v.vibrate(e2); } else { v.vibrate(d2); }\n"
        "if (SDK_INT >= 26) { v.vibrate(e); } else { v.vibrate(d); }",
        "SDK_INT >= 28", "VibrationEffect.createOneShot(iden0, 2)"),
    "tie_takes_the_earliest_deprecated_site": (
        "if (SDK_INT >= 26) { v.vibrate(e); } else { v.vibrate(d2); v.vibrate(d); }",
        "SDK_INT >= 26", "VibrationEffect.createOneShot(50, 1)"),
    "tie_takes_the_earliest_updated_site": (
        "if (SDK_INT >= 26) { v.vibrate(e2); v.vibrate(e); } else { v.vibrate(d); }",
        "SDK_INT >= 26", "VibrationEffect.createOneShot(60, 2)"),
}


@pytest.mark.parametrize("body, guard, value", SAME_ARITY_EXAMPLES.values(),
                         ids=SAME_ARITY_EXAMPLES.keys())
def test_same_name_and_arity_pair_choice(body, guard, value):
    example = jast.parse("class A { void m(Vibrator v) {\n%s%s\n} }"
                         % (SAME_ARITY_DECLS, body))
    patch = patchgen.generate_patch(example, VIBRATE, rewire_shared_args=True)
    assert jast.render_expr(patch.guard_cond) == guard
    assert jast.render_expr(patch.then_stmts[0].init) == value
    assert jast.render_stmt(patch.context) == "classIden.vibrate(iden0);"


# When the updated call sits in the else branch, the guard is negated so
# that the updated call still runs only where the new API exists.
ELSE_BRANCH_UPDATES = {
    "less_than": (
        "long d = 50;\nVibrationEffect e = VibrationEffect.createOneShot(d, 1);\n"
        "if (SDK_INT < 26) { v.vibrate(d); } else { v.vibrate(e); }",
        "SDK_INT >= 26", "VibrationEffect.createOneShot(50, 1)"),
    "greater_than": (
        "if (26 > SDK_INT) { v.vibrate(3); } else { v.vibrate(new VibrationEffect(1)); }",
        "26 <= SDK_INT", "new VibrationEffect(1)"),
    "not_relational": (
        "if (!newer) { v.vibrate(3); } else { v.vibrate(new VibrationEffect(1)); }",
        "!(!newer)", "new VibrationEffect(1)"),
    "then_branch_keeps_the_guard": (
        "if (SDK_INT < 26) { v.vibrate(new VibrationEffect(1)); } else { v.vibrate(3); }",
        "SDK_INT < 26", "new VibrationEffect(1)"),
}


@pytest.mark.parametrize("body, guard, value", ELSE_BRANCH_UPDATES.values(),
                         ids=ELSE_BRANCH_UPDATES.keys())
def test_guard_holds_where_the_updated_call_runs(body, guard, value):
    example = jast.parse("class A { void m(Vibrator v) {\n%s\n} }" % body)
    patch = patchgen.generate_patch(example, VIBRATE)
    assert jast.render_expr(patch.guard_cond) == guard
    assert jast.render_expr(patch.then_stmts[0].init) == value
    assert patchgen.parse_patch(patchgen.render_patch(patch)) == patch


# Where the type scores tie, a guard on SDK_INT says which branch holds the
# updated call: the then branch where the guard holds on newer devices,
# else the else branch. Both arguments score 0: neither is a name, a
# creation or a literal.
GUARD_DIRECTIONS = {
    "at_least": ("SDK_INT >= 26", "then", "SDK_INT >= 26"),
    "above_qualified": ("Build.VERSION.SDK_INT > 25", "then", "Build.VERSION.SDK_INT > 25"),
    "at_most_on_the_right": ("26 <= SDK_INT", "then", "26 <= SDK_INT"),
    "below_on_the_right": ("25 < SDK_INT", "then", "25 < SDK_INT"),
    "below": ("SDK_INT < 26", "else", "SDK_INT >= 26"),
    "at_most": ("SDK_INT <= 25", "else", "SDK_INT > 25"),
    "above_on_the_right": ("26 > SDK_INT", "else", "26 <= SDK_INT"),
    "at_least_on_the_right": ("25 >= SDK_INT", "else", "25 < SDK_INT"),
}
_TIED = "if (%s) { v.vibrate(%s); } else { v.vibrate(%s); }"
_TIED_UPDATED = "VibrationEffect.createOneShot(50, 175)"


@pytest.mark.parametrize("guard, branch, patch_guard", GUARD_DIRECTIONS.values(),
                         ids=GUARD_DIRECTIONS.keys())
def test_a_tie_goes_to_the_branch_the_guard_names(guard, branch, patch_guard):
    calls = (_TIED_UPDATED, "d * 2") if branch == "then" else ("d * 2", _TIED_UPDATED)
    example = jast.parse("class A { void m(Vibrator v, long d) {\n%s\n} }"
                         % (_TIED % ((guard,) + calls)))
    patch = patchgen.generate_patch(example, VIBRATE)
    assert jast.render_expr(patch.guard_cond) == patch_guard
    assert jast.render_expr(patch.then_stmts[0].init) == _TIED_UPDATED
    assert jast.render_stmt(patch.context) == "classIden.vibrate(iden0);"


@pytest.mark.parametrize("guard", ["newer", "SDK_INT == 26", "n >= 26", "SDK_INT >= SDK_INT"])
def test_a_guard_without_a_direction_leaves_the_tie_to_the_earliest_site(guard):
    # the earliest deprecated site is the then branch's call
    example = jast.parse("class A { void m(Vibrator v, long d) {\n%s\n} }"
                         % (_TIED % (guard, "d * 2", _TIED_UPDATED)))
    patch = patchgen.generate_patch(example, VIBRATE)
    assert jast.render_expr(patch.then_stmts[0].init) == _TIED_UPDATED
    with pytest.raises(patchgen.ResolutionError, match="'d \\* 2'"):
        patchgen.generate_patch(jast.parse("class A { void m(Vibrator v, long d) {\n%s\n} }"
                                           % (_TIED % (guard, _TIED_UPDATED, "d * 2"))),
                                VIBRATE)


def test_a_patch_generated_from_a_golden_reproduces_the_case_goldens():
    # complex_arg's golden pairs two arguments that score 0; its guard says
    # which call is the updated one
    root = CORPUS / "cases" / "vibrate"
    golden = jast.parse((root / "expected" / "complex_arg.java").read_text())
    patch = patchgen.parse_patch(patchgen.render_patch(patchgen.generate_patch(golden, VIBRATE)))
    targets = sorted((root / "targets").glob("*.java"))
    assert len(targets) == 4
    for target in targets:
        out, _report = engine.update(target.read_text(), patch, VIBRATE)
        assert out == (root / "expected" / target.name).read_text(), target.name


SHOW = sigmap.ApiMapping(sigmap.parse_signature("a.Toast#show(java.lang.String)"),
                         sigmap.parse_signature("a.Toast#show(a.Text)"))

# Arguments that are not names rank the pairs too: each example puts the
# updated call first, so a tie would take it for the deprecated one.
TYPED_ARGUMENTS = {
    "numeric_literal": (VIBRATE, "v.vibrate(VibrationEffect.createOneShot(1, 2))",
                        "v.vibrate(3)", "VibrationEffect.createOneShot(1, 2)"),
    "string_literal": (SHOW, "t.show(text())", 't.show("hi")', "text()"),
    "object_creation": (VIBRATE, "v.vibrate(new VibrationEffect(1))", "v.vibrate(d())",
                        "new VibrationEffect(1)"),
}


@pytest.mark.parametrize("mapping, updated, deprecated, value", TYPED_ARGUMENTS.values(),
                         ids=TYPED_ARGUMENTS.keys())
def test_literal_and_creation_arguments_rank_the_pairs(mapping, updated, deprecated, value):
    example = jast.parse("class A { void m(Vibrator v, Toast t) {\n"
                         "if (SDK_INT >= 26) { %s; } else { %s; }\n} }" % (updated, deprecated))
    patch = patchgen.generate_patch(example, mapping)
    assert jast.render_expr(patch.then_stmts[0].init) == value
    assert (jast.render_stmt(patch.context)
            == "classIden.%s(iden0);" % mapping.deprecated.method_name)


FROM_HTML = sigmap.ApiMapping(
    sigmap.parse_signature("android.text.Html#fromHtml(java.lang.String)"),
    sigmap.parse_signature("android.text.Html#fromHtml(java.lang.String, int)"))

# (mapping, class header, updated and deprecated statements, context line,
# updated line of the patch)
CALL_SHAPES = {
    "receiverless_call": (
        VIBRATE, "class A extends Vibrator", "vibrate(VibrationEffect.createOneShot(50, 1));",
        "vibrate(50);", "vibrate(iden0);", "vibrate(newParameterVariable0);"),
    "type_name_receiver_kept": (
        FROM_HTML, "class A", "out = HtmlCompat.fromHtml(s, 0);", "out = Html.fromHtml(s);",
        "exp0 = classIden.fromHtml(iden0);",
        "exp0 = HtmlCompat.fromHtml(iden0, newParameterVariable0);"),
    "type_name_receiver_against_none": (
        FROM_HTML, "class A extends Html", "out = HtmlCompat.fromHtml(s, 0);",
        "out = fromHtml(s);", "exp0 = fromHtml(iden0);",
        "exp0 = HtmlCompat.fromHtml(iden0, newParameterVariable0);"),
    "local_initializer": (
        FROM_HTML, "class A", "Spanned x = Html.fromHtml(s, 0);", "Spanned x = Html.fromHtml(s);",
        "exp0 = classIden.fromHtml(iden0);",
        "exp0 = classIden.fromHtml(iden0, newParameterVariable0);"),
}


@pytest.mark.parametrize("mapping, header, updated, deprecated, context, line",
                         CALL_SHAPES.values(), ids=CALL_SHAPES.keys())
def test_call_shapes_abstract_to_the_patch_lines(mapping, header, updated, deprecated, context,
                                                 line):
    example = jast.parse("%s { void m(String s) {\nCharSequence out;\n"
                         "if (SDK_INT >= 26) { %s } else { %s }\n} }"
                         % (header, updated, deprecated))
    patch = patchgen.generate_patch(example, mapping)
    assert jast.render_stmt(patch.context) == context
    assert jast.render_stmt(patch.then_stmts[-1]) == line
    assert patchgen.parse_patch(patchgen.render_patch(patch)) == patch


def test_an_updated_call_that_drops_the_receiver_is_refused():
    # `vibrate(x)` against `v.vibrate(50)` would turn a target's
    # `other.vibrate(20)` into a call on the target class itself
    example = jast.parse("class A extends Vibrator { void m(Vibrator v) {\n"
                         "if (SDK_INT >= 26) { vibrate(VibrationEffect.createOneShot(50, 1)); }"
                         " else { v.vibrate(50); }\n} }")
    with pytest.raises(patchgen.ResolutionError, match="drop the deprecated call's receiver 'v'"):
        patchgen.generate_patch(example, VIBRATE)


GUARD_CALL_EXAMPLE = """\
%sclass A {
%s    void m(Vibrator v, long d) {
        if (atLeastO()) {
            v.vibrate(VibrationEffect.createOneShot(50, 175));
        } else {
            v.vibrate(d);
        }
    }
}
"""
AT_LEAST_O = ("    static boolean atLeastO() { return SDK_INT >= LEVEL; }\n"
              "    static final int LEVEL = 26;\n")


def test_a_method_the_guard_calls_is_carried_in_needs():
    example = jast.parse(GUARD_CALL_EXAMPLE % ("", AT_LEAST_O))
    patch = patchgen.generate_patch(example, VIBRATE)
    assert jast.render_expr(patch.guard_cond) == "atLeastO()"
    assert [d.name for d in patch.needs] == ["atLeastO", "LEVEL"]
    assert patchgen.parse_patch(patchgen.render_patch(patch)) == patch


def test_a_guard_call_only_a_wildcard_static_import_declares_is_refused():
    imports = "import static com.example.Compat.*;\n\n"
    example = jast.parse(GUARD_CALL_EXAMPLE % (imports, ""))
    with pytest.raises(patchgen.ExampleShapeError,
                       match=r"would use atLeastO\(\), which only the example's 'import static "
                             r"com\.example\.Compat\.\*;' declares"):
        patchgen.generate_patch(example, VIBRATE)
    # declared by the example, it is carried instead
    example = jast.parse(GUARD_CALL_EXAMPLE % (imports, AT_LEAST_O))
    assert [d.name for d in patchgen.generate_patch(example, VIBRATE).needs] == [
        "atLeastO", "LEVEL"]


def test_a_class_a_helper_names_only_as_a_local_type_is_carried():
    example = (CORPUS / "cases" / "set_sound" / "example.java").read_text()
    for old, new in [("makeAttrs(int usage) {\n",
                      "makeAttrs(int usage) {\n        Holder h = null;\n"),
                     ("\n}\n", "\n\n    static class Holder {\n    }\n}\n")]:
        assert example.count(old) == 1
        example = example.replace(old, new)
    _example, mapping = read_case("set_sound")
    patch = patchgen.generate_patch(jast.parse(example), mapping)
    assert [d.name for d in patch.needs] == ["makeAttrs", "Holder", "buildAttrs"]
    rendered = patchgen.render_patch(patch)
    assert patchgen.parse_patch(rendered).needs[1].name == "Holder"
    with pytest.raises(patchgen.MalformedPatch, match="@needs@ member Holder is never used"):
        patchgen.parse_patch(rendered.replace("Holder h = null;", ""))


def test_a_field_a_helper_reads_through_this_is_carried():
    example = jast.parse(
        "class A {\n"
        "    static final int AMP = 175;\n"
        "    int amp() { return this.AMP; }\n"
        "    void m(Vibrator v, long d) {\n"
        "        if (SDK_INT >= 26) { v.vibrate(VibrationEffect.createOneShot(50, amp())); }\n"
        "        else { v.vibrate(d); }\n"
        "    }\n"
        "}\n")
    patch = patchgen.generate_patch(example, VIBRATE)
    assert [d.name for d in patch.needs] == ["amp", "AMP"]
    assert patchgen.parse_patch(patchgen.render_patch(patch)) == patch


@pytest.mark.parametrize("member, guard, arg", [
    ("static class Codes { static final int O = 26; }", "Codes.O",
     "VibrationEffect.createOneShot(50, 1)"),
    ("static class Mk { static VibrationEffect make() { return null; } }", "26", "Mk.make()"),
], ids=["guard", "then"])
def test_a_helper_class_named_as_a_receiver_is_carried(member, guard, arg):
    example = jast.parse("class A {\n    %s\n    void m(Vibrator v, long d) {\n"
                         "        if (SDK_INT >= %s) { v.vibrate(%s); } else { v.vibrate(d); }\n"
                         "    }\n}\n" % (member, guard, arg))
    patch = patchgen.generate_patch(example, VIBRATE)
    assert [d.src for d in patch.needs] == [member]


THEN_CALL_EXAMPLE = """\
import static com.example.Compat.*;

class A {
%s    void m(Vibrator v, long d) {
        if (android.os.Build.VERSION.SDK_INT >= 26) {
            v.vibrate(effectOf(%s));
        } else {
            v.vibrate(d);
        }
    }
}
"""
EFFECT_OF = "    static VibrationEffect effectOf(long d) { return null; }\n"


@pytest.mark.parametrize("arg, rewire, used", [
    ("50", False, "50"), ("50", True, "50"), ("d", True, "iden0"),
], ids=["literal", "literal_rewired", "rewired"])
def test_a_then_call_only_a_wildcard_static_import_declares_is_refused(arg, rewire, used):
    # the then branch's resolved values are checked by the guard's rule: a
    # call without a receiver resolves to itself, so it can name the wildcard
    example = jast.parse(THEN_CALL_EXAMPLE % ("", arg))
    with pytest.raises(patchgen.ExampleShapeError,
                       match=r"would use effectOf\(%s\), which only the example's "
                             r"'import static com\.example\.Compat\.\*;' declares" % used):
        patchgen.generate_patch(example, VIBRATE, rewire_shared_args=rewire)
    # declared by the example, it is carried instead, and a rewired argument
    # is a metavariable, which needs no declaration
    example = jast.parse(THEN_CALL_EXAMPLE % (EFFECT_OF, arg))
    patch = patchgen.generate_patch(example, VIBRATE, rewire_shared_args=rewire)
    assert [d.name for d in patch.needs] == ["effectOf"]
    assert jast.render_stmt(patch.then_stmts[0]).endswith("= effectOf(%s);" % used)


NEEDS_HEAD = ("@r@\nidentifier iden0, classIden;\n@@\n...\n"
              "+ if (android.os.Build.VERSION.SDK_INT >= 26) {\n"
              "+ classIden.vibrate(effect(iden0));\n"
              "+ } else {\nclassIden.vibrate(iden0);\n+ }\n@needs@\n")  # @needs@ is line 10
EFFECT = "static VibrationEffect effect(long d) { return VibrationEffect.createOneShot(d, 1); }\n"


@pytest.mark.parametrize("needs, lineno, text", [
    ("static VibrationEffect effect(long d) return VibrationEffect.createOneShot(d, 1);\n",
     11, "static VibrationEffect effect"),
    ("import android.os.VibrationEffect;\nimprt android.os.Vibrator;\n" + EFFECT,
     12, "imprt android.os.Vibrator;"),
    ("import static android.os.Build.VERSION;\n" + EFFECT, 11, "import static"),
    (EFFECT + "@needs@\n" + EFFECT.replace("effect", "other"), 12, "@needs@"),
], ids=["helper_without_braces", "corrupted_import", "static_import", "second_needs"])
def test_parse_patch_rejects_a_needs_line_copying_would_drop(needs, lineno, text):
    with pytest.raises(patchgen.MalformedPatch,
                       match="is not a field, method or class") as err:
        patchgen.parse_patch(NEEDS_HEAD + needs)
    assert err.value.line == lineno
    assert str(err.value).startswith("line %d: @needs@ line '%s" % (lineno, text))


def test_parse_patch_drops_an_empty_declaration_in_needs():
    patch = patchgen.parse_patch(NEEDS_HEAD + ";\n" + EFFECT.rstrip("\n") + ";\n")
    assert [d.name for d in patch.needs] == ["effect"]
    assert patchgen.render_patch(patch).endswith("@needs@\n\n" + EFFECT)
