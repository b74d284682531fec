import random

import pytest

from api_evolve import engine, jast, normal, patchgen, sigmap

from conftest import CORPUS, REPO


def load_patch(case, rewire=False):
    root = CORPUS / "cases" / case
    dep, upd = (root / "mapping.txt").read_text().splitlines()
    mapping = sigmap.ApiMapping(sigmap.parse_signature(dep),
                                sigmap.parse_signature(upd))
    example = jast.parse((root / "example.java").read_text())
    return patchgen.generate_patch(example, mapping, rewire_shared_args=rewire), mapping


# -- matching -----------------------------------------------------------------

def match(pattern_text, stmt_text, ident=(), expr=()):
    return engine.match_statement(jast.parse_stmt_text(pattern_text),
                                  jast.parse_stmt_text(stmt_text),
                                  expr_metavars=expr, ident_metavars=ident)


def test_identifier_metavar_binds_name():
    b = match("classIden.vibrate(iden0);", "v.vibrate(d);",
              ident=("classIden", "iden0"))
    assert b is not None
    assert jast.render_expr(b.assignments["classIden"]) == "v"
    assert jast.render_expr(b.assignments["iden0"]) == "d"


def test_identifier_metavar_rejects_compound():
    assert match("classIden.vibrate(iden0);", "v.vibrate(d * 2);",
                 ident=("classIden", "iden0")) is None


def test_expression_metavar_binds_anything():
    b = match("exp0 = classIden.getCurrentMinute();",
              "this.minute = tp.getCurrentMinute();",
              ident=("classIden",), expr=("exp0",))
    assert b is not None
    assert jast.render_expr(b.assignments["exp0"]) == "this.minute"


def test_repeated_metavar_must_agree():
    assert match("f(iden0, iden0);", "f(a, a);", ident=("iden0",)) is not None
    assert match("f(iden0, iden0);", "f(a, b);", ident=("iden0",)) is None


def test_method_name_and_arity_are_rigid():
    assert match("classIden.vibrate(iden0);", "v.buzz(d);",
                 ident=("classIden", "iden0")) is None
    assert match("classIden.vibrate(iden0);", "v.vibrate(d, e);",
                 ident=("classIden", "iden0")) is None


def test_substitution_inverts_match():
    pattern = jast.parse_stmt_text("classIden.vibrate(iden0);")
    concrete = jast.parse_stmt_text("vib.vibrate(dur);")
    b = engine.match_statement(pattern, concrete,
                               ident_metavars=("classIden", "iden0"))
    out = engine.substitute_stmt(pattern, b)
    assert jast.render_stmt(out) == "vib.vibrate(dur);"


def test_substitution_applies_renames():
    pattern = jast.parse_stmt_text("x = makeAttrs(5);")
    b = engine.MetaBinding()
    out = engine.substitute_stmt(pattern, b, renames={"makeAttrs": "makeAttrs_androevolve"})
    assert jast.render_stmt(out) == "x = makeAttrs_androevolve(5);"


def test_substitute_and_render_cost_one_frame_a_level():
    # 700 levels fit under the default recursion limit only at one Python
    # frame a level; a generated patch's inlined chain can be this deep
    e = jast.Name("iden0")
    for _ in range(700):
        e = jast.Binary("-", e, jast.Literal("int", "1"))
    out = engine.substitute_expr(e, engine.MetaBinding({"iden0": jast.Name("t")}))
    assert jast.render_expr(out) == "t" + " - 1" * 700


# -- guard detection ----------------------------------------------------------

def guarded_site(text, mapping):
    unit = jast.parse(text)
    return sigmap.find_invocations(unit, mapping.deprecated)


def test_already_guarded(minute_mapping):
    sites = guarded_site(
        "class A { void m(TimePicker tp) {\n"
        "    if (android.os.Build.VERSION.SDK_INT >= 23) {\n"
        "        x = tp.getMinute();\n"
        "    } else {\n"
        "        x = tp.getCurrentMinute();\n"
        "    }\n"
        "} }", minute_mapping)
    assert all(engine.already_guarded(s) for s in sites)


def test_unrelated_condition_not_guarded(minute_mapping):
    sites = guarded_site(
        "class A { void m(TimePicker tp) {\n"
        "    if (live) { x = tp.getCurrentMinute(); }\n"
        "} }", minute_mapping)
    assert not any(engine.already_guarded(s) for s in sites)


# -- application --------------------------------------------------------------

def test_apply_reports_and_guards():
    patch, _ = load_patch("vibrate")
    unit = jast.parse(
        "class A {\n"
        "    void m(Vibrator v, long d) {\n"
        "        v.vibrate(d);\n"
        "    }\n"
        "}\n")
    edits, report = engine.apply_patch(patch, unit)
    text = jast.splice(unit, edits)
    assert report.sites_found == 1 and report.sites_updated == 1
    assert "if (android.os.Build.VERSION.SDK_INT >= android.os.Build.VERSION_CODES.O) {" in text
    assert "} else {" in text
    assert "v.vibrate(d);" in text  # original call preserved in else branch
    assert "VibrationEffect.createOneShot(50, 175)" in text


def test_apply_fresh_temp_per_site():
    patch, _ = load_patch("vibrate")
    unit = jast.parse(
        "class A {\n"
        "    void m(Vibrator v, long a, long b) {\n"
        "        v.vibrate(a);\n"
        "        v.vibrate(b);\n"
        "    }\n"
        "}\n")
    edits, report = engine.apply_patch(patch, unit)
    text = jast.splice(unit, edits)
    assert report.sites_updated == 2
    for arg in "ab":
        assert ("    v.vibrate(VibrationEffect.createOneShot(50, 175));\n"
                "        } else {\n"
                "            v.vibrate(%s);\n" % arg) in text
    assert normal.purge_ok(text)


def test_apply_skips_guarded_site():
    patch, _ = load_patch("vibrate")
    unit = jast.parse(
        "class A {\n"
        "    void m(Vibrator v, long d) {\n"
        "        if (android.os.Build.VERSION.SDK_INT >= 26) {\n"
        "            v.vibrate(d);\n"
        "        }\n"
        "    }\n"
        "}\n")
    before = jast.print_unit(unit)
    edits, report = engine.apply_patch(patch, unit)
    assert jast.splice(unit, edits) == before
    assert report.sites_updated == 0
    assert [r for _, r in report.sites_skipped] == [engine.ALREADY_GUARDED]


def test_apply_is_idempotent():
    patch, _ = load_patch("vibrate")
    unit = jast.parse(
        "class A {\n"
        "    void m(Vibrator v, long d) {\n"
        "        v.vibrate(d);\n"
        "    }\n"
        "}\n")
    once = jast.parse(jast.splice(unit, engine.apply_patch(patch, unit)[0]))
    edits, report = engine.apply_patch(patch, once)
    assert jast.splice(once, edits) == jast.print_unit(once)
    assert report.sites_updated == 0


def test_apply_only_touches_replaced_statement():
    patch, _ = load_patch("vibrate")
    text = ("class A {\n"
            "    // leading comment\n"
            "    void m(Vibrator v, long d) {\n"
            "        before();\n"
            "        v.vibrate(d);\n"
            "        after();  // trailing\n"
            "    }\n"
            "}\n")
    unit = jast.parse(text)
    (site,) = sigmap.find_invocations(
        unit, sigmap.parse_signature("android.os.Vibrator#vibrate(long)"))
    span = site.enclosing_stmt.span
    result = jast.splice(unit, engine.apply_patch(patch, unit)[0])
    assert result.startswith(text[:span.start])
    assert result.endswith(text[span.end:])


def test_report_json_shape():
    patch, _ = load_patch("vibrate")
    unit = jast.parse("class A { void m(Vibrator v, long d) { v.vibrate(d); } }")
    _edits, report = engine.apply_patch(patch, unit)
    report.file_path = "A.java"
    d = report.to_json_dict(unit.text)
    assert d["file"] == "A.java"
    assert d["sitesFound"] == 1 and d["sitesUpdated"] == 1
    assert d["skipped"] == []


# -- transplantation ----------------------------------------------------------

def helpers(text):
    """The helper methods of a @needs@ section, as SemanticPatch.needs holds them."""
    return jast.parse(text).types[0].methods


def receiving_class(unit):
    """The block of the class around `void m`, as jast.blocks_around lists it."""
    at = unit.text.index("void m")
    ((_at, blocks, _start, _end),) = jast.blocks_around(
        unit.text, jast.check_balanced(unit.text), [at])
    return blocks[1]


def test_transplant_appends_method_and_import():
    unit = jast.parse("import a.B;\n\nclass T {\n    void m() { }\n}\n")
    defs = helpers("static AudioAttributes makeAttrs(int usage) {\n"
                   "    return null;\n"
                   "}")
    edits, copied, renames = engine.transplant_definitions(
        unit, receiving_class(unit), defs, imports=["android.media.AudioAttributes"])
    text = jast.splice(unit, edits)
    assert copied == ["makeAttrs"]
    assert renames == {}
    assert "import android.media.AudioAttributes;" in text
    assert text.index("import a.B;") < text.index("import android.media")
    assert "makeAttrs" in text
    jast.parse(text)  # stays well-formed


def test_transplant_reuses_identical_signature():
    unit = jast.parse(
        "class T {\n"
        "    static AudioAttributes makeAttrs(int usage) { return own(usage); }\n"
        "    void m() { }\n"
        "}\n")
    before = jast.print_unit(unit)
    edits, copied, renames = engine.transplant_definitions(
        unit, receiving_class(unit),
        helpers("static AudioAttributes makeAttrs(int usage) { return null; }"))
    assert jast.splice(unit, edits) == before
    assert copied == [] and renames == {}


def test_transplant_renames_collision():
    unit = jast.parse(
        "class T {\n"
        "    static int makeAttrs(int a, int b) { return 0; }\n"
        "    void m() { }\n"
        "}\n")
    edits, copied, renames = engine.transplant_definitions(
        unit, receiving_class(unit),
        helpers("static AudioAttributes makeAttrs(int usage) { return null; }"))
    text = jast.splice(unit, edits)
    assert renames == {"makeAttrs": "makeAttrs_androevolve"}
    assert "makeAttrs_androevolve(int usage)" in text


def test_helper_renamed_on_collision_is_called_by_its_alias():
    patch, mapping = load_patch("set_sound")
    text = ("public class Ringer {\n"
            "    void ring(android.app.Notification.Builder builder, android.net.Uri tone) {\n"
            "        builder.setSound(tone);\n"
            "    }\n\n"
            "    static int buildAttrs(int a, int b) {\n"
            "        return a + b;\n"
            "    }\n"
            "}\n")
    out, report = engine.update(text, patch, mapping)
    assert report.definitions_copied == ["makeAttrs", "buildAttrs_androevolve"]
    (ringer,) = jast.parse(out).types
    bodies = {m.name: m.src for m in ringer.methods}
    assert "return buildAttrs_androevolve(usage);" in bodies["makeAttrs"]
    assert "return a + b;" in bodies["buildAttrs"]
    assert engine.update(out, patch, mapping)[0] == out


SET_SOUND = CORPUS / "cases" / "set_sound"
USAGE_FIELD = "    private static final int USAGE = 5;\n"
# the example's buildAttrs helper reads a field of the example class
READS_OFFSET = [("setUsage(usage)", "setUsage(usage + OFFSET)"),
                (USAGE_FIELD, USAGE_FIELD + "    private static final int OFFSET = 1;\n")]


def edited_set_sound_patch(edits):
    """The set_sound patch generated from its example after text edits,
    passed through its rendered form."""
    text = (SET_SOUND / "example.java").read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    _patch, mapping = load_patch("set_sound")
    patch = patchgen.generate_patch(jast.parse(text), mapping)
    return patchgen.parse_patch(patchgen.render_patch(patch)), mapping


def test_helper_brings_the_field_it_reads():
    patch, mapping = edited_set_sound_patch(READS_OFFSET)
    text = (SET_SOUND / "targets" / "basic.java").read_text()
    out, report = engine.update(text, patch, mapping)
    assert out.count("OFFSET = 1;") == 1
    assert report.definitions_copied == ["makeAttrs", "buildAttrs", "OFFSET"]
    jast.parse(out)
    assert engine.update(out, patch, mapping)[0] == out


def test_helper_parameter_named_like_a_field_pulls_in_no_field():
    patch, _mapping = edited_set_sound_patch(
        [(USAGE_FIELD, USAGE_FIELD + "    private int usage = 2;\n")])
    assert [d.name for d in patch.needs] == ["makeAttrs", "buildAttrs"]


def test_target_field_of_the_same_name_is_reused():
    patch, mapping = edited_set_sound_patch(READS_OFFSET)
    text = ("class T {\n"
            "    private static final int OFFSET = 7;\n"
            "    void m(android.app.Notification.Builder b, android.net.Uri u) {\n"
            "        b.setSound(u);\n"
            "    }\n"
            "}\n")
    out, report = engine.update(text, patch, mapping)
    assert report.sites_updated == 1
    assert out.count("OFFSET =") == 1 and "OFFSET = 7;" in out
    assert report.definitions_copied == ["makeAttrs", "buildAttrs"]


def test_transplant_skips_existing_import():
    unit = jast.parse("import android.media.AudioAttributes;\n\nclass T { void m() { } }\n")
    edits, _, _ = engine.transplant_definitions(
        unit, receiving_class(unit), [], imports=["android.media.AudioAttributes"])
    assert jast.splice(unit, edits).count("import android.media.AudioAttributes;") == 1


# -- the apply pipeline -------------------------------------------------------

@pytest.mark.parametrize("sites", [1, 40])
def test_update_parses_once(sites, monkeypatch):
    patch, mapping = load_patch("vibrate")
    body = ["        v.vibrate(d * %d);" % k for k in range(sites)]
    text = "\n".join(["class A {", "    void m(Vibrator v, long d) {"]
                     + body + ["    }", "}", ""])
    calls = []
    for name in ("parse", "parse_island", "edited", "splice"):
        monkeypatch.setattr(jast, name, lambda *a, fn=getattr(jast, name), name=name:
                            calls.append(name) or fn(*a))
    out, report = engine.update(text, patch, mapping)
    # never the whole text: each site's statement is parsed once, as its
    # island, and every edit is spliced at once
    assert calls == ["parse_island"] * sites + ["splice"]
    assert report.sites_updated == sites
    assert out.count("VibrationEffect.createOneShot(50, 175)") == sites
    assert normal.purge_ok(out)


def test_update_lexes_only_blocks_that_name_the_method(monkeypatch):
    patch, mapping = load_patch("set_sound")
    filler = "".join("    int f%d(int a) { return a * %d; }\n" % (i, i) for i in range(20))
    text = (CORPUS / "cases" / "set_sound" / "targets" / "basic.java").read_text()
    text = text.replace("{\n", "{\n" + filler, 1)
    calls, lexed = [], []
    monkeypatch.setattr(jast, "parse", lambda *a, fn=jast.parse: calls.append(a) or fn(*a))
    monkeypatch.setattr(jast, "_lex", lambda *a, fn=jast._lex: lexed.append(fn(*a))
                        or lexed[-1])
    out, report = engine.update(text, patch, mapping)
    # the target is never parsed whole, and the @needs@ helpers were
    # parsed with the patch
    assert calls == []
    assert report.sites_updated == 1 and report.definitions_copied == ["makeAttrs", "buildAttrs"]
    # what is lexed is the header and the site's island; no member that
    # names neither the method nor a helper
    assert lexed and not {"f0", "f19", "a"} & {v for _k, values, _s, _e in lexed for v in values}


def test_helpers_far_from_any_site_are_reused():
    # a method of a helper's name and arity, a field and a class of a
    # helper's name: members that name no site, in different places
    patch, mapping = _needs_patch()
    filler = "".join("    int f%d(int a) { return a * %d; }\n" % (i, i) for i in range(20))
    text = ("import android.media.AudioAttributes;\n\n"
            "class T {\n"
            "    static AudioAttributes makeAttrs(int usage) {\n"
            "        return null;\n"
            "    }\n" + filler +
            "    void m(android.app.Notification.Builder b, android.net.Uri u) {\n"
            "        b.setSound(u);\n"
            "    }\n" + filler +
            "    private static final int OFFSET = 7;\n" + filler +
            "    static class AttrsBuilder {\n"
            "        AudioAttributes build(int u) { return null; }\n"
            "    }\n"
            "}\n")
    out, report = engine.update(text, patch, mapping)
    assert report.sites_updated == 1 and report.definitions_copied == []
    assert out.count("makeAttrs(int usage)") == 1 and out.count("OFFSET =") == 1
    assert out.count("class AttrsBuilder") == 1
    assert "b.setSound(u, makeAttrs(OFFSET));" in out


# One site, `v.vibrate(50);`, in each context that Android code puts a
# statement in.
CONTEXT_PROBES = {
    "plain_method": "class P {\n    void m(Vibrator v) {\n        v.vibrate(50);\n    }\n}\n",
    "override_method": "class P extends Q {\n    @Override\n    public void m(Vibrator v) {\n"
                       "        v.vibrate(50);\n    }\n}\n",
    "synchronized_method": "class P {\n    synchronized void m(Vibrator v) {\n"
                           "        v.vibrate(50);\n    }\n}\n",
    "generic_method": "class P {\n    <T extends Runnable> T m(Vibrator v, T t) {\n"
                      "        v.vibrate(50);\n        return t;\n    }\n}\n",
    "final_parameter": "class P {\n    void m(final Vibrator v) {\n        v.vibrate(50);\n    }\n}\n",
    "varargs_method": "class P {\n    void m(Vibrator v, int... times) {\n"
                      "        v.vibrate(50);\n    }\n}\n",
    "constructor": "class P {\n    P(Vibrator v) {\n        v.vibrate(50);\n    }\n}\n",
    "static_initializer": "class P {\n    static Vibrator v;\n    static {\n"
                          "        v.vibrate(50);\n    }\n}\n",
    "for": "class P {\n    void m(Vibrator v) {\n        for (int i = 0; i < 3; i++) {\n"
           "            v.vibrate(50);\n        }\n    }\n}\n",
    "enhanced_for": "class P {\n    void m(java.util.List<Vibrator> vs) {\n"
                    "        for (Vibrator v : vs) {\n            v.vibrate(50);\n        }\n"
                    "    }\n}\n",
    "while": "class P {\n    void m(Vibrator v, boolean on) {\n        while (on) {\n"
             "            v.vibrate(50);\n        }\n    }\n}\n",
    "try": "class P {\n    void m(Vibrator v) {\n        try {\n            v.vibrate(50);\n"
           "        } catch (RuntimeException e) {\n            e.printStackTrace();\n"
           "        }\n    }\n}\n",
    "switch": "class P {\n    void m(Vibrator v, int k) {\n        switch (k) {\n"
              "            case 1:\n                v.vibrate(50);\n                break;\n"
              "            default:\n                break;\n        }\n    }\n}\n",
    "lambda_body": "class P {\n    void m(Vibrator v) {\n        Runnable r = () -> {\n"
                   "            v.vibrate(50);\n        };\n        r.run();\n    }\n}\n",
    "anonymous_class": "class P {\n    void m(final Vibrator v) {\n"
                       "        Runnable r = new Runnable() {\n            @Override\n"
                       "            public void run() {\n                v.vibrate(50);\n"
                       "            }\n        };\n    }\n}\n",
    "interface_default_method": "interface P {\n    default void m(Vibrator v) {\n"
                                "        v.vibrate(50);\n    }\n}\n",
    "enum": "enum P {\n    A, B;\n\n    void m(Vibrator v) {\n        v.vibrate(50);\n    }\n}\n",
}


@pytest.mark.parametrize("text", CONTEXT_PROBES.values(), ids=CONTEXT_PROBES.keys())
def test_a_site_in_every_statement_context_is_updated(text):
    patch, mapping = load_patch("vibrate")
    out, report = engine.update(text, patch, mapping)
    assert (report.sites_found, report.sites_updated, report.sites_skipped) == (1, 1, [])
    indent = jast.indent_at(text, text.index("v.vibrate(50);"))
    assert ("%sif (android.os.Build.VERSION.SDK_INT >= android.os.Build.VERSION_CODES.O) {\n"
            "%s    v.vibrate(VibrationEffect.createOneShot(50, 175));\n%s} else {\n"
            "%s    v.vibrate(50);\n%s}\n" % ((indent,) * 5)) in out
    start = text.index("v.vibrate(50);")
    assert out.startswith(text[:start]) and out.endswith(text[start + len("v.vibrate(50);"):])
    assert jast.print_unit(jast.parse(out)) == out
    again, report = engine.update(out, patch, mapping)
    assert again == out and report.sites_updated == 0


def _reasons(body, member=""):
    """The skip reasons, in order, and the count of sites updated, when the
    vibrate patch is applied to a method holding body, in a class holding
    member too."""
    patch, mapping = load_patch("vibrate")
    text = ("class B {\n%s    void m(Vibrator v, boolean c, int[] a, Runnable r) {\n"
            "        %s\n    }\n}\n" % (member, body))
    out, report = engine.update(text, patch, mapping)
    jast.parse(out)
    assert report.sites_found == report.sites_updated + len(report.sites_skipped)
    return [reason for _span, reason in report.sites_skipped], report.sites_updated


@pytest.mark.parametrize("body, member, want", [
    ("Runnable f = () -> v.vibrate(50);", "", ([engine.NON_STATEMENT_CONTEXT], 0)),
    ("if (c) v.vibrate(50);", "", ([], 1)),
    ("if (c) v.vibrate(50); else r.run();", "", ([], 1)),
    ("for (int i = 0; i < 3; i++) v.vibrate(50);", "", ([engine.UNPARSED_STATEMENT], 0)),
    ("switch (a.length) { case 1: v.vibrate(50); break; default: outer: v.vibrate(60); }", "",
     ([], 2)),
    ("switch (a.length) { case 1 -> v.vibrate(50); default -> r.run(); }", "",
     ([engine.NON_STATEMENT_CONTEXT], 0)),
    ("r.run();", "    Object o = v.vibrate(50);\n    Runnable f = () -> v.vibrate(50);\n",
     ([engine.NON_STATEMENT_CONTEXT] * 2, 0)),
    ("r.run();", "    void vibrate(long ms) {\n        r.run();\n    }\n", ([], 0)),
    ('// v.vibrate(50);\n        String s = "v.vibrate(50)"; /* v.vibrate(50) */', "", ([], 0)),
    ("v.vibrate(a[0]);", "", ([engine.UNPARSED_STATEMENT], 0)),
    ("v.vibrate(c ? 1 : 2);", "", ([engine.UNPARSED_STATEMENT], 0)),
    ("if (android.os.Build.VERSION.SDK_INT >= 26) { r.run(); } else if (c) { r.run(); } "
     "else { v.vibrate(50); }", "", ([engine.ALREADY_GUARDED], 0)),
    ("if (android.os.Build.VERSION.SDK_INT >= 26) v.vibrate(50);", "",
     ([engine.ALREADY_GUARDED], 0)),
    ("if (c) { r.run(); } else if (android.os.Build.VERSION.SDK_INT >= 26) { v.vibrate(50); }",
     "", ([engine.ALREADY_GUARDED], 0)),
    ("switch (a.length) { case 1: if (android.os.Build.VERSION.SDK_INT >= 26) { v.vibrate(50); } "
     "}", "", ([engine.ALREADY_GUARDED], 0)),
    ("if (android.os.Build.VERSION.SDK_INT >= 26) r = () -> { v.vibrate(50); };", "",
     ([engine.ALREADY_GUARDED], 0)),
], ids=["expression_lambda", "braceless_if", "braceless_if_else", "braceless_for", "case_label",
        "switch_rule", "field_initializers", "declaration", "comment_and_string",
        "array_access_argument", "conditional_argument", "guarded_else_chain", "guarded_braceless",
        "guarded_else_if", "guarded_in_a_case", "guarded_lambda_block"])
def test_every_occurrence_in_code_is_updated_or_has_a_reason(body, member, want):
    assert _reasons(body, member) == want


def test_helpers_go_into_an_annotated_class():
    # the walk reads an annotated class as a class, as parse does: its site
    # is updated, the helpers land in its body, and a second pass reuses them
    patch, mapping = load_patch("set_sound")
    text = ('@Deprecated\n@SuppressWarnings("x")\npublic class R {\n'
            "    void ring(android.app.Notification.Builder b, android.net.Uri u) {\n"
            "        b.setSound(u);\n    }\n}\n")
    out, report = engine.update(text, patch, mapping)
    assert report.sites_updated == 1 and report.definitions_copied == ["makeAttrs", "buildAttrs"]
    assert out.endswith("        return new AudioAttributes.Builder().setUsage(usage).build();\n"
                        "    }\n}\n")
    again, report = engine.update(out, patch, mapping)
    assert again == out and report.definitions_copied == []


TWO_CLASS_TARGETS = {
    "empty_first_class": ["makeAttrs", "buildAttrs"],
    "first_class_declares_a_helper": ["makeAttrs", "buildAttrs"],
    "subclass_of_a_class_that_declares_a_helper": ["buildAttrs"],
}


def test_every_two_class_target_is_checked():
    targets = (REPO / "tests" / "javac" / "targets").glob("*.java")
    assert sorted(p.stem for p in targets) == sorted(TWO_CLASS_TARGETS)


@pytest.mark.parametrize("stem, copied", TWO_CLASS_TARGETS.items(), ids=TWO_CLASS_TARGETS.keys())
def test_helpers_go_into_the_class_that_holds_the_site(stem, copied):
    # a class before the site's, empty or declaring a helper of its own,
    # receives nothing: the helpers go into the site's class, where its
    # calls reach them, and what that class inherits from the first is
    # reused (CI compiles these outputs with javac)
    patch, mapping = load_patch("set_sound")
    text = (REPO / "tests" / "javac" / "targets" / (stem + ".java")).read_text()
    out, report = engine.update(text, patch, mapping)
    assert report.sites_updated == 1 and report.definitions_copied == copied
    util, r = jast.parse(out).types
    assert util.src == jast.parse(text).types[0].src
    assert [m.name for m in r.methods] == ["ring"] + copied
    assert engine.update(out, patch, mapping)[0] == out


@pytest.mark.parametrize("extends, copied", [
    ("extends Util", ["buildAttrs"]),
    ("<T extends Comparable<T>> extends Util implements Comparable<R<T>>", ["buildAttrs"]),
    ("extends Base<Util>", ["makeAttrs", "buildAttrs"]),
    ("<T extends Util>", ["makeAttrs", "buildAttrs"]),
    ("extends Other", ["makeAttrs", "buildAttrs"]),
], ids=["superclass", "generic_superclass", "type_argument", "type_parameter_bound",
        "class_of_another_file"])
def test_only_what_the_class_inherits_from_a_class_of_the_file_is_reused(extends, copied):
    patch, mapping = load_patch("set_sound")
    text = ("class Util {\n    AudioAttributes makeAttrs(int u) { return null; }\n}\n\n"
            "class R %s {\n"
            "    void ring(android.app.Notification.Builder b, android.net.Uri u) {\n"
            "        b.setSound(u);\n    }\n}\n" % extends)
    assert engine.update(text, patch, mapping)[1].definitions_copied == copied
    private = text.replace("    AudioAttributes", "    private AudioAttributes")
    assert engine.update(private, patch, mapping)[1].definitions_copied == [
        "makeAttrs", "buildAttrs"]


def _needs_patch():
    """A set_sound patch whose @needs@ holds a method, a field and a class."""
    patch = patchgen.parse_patch(
        "@r@\nidentifier iden0, classIden;\n@@\n...\n"
        "+ if (android.os.Build.VERSION.SDK_INT >= 21) {\n"
        "+ classIden.setSound(iden0, makeAttrs(OFFSET));\n"
        "+ } else {\nclassIden.setSound(iden0);\n+ }\n"
        "@needs@\n"
        "static AudioAttributes makeAttrs(int usage) {\n"
        "    return new AttrsBuilder().build(usage);\n"
        "}\n\n"
        "private static final int OFFSET = 1;\n\n"
        "static class AttrsBuilder {\n"
        "    AudioAttributes build(int u) { return null; }\n"
        "}\n")
    assert [d.name for d in patch.needs] == ["makeAttrs", "OFFSET", "AttrsBuilder"]
    return patch, load_patch("set_sound")[1]


def test_a_helper_class_is_copied_to_the_end_of_the_file():
    patch, mapping = _needs_patch()
    text = ("class T {\n"
            "    void m(android.app.Notification.Builder b, android.net.Uri u) {\n"
            "        b.setSound(u);\n"
            "    }\n"
            "}\n")
    out, report = engine.update(text, patch, mapping)
    assert report.sites_updated == 1
    assert report.definitions_copied == ["makeAttrs", "OFFSET", "AttrsBuilder"]
    assert out.endswith("}\n\nstatic class AttrsBuilder {\n"
                        "    AudioAttributes build(int u) { return null; }\n}\n")
    assert [t.name for t in jast.parse(out).types] == ["T", "AttrsBuilder"]
    assert engine.update(out, patch, mapping)[0] == out


@pytest.mark.parametrize("holder, copied", [
    ("class Util {\n    %s\n}\n\nclass R {\n%s}\n", True),
    ("class R {\n    %s\n%s}\n", False),
    ("%s\n\nclass R {\n%s}\n", False),
], ids=["nested_in_another_class", "nested_in_the_site_class", "top_level"])
def test_a_helper_class_is_reused_only_where_the_site_reaches_it(holder, copied):
    # a class nested in another top-level class is out of the site's reach
    patch, mapping = _needs_patch()
    site = ("    void m(android.app.Notification.Builder b, android.net.Uri u) {\n"
            "        b.setSound(u);\n    }\n")
    text = holder % ("static class AttrsBuilder { }", site)
    out, report = engine.update(text, patch, mapping)
    assert report.definitions_copied == ["makeAttrs", "OFFSET"] + ["AttrsBuilder"] * copied
    assert out.count("class AttrsBuilder") == 1 + copied


def test_a_copied_helper_class_calls_a_renamed_helper_by_its_alias(vibrate_mapping):
    patch = patchgen.parse_patch(
        "@r@\nidentifier iden0, classIden;\n@@\n...\n"
        "+ if (android.os.Build.VERSION.SDK_INT >= 26) {\n"
        "+ classIden.vibrate(new Maker().make(iden0));\n"
        "+ } else {\nclassIden.vibrate(iden0);\n+ }\n@needs@\n"
        "static VibrationEffect effect(long d) { return VibrationEffect.createOneShot(d, 1); }\n"
        "static class Maker { VibrationEffect make(long d) { return effect(d); } }\n")
    text = ("class T {\n"
            "    static int effect(int a, int b) { return a; }\n"
            "    void m(Vibrator v, long t) { v.vibrate(t); }\n"
            "}\n")
    out, report = engine.update(text, patch, vibrate_mapping)
    assert report.definitions_copied == ["effect_androevolve", "Maker"]
    assert "static VibrationEffect effect_androevolve(long d)" in out
    assert "VibrationEffect make(long d) { return effect_androevolve(d); }" in out
    assert "static int effect(int a, int b) { return a; }" in out


def test_a_needed_import_whose_simple_name_is_taken_is_written_qualified(vibrate_mapping):
    patch = patchgen.parse_patch(
        "@r@\nidentifier iden0, classIden;\n@@\n...\n"
        "+ if (android.os.Build.VERSION.SDK_INT >= 26) {\n"
        "+ VibrationEffect newParameterVariable0 = VibrationEffect.createOneShot(5, 1);\n"
        "+ classIden.vibrate(newParameterVariable0);\n"
        "+ } else {\nclassIden.vibrate(iden0);\n+ }\n"
        "@needs@\nimport android.os.VibrationEffect;\n")
    text = ("import com.other.VibrationEffect;\n\n"
            "class T {\n    void m(Vibrator v, long t) {\n        v.vibrate(t);\n    }\n}\n")
    out, report = engine.update(text, patch, vibrate_mapping)
    assert report.sites_updated == 1 and report.definitions_copied == []
    assert out.count("import ") == 1
    assert ("        if (android.os.Build.VERSION.SDK_INT >= 26) {\n"
            "            v.vibrate(android.os.VibrationEffect.createOneShot(5, 1));\n"
            "        } else {\n") in out


def test_a_qualified_name_in_a_copied_helper_is_not_qualified_again(vibrate_mapping):
    patch = patchgen.parse_patch(
        "@r@\nidentifier iden0, classIden;\n@@\n...\n"
        "+ if (android.os.Build.VERSION.SDK_INT >= 26) {\n"
        "+ classIden.vibrate(twice(iden0));\n"
        "+ } else {\nclassIden.vibrate(iden0);\n+ }\n@needs@\n"
        "import android.os.VibrationEffect;\n\n"
        "VibrationEffect effect(long d) {\n"
        "    return android.os.VibrationEffect.createOneShot(d, 1);\n}\n"
        "VibrationEffect twice(long d) { return this.effect(2 * d); }\n")
    text = ("import com.other.VibrationEffect;\n\n"
            "class T {\n"
            "    int effect(int a, int b) { return a; }\n"
            "    void m(Vibrator v, long t) { v.vibrate(t); }\n"
            "}\n")
    out, report = engine.update(text, patch, vibrate_mapping)
    assert report.definitions_copied == ["effect_androevolve", "twice"]
    # the import's simple name is qualified only where it stands alone; an
    # alias renames its method after a `.` too
    assert ("    android.os.VibrationEffect effect_androevolve(long d) {\n"
            "    return android.os.VibrationEffect.createOneShot(d, 1);\n}") in out
    assert ("android.os.VibrationEffect twice(long d) "
            "{ return this.effect_androevolve(2 * d); }") in out
    assert "android.os.android.os." not in out


def test_helper_in_a_name_free_nested_class_is_reused():
    patch, mapping = load_patch("set_sound")
    text = ("import android.media.AudioAttributes;\n"
            "\n"
            "public class OwnHelper {\n"
            "    void ring(android.app.Notification.Builder builder, android.net.Uri tone) {\n"
            "        builder.setSound(tone);\n"
            "    }\n"
            "\n"
            "    static class Attrs {\n"
            "        static AudioAttributes makeAttrs(int usage) {\n"
            "            return null;\n"
            "        }\n"
            "    }\n"
            "}\n")
    out, report = engine.update(text, patch, mapping)
    assert report.sites_updated == 1 and report.definitions_copied == ["buildAttrs"]
    assert out.count("makeAttrs(int usage)") == 1


def test_update_does_not_parse_without_the_method(monkeypatch):
    patch, mapping = load_patch("set_sound")
    text = "class A {\n    void m(Vibrator v) {\n        v.vibrate(5);\n    }\n}\n"
    calls = []
    for name in ("parse", "check_balanced", "require_balanced"):
        monkeypatch.setattr(jast, name, lambda *a, fn=getattr(jast, name), name=name:
                            calls.append(name) or fn(*a))
    out, report = engine.update(text, patch, mapping)
    assert calls == ["require_balanced"]
    assert out is text
    assert report == engine.UpdateReport()


def test_update_without_the_method_still_rejects_unbalanced_text():
    patch, mapping = load_patch("vibrate")
    with pytest.raises(jast.UnbalancedSource, match="unmatched '\\)' at offset 10"):
        engine.update("class A { )", patch, mapping)


@pytest.mark.parametrize("arg", ["1_000", "0b1", ".5", "0x7fff_ffff"])
def test_every_java_number_form_is_an_argument(arg):
    patch, mapping = load_patch("vibrate")
    text = "class A {\n    void m(Vibrator v) {\n        v.vibrate(%s);\n    }\n}\n" % arg
    out, report = engine.update(text, patch, mapping)
    assert (report.sites_found, report.sites_updated) == (1, 1)
    assert "} else {\n            v.vibrate(%s);\n        }" % arg in out


def test_update_inlines_patch_temporary_after_non_name_argument():
    patch, mapping = load_patch("set_sound")
    text = ("class A {\n"
            "    void m(Notification.Builder b, String s) {\n"
            "        b.setSound(Uri.parse(s));\n"
            "    }\n"
            "}\n")
    out, report = engine.update(text, patch, mapping)
    assert report.sites_updated == 1 and report.definitions_copied
    assert ("        if (android.os.Build.VERSION.SDK_INT >= "
            "android.os.Build.VERSION_CODES.LOLLIPOP) {\n"
            "            b.setSound(Uri.parse(s), makeAttrs(5));\n"
            "        } else {\n"
            "            b.setSound(Uri.parse(s));\n"
            "        }\n") in out
    assert normal.purge_ok(out)


@pytest.mark.parametrize("then, arg, want", [
    ("iden0 * 2", "t + 1", "(t + 1) * 2"),
    ("2 - iden0", "t - 1", "2 - (t - 1)"),
    ("-iden0", "t + 1", "-(t + 1)"),
    ("iden0.hashCode()", "(long) t", "((long) t).hashCode()"),
    ("iden0 + 2", "t * 3", "t * 3 + 2"),
    ("-iden0", "-t", "-(-t)"),
    # a multi-line argument is rendered anew, not from its source bytes
    ("VibrationEffect.createOneShot(-iden0, 175)", "-\n        -t",
     "VibrationEffect.createOneShot(-(-(-t)), 175)"),
])
def test_bound_argument_keeps_its_grouping(vibrate_mapping, then, arg, want):
    patch = patchgen.parse_patch(
        "@r@\nidentifier iden0, classIden;\n@@\n...\n"
        "+ if (android.os.Build.VERSION.SDK_INT >= 26) {\n"
        "+ classIden.vibrate(%s);\n"
        "+ } else {\nclassIden.vibrate(iden0);\n+ }\n" % then)
    text = "class A {\n    void m(Vibrator v, long t) {\n        v.vibrate(%s);\n    }\n}\n" % arg
    out, report = engine.update(text, patch, vibrate_mapping)
    assert report.sites_updated == 1
    assert "            v.vibrate(%s);\n        } else {\n" % want in out


def test_a_parenthesized_argument_binds_what_it_encloses(vibrate_mapping):
    patch = patchgen.parse_patch(
        "@r@\nidentifier iden0, classIden;\n@@\n...\n"
        "+ if (android.os.Build.VERSION.SDK_INT >= 26) {\n"
        "+ classIden.vibrate(VibrationEffect.createOneShot(iden0, 1));\n"
        "+ } else {\nclassIden.vibrate(iden0);\n+ }\n")
    text = "class A {\n    void m(Vibrator v, long d) {\n        v.vibrate((d));\n    }\n}\n"
    out, report = engine.update(text, patch, vibrate_mapping)
    assert report.sites_updated == 1
    assert ("            v.vibrate(VibrationEffect.createOneShot(d, 1));\n"
            "        } else {\n            v.vibrate((d));\n") in out


def test_a_return_example_updates_a_return_target(minute_mapping):
    example = jast.parse(
        "class A {\n    int m(TimePicker tp) {\n"
        "        if (android.os.Build.VERSION.SDK_INT >= 23) {\n"
        "            return tp.getMinute();\n"
        "        } else {\n"
        "            return tp.getCurrentMinute();\n"
        "        }\n    }\n}\n")
    rendered = patchgen.render_patch(patchgen.generate_patch(example, minute_mapping))
    assert "+ return classIden.getMinute();\n+ } else {\nreturn classIden.getCurrentMinute();\n" \
        in rendered
    patch = patchgen.parse_patch(rendered)
    text = "class B {\n    int n(TimePicker p) {\n        return p.getCurrentMinute();\n    }\n}\n"
    out, report = engine.update(text, patch, minute_mapping)
    assert report.sites_updated == 1
    assert ("        if (android.os.Build.VERSION.SDK_INT >= 23) {\n"
            "            return p.getMinute();\n"
            "        } else {\n"
            "            return p.getCurrentMinute();\n"
            "        }\n") in out


# A hand-written patch whose metavariables and temporaries stand where the
# renderer groups an operand or receiver, and where it does not; a string
# holds the character the compiled template would first take as its
# placeholder.
GROUPING_PATCH = """@shapes@
expression exp0;
identifier iden0, classIden;
@@
...
+ if (android.os.Build.VERSION.SDK_INT >= 26 && exp0 != null) {
+ long newParameterVariable0 = iden0;
+ long newParameterVariable1 = iden0 + 1;
+ Effect newParameterVariable2 = Effect.of(newParameterVariable0 * 2, 2 - iden0.size, -iden0);
+ exp0 = classIden.vibrate(newParameterVariable2, (long) iden0, iden0.run().x, 3 / (iden0 - 1));
+ classIden.log(newParameterVariable1 * 3, !(exp0 == iden0), new T(iden0, exp0 = iden0), "\x00");
+ return iden0;
+ } else {
exp0 = classIden.vibrate(iden0);
+ }
"""


def _bound_shapes():
    """Expressions of every kind a metavariable can bind, as a target
    holds them: a binary operation at every level, unary, cast and
    parenthesized ones, a call, a field access, literals, and nodes that
    span lines, which render anew."""
    texts = ["a %s b" % op for op in jast.BINARY_LEVEL]
    texts += ["-a", "!a", "(long) a", "(a + b)", "f(a, b)", "o.p", "v", "5", '"s"', "2.5f",
              "a +\n    b * c", "-\n    -t", "f(a,\n    b).g", "(int)\n    (a - b)"]
    return [jast.parse_expr_text(t) for t in texts]


def test_a_compiled_then_branch_renders_like_substitution():
    # the template path (compile_then once, render_then per site) against
    # instantiating and rendering every then statement at every site
    patches = [load_patch(case.name, rewire)[0] for case in sorted(CORPUS.glob("cases/*"))
               for rewire in (False, True)]
    patches.append(patchgen.parse_patch(GROUPING_PATCH))
    shapes = _bound_shapes()
    rng = random.Random(2121)
    compared = 0
    for patch in patches:
        names = {n for s in patch.then_stmts + [patch.context] for n in patchgen.pattern_names(s)}
        names |= {e.name for s in patch.then_stmts for root in jast.stmt_exprs(s)
                  for e in jast.iter_exprs(root) if isinstance(e, jast.MethodCall)}
        mvs = [n for n in patchgen.pattern_names(patch.context)
               if n in patch.metavar_names("expression") | patch.metavar_names("identifier")]
        for renames in (None, {n: n + "_r" for n in names}):
            then = engine.compile_then(patch, renames)
            for _ in range(60):
                binding = engine.MetaBinding({mv: rng.choice(shapes) for mv in mvs})
                want = []
                substituted = engine.MetaBinding(dict(binding.assignments))
                for s in patch.then_stmts:
                    if patchgen.is_patch_temp(s):
                        substituted.assignments[s.name] = engine.substitute_expr(
                            s.init, substituted, renames)
                    else:
                        want.append(jast.render_stmt(
                            engine.substitute_stmt(s, substituted, renames)))
                assert engine.render_then(then, binding) == want
                compared += len(want)
    assert compared > 1500, compared
