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
    # a substituted statement's text is renamed by its name tokens: not in
    # a literal or comment, and a qualified name not after a `.`
    pattern = jast.parse_stmt_text('x = makeAttrs(5, "makeAttrs", new A.B(), a.A);')
    out = jast.render_stmt(engine.substitute_stmt(pattern, engine.MetaBinding()))
    assert jast.rename(out, {"makeAttrs": "makeAttrs_androevolve", "A": "p.A"}) == (
        'x = makeAttrs_androevolve(5, "makeAttrs", new p.A.B(), a.A);')


def test_substitute_and_render_cost_one_frame_a_level():
    # 700 levels fit under the default recursion limit only at one Python
    # frame a level; a generated patch's inlined chain can be this deep
    e = jast.Name("iden0")
    for _ in range(700):
        e = jast.Binary("-", e, jast.Literal("int", "1"))
    out = engine.substitute_expr(e, engine.MetaBinding({"iden0": jast.Name("t")}))
    assert jast.render_expr(out) == "t" + " - 1" * 700


# -- guard detection ----------------------------------------------------------

def site_conditions(text, mapping):
    """The `if` conditions around each call of the deprecated method, as
    jast.blocks_around gives them at the call's name."""
    sites = sigmap.find_invocations(jast.parse(text), mapping.deprecated)
    names = [text.index(mapping.deprecated.method_name, s.call.receiver.end) for s in sites]
    assert names
    return [conditions for *_, conditions
            in jast.blocks_around(text, jast.check_balanced(text), names)]


def test_already_guarded(minute_mapping):
    text = ("class A { void m(TimePicker tp) {\n"
            "    if (android.os.Build.VERSION.SDK_INT >= 23) {\n"
            "        x = tp.getMinute();\n"
            "    } else {\n"
            "        x = tp.getCurrentMinute();\n"
            "    }\n"
            "    if (android.os.Build.VERSION.SDK_INT < 23) x = tp.getCurrentMinute();\n"
            "} }")
    assert all(engine.already_guarded(text, c) for c in site_conditions(text, minute_mapping))


def test_unrelated_condition_not_guarded(minute_mapping):
    text = ("class A { void m(TimePicker tp) {\n"
            "    if (live) { x = tp.getCurrentMinute(); }\n"
            "    if (sdkInt > 1) x = tp.getCurrentMinute(); // SDK_INT\n"
            "} }")
    assert not any(engine.already_guarded(text, c) for c in site_conditions(text, minute_mapping))


@pytest.mark.parametrize("stmt, reasons", [
    ("if (android.os.Build.VERSION.SDK_INT >= 23 && tp.getCurrentMinute() > 5) { x = 1; }",
     [engine.NO_MATCH]),
    ("if (c) { } else if (android.os.Build.VERSION.SDK_INT > tp.getCurrentMinute()) x = 1;",
     [engine.NO_MATCH]),
    ("if (go(() -> { x = tp.getCurrentMinute(); }, android.os.Build.VERSION.SDK_INT)) { }", []),
    ("if (android.os.Build.VERSION.SDK_INT >= 23) { if (go(() -> { x = tp.getCurrentMinute(); "
     "})) { } }", [engine.ALREADY_GUARDED]),
], ids=["in_the_condition", "in_an_else_if_condition", "in_a_block_in_the_condition",
        "in_a_block_in_a_condition_in_a_guarded_block"])
def test_an_if_guards_neither_its_condition_nor_a_block_in_it(stmt, reasons):
    # one rule: an `if` whose parentheses hold a site, or the site's block,
    # is not around it. The call in the condition is then no match, as its
    # statement is the `if`, and the one in a block there is updated; an
    # `if` around the statement still guards both
    patch, mapping = load_patch("get_current_minute")
    text = "class A { void m(TimePicker tp) {\n    %s\n} }\n" % stmt
    out, report = engine.update(text, patch, mapping)
    assert [r for _, r in report.sites_skipped] == reasons
    assert report.sites_updated == 1 - len(reasons) and (out == text) == bool(reasons)


class _Counting:
    """A compiled regex whose calls of one method are counted."""

    def __init__(self, regex, method):
        self.regex, self.calls = regex, 0
        fn = getattr(regex, method)

        def counted(*args):
            self.calls += 1
            return fn(*args)
        setattr(self, method, counted)

    def __getattr__(self, name):
        return getattr(self.regex, name)


def _else_if_chain(n):
    return "".join("        %sif (k == %d) {\n            v.vibrate(%d);\n        }\n"
                   % ("else " if i else "", i, i) for i in range(n))


def _lambdas_of_one_call(n):
    return "        if (k > 0) run(%s);\n" % ", ".join(
        "() -> {\n            v.vibrate(%d);\n        }" % i for i in range(n))


@pytest.mark.parametrize("shape", [_else_if_chain, _lambdas_of_one_call])
def test_sites_in_one_member_cost_tokens_and_guard_searches_linear_in_their_number(
        monkeypatch, shape):
    # n sites in the blocks of one statement, an else-if chain or the block
    # lambdas of one call's arguments: the walk of the statement goes on
    # from the site before, so its tokens are lexed once, and each `if`
    # condition is searched for SDK_INT once however many sites it is
    # around. Counted, not timed, at n and 4n
    patch, mapping = load_patch("vibrate")
    counts = []
    for n in (40, 160):
        text = "class A {\n    void m(Vibrator v, int k) {\n%s    }\n}\n" % shape(n)
        tokens = _Counting(jast._TOKEN_RE, "match")
        searches = _Counting(engine._SDK_TOKEN, "search")
        monkeypatch.setattr(jast, "_TOKEN_RE", tokens)
        monkeypatch.setattr(engine, "_SDK_TOKEN", searches)
        _out, report = engine.update(text, patch, mapping)
        monkeypatch.undo()
        assert report.sites_updated == n
        counts.append((tokens.calls, searches.calls))
    (tokens, searches), (more_tokens, more_searches) = counts
    assert more_tokens <= 4.5 * tokens and more_searches <= 4.5 * searches, counts
    assert searches > 0


# -- application --------------------------------------------------------------

def test_apply_reports_and_guards():
    patch, _ = load_patch("vibrate")
    unit = jast.parse(
        "class A {\n"
        "    void m(Vibrator v, long d) {\n"
        "        v.vibrate(d);\n"
        "    }\n"
        "}\n")
    edits, report = engine.apply_patch(patch, unit.text)
    text = jast.splice(unit.text, edits)
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
    edits, report = engine.apply_patch(patch, unit.text)
    text = jast.splice(unit.text, edits)
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
    edits, report = engine.apply_patch(patch, unit.text)
    assert jast.splice(unit.text, edits) == before
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
    once = jast.parse(jast.splice(unit.text, engine.apply_patch(patch, unit.text)[0]))
    edits, report = engine.apply_patch(patch, once.text)
    assert jast.splice(once.text, edits) == jast.print_unit(once)
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
    result = jast.splice(unit.text, engine.apply_patch(patch, unit.text)[0])
    assert result.startswith(text[:span.start])
    assert result.endswith(text[span.end:])


def test_report_json_shape():
    patch, _ = load_patch("vibrate")
    unit = jast.parse("class A { void m(Vibrator v, long d) { v.vibrate(d); } }")
    _edits, report = engine.apply_patch(patch, unit.text)
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
    ((_at, blocks, _start, _end, _tokens, _conditions),) = jast.blocks_around(
        unit.text, jast.check_balanced(unit.text), [at])
    return blocks[1]


def test_transplant_appends_method_and_import():
    unit = jast.parse("import a.B;\n\nclass T {\n    void m() { }\n}\n")
    defs = helpers("static AudioAttributes makeAttrs(int usage) {\n"
                   "    return null;\n"
                   "}")
    edits, copied, renames = engine.transplant_definitions(
        unit.text, jast.check_balanced(unit.text), receiving_class(unit), defs,
        imports=["android.media.AudioAttributes"])
    text = jast.splice(unit.text, edits)
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
        unit.text, jast.check_balanced(unit.text), receiving_class(unit),
        helpers("static AudioAttributes makeAttrs(int usage) { return null; }"))
    assert jast.splice(unit.text, edits) == before
    assert copied == [] and renames == {}


def test_transplant_renames_collision():
    unit = jast.parse(
        "class T {\n"
        "    static int makeAttrs(int a, int b) { return 0; }\n"
        "    void m() { }\n"
        "}\n")
    edits, copied, renames = engine.transplant_definitions(
        unit.text, jast.check_balanced(unit.text), receiving_class(unit),
        helpers("static AudioAttributes makeAttrs(int usage) { return null; }"))
    text = jast.splice(unit.text, edits)
    assert renames == {"makeAttrs": "makeAttrs_androevolve"}
    assert "makeAttrs_androevolve(int usage)" in text


RINGER = ("import android.app.Notification;\n"
          "import android.media.AudioAttributes;\n\n"
          "class R {\n"
          "    %s {\n"
          "        return null;\n"
          "    }\n\n"
          "%s"
          "}\n")
RING = ("    %s(Notification.Builder b, android.net.Uri u) {\n"
        "        b.setSound(u);\n"
        "    }\n")
INSTANCE_HELPER_TARGET = (REPO / "tests" / "javac" / "targets"
                          / "instance_helper_and_a_static_site.java")


@pytest.mark.parametrize("helper, sites, called", [
    ("AudioAttributes makeAttrs(int u)", RING % "static void ring", "makeAttrs_androevolve"),
    ("AudioAttributes makeAttrs(int u)", RING % "static void ring" + RING % "void again",
     "makeAttrs_androevolve"),
    (None, None, "makeAttrs_androevolve"),
    ("AudioAttributes makeAttrs(int u)",
     "    static class In {\n%s    }\n" % RING.replace("\n    ", "\n        ") % "    void ring",
     "makeAttrs_androevolve"),
    ("static AudioAttributes makeAttrs(int u)", RING % "static void ring", "makeAttrs"),
    ("AudioAttributes makeAttrs(int u)", RING % "void ring", "makeAttrs"),
], ids=["static_site", "static_and_instance_sites", "javac_target", "site_in_a_static_class",
        "static_helper", "instance_site"])
def test_an_instance_helper_is_reused_for_instance_sites_only(helper, sites, called):
    # a target's own makeAttrs(int) is reused where every site that calls
    # it is in an instance member; a site in a static member, or in a
    # static class, cannot call an instance method, so the example's
    # helper is copied under the alias, and every site of the class calls it
    # (CI compiles the javac target's outputs)
    patch, mapping = load_patch("set_sound")
    text = INSTANCE_HELPER_TARGET.read_text() if helper is None else RINGER % (helper, sites)
    out, report = engine.update(text, patch, mapping)
    assert report.sites_updated == text.count("b.setSound(u);")
    assert out.count("b.setSound(u, %s(5));" % called) == report.sites_updated
    aliased = called != "makeAttrs"
    assert report.definitions_copied == ["makeAttrs_androevolve"] * aliased + ["buildAttrs"]
    assert engine.update(out, patch, mapping)[0] == out


@pytest.mark.parametrize("static, copied, aliases", [
    (True, ["LEVEL_androevolve"], {"LEVEL": "LEVEL_androevolve"}), (False, [], {})])
def test_an_instance_field_is_reused_for_instance_sites_only(static, copied, aliases):
    unit = jast.parse("class T {\n    int LEVEL = 1;\n    void m() { }\n}\n")
    fields = jast.parse("static final int LEVEL = 3;").types[0].fields
    edits, names, renames = engine.transplant_definitions(
        unit.text, jast.check_balanced(unit.text), receiving_class(unit), fields, static=static)
    assert names == copied and renames == aliases
    assert ("static final int LEVEL_androevolve = 3;" in jast.splice(unit.text, edits)) == static


def test_helper_edits_are_planned_once_by_value(monkeypatch):
    # each of n top-level classes receives the helpers, and the import they
    # share is planned once: an edit is looked up in a set, never compared
    # to the edits planned before it, so the comparisons do not grow as n^2
    patch, mapping = load_patch("set_sound")
    compared = []
    for n in (10, 40):
        text = "import android.app.Notification;\n\n" + "".join(
            "class C%d {\n%s}\n\n" % (i, RING % "void ring") for i in range(n))
        calls, eq = [], jast.Record.__eq__
        monkeypatch.setattr(jast.Record, "__eq__", lambda a, b: calls.append(a) or eq(a, b))
        out, report = engine.update(text, patch, mapping)
        monkeypatch.undo()
        assert report.sites_updated == n and out.count("static AudioAttributes makeAttrs") == n
        assert out.count("import android.media.AudioAttributes;") == 1
        compared.append(len(calls))
    assert compared[1] <= 4.5 * compared[0], compared


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


def test_update_scans_the_brackets_once_when_the_site_class_extends_a_class_of_the_file(
        monkeypatch):
    # the transplant reads the superclass's braces from apply's bracket table
    patch, mapping = load_patch("set_sound")
    text = ("class Util {\n    static int helper() { return 0; }\n}\n\n"
            "class R extends Util {\n"
            "    void ring(android.app.Notification.Builder b, android.net.Uri u) {\n"
            "        b.setSound(u);\n    }\n}\n")
    scan = jast.check_balanced
    calls = []
    monkeypatch.setattr(jast, "check_balanced", lambda t: calls.append(t) or scan(t))
    out, report = engine.update(text, patch, mapping)
    assert calls == [text]
    assert report.definitions_copied == ["makeAttrs", "buildAttrs"]
    assert out == (
        "import android.media.AudioAttributes;\n"
        "class Util {\n    static int helper() { return 0; }\n}\n\n"
        "class R extends Util {\n"
        "    void ring(android.app.Notification.Builder b, android.net.Uri u) {\n"
        "        if (android.os.Build.VERSION.SDK_INT >= "
        "android.os.Build.VERSION_CODES.LOLLIPOP) {\n"
        "            b.setSound(u, makeAttrs(5));\n"
        "        } else {\n"
        "            b.setSound(u);\n"
        "        }\n    }\n\n"
        "    static AudioAttributes makeAttrs(int usage) {\n"
        "        return buildAttrs(usage);\n    }\n\n"
        "    static AudioAttributes buildAttrs(int usage) {\n"
        "        return new AudioAttributes.Builder().setUsage(usage).build();\n    }\n}\n")


def test_transplant_skips_existing_import():
    unit = jast.parse("import android.media.AudioAttributes;\n\nclass T { void m() { } }\n")
    edits, _, _ = engine.transplant_definitions(
        unit.text, jast.check_balanced(unit.text), receiving_class(unit), [],
        imports=["android.media.AudioAttributes"])
    assert jast.splice(unit.text, edits).count("import android.media.AudioAttributes;") == 1


# -- the apply pipeline -------------------------------------------------------

@pytest.mark.parametrize("sites", [1, 40])
def test_update_parses_once(sites, monkeypatch):
    patch, mapping = load_patch("vibrate")
    body = ["        v.vibrate(d * %d);" % k for k in range(sites)]
    text = "\n".join(["class A {", "    void m(Vibrator v, long d) {"]
                     + body + ["    }", "}", ""])
    calls = []
    for name in ("parse", "parse_islands", "edited", "splice"):
        monkeypatch.setattr(jast, name, lambda *a, fn=getattr(jast, name), name=name:
                            calls.append(name) or fn(*a))
    out, report = engine.update(text, patch, mapping)
    # never the whole text: each site's statement is parsed once, as its
    # island, all islands in one call, and every edit is spliced at once
    assert calls == ["parse_islands", "splice"]
    assert report.sites_updated == sites
    assert out.count("VibrationEffect.createOneShot(50, 175)") == sites
    assert normal.purge_ok(out)


def counted(monkeypatch, module, name):
    """The calls of module.name from here on, as a list of their arguments."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_the_outline_is_read_only_in_a_file_with_an_updated_site(monkeypatch):
    # what the transplant reads of the target, its header and where it
    # declares the helpers, is read at the first updated site of a class
    patch, mapping = load_patch("set_sound")
    migrated = (SET_SOUND / "expected" / "basic.java").read_text()
    headers = counted(monkeypatch, jast, "parse_header")
    declared = counted(monkeypatch, jast, "declarations")
    out, report = engine.update(migrated, patch, mapping)
    assert out == migrated and report.sites_found > 0 and report.sites_updated == 0
    assert headers == declared == []
    target = (SET_SOUND / "targets" / "basic.java").read_text()
    assert engine.update(target, patch, mapping)[0] == migrated
    assert len(headers) == len(declared) == 1
    two = (REPO / "tests" / "javac" / "targets" / "sites_in_two_classes.java").read_text()
    assert engine.update(two, patch, mapping)[1].sites_updated == 2
    assert len(headers) == len(declared) == 3  # once per class that holds an updated site


def test_a_patch_without_helpers_reads_no_outline(monkeypatch):
    patch, mapping = load_patch("vibrate")
    assert not patch.needs and not patch.needs_imports
    headers = counted(monkeypatch, jast, "parse_header")
    declared = counted(monkeypatch, jast, "declarations")
    text = "class A { void m(Vibrator v, long d) { v.vibrate(d); } }\n"
    assert engine.update(text, patch, mapping)[1].sites_updated == 1
    assert headers == declared == []


def test_the_then_branch_is_compiled_once_per_patch(monkeypatch):
    targets = [(case, t.read_text()) for case in ("set_sound", "vibrate", "from_html")
               for t in sorted((CORPUS / "cases" / case / "targets").glob("*.java"))]
    shared = {case: load_patch(case) for case, _ in targets}
    compiled = counted(monkeypatch, engine, "compile_then")
    got = [engine.update(text, *shared[case]) for case, text in targets]
    updated = {case for (case, _), (_out, report) in zip(targets, got) if report.sites_updated}
    assert updated == {"set_sound", "vibrate", "from_html"}
    assert sorted(id(patch) for (patch,) in compiled) == sorted(
        id(shared[case][0]) for case in updated)
    # what a patch keeps from one file changes nothing in the next
    for (case, text), (out, report) in zip(targets, got):
        fresh_out, fresh = engine.update(text, *load_patch(case))
        assert out == fresh_out and report.to_json_dict(text) == fresh.to_json_dict(text)


def test_sites_in_two_classes_each_get_the_helpers():
    patch, mapping = load_patch("set_sound")
    text = (REPO / "tests" / "javac" / "targets" / "sites_in_two_classes.java").read_text()
    out, report = engine.update(text, patch, mapping)
    assert report.sites_updated == 2
    assert report.definitions_copied == ["makeAttrs", "buildAttrs"]
    assert out.count("import android.media.AudioAttributes;") == 1
    q, r = jast.parse(out).types
    for cls in (q, r):
        assert [m.name for m in cls.methods] == ["ring", "makeAttrs", "buildAttrs"]
    assert engine.update(out, patch, mapping)[0] == out


def test_each_class_calls_its_own_alias(monkeypatch):
    # R holds a makeAttrs of another arity, so R's copy and R's call of it
    # take the alias, and Q's do not: the then branch is compiled once, and
    # each class renames its pieces with its own renames
    patch, mapping = load_patch("set_sound")
    site = ("    void ring(android.app.Notification.Builder b, android.net.Uri u) {\n"
            "        b.setSound(u);\n    }\n")
    text = ("class Q {\n" + site + "}\n\nclass R {\n" + site
            + "    static int makeAttrs(int a, int b) { return a; }\n}\n")
    compiled = counted(monkeypatch, engine, "compile_then")
    out, report = engine.update(text, patch, mapping)
    assert report.sites_updated == 2
    assert report.definitions_copied == ["makeAttrs", "buildAttrs", "makeAttrs_androevolve"]
    q, r = jast.parse(out).types
    assert [m.name for m in q.methods] == ["ring", "makeAttrs", "buildAttrs"]
    assert [m.name for m in r.methods] == ["ring", "makeAttrs", "makeAttrs_androevolve",
                                           "buildAttrs"]
    assert "b.setSound(u, makeAttrs(5));" in q.methods[0].src
    assert "b.setSound(u, makeAttrs_androevolve(5));" in r.methods[0].src
    assert compiled == [(patch,)]
    assert engine.update(out, patch, mapping)[0] == out


@pytest.mark.parametrize("column", [0, 4, 8])
def test_every_line_of_a_copied_helper_is_indented_as_a_member(column):
    pad = " " * column
    patch = patchgen.parse_patch(
        "@r@\nidentifier iden0, classIden;\n@@\n...\n"
        "+ if (android.os.Build.VERSION.SDK_INT >= 26) {\n"
        "+ classIden.vibrate(twice(iden0));\n"
        "+ } else {\nclassIden.vibrate(iden0);\n+ }\n@needs@\n"
        + pad + "static long twice(long d) {\n"
        + pad + "    long t = d;\n\n"
        + pad + "    return 2 * t;\n"
        + pad + "}\n")
    text = "class T {\n    void m(Vibrator v, long t) { v.vibrate(t); }\n}\n"
    out = engine.update(text, patch, load_patch("vibrate")[1])[0]
    assert out.endswith("\n\n    static long twice(long d) {\n        long t = d;\n\n"
                        "        return 2 * t;\n    }\n}\n")


def test_update_lexes_only_blocks_that_name_the_method(monkeypatch):
    patch, mapping = load_patch("set_sound")
    filler = "".join("    int f%d(int a) { return a * %d; }\n" % (i, i) for i in range(20))
    text = (CORPUS / "cases" / "set_sound" / "targets" / "basic.java").read_text()
    text = text.replace("{\n", "{\n" + filler, 1)
    calls, lexed = [], []
    monkeypatch.setattr(jast, "parse", lambda *a, fn=jast.parse: calls.append(a) or fn(*a))
    monkeypatch.setattr(jast, "_lex_spans", lambda *a, fn=jast._lex_spans: lexed.append(fn(*a))
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
    "subclass_of_a_generic_class_that_declares_a_helper": ["buildAttrs"],
    "subclass_of_a_subclass_that_declares_a_helper": ["buildAttrs"],
}


def test_every_two_class_target_is_checked():
    targets = (REPO / "tests" / "javac" / "targets").glob("*.java")
    # sites_in_two_classes: test_sites_in_two_classes_each_get_the_helpers;
    # helper_in_a_nested_class: test_a_helper_in_a_nested_class_is_not_the_site_class_own;
    # annotated_helper: test_a_target_helper_is_reused_whatever_its_header;
    # superclass_after_a_comment: test_the_superclass_is_the_class_the_file_declares_in_code;
    # another_audio_attributes: test_a_created_type_under_a_clashing_import_is_qualified;
    # instance_helper_and_a_static_site: test_an_instance_helper_is_reused_for_instance_sites_only
    assert sorted(p.stem for p in targets) == sorted(
        [*TWO_CLASS_TARGETS, "sites_in_two_classes", "helper_in_a_nested_class",
         "annotated_helper", "superclass_after_a_comment", "another_audio_attributes",
         "instance_helper_and_a_static_site"])


@pytest.mark.parametrize("stem, copied", TWO_CLASS_TARGETS.items(), ids=TWO_CLASS_TARGETS.keys())
def test_helpers_go_into_the_class_that_holds_the_site(stem, copied):
    # a class before the site's, empty or declaring a helper of its own,
    # receives nothing: the helpers go into the site's class, where its
    # calls reach them, and what that class inherits from the classes
    # before it, through any number of them, is reused (CI compiles these
    # outputs with javac)
    patch, mapping = load_patch("set_sound")
    text = (REPO / "tests" / "javac" / "targets" / (stem + ".java")).read_text()
    out, report = engine.update(text, patch, mapping)
    assert report.sites_updated == 1 and report.definitions_copied == copied
    *before, r = jast.parse(out).types
    assert [t.src for t in before] == [t.src for t in jast.parse(text).types[:-1]]
    assert [m.name for m in r.methods] == ["ring"] + copied
    assert engine.update(out, patch, mapping)[0] == out


@pytest.mark.parametrize("extends, copied", [
    ("extends Util", ["buildAttrs"]),
    ("<T extends Comparable<T>> extends Util implements Comparable<R<T>>", ["buildAttrs"]),
    ("extends Base<Util>", ["makeAttrs", "buildAttrs"]),
    ("<T extends Util>", ["makeAttrs", "buildAttrs"]),
    ("extends Other", ["makeAttrs", "buildAttrs"]),
    ("extends Util<Map<String, Integer>>", ["buildAttrs"]),
    ("/* was: extends Other */ extends Util", ["buildAttrs"]),
    ("/* was: extends Util */ extends Other", ["makeAttrs", "buildAttrs"]),
], ids=["superclass", "generic_superclass", "type_argument", "type_parameter_bound",
        "class_of_another_file", "nested_type_arguments", "extends_in_a_comment",
        "superclass_in_a_comment"])
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


@pytest.mark.parametrize("between, copied", [
    ("class Mid extends Util { }\n\n", ["buildAttrs"]),
    ("class Mid<T> extends Base<T> { }\n\nclass Base<T> extends Util { }\n\n", ["buildAttrs"]),
    ("class Mid extends Other { }\n\n", ["makeAttrs", "buildAttrs"]),
    ("class Mid extends Base { }\n\nclass Base extends Mid { }\n\n", ["makeAttrs", "buildAttrs"]),
    ("class Mid extends R { }\n\n", ["makeAttrs", "buildAttrs"]),
], ids=["two_levels", "three_generic_levels", "chain_leaves_the_file", "cycle",
        "cycle_through_the_site_class"])
def test_the_whole_extends_chain_in_the_file_is_followed(between, copied):
    # each superclass the file declares at its top is read, from its own
    # header, until one the file does not declare or one already seen
    patch, mapping = load_patch("set_sound")
    text = ("class Util {\n    AudioAttributes makeAttrs(int u) { return null; }\n}\n\n%s"
            "class R extends Mid {\n"
            "    void ring(android.app.Notification.Builder b, android.net.Uri u) {\n"
            "        b.setSound(u);\n    }\n}\n" % between)
    assert engine.update(text, patch, mapping)[1].definitions_copied == copied


INHERITS = ("class Util {\n    AudioAttributes makeAttrs(int u) { return null; }\n}\n\n"
            "class R extends Util {\n"
            "    void ring(android.app.Notification.Builder b, android.net.Uri u) {\n"
            "        b.setSound(u);\n    }\n}\n")


@pytest.mark.parametrize("before", [
    "/* the old class Util { was here */\n",
    "// class Util {\n",
    "class Q {\n    static class Util { }\n}\n\n",
    "class Q {\n    void m() {\n        class Util { }\n    }\n}\n\n",
], ids=["block_comment", "line_comment", "nested_class", "local_class"])
def test_the_superclass_is_the_class_the_file_declares_in_code(before):
    # a `class Util` in a comment or nested in another class is not the
    # top-level class R extends, whose makeAttrs R inherits (CI compiles
    # the javac target's output)
    patch, mapping = load_patch("set_sound")
    assert engine.update(INHERITS, patch, mapping)[1].definitions_copied == ["buildAttrs"]
    out, report = engine.update(before + INHERITS, patch, mapping)
    assert report.definitions_copied == ["buildAttrs"]
    assert out.count("makeAttrs(int") == 1
    target = (REPO / "tests" / "javac" / "targets" / "superclass_after_a_comment.java").read_text()
    out, report = engine.update(target, patch, mapping)
    assert report.definitions_copied == ["buildAttrs"]
    assert engine.update(out, patch, mapping)[0] == out


@pytest.mark.parametrize("old, new", [
    ("    static AudioAttributes", '    @SuppressWarnings("unused")\n    static AudioAttributes'),
    ("    static AudioAttributes",
     "    @Deprecated @SuppressWarnings({\"a\", \"b\"}) static AudioAttributes"),
    ("static AudioAttributes", "static synchronized AudioAttributes"),
    ("makeAttrs(int usage)", "makeAttrs(final int usage)"),
    ("makeAttrs(int usage)", "makeAttrs(@Annotated(k = 1, j = 2) final int usage)"),
    ("static AudioAttributes", "public static <T> AudioAttributes"),
    ("    static AudioAttributes", "    /** class makeAttrs { */\n    static AudioAttributes"),
], ids=["annotation", "annotations_with_arguments", "synchronized", "final_parameter",
        "annotated_parameter", "type_parameter", "javadoc"])
def test_a_target_helper_is_reused_whatever_its_header(old, new):
    # the target's own makeAttrs(int) is reused, however its header reads
    # (CI compiles the javac target's output)
    patch, mapping = load_patch("set_sound")
    text = (SET_SOUND / "targets" / "existing_helper.java").read_text()
    assert old in text
    out, report = engine.update(text.replace(old, new, 1), patch, mapping)
    assert report.sites_updated == 1 and report.definitions_copied == ["buildAttrs"]
    assert out.count("makeAttrs(") == 2  # its declaration and the site's call
    target = (REPO / "tests" / "javac" / "targets" / "annotated_helper.java").read_text()
    out, report = engine.update(target, patch, mapping)
    assert report.definitions_copied == ["buildAttrs"]
    assert engine.update(out, patch, mapping)[0] == out


def test_a_renamed_helper_is_renamed_in_code_only():
    # a helper copied under an alias is renamed where code calls it, not in
    # a string literal or a comment that names it
    patch = patchgen.parse_patch(
        "@r@\nidentifier iden0, classIden;\n@@\n...\n"
        "+ if (android.os.Build.VERSION.SDK_INT >= 21) {\n"
        "+ classIden.setSound(iden0, makeAttrs(5));\n"
        "+ } else {\nclassIden.setSound(iden0);\n+ }\n@needs@\n"
        "static AudioAttributes makeAttrs(int usage) {\n"
        '    String why = "makeAttrs calls buildAttrs"; // then buildAttrs\n'
        "    return buildAttrs(usage);\n}\n\n"
        "static AudioAttributes buildAttrs(int usage) {\n    return null;\n}\n")
    text = ("class T {\n"
            "    void m(android.app.Notification.Builder b, android.net.Uri u) {\n"
            "        b.setSound(u);\n    }\n\n"
            "    static int buildAttrs(int a, int b) {\n        return a + b;\n    }\n}\n")
    out, report = engine.update(text, patch, load_patch("set_sound")[1])
    assert report.definitions_copied == ["makeAttrs", "buildAttrs_androevolve"]
    assert ('        String why = "makeAttrs calls buildAttrs"; // then buildAttrs\n'
            "        return buildAttrs_androevolve(usage);\n") in out
    assert "static AudioAttributes buildAttrs_androevolve(int usage)" in out


def test_a_created_type_under_a_clashing_import_is_qualified():
    # the target imports another AudioAttributes, so the then branch's
    # `new AudioAttributes.Builder()` names android.media's in full, as a
    # copied helper's would (CI compiles these outputs with javac)
    mapping = load_patch("set_sound")[1]
    example = (REPO / "tests" / "javac" / "examples" / "builder_in_the_call.java").read_text()
    patch = patchgen.generate_patch(jast.parse(example), mapping)
    assert patch.needs_imports == ["android.media.AudioAttributes"]
    text = (REPO / "tests" / "javac" / "targets" / "another_audio_attributes.java").read_text()
    out, report = engine.update(text, patch, mapping)
    assert report.sites_updated == 1 and report.definitions_copied == []
    assert ("            b.setSound(u, new android.media.AudioAttributes.Builder().setUsage(5)"
            ".build());\n") in out
    assert out.count("import ") == 3 and "AudioAttributes own = new AudioAttributes();" in out
    assert engine.update(out, patch, mapping)[0] == out
    # the set_sound patch's copied helpers are qualified the same way
    out, report = engine.update(text, *load_patch("set_sound"))
    assert report.definitions_copied == ["makeAttrs", "buildAttrs"]
    assert "return new android.media.AudioAttributes.Builder().setUsage(usage).build();" in out
    assert "static android.media.AudioAttributes makeAttrs(int usage)" in out


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


def test_a_helper_class_is_copied_into_the_site_class():
    # a top-level `static class` does not compile, so the class goes where
    # the methods and fields go: before the `}` of the class of the site
    patch, mapping = _needs_patch()
    text = ("class T {\n"
            "    void m(android.app.Notification.Builder b, android.net.Uri u) {\n"
            "        b.setSound(u);\n"
            "    }\n"
            "}\n")
    out, report = engine.update(text, patch, mapping)
    assert report.sites_updated == 1
    assert report.definitions_copied == ["makeAttrs", "OFFSET", "AttrsBuilder"]
    assert out.endswith("    private static final int OFFSET = 1;\n\n"
                        "    static class AttrsBuilder {\n"
                        "        AudioAttributes build(int u) { return null; }\n    }\n}\n")
    assert [t.name for t in jast.parse(out).types] == ["T"]
    assert engine.update(out, patch, mapping)[0] == out


def test_a_helper_class_without_static_stays_top_level():
    # in the site's class, a class without `static` would be an inner class,
    # which the static helper cannot instantiate; a static class still goes
    # there (CI compiles this output with javac)
    mapping = load_patch("set_sound")[1]
    example = (REPO / "tests" / "javac" / "examples" / "top_level_helper_class.java").read_text()
    patch = patchgen.generate_patch(jast.parse(example), mapping)
    text = (REPO / "tests" / "javac" / "targets" / "empty_first_class.java").read_text()
    out, report = engine.update(text, patch, mapping)
    assert report.sites_updated == 1
    assert report.definitions_copied == ["makeAttrs", "Holder", "Usage"]
    assert [t.name for t in jast.parse(out).types] == ["Util", "R", "Holder"]
    assert [t.name for t in jast.parse(out).types[1].nested] == ["Usage"]
    assert out.endswith("}\n\nclass Holder {\n    private final int usage;\n\n"
                        "    Holder(int u) {\n        usage = u;\n    }\n\n"
                        "    AudioAttributes attrs(int offset) {\n"
                        "        return new AudioAttributes.Builder().setUsage(usage + offset)"
                        ".build();\n    }\n}\n")
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
            "        return android.os.VibrationEffect.createOneShot(d, 1);\n    }") in out
    assert ("android.os.VibrationEffect twice(long d) "
            "{ return this.effect_androevolve(2 * d); }") in out
    assert "android.os.android.os." not in out


def test_a_helper_in_a_nested_class_is_not_the_site_class_own():
    # a method of a class nested in the site's class is not in scope at
    # the site, after the site or before it: the helper is copied into the
    # site's class (CI compiles the target's output with javac)
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
    target = (REPO / "tests" / "javac" / "targets" / "helper_in_a_nested_class.java").read_text()
    for text in (text, target):
        out, report = engine.update(text, patch, mapping)
        assert report.sites_updated == 1
        assert report.definitions_copied == ["makeAttrs", "buildAttrs"]
        (site_class,) = jast.parse(out).types
        assert [m.name for m in site_class.methods] == ["ring", "makeAttrs", "buildAttrs"]
        assert [m.name for m in site_class.nested[0].methods] == ["makeAttrs"]
        assert engine.update(out, patch, mapping)[0] == out


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
    # instantiating and rendering every then statement at every site; a
    # class's renames, applied to the pieces of the templates as apply_patch
    # applies them, rename the text substitution renders, where no bound
    # expression names a renamed name or is a number, which would lex as
    # one with a `.` after it (`5.f`)
    patches = [load_patch(case.name, rewire)[0] for case in sorted(CORPUS.glob("cases/*"))
               for rewire in (False, True)]
    patches.append(patchgen.parse_patch(GROUPING_PATCH))
    shapes = _bound_shapes()
    bound_names = {t.value for e in shapes for t in jast.tokenize(e.src)}
    rng = random.Random(2121)
    compared = 0
    for patch in patches:
        names = sorted({t.value for s in patch.then_stmts
                        for t in jast.tokenize(jast.render_stmt(s)) if t.kind == "ident"}
                       - bound_names)
        mvs = [n for n in patchgen.pattern_names(patch.context)
               if n in patch.metavar_names("expression") | patch.metavar_names("identifier")]
        then = engine.compile_then(patch)
        for renames in ({}, {n: "q." + n if i % 2 else n + "_r" for i, n in enumerate(names)}):
            renamed = [(temp, root, [jast.rename(piece, renames) for piece in pieces], holes)
                       for temp, root, pieces, holes in then]
            choices = [e for e in shapes if not renames or not e.src[0].isdigit()]
            for _ in range(60):
                binding = engine.MetaBinding({mv: rng.choice(choices) for mv in mvs})
                want = []
                substituted = engine.MetaBinding(dict(binding.assignments))
                for s in patch.then_stmts:
                    if patchgen.is_patch_temp(s):
                        substituted.assignments[s.name] = engine.substitute_expr(
                            s.init, substituted)
                    else:
                        want.append(jast.render_stmt(engine.substitute_stmt(s, substituted)))
                assert engine.render_then(renamed, binding) == [
                    jast.rename(line, renames) for line in want]
                compared += len(want)
    assert compared > 1500, compared
