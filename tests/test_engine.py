import pytest

from api_evolve import engine, jast, normal, patchgen, sigmap

from conftest import CORPUS


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

def test_transplant_appends_method_and_import():
    unit = jast.parse("import a.B;\n\nclass T {\n    void m() { }\n}\n")
    defs = ["static AudioAttributes makeAttrs(int usage) {\n"
            "    return null;\n"
            "}"]
    edits, copied, renames = engine.transplant_definitions(
        unit, defs, imports=["android.media.AudioAttributes"])
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
        unit, ["static AudioAttributes makeAttrs(int usage) { return null; }"])
    assert jast.splice(unit, edits) == before
    assert copied == [] and renames == {}


def test_transplant_renames_collision():
    unit = jast.parse(
        "class T {\n"
        "    static int makeAttrs(int a, int b) { return 0; }\n"
        "    void m() { }\n"
        "}\n")
    edits, copied, renames = engine.transplant_definitions(
        unit, ["static AudioAttributes makeAttrs(int usage) { return null; }"])
    text = jast.splice(unit, edits)
    assert renames == {"makeAttrs": "makeAttrs_androevolve"}
    assert "makeAttrs_androevolve(int usage)" in text


def test_transplant_skips_existing_import():
    unit = jast.parse("import android.media.AudioAttributes;\n\nclass T { void m() { } }\n")
    edits, _, _ = engine.transplant_definitions(
        unit, [], imports=["android.media.AudioAttributes"])
    assert jast.splice(unit, edits).count("import android.media.AudioAttributes;") == 1


# -- the apply pipeline -------------------------------------------------------

@pytest.mark.parametrize("sites", [1, 40])
def test_update_parses_once(sites, monkeypatch):
    patch, mapping = load_patch("vibrate")
    body = ["        v.vibrate(d * %d);" % k for k in range(sites)]
    text = "\n".join(["class A {", "    void m(Vibrator v, long d) {"]
                     + body + ["    }", "}", ""])
    calls = []
    for name in ("parse", "edited", "splice"):
        monkeypatch.setattr(jast, name, lambda *a, fn=getattr(jast, name), name=name:
                            calls.append(name) or fn(*a))
    out, report = engine.update(text, patch, mapping)
    assert calls == ["parse", "splice"]
    assert report.sites_updated == sites
    assert out.count("VibrationEffect.createOneShot(50, 175)") == sites
    assert normal.purge_ok(out)


def test_update_does_not_parse_without_the_method(monkeypatch):
    patch, mapping = load_patch("set_sound")
    text = "class A {\n    void m(Vibrator v) {\n        v.vibrate(5);\n    }\n}\n"
    calls = []
    for name in ("parse", "check_balanced"):
        monkeypatch.setattr(jast, name, lambda *a, fn=getattr(jast, name), name=name:
                            calls.append(name) or fn(*a))
    out, report = engine.update(text, patch, mapping)
    assert calls == ["check_balanced"]
    assert out is text
    assert report == engine.UpdateReport()


def test_update_without_the_method_still_rejects_unbalanced_text():
    patch, mapping = load_patch("vibrate")
    with pytest.raises(jast.UnbalancedSource, match="unmatched '\\)' at offset 10"):
        engine.update("class A { )", patch, mapping)


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
