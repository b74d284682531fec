import pytest

from api_evolve import engine, jast, normal, patchgen, sigmap

from conftest import CORPUS


VIBRATE = sigmap.ApiMapping(
    sigmap.parse_signature("android.os.Vibrator#vibrate(long)"),
    sigmap.parse_signature("android.os.Vibrator#vibrate(android.os.VibrationEffect)"))


def norm(text, mapping=VIBRATE):
    unit = jast.parse(text)
    sites = sigmap.find_invocations(unit, mapping.deprecated)
    return normal.normalize(unit, sites, mapping)


def test_name_argument_untouched():
    text = "class A { void m(Vibrator v, long d) { v.vibrate(d); } }\n"
    unit, nmap = norm(text)
    assert jast.print_unit(unit) == text
    assert nmap.entries == []


def test_literal_argument_hoisted():
    text = "class A {\n    void m(Vibrator v) {\n        v.vibrate(50);\n    }\n}\n"
    unit, nmap = norm(text)
    out = jast.print_unit(unit)
    assert "long normArg0 = 50;" in out
    assert "v.vibrate(normArg0);" in out
    assert nmap.entries == ["normArg0"]


def test_compound_argument_hoisted():
    text = "class A {\n    void m(Vibrator v, long d) {\n        v.vibrate(d * 2);\n    }\n}\n"
    unit, _ = norm(text)
    out = jast.print_unit(unit)
    assert "long normArg0 = d * 2;" in out
    assert "v.vibrate(normArg0);" in out


def test_temp_type_comes_from_deprecated_signature():
    mapping = sigmap.ApiMapping(
        sigmap.parse_signature("android.text.Html#fromHtml(java.lang.String)"),
        sigmap.parse_signature("android.text.Html#fromHtml(java.lang.String, int)"))
    text = 'class A {\n    void m() {\n        Spanned s = Html.fromHtml(raw());\n    }\n}\n'
    unit, _ = norm(text, mapping)
    assert "String normArg0 = raw();" in jast.print_unit(unit)


def test_counter_skips_existing_temp_names():
    text = ("class A {\n    void m(Vibrator v) {\n"
            "        int normArg3 = 1;\n        v.vibrate(50);\n    }\n}\n")
    unit, _ = norm(text)
    assert "long normArg4 = 50;" in jast.print_unit(unit)


def test_field_initializer_site_skipped():
    mapping = sigmap.ApiMapping(
        sigmap.parse_signature("android.text.Html#fromHtml(java.lang.String)"),
        sigmap.parse_signature("android.text.Html#fromHtml(java.lang.String, int)"))
    text = 'class A { Spanned s = Html.fromHtml(raw()); }\n'
    unit, nmap = norm(text, mapping)
    assert jast.print_unit(unit) == text
    assert nmap.entries == []
    example = jast.parse((CORPUS / "cases" / "from_html" / "example.java").read_text())
    out, report = engine.update(text, patchgen.generate_patch(example, mapping), mapping)
    assert out == text
    assert [r for _, r in report.sites_skipped] == [engine.NON_STATEMENT_CONTEXT]


def test_site_nested_in_hoisted_argument_moves_with_it():
    text = ("class A {\n    void m(Vibrator v, Vibrator w, long d) {\n"
            "        v.vibrate(w.vibrate(d * 2) + 1);\n    }\n}\n")
    unit, nmap = norm(text)
    assert nmap.entries == ["normArg0"]
    assert "long normArg0 = w.vibrate(d * 2) + 1;" in jast.print_unit(unit)
    assert jast.print_unit(normal.denormalize(unit, nmap)) == text


def test_denormalize_inverts_normalize():
    text = ("class A {\n"
            "    void m(Vibrator v, long d) {\n"
            "        v.vibrate(d * 2);\n"
            "        v.vibrate(50);\n"
            "    }\n"
            "}\n")
    unit, nmap = norm(text)
    assert jast.print_unit(unit) != text
    restored = normal.denormalize(unit, nmap)
    assert jast.print_unit(restored) == text


def test_denormalize_nested_temps_innermost_first():
    text = ("class A {\n"
            "    void m() {\n"
            "        int normArg0 = k();\n"
            "        int normArg1 = normArg0 + 1;\n"
            "        int normArg2 = g(normArg1, 2);\n"
            "        f(normArg2);\n"
            "    }\n"
            "}\n")
    unit = jast.parse(text)
    nmap = normal.NormalizationMap()
    out = normal.denormalize(unit, nmap, ("normArg0", "normArg1", "normArg2"))
    assert jast.print_unit(out) == "class A {\n    void m() {\n        f(g(k() + 1, 2));\n    }\n}\n"


def test_denormalize_cycle_raises():
    text = ("class A {\n"
            "    void m() {\n"
            "        int normArg0 = normArg1 + 1;\n"
            "        int normArg1 = normArg0 * 2;\n"
            "        f(x);\n"
            "    }\n"
            "}\n")
    with pytest.raises(normal.MultipleUse, match="cyclic"):
        normal.denormalize(jast.parse(text), normal.NormalizationMap(),
                           ("normArg0", "normArg1"))


@pytest.mark.parametrize("sites", [1, 40])
def test_denormalize_parses_once(sites, monkeypatch):
    body = ["        v.vibrate(d * %d);" % k for k in range(sites)]
    text = "\n".join(["class A {", "    void m(Vibrator v, long d) {"]
                     + body + ["    }", "}", ""])
    unit, nmap = norm(text)
    assert len(nmap.entries) == sites
    parsed = []
    real = jast.parse
    monkeypatch.setattr(jast, "parse", lambda t: parsed.append(t) or real(t))
    out = normal.denormalize(unit, nmap)
    assert len(parsed) == 1
    assert jast.print_unit(out) == text


def test_denormalize_multiple_use_raises():
    text = ("class A {\n"
            "    void m() {\n"
            "        int normArg0 = k();\n"
            "        f(normArg0);\n"
            "        g(normArg0);\n"
            "    }\n"
            "}\n")
    unit = jast.parse(text)
    with pytest.raises(normal.MultipleUse):
        normal.denormalize(unit, normal.NormalizationMap(),
                           patch_temps=("normArg0",))


def test_purge_ok():
    assert normal.purge_ok("v.vibrate(effect);")
    assert not normal.purge_ok("long normArg0 = 50;")
    assert not normal.purge_ok("x = newParameterVariable2;")
    assert not normal.purge_ok("use(tmp);", patch_temps=("tmp",))
    assert normal.purge_ok("normArgument = 1;")  # prefix alone is not a temp
