import pytest

from api_evolve import jast, patchgen, sigmap

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


def test_vibrate_patch_constants_inlined():
    # DURATION/AMPLITUDE field reads in the example surface as literals
    example, mapping = read_case("vibrate")
    rendered = patchgen.render_patch(patchgen.generate_patch(example, mapping))
    assert "createOneShot(50, 175)" in rendered
    assert "DURATION" not in rendered and "AMPLITUDE" not in rendered


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
    assert len(patch.needs_defs) == 2
    assert "makeAttrs" in patch.needs_defs[0]
    assert "buildAttrs" in patch.needs_defs[1]
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


@pytest.mark.parametrize("lineno, replacement, message", [
    (7, "+ classIden.vibrate(newParameterVariable0;", "not one expression"),
    (9, "x = iden0;", "no method call"),
    (9, "- classIden.vibrate(iden0);", "'-' lines"),
    (10, "+ log(iden0);", "after '\\+ } else {'"),
], ids=["unparsable_add_line", "context_without_call", "remove_line", "add_after_else"])
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
