import json
import os
import random
import subprocess
import sys

import pytest

from api_evolve import cli, harness, jast, patchgen, sigmap

from conftest import CORPUS
from mutants import mutant

VIBRATE_DEP = "android.os.Vibrator#vibrate(long)"
VIBRATE_UPD = "android.os.Vibrator#vibrate(android.os.VibrationEffect)"

TARGET = """\
import android.os.Vibrator;

public class Main {
    public void buzz(Vibrator MyVibrator, long milliseconds) {
        if (MyVibrator.hasVibrator()) {
            MyVibrator.vibrate(milliseconds);
        }
    }
}
"""


@pytest.fixture()
def example(tmp_path):
    text = (CORPUS / "cases" / "vibrate" / "example.java").read_text()
    path = tmp_path / "example.java"
    path.write_text(text)
    return path


@pytest.fixture()
def patch_file(tmp_path, example):
    out = tmp_path / "vibrate_update.cocci"
    rc = cli.main(["--generate-patch", VIBRATE_DEP, VIBRATE_UPD,
                   "--input", str(example), "--output", str(out)])
    assert rc == 0
    return out


def test_generate_writes_patch(patch_file):
    text = patch_file.read_text()
    assert text.startswith("@")
    assert "classIden.vibrate(iden0);" in text


def test_generate_missing_output_is_usage_error(example, capsys):
    rc = cli.main(["--generate-patch", VIBRATE_DEP, VIBRATE_UPD,
                   "--input", str(example)])
    assert rc == 64


def test_generate_without_mode_flag_is_usage_error(example, tmp_path):
    rc = cli.main([VIBRATE_DEP, VIBRATE_UPD,
                   "--input", str(example), "--output", str(tmp_path / "o")])
    assert rc == 64


def test_generate_bad_signature_is_usage_error(example, tmp_path):
    rc = cli.main(["--generate-patch", "nonsense", VIBRATE_UPD,
                   "--input", str(example), "--output", str(tmp_path / "o")])
    assert rc == 64


def test_generate_unparsable_example(tmp_path, capsys):
    bad = tmp_path / "bad.java"
    bad.write_text("class A { {{{")
    out = tmp_path / "o.cocci"
    rc = cli.main(["--generate-patch", VIBRATE_DEP, VIBRATE_UPD,
                   "--input", str(bad), "--output", str(out)])
    assert rc == 2
    assert not out.exists()


def test_generate_example_without_guard(tmp_path, capsys):
    ex = tmp_path / "ex.java"
    ex.write_text("void m(Vibrator v, long d) { v.vibrate(d); }\n")
    out = tmp_path / "o.cocci"
    rc = cli.main(["--generate-patch", VIBRATE_DEP, VIBRATE_UPD,
                   "--input", str(ex), "--output", str(out)])
    assert rc == 3
    assert "if/else" in capsys.readouterr().err
    assert not out.exists()


def test_generate_refuses_a_patch_that_needs_a_static_import(tmp_path, capsys):
    ex = tmp_path / "ex.java"
    ex.write_text("import static android.os.Build.VERSION_CODES.O;\n\n"
                  "void m(Vibrator v, long d) {\n"
                  "    if (android.os.Build.VERSION.SDK_INT >= O) {\n"
                  "        v.vibrate(VibrationEffect.createOneShot(50, 10));\n"
                  "    } else {\n        v.vibrate(d);\n    }\n}\n")
    out = tmp_path / "o.cocci"
    assert cli.main(["--generate-patch", VIBRATE_DEP, VIBRATE_UPD,
                     "--input", str(ex), "--output", str(out)]) == 3
    assert capsys.readouterr().err == (
        "api-evolve: the patch would use O from the example's "
        "'import static android.os.Build.VERSION_CODES.O;', which @needs@ cannot carry\n")
    assert not out.exists()
    # a static import that the patch does not use is not copied, and no fault
    assert jast.parse(ex.read_text()).static_imports == ("android.os.Build.VERSION_CODES.O",)
    ex.write_text(ex.read_text().replace(">= O)", ">= 26)"))
    assert cli.main(["--generate-patch", VIBRATE_DEP, VIBRATE_UPD,
                     "--input", str(ex), "--output", str(out)]) == 0
    assert "import" not in out.read_text()


_VIBRATE_IN_M = ("%sclass A {\n    Vibrator v;\n    static final int LEVEL = 26;\n\n"
                 "    void m(Vibrator w, long d) {\n%s"
                 "        if (android.os.Build.VERSION.SDK_INT >= %s) {\n            %s\n"
                 "        } else {\n            %s\n        }\n    }\n}\n")
_ONE_SHOT = "VibrationEffect.createOneShot(50, 175)"
_WILDCARD_CODES = "import static android.os.Build.VERSION_CODES.*;\n\n"

# (header, statements before the if, guard level, updated and deprecated
# statements) of an example, and the one line generation refuses it with
UNUSABLE_EXAMPLES = {
    "wildcard_static_import": (
        (_WILDCARD_CODES, "", "O", "v.vibrate(%s);" % _ONE_SHOT, "v.vibrate(d);"),
        "the patch would use O, which only the example's "
        "'import static android.os.Build.VERSION_CODES.*;' declares, and @needs@ cannot carry it"),
    "updated_receiver_is_another_variable": (
        ("", "", "26", "w.vibrate(%s);" % _ONE_SHOT, "v.vibrate(50);"),
        "the patch would use w, a parameter of the example's method, which a target does not "
        "share"),
    "updated_receiver_is_a_field_with_no_value": (
        ("", "", "26", "v.vibrate(%s);" % _ONE_SHOT, "w.vibrate(50);"),
        "the patch would use v, a field of the example with no initializer, which a target "
        "does not share"),
    "updated_call_drops_the_receiver": (
        ("", "", "26", "vibrate(%s);" % _ONE_SHOT, "v.vibrate(50);"),
        "the updated call has no receiver, so the patch would drop the deprecated call's "
        "receiver 'v'"),
    "guard_call_from_a_wildcard_static_import": (
        ("import static com.example.Compat.*;\n\n", "", "26 && atLeastO()",
         "v.vibrate(%s);" % _ONE_SHOT, "v.vibrate(d);"),
        "the patch would use atLeastO(), which only the example's "
        "'import static com.example.Compat.*;' declares, and @needs@ cannot carry it"),
    "then_call_from_a_wildcard_static_import": (
        ("import static com.example.Compat.*;\n\n", "", "26", "v.vibrate(effectOf(50));",
         "v.vibrate(d);"),
        "the patch would use effectOf(50), which only the example's "
        "'import static com.example.Compat.*;' declares, and @needs@ cannot carry it"),
    "field_access_receiver": (
        ("", "", "26", "this.v.vibrate(%s);" % _ONE_SHOT, "this.v.vibrate(50);"),
        "unsupported receiver 'this.v' on example call"),
    "nested_call": (
        ("", "", "26", "log(v.vibrate(%s));" % _ONE_SHOT, "log(v.vibrate(50));"),
        "unsupported statement shape around example call: 'log(v.vibrate(50));'"),
    "guard_local": (
        ("", "        int level = 26;\n", "level", "v.vibrate(%s);" % _ONE_SHOT,
         "v.vibrate(d);"),
        "the patch would use level, a variable of the example's method, which a target does "
        "not share"),
    "guard_parameter": (
        (_WILDCARD_CODES, "", "d", "v.vibrate(%s);" % _ONE_SHOT, "v.vibrate(d);"),
        "the patch would use d, a parameter of the example's method, which a target does not "
        "share"),
    "guard_field_through_this": (
        ("", "", "this.LEVEL", "v.vibrate(%s);" % _ONE_SHOT, "v.vibrate(d);"),
        "the patch would use this, the example's own object, which a target does not share"),
    "guard_field_through_the_class": (
        ("", "", "A.LEVEL", "v.vibrate(%s);" % _ONE_SHOT, "v.vibrate(d);"),
        "the patch would use A, the example's own class, which a target does not share"),
    "creation_of_the_example_class": (
        ("", "", "26", "v.vibrate(new A().effect());", "v.vibrate(d);"),
        "the patch would use A, the example's own class, which a target does not share"),
}


@pytest.mark.parametrize("parts, message", UNUSABLE_EXAMPLES.values(),
                         ids=UNUSABLE_EXAMPLES.keys())
def test_generate_refuses_an_example_it_cannot_carry_over(tmp_path, capsys, parts, message):
    ex = tmp_path / "ex.java"
    ex.write_text(_VIBRATE_IN_M % parts)
    out = tmp_path / "o.cocci"
    assert cli.main(["--generate-patch", VIBRATE_DEP, VIBRATE_UPD,
                     "--input", str(ex), "--output", str(out)]) == 3
    assert capsys.readouterr().err == "api-evolve: %s\n" % message
    assert not out.exists()


def test_a_method_the_guard_calls_reaches_the_target(tmp_path, capsys):
    ex = tmp_path / "ex.java"
    ex.write_text((_VIBRATE_IN_M % ("", "", "26 && atLeastO()", "v.vibrate(%s);" % _ONE_SHOT,
                                    "v.vibrate(d);")).replace(
        "    void m(", "    static boolean atLeastO() { return true; }\n\n    void m("))
    patch = tmp_path / "o.cocci"
    assert cli.main(["--generate-patch", VIBRATE_DEP, VIBRATE_UPD,
                     "--input", str(ex), "--output", str(patch)]) == 0
    assert "@needs@\n\nstatic boolean atLeastO() { return true; }" in patch.read_text()
    target = tmp_path / "t.java"
    target.write_text("class T {\n    void go(Vibrator other) {\n        other.vibrate(20);\n"
                      "    }\n}\n")
    out = tmp_path / "t_out.java"
    assert cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD, "--patch", str(patch),
                     "--input", str(target), "--output", str(out)]) == 0
    text = out.read_text()
    assert "if (android.os.Build.VERSION.SDK_INT >= 26 && atLeastO()) {" in text
    assert "static boolean atLeastO() { return true; }" in text
    assert capsys.readouterr().err == ""


def test_a_field_the_guard_names_reaches_the_target(tmp_path, capsys):
    ex = tmp_path / "ex.java"
    ex.write_text(_VIBRATE_IN_M % ("", "", "LEVEL", "v.vibrate(%s);" % _ONE_SHOT,
                                   "v.vibrate(d);"))
    patch = tmp_path / "o.cocci"
    assert cli.main(["--generate-patch", VIBRATE_DEP, VIBRATE_UPD,
                     "--input", str(ex), "--output", str(patch)]) == 0
    assert patch.read_text().endswith("@needs@\n\nstatic final int LEVEL = 26;\n")
    target = tmp_path / "t.java"
    target.write_text("class T {\n    void go(Vibrator other) {\n        other.vibrate(20);\n"
                      "    }\n}\n")
    out = tmp_path / "t_out.java"
    assert cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD, "--patch", str(patch),
                     "--input", str(target), "--output", str(out)]) == 0
    text = out.read_text()
    assert "if (android.os.Build.VERSION.SDK_INT >= LEVEL) {" in text
    assert "static final int LEVEL = 26;" in text
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("header, guard", [
    (_WILDCARD_CODES, "26"),
    ("import static android.os.Build.VERSION_CODES.*;\nimport a.Codes.O;\n\n", "O"),
    (_WILDCARD_CODES, "android.os.Build.VERSION_CODES.O"),
], ids=["no_bare_name", "imported_by_name", "qualified"])
def test_a_wildcard_static_import_the_patch_needs_not_is_no_fault(tmp_path, capsys, header,
                                                                   guard):
    ex = tmp_path / "ex.java"
    ex.write_text(_VIBRATE_IN_M % (header, "", guard, "v.vibrate(%s);" % _ONE_SHOT,
                                   "v.vibrate(d);"))
    out = tmp_path / "o.cocci"
    assert cli.main(["--generate-patch", VIBRATE_DEP, VIBRATE_UPD,
                     "--input", str(ex), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert "SDK_INT >= %s) {" % guard in out.read_text()


def test_apply_updates_target(tmp_path, patch_file):
    target = tmp_path / "main.java"
    target.write_text(TARGET)
    out = tmp_path / "main_updated.java"
    rc = cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD,
                   "--input", str(target), "--patch", str(patch_file),
                   "--output", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "VibrationEffect.createOneShot(50, 175)" in text
    assert "MyVibrator.vibrate(milliseconds);" in text  # preserved else branch
    assert "newParameterVariable" not in text
    assert "normArg" not in text


def test_apply_requires_patch_flag(tmp_path):
    target = tmp_path / "main.java"
    target.write_text(TARGET)
    rc = cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD,
                   "--input", str(target), "--output", str(tmp_path / "o.java")])
    assert rc == 64


@pytest.mark.parametrize("mode, flags", [
    ("--generate-patch", ["--report", "report.json"]),
    ("--generate-patch", ["--patch", "vibrate_update.cocci"]),
    ("--apply-patch", ["--patch", "vibrate_update.cocci", "--rewire-shared-args"]),
], ids=["report_in_generate", "patch_in_generate", "rewire_in_apply"])
def test_a_flag_of_the_other_mode_is_a_usage_error(tmp_path, patch_file, capsys, mode, flags):
    (tmp_path / "main.java").write_text(TARGET)
    source = "main.java" if mode == "--apply-patch" else "example.java"
    capsys.readouterr()
    before = sorted(tmp_path.iterdir())
    rc = cli.main([mode, VIBRATE_DEP, VIBRATE_UPD, "--input", str(tmp_path / source),
                   "--output", str(tmp_path / "out")]
                  + [str(tmp_path / f) if f.endswith((".json", ".cocci")) else f for f in flags])
    err = capsys.readouterr().err
    assert rc == 64
    assert err.startswith("api-evolve: error: ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before  # no output and no report


def test_apply_no_sites_copies_input(tmp_path, patch_file):
    target = tmp_path / "plain.java"
    target.write_text("class P { void m() { other(); } }\n")
    out = tmp_path / "out.java"
    rc = cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD,
                   "--input", str(target), "--patch", str(patch_file),
                   "--output", str(out)])
    assert rc == 1
    assert out.read_text() == target.read_text()


def test_apply_corrupt_patch(tmp_path, patch_file, capsys):
    truncated = tmp_path / "broken.cocci"
    truncated.write_text("".join(patch_file.read_text().splitlines(True)[:3]))
    target = tmp_path / "main.java"
    target.write_text(TARGET)
    out = tmp_path / "out.java"
    rc = cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD,
                   "--input", str(target), "--patch", str(truncated),
                   "--output", str(out)])
    assert rc == 3
    assert "line" in capsys.readouterr().err
    assert not out.exists()


def test_apply_unparsable_target(tmp_path, patch_file):
    target = tmp_path / "bad.java"
    target.write_text("class A { )")
    out = tmp_path / "out.java"
    rc = cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD,
                   "--input", str(target), "--patch", str(patch_file),
                   "--output", str(out)])
    assert rc == 2
    assert not out.exists()


def test_a_class_with_a_text_block_is_updated(tmp_path, patch_file, capsys):
    # a text block holds quotes and brackets that are not code
    target = tmp_path / "main.java"
    target.write_text(TARGET.replace("public class Main {\n", 'public class Main {\n'
                                     '    String json = """\n        {"a": ["}", \'(\']}\n'
                                     '        """;\n'))
    out = tmp_path / "out.java"
    rc = cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD, "--input", str(target),
                   "--patch", str(patch_file), "--output", str(out)])
    assert (rc, capsys.readouterr().err) == (0, "")
    assert '{"a": ["}", \'(\']}' in out.read_text()


@pytest.mark.parametrize("bad_file, rc", [("input", 2), ("patch", 3), ("example", 2)])
def test_a_file_that_is_not_utf8_exits_with_one_line(tmp_path, patch_file, capsys,
                                                       bad_file, rc):
    files = {"input": tmp_path / "main.java", "patch": patch_file,
             "example": tmp_path / "example.java"}
    files["input"].write_text(TARGET)
    files[bad_file].write_bytes(b"\xff\xfe" + files[bad_file].read_bytes())
    out = tmp_path / "out"
    capsys.readouterr()
    if bad_file == "example":
        argv = ["--generate-patch", VIBRATE_DEP, VIBRATE_UPD, "--input", str(files["example"])]
    else:
        argv = ["--apply-patch", VIBRATE_DEP, VIBRATE_UPD, "--input", str(files["input"]),
                "--patch", str(patch_file)]
    assert cli.main(argv + ["--output", str(out)]) == rc
    err = capsys.readouterr().err
    assert err.startswith("api-evolve: cannot read %s: " % files[bad_file])
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--output", "--report"])
@pytest.mark.parametrize("where", ["missing_directory", "a_directory"])
def test_an_unwritable_output_path_exits_64(tmp_path, patch_file, capsys, flag, where):
    target = tmp_path / "main.java"
    target.write_text(TARGET)
    paths = {"--output": tmp_path / "out.java", "--report": tmp_path / "report.json"}
    paths[flag] = tmp_path / "missing" / "x" if where == "missing_directory" else tmp_path
    capsys.readouterr()
    rc = cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD, "--input", str(target),
                   "--patch", str(patch_file), "--output", str(paths["--output"]),
                   "--report", str(paths["--report"])])
    err = capsys.readouterr().err
    assert rc == 64
    assert err.startswith("api-evolve: cannot write %s: " % paths[flag]) and err.count("\n") == 1
    assert not (tmp_path / "out.java").exists()  # exit 64 leaves the output path untouched
    assert not list(tmp_path.glob(".api-evolve-*"))


def test_generate_to_an_unwritable_output_path_exits_64(example, tmp_path, capsys):
    rc = cli.main(["--generate-patch", VIBRATE_DEP, VIBRATE_UPD, "--input", str(example),
                   "--output", str(tmp_path / "missing" / "update.cocci")])
    assert rc == 64
    assert capsys.readouterr().err.count("\n") == 1
    assert not list(tmp_path.glob(".api-evolve-*"))


DEEP = "class A { void m(Vibrator v) { x = %s1%s; v.vibrate(5); } }" % ("(" * 300, ")" * 300)


@pytest.mark.parametrize("mode", ["--generate-patch", "--apply-patch"])
def test_too_deep_nesting_is_a_parse_failure(tmp_path, patch_file, capsys, mode):
    # no nesting is too deep to parse: apply updates the site, and generate
    # rejects the file only because it holds no if/else pair
    target = tmp_path / "deep.java"
    target.write_text(DEEP)
    out = tmp_path / "out"
    extra = ["--patch", str(patch_file)] if mode == "--apply-patch" else []
    rc = cli.main([mode, VIBRATE_DEP, VIBRATE_UPD, "--input", str(target),
                   "--output", str(out)] + extra)
    err = capsys.readouterr().err
    if mode == "--apply-patch":
        assert (rc, err) == (0, "")
        assert "v.vibrate(VibrationEffect.createOneShot(50, 175));" in out.read_text()
    else:
        assert rc == 3
        assert not out.exists()
        assert err.count("\n") == 1 and "inside one if/else" in err


@pytest.mark.parametrize("body, rc", [
    ("void k() { %s }\n    void m(Vibrator v) { v.vibrate(5); }", 0),
    ("void m(Vibrator v) { %s v.vibrate(5); }", 0),
], ids=["name_free_method", "site_method"])
def test_deep_nesting_fails_only_where_a_site_can_be(tmp_path, patch_file, capsys, body, rc):
    # a class member that never names the method is not lexed or parsed,
    # and one that does parses at any depth
    deep = "x = %s1%s;" % ("(" * 300, ")" * 300)
    target = tmp_path / "deep.java"
    target.write_text("class A {\n    %s\n}\n" % (body % deep))
    out = tmp_path / "out"
    assert cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD, "--input", str(target),
                     "--patch", str(patch_file), "--output", str(out)]) == rc
    assert "v.vibrate(VibrationEffect.createOneShot(50, 175));" in out.read_text()
    assert capsys.readouterr().err == ""


def test_apply_writes_json_report(tmp_path, patch_file):
    target = tmp_path / "main.java"
    target.write_text(TARGET)
    out = tmp_path / "out.java"
    report = tmp_path / "report.json"
    rc = cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD,
                   "--input", str(target), "--patch", str(patch_file),
                   "--output", str(out), "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["file"] == str(target)
    assert data["sitesFound"] == 1
    assert data["sitesUpdated"] == 1
    assert data["skipped"] == []
    assert data["copied"] == []


def test_apply_reports_guarded_skip_with_line(tmp_path, patch_file):
    target = tmp_path / "main.java"
    target.write_text(
        "class A {\n"
        "    void m(Vibrator v, long d) {\n"
        "        if (android.os.Build.VERSION.SDK_INT >= 26) {\n"
        "            v.vibrate(d);\n"
        "        }\n"
        "    }\n"
        "}\n")
    out = tmp_path / "out.java"
    report = tmp_path / "report.json"
    rc = cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD,
                   "--input", str(target), "--patch", str(patch_file),
                   "--output", str(out), "--report", str(report)])
    assert rc == 1
    data = json.loads(report.read_text())
    assert data["sitesFound"] == 1 and data["sitesUpdated"] == 0
    (skip,) = data["skipped"]
    assert skip["reason"] == "AlreadyGuarded"
    assert skip["line"] == 4


def test_generated_patch_survives_disk_roundtrip(tmp_path, example, patch_file):
    # applying a reloaded patch equals applying the in-memory one
    target = tmp_path / "main.java"
    target.write_text(TARGET)
    out1 = tmp_path / "a.java"
    out2 = tmp_path / "b.java"
    for out in (out1, out2):
        assert cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD,
                         "--input", str(target), "--patch", str(patch_file),
                         "--output", str(out)]) == 0
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize("lineno, replacement", [
    (7, "+ classIden.vibrate(newParameterVariable0;"),
    (9, "x = iden0;"),
    (9, "- classIden.vibrate(iden0);"),
    (10, "+ log(iden0);"),
    (7, "+ classIden.vibrate(newParameterVariable0, newParameterVariable0);"),
    (6, "+ log(newParameterVariable0);\n"
        "+ VibrationEffect newParameterVariable0 = VibrationEffect.createOneShot(50, 175);"),
    (6, "+ VibrationEffect newParameterVariable1 = VibrationEffect.createOneShot(5, 1);\n"
        "+ VibrationEffect newParameterVariable0 = VibrationEffect.createOneShot(50, 175);"),
], ids=["unparsable_add_line", "context_without_call", "remove_line", "add_after_else",
        "temp_used_twice", "temp_used_before_declaration", "temp_never_used"])
def test_apply_rejects_patch_line_the_engine_cannot_apply(
        tmp_path, patch_file, capsys, lineno, replacement):
    lines = patch_file.read_text().splitlines()
    lines[lineno - 1] = replacement
    bad = tmp_path / "bad.cocci"
    bad.write_text("\n".join(lines) + "\n")
    target = tmp_path / "main.java"
    target.write_text(TARGET)
    out = tmp_path / "out.java"
    rc = cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD,
                   "--input", str(target), "--patch", str(bad),
                   "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "line %d" % lineno in err and err.count("\n") == 1
    assert not out.exists()


def test_apply_nested_sites_every_site_accounted(tmp_path, patch_file, capsys):
    target = tmp_path / "nested.java"
    target.write_text("class A {\n"
                      "    void m(Vibrator v, Vibrator w, long d) {\n"
                      "        v.vibrate(w.vibrate(d * 2) + 1);\n"
                      "    }\n"
                      "}\n")
    out = tmp_path / "out.java"
    report = tmp_path / "report.json"
    rc = cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD,
                   "--input", str(target), "--patch", str(patch_file),
                   "--output", str(out), "--report", str(report)])
    assert rc == 0 and capsys.readouterr().err == ""
    data = json.loads(report.read_text())
    assert data["sitesFound"] == 2
    assert data["sitesUpdated"] + len(data["skipped"]) == data["sitesFound"]
    assert "} else {\n            v.vibrate(w.vibrate(d * 2) + 1);\n" in out.read_text()


def test_apply_nested_sites_with_shared_argument_inlines_it(tmp_path):
    case = CORPUS / "cases" / "from_html"
    dep, upd = (case / "mapping.txt").read_text().splitlines()
    patch = tmp_path / "p.cocci"
    assert cli.main(["--generate-patch", dep, upd, "--input", str(case / "example.java"),
                     "--output", str(patch)]) == 0
    target = tmp_path / "nested.java"
    target.write_text("class A {\n"
                      "    void m(String a, String b) {\n"
                      "        x = Html.fromHtml(Html.fromHtml(a + b).toString());\n"
                      "    }\n"
                      "}\n")
    out = tmp_path / "out.java"
    report = tmp_path / "report.json"
    rc = cli.main(["--apply-patch", dep, upd, "--input", str(target), "--patch", str(patch),
                   "--output", str(out), "--report", str(report)])
    assert rc == 0
    assert out.read_text() == (
        "class A {\n"
        "    void m(String a, String b) {\n"
        "        if (android.os.Build.VERSION.SDK_INT >= android.os.Build.VERSION_CODES.N) {\n"
        "            x = Html.fromHtml(Html.fromHtml(a + b).toString(), 0);\n"
        "        } else {\n"
        "            x = Html.fromHtml(Html.fromHtml(a + b).toString());\n"
        "        }\n"
        "    }\n"
        "}\n")
    data = json.loads(report.read_text())
    assert (data["sitesFound"], data["sitesUpdated"]) == (2, 1)
    assert data["skipped"] == [{"line": 3, "reason": "NoMatch"}]


def test_apply_refuses_to_evaluate_an_argument_twice(tmp_path, capsys):
    example = tmp_path / "example.java"
    example.write_text((CORPUS / "cases" / "vibrate" / "example.java").read_text().replace(
        "VibrationEffect.createOneShot(milliseconds, amplitude)",
        "VibrationEffect.createOneShot(milliseconds, milliseconds)"))
    patch = tmp_path / "p.cocci"
    assert cli.main(["--generate-patch", VIBRATE_DEP, VIBRATE_UPD, "--input", str(example),
                     "--output", str(patch), "--rewire-shared-args"]) == 0
    target = tmp_path / "main.java"
    target.write_text("class A {\n"
                      "    void m(Vibrator v) {\n"
                      "        v.vibrate(next());\n"
                      "    }\n"
                      "}\n")
    out = tmp_path / "out.java"
    rc = cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD, "--input", str(target),
                   "--patch", str(patch), "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("api-evolve: ") and err.count("\n") == 1
    assert "next()" in err
    assert not out.exists()


@pytest.mark.parametrize("target", sorted(CORPUS.glob("cases/*/targets/*.java")),
                         ids=lambda p: "%s/%s" % (p.parent.parent.name, p.stem))
def test_cli_output_matches_library(tmp_path, target):
    case = target.parent.parent
    dep, upd = (case / "mapping.txt").read_text().splitlines()
    patch = tmp_path / "p.cocci"
    assert cli.main(["--generate-patch", dep, upd, "--input", str(case / "example.java"),
                     "--output", str(patch)]) == 0
    out = tmp_path / "out.java"
    rc = cli.main(["--apply-patch", dep, upd, "--input", str(target),
                   "--patch", str(patch), "--output", str(out)])
    text = target.read_bytes().decode("utf-8")
    mapping = sigmap.ApiMapping(sigmap.parse_signature(dep), sigmap.parse_signature(upd))
    want = harness.update_text(text, patchgen.parse_patch(patch.read_text()), mapping)
    assert out.read_bytes() == want.encode("utf-8")
    assert rc == (1 if want == text else 0)


def test_apply_file_with_superscript_digit(tmp_path, patch_file, capsys):
    target = tmp_path / "main.java"
    target.write_text("class A {\n"
                      "    int x = 2²;\n"
                      "    void m(Vibrator v, long d) {\n"
                      "        v.vibrate(d);\n"
                      "    }\n"
                      "}\n", encoding="utf-8")
    out = tmp_path / "out.java"
    rc = cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD,
                   "--input", str(target), "--patch", str(patch_file),
                   "--output", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    text = out.read_text(encoding="utf-8")
    assert "int x = 2²;" in text and "createOneShot" in text


SKIP_LINE_CASES = {
    # the update adds lines above the guarded site
    "vibrate_hoisted_argument": ("vibrate", (
        "class A {\n"
        "    void m(Vibrator v, long t) {\n"
        "        v.vibrate(t * 2);\n"
        "        if (Build.VERSION.SDK_INT >= 26) {\n"
        "            v.vibrate(5);\n"
        "        }\n"
        "    }\n"
        "}\n"), 5),
    # the patch adds an import above every site, and helpers below them
    "set_sound_added_import": ("set_sound", (
        "import android.app.Notification;\n"
        "\n"
        "public class Ring {\n"
        "    void ring(Notification.Builder b, android.net.Uri tone) {\n"
        "        if (android.os.Build.VERSION.SDK_INT >= 21) {\n"
        "            b.setSound(tone);\n"
        "        }\n"
        "        b.setSound(tone);\n"
        "    }\n"
        "}\n"), 6),
}


@pytest.mark.parametrize("case, text, line", SKIP_LINE_CASES.values(),
                         ids=SKIP_LINE_CASES.keys())
def test_report_skip_line_is_the_input_line(tmp_path, case, text, line):
    case_dir = CORPUS / "cases" / case
    dep, upd = (case_dir / "mapping.txt").read_text().splitlines()
    patch = tmp_path / "p.cocci"
    assert cli.main(["--generate-patch", dep, upd, "--input", str(case_dir / "example.java"),
                     "--output", str(patch)]) == 0
    target = tmp_path / "t.java"
    target.write_text(text)
    out = tmp_path / "out.java"
    report = tmp_path / "report.json"
    rc = cli.main(["--apply-patch", dep, upd, "--input", str(target), "--patch", str(patch),
                   "--output", str(out), "--report", str(report)])
    assert rc == 0
    assert out.read_text().count("\n") > text.count("\n")
    (skip,) = json.loads(report.read_text())["skipped"]
    assert skip == {"line": line, "reason": "AlreadyGuarded"}


def _case_patch(tmp_path, case):
    case_dir = CORPUS / "cases" / case
    dep, upd = (case_dir / "mapping.txt").read_text().splitlines()
    patch = tmp_path / "p.cocci"
    assert cli.main(["--generate-patch", dep, upd, "--input", str(case_dir / "example.java"),
                     "--output", str(patch)]) == 0
    return dep, upd, patch


NOT_UPDATED_TARGETS = {
    # parsed: the site is found but already guarded
    "already_guarded": (
        "class A {\n"
        "    void m(Notification.Builder b, android.net.Uri u) {\n"
        "        if (android.os.Build.VERSION.SDK_INT >= 21) {\n"
        "            b.setSound(u);\n"
        "        }\n"
        "    }\n"
        "}\n", 1, [{"line": 4, "reason": "AlreadyGuarded"}]),
    # only bracket-checked: the text never names setSound
    "no_method_name": ("class B { int x; }\n", 0, []),
}


@pytest.mark.parametrize("text, found, skipped", NOT_UPDATED_TARGETS.values(),
                         ids=NOT_UPDATED_TARGETS.keys())
def test_report_lists_no_copied_helpers_without_an_update(tmp_path, text, found, skipped):
    dep, upd, patch = _case_patch(tmp_path, "set_sound")
    assert "makeAttrs" in patch.read_text()
    target = tmp_path / "t.java"
    target.write_text(text)
    out = tmp_path / "out.java"
    report = tmp_path / "report.json"
    rc = cli.main(["--apply-patch", dep, upd, "--input", str(target), "--patch", str(patch),
                   "--output", str(out), "--report", str(report)])
    assert rc == 1
    assert out.read_text() == text
    assert json.loads(report.read_text()) == {
        "file": str(target), "sitesFound": found, "sitesUpdated": 0,
        "skipped": skipped, "copied": []}


@pytest.mark.parametrize("header", [
    # skipped through the import's ';', so the import is lost, not the class
    "package com.ex\n",
    "import android.os.Vib rator;\n",
    "import a.;\n",
], ids=["unterminated_package", "split_import", "empty_import_segment"])
def test_apply_tolerates_a_malformed_header(tmp_path, patch_file, capsys, header):
    text = header + TARGET
    target = tmp_path / "main.java"
    target.write_text(text)
    out = tmp_path / "out.java"
    assert cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD,
                     "--input", str(target), "--patch", str(patch_file),
                     "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().startswith(header)
    assert "createOneShot" in out.read_text()


CHAIN = " + ".join(["t"] * 1200)


@pytest.mark.parametrize("body, else_stmt", [
    ("long x = %s;\n        v.vibrate(x);" % CHAIN, "v.vibrate(x);"),
    ("v.vibrate(%s);" % CHAIN, "v.vibrate(%s);" % CHAIN),
], ids=["chain_before_site", "chain_as_argument"])
def test_apply_updates_a_site_near_a_deep_operator_chain(tmp_path, patch_file, capsys,
                                                           body, else_stmt):
    target = tmp_path / "chain.java"
    target.write_text("class A {\n    void m(Vibrator v, long t) {\n        %s\n    }\n}\n"
                      % body)
    out = tmp_path / "out.java"
    assert cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD, "--input", str(target),
                     "--patch", str(patch_file), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    text = out.read_text()
    assert "v.vibrate(VibrationEffect.createOneShot(50, 175));" in text
    assert "} else {\n            %s\n        }" % else_stmt in text


def test_generate_with_a_too_deep_definition_chain_exits_3(tmp_path, capsys):
    # a value of any depth resolves, and the patch it gives applies
    text = (CORPUS / "cases" / "vibrate" / "example.java").read_text()
    deep = "int amplitude = %s;" % "+".join(["AMPLITUDE"] * 1200)
    example = tmp_path / "example.java"
    example.write_text(text.replace("int amplitude = AMPLITUDE;", deep))
    patch = tmp_path / "p.cocci"
    assert cli.main(["--generate-patch", VIBRATE_DEP, VIBRATE_UPD,
                     "--input", str(example), "--output", str(patch)]) == 0
    out = tmp_path / "out.java"
    assert cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD, "--patch", str(patch),
                     "--input", str(CORPUS / "cases" / "vibrate" / "targets" / "basic.java"),
                     "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert "createOneShot(50, %s)" % " + ".join(["175"] * 1200) in out.read_text()


def test_a_generated_patch_with_a_150_step_definition_chain_applies(tmp_path, capsys):
    # the inlined argument is about 450 nodes deep, so each tree level
    # must cost the engine and the renderer one stack frame, not several
    text = (CORPUS / "cases" / "vibrate" / "example.java").read_text()
    steps = ["int a0 = AMPLITUDE;"] + ["a0 = a0 * 2 + 1;"] * 150 + ["int amplitude = a0;"]
    example = tmp_path / "example.java"
    example.write_text(text.replace("int amplitude = AMPLITUDE;", "\n        ".join(steps)))
    patch = tmp_path / "p.cocci"
    assert cli.main(["--generate-patch", VIBRATE_DEP, VIBRATE_UPD,
                     "--input", str(example), "--output", str(patch)]) == 0
    out = tmp_path / "out.java"
    assert cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD, "--patch", str(patch),
                     "--input", str(CORPUS / "cases" / "vibrate" / "targets" / "basic.java"),
                     "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    amplitude = "175 * 2 + 1"
    for _ in range(149):
        amplitude = "(%s) * 2 + 1" % amplitude
    assert "createOneShot(50, %s)" % amplitude in out.read_text()


def test_apply_with_a_too_deep_then_line_exits_3(tmp_path, patch_file, capsys):
    # a then line of any depth is rendered
    chain = " + ".join(["50"] * 1200)
    patch_file.write_text(patch_file.read_text().replace("createOneShot(50, 175)",
                                                         "createOneShot(%s, 175)" % chain))
    target = tmp_path / "target.java"
    target.write_text(TARGET)
    out = tmp_path / "out.java"
    rc = cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD, "--input", str(target),
                   "--patch", str(patch_file), "--output", str(out)])
    assert (rc, capsys.readouterr().err) == (0, "")
    assert "MyVibrator.vibrate(VibrationEffect.createOneShot(%s, 175));" % chain in out.read_text()


def _vibrate_example_with(tmp_path, old, new):
    text = (CORPUS / "cases" / "vibrate" / "example.java").read_text()
    example = tmp_path / "example.java"
    example.write_text(text.replace(old, new))
    return example


def test_a_generated_patch_with_a_240_step_call_chain_applies(tmp_path, capsys):
    steps = ["int a0 = AMPLITUDE;"] + ["a0 = Math.abs(a0);"] * 240 + ["int amplitude = a0;"]
    example = _vibrate_example_with(tmp_path, "int amplitude = AMPLITUDE;",
                                    "\n        ".join(steps))
    patch = tmp_path / "p.cocci"
    assert cli.main(["--generate-patch", VIBRATE_DEP, VIBRATE_UPD,
                     "--input", str(example), "--output", str(patch)]) == 0
    out = tmp_path / "out.java"
    assert cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD, "--patch", str(patch),
                     "--input", str(CORPUS / "cases" / "vibrate" / "targets" / "basic.java"),
                     "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert "createOneShot(50, %s175%s)" % ("Math.abs(" * 240, ")" * 240) in out.read_text()


def test_generate_rejects_a_literal_inlined_as_a_call_receiver(tmp_path, capsys):
    # `5.intValue()` would lex as the number `5.` and then a name
    example = _vibrate_example_with(tmp_path, "int amplitude = AMPLITUDE;", "Integer amp = 5;")
    example.write_text(example.read_text().replace("createOneShot(milliseconds, amplitude)",
                                                   "createOneShot(milliseconds, amp.intValue())"))
    out = tmp_path / "p.cocci"
    assert cli.main(["--generate-patch", VIBRATE_DEP, VIBRATE_UPD, "--input", str(example),
                     "--output", str(out), "--rewire-shared-args"]) == 3
    assert not out.exists()
    assert capsys.readouterr().err == (
        "api-evolve: cannot resolve updated-call argument "
        "'VibrationEffect.createOneShot(milliseconds, amp.intValue())'\n")


def test_a_helper_that_calls_another_through_this_brings_it(tmp_path, capsys):
    case = CORPUS / "cases" / "set_sound"
    sigs = (case / "mapping.txt").read_text().splitlines()
    example = tmp_path / "example.java"
    example.write_text((case / "example.java").read_text().replace(
        "return buildAttrs(usage);", "return this.buildAttrs(usage);"))
    patch = tmp_path / "p.cocci"
    assert cli.main(["--generate-patch", sigs[0], sigs[1], "--input", str(example),
                     "--output", str(patch)]) == 0
    out = tmp_path / "out.java"
    assert cli.main(["--apply-patch", sigs[0], sigs[1], "--patch", str(patch), "--input",
                     str(case / "targets" / "basic.java"), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    text = out.read_text()
    assert "return this.buildAttrs(usage);" in text
    assert "static AudioAttributes buildAttrs(int usage) {" in text


# cli.main in a fresh interpreter that allows 100 Python frames, after a
# check that the input file reprints from its parse: no depth of input may
# need a frame a level
_MAIN_IN_100_FRAMES = """
import sys
from api_evolve import cli, jast
sys.setrecursionlimit(100)
text = open(sys.argv[1], encoding="utf-8", newline="").read()
assert jast.print_unit(jast.parse(text)) == text
sys.exit(cli.main(sys.argv[2:]))
"""


def _main_in_100_frames(parsed, argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", _MAIN_IN_100_FRAMES, str(parsed)] + argv,
                          env=env, capture_output=True, text=True)


_SITE_METHOD = "class A {\n    void m(Vibrator v, int c) {\n        %s\n    }\n}\n"
DEEP_TARGETS = {
    "parentheses_2000": _SITE_METHOD % ("x = %s1%s;\n        v.vibrate(5);"
                                        % ("(" * 2000, ")" * 2000)),
    "else_if_chain_2000": _SITE_METHOD % (
        " else ".join("if (c == %d) { }" % i for i in range(1999))
        + " else if (c == 1999) { v.vibrate(5); }"),
    "nested_blocks_2000": _SITE_METHOD % ("{" * 2000 + " v.vibrate(5); " + "}" * 2000),
    "nested_classes_1000": "".join("class C%d { " % i for i in range(1000))
    + "void m(Vibrator v) { v.vibrate(5); }" + " }" * 1000 + "\n",
}


@pytest.mark.parametrize("text", DEEP_TARGETS.values(), ids=DEEP_TARGETS.keys())
def test_apply_takes_no_python_frame_a_level(tmp_path, patch_file, text):
    target = tmp_path / "deep.java"
    target.write_text(text)
    out = tmp_path / "out.java"
    proc = _main_in_100_frames(target, ["--apply-patch", VIBRATE_DEP, VIBRATE_UPD,
                                        "--input", str(target), "--patch", str(patch_file),
                                        "--output", str(out)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "v.vibrate(VibrationEffect.createOneShot(50, 175));" in out.read_text()


def test_generate_and_apply_take_no_python_frame_a_chain_step(tmp_path):
    steps = ["int a0 = AMPLITUDE;"] + ["a0 = a0 * 2 + 1;"] * 1000 + ["int amplitude = a0;"]
    example = _vibrate_example_with(tmp_path, "int amplitude = AMPLITUDE;",
                                    "\n        ".join(steps))
    patch = tmp_path / "p.cocci"
    proc = _main_in_100_frames(example, ["--generate-patch", VIBRATE_DEP, VIBRATE_UPD,
                                         "--input", str(example), "--output", str(patch)])
    assert (proc.returncode, proc.stderr) == (0, "")
    target = CORPUS / "cases" / "vibrate" / "targets" / "basic.java"
    out = tmp_path / "out.java"
    proc = _main_in_100_frames(target, ["--apply-patch", VIBRATE_DEP, VIBRATE_UPD,
                                        "--patch", str(patch), "--input", str(target),
                                        "--output", str(out)])
    assert (proc.returncode, proc.stderr) == (0, "")
    amplitude = "175 * 2 + 1"
    for _ in range(999):
        amplitude = "(%s) * 2 + 1" % amplitude
    assert "createOneShot(50, %s)" % amplitude in out.read_text()


def _target_mutant(rng, text):
    """A seeded edit of a target: one token deleted, one line duplicated,
    or the text truncated."""
    op = rng.randrange(3)
    if op == 0:
        tok = rng.choice(jast.tokenize(text)[:-1])
        return text[:tok.start] + text[tok.end:]
    if op == 1:
        lines = text.split("\n")
        k = rng.randrange(len(lines))
        return "\n".join(lines[:k + 1] + lines[k:])
    return text[:rng.randrange(len(text) + 1)]


def test_apply_fuzz_exits_with_a_documented_code(tmp_path, capsys):
    patches = {}
    for case in sorted(p.name for p in (CORPUS / "cases").iterdir()):
        (tmp_path / case).mkdir()
        patches[case] = _case_patch(tmp_path / case, case)
    targets = [(case, p.read_text()) for case in patches
               for p in sorted((CORPUS / "cases" / case / "targets").glob("*.java"))]
    rng = random.Random(4242)
    codes = []
    for i in range(300):
        case, text = rng.choice(targets)
        dep, upd, patch = patches[case]
        target = tmp_path / ("t%d.java" % i)
        target.write_text(_target_mutant(rng, text))
        capsys.readouterr()
        codes.append(cli.main(["--apply-patch", dep, upd, "--input", str(target),
                               "--patch", str(patch), "--output", str(tmp_path / "out.java")]))
        assert codes[-1] in (0, 1, 2, 3)
        assert "Traceback" not in capsys.readouterr().err
    # both updated and failing mutants, or the fuzz shows nothing
    assert codes.count(0) > 30 and codes.count(2) > 30


def test_apply_fuzz_of_mutated_patches_exits_with_a_documented_code(tmp_path, capsys):
    # a hand-edited or truncated patch is applied cleanly, found to update
    # nothing, or rejected with one line
    rng = random.Random(1616)
    codes = []
    for case in sorted(p.name for p in (CORPUS / "cases").iterdir()):
        (tmp_path / case).mkdir()
        dep, upd, patch = _case_patch(tmp_path / case, case)
        text = patch.read_text()
        target = min((CORPUS / "cases" / case / "targets").glob("*.java"))
        for _ in range(200):
            patch.write_text(mutant(rng, text))
            capsys.readouterr()
            codes.append(cli.main(["--apply-patch", dep, upd, "--input", str(target),
                                   "--patch", str(patch), "--output", str(tmp_path / "o.java")]))
            err = capsys.readouterr().err
            assert codes[-1] in (0, 1) or (
                codes[-1] == 3 and err.endswith("\n") and err.count("\n") == 1), (codes[-1], err)
    # applied, empty and rejected patches all occur, or the fuzz shows nothing
    assert codes.count(0) > 100 and codes.count(1) > 10 and codes.count(3) > 300


def test_apply_rejects_a_needs_member_nothing_uses(tmp_path, capsys):
    # a metavariable line strayed below @needs@ parses as a field
    dep, upd, patch = _case_patch(tmp_path, "set_sound")
    text = patch.read_text() + "identifier classIden;\n"
    patch.write_text(text)
    out = tmp_path / "out.java"
    rc = cli.main(["--apply-patch", dep, upd, "--patch", str(patch), "--output", str(out),
                   "--input", str(CORPUS / "cases" / "set_sound" / "targets" / "basic.java")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "line %d: @needs@ member classIden is never used" % text.count("\n") in err
    assert not out.exists()


def test_apply_rejects_a_needs_helper_without_braces(tmp_path, capsys):
    # dropped from @needs@, the helper would be called but never copied
    patch = tmp_path / "bad.cocci"
    patch.write_text("@r@\nidentifier iden0, classIden;\n@@\n...\n"
                     "+ if (android.os.Build.VERSION.SDK_INT >= 26) {\n"
                     "+ classIden.vibrate(effect(5));\n"
                     "+ } else {\nclassIden.vibrate(iden0);\n+ }\n@needs@\n"
                     "static VibrationEffect effect(long d) "
                     "return VibrationEffect.createOneShot(d, 1);\n")
    target = tmp_path / "main.java"
    target.write_text(TARGET)
    out = tmp_path / "out.java"
    rc = cli.main(["--apply-patch", VIBRATE_DEP, VIBRATE_UPD, "--input", str(target),
                   "--patch", str(patch), "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "line 11: @needs@ line 'static VibrationEffect effect(long d) return" in err
    assert err.count("\n") == 1
    assert not out.exists()
