import json

import pytest

from api_evolve import cli, harness, patchgen, sigmap

from conftest import CORPUS

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
