"""Acceptance suite.

Each test checks one acceptance criterion end to end; a terminal-summary
hook in conftest prints one PASS/FAIL line per criterion so the run log
doubles as a checklist.
"""

import random
import re
import time

from api_evolve import cli, engine, harness, jast, normal, patchgen, sigmap

import oracle_programs
from conftest import CORPUS, corpus_java_files


def _report(number, title, ok):
    assert ok, "criterion %d failed: %s" % (number, title)


def _case(name):
    root = CORPUS / "cases" / name
    dep, upd = (root / "mapping.txt").read_text().splitlines()
    mapping = sigmap.ApiMapping(sigmap.parse_signature(dep),
                                sigmap.parse_signature(upd))
    example = jast.parse((root / "example.java").read_text())
    return example, mapping


def _read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def test_01_vibrate_patch_tokens():
    start = time.perf_counter()
    example, mapping = _case("vibrate")
    rendered = patchgen.render_patch(patchgen.generate_patch(example, mapping))
    elapsed = time.perf_counter() - start
    tokens = {ln.lstrip("+ ").strip() for ln in rendered.splitlines()}
    ok = (elapsed < 1.0
          and "VibrationEffect newParameterVariable0 = VibrationEffect.createOneShot(50, 175);" in tokens
          and "classIden.vibrate(newParameterVariable0);" in tokens
          and "classIden.vibrate(iden0);" in tokens
          and any("SDK_INT >= android.os.Build.VERSION_CODES.O" in t for t in tokens))
    _report(1, "update patch regenerated token-exactly in under 1 s", ok)


def test_02_guarded_application_with_inlined_temporaries():
    example, mapping = _case("vibrate")
    patch = patchgen.generate_patch(example, mapping)
    target = (
        "public class Main {\n"
        "    public void buzz(android.os.Vibrator MyVibrator, long milliseconds) {\n"
        "        if (MyVibrator.hasVibrator()) {\n"
        "            MyVibrator.vibrate(milliseconds);\n"
        "        }\n"
        "    }\n"
        "}\n")
    out = harness.update_text(target, patch, mapping)
    m = re.search(
        r"if \(android\.os\.Build\.VERSION\.SDK_INT >= "
        r"android\.os\.Build\.VERSION_CODES\.O\) \{\s*"
        r"(.*?)\s*\} else \{\s*(.*?)\s*\}", out, re.S)
    ok = (m is not None
          and m.group(2) == "MyVibrator.vibrate(milliseconds);"
          and m.group(1).count(";") == 1
          and "createOneShot(50, 175)" in m.group(1)
          and normal.purge_ok(out))
    _report(2, "then branch is one inlined call, else branch byte-identical", ok)


def test_03_method_rename_golden():
    example, mapping = _case("get_current_minute")
    patch = patchgen.generate_patch(example, mapping)
    target = _read(CORPUS / "cases" / "get_current_minute" / "targets" / "assign.java")
    expected = _read(CORPUS / "cases" / "get_current_minute" / "expected" / "assign.java")
    ok = harness.update_text(target, patch, mapping) == expected
    _report(3, "zero-argument rename updates an assignment site, golden equality", ok)


def test_04_multi_site_file():
    example, mapping = _case("vibrate")
    patch = patchgen.generate_patch(example, mapping)
    unit = jast.parse(_read(CORPUS / "cases" / "vibrate" / "targets" / "multi_site.java"))
    edits, report = engine.apply_patch(patch, unit.text)
    text = jast.splice(unit.text, edits)
    ok = (report.sites_updated == 3
          and len(re.findall(r"if \(android\.os\.Build\.VERSION\.SDK_INT", text)) == 3)
    _report(4, "three call sites in one file yield three guarded blocks", ok)


def test_05_idempotence_over_corpus():
    ok = True
    for case_dir in sorted((CORPUS / "cases").iterdir()):
        example, mapping = _case(case_dir.name)
        patch = patchgen.generate_patch(example, mapping)
        for target in sorted((case_dir / "targets").glob("*.java")):
            once = harness.update_text(_read(target), patch, mapping)
            twice = harness.update_text(once, patch, mapping)
            if twice != once:
                ok = False
    _report(5, "re-applying every patch to its own output changes nothing", ok)


def test_06_dataflow_interpreter_oracle():
    agree = sum(oracle_programs.check_one(random.Random(seed))[0]
                for seed in range(200))
    _report(6, "resolver agrees with forward interpreter on 200 programs "
               "(%d/200)" % agree, agree == 200)


def test_07_normalize_denormalize_inverse_and_purge():
    ok = True
    for case_dir in sorted((CORPUS / "cases").iterdir()):
        example, mapping = _case(case_dir.name)
        patch = patchgen.generate_patch(example, mapping)
        for target in sorted((case_dir / "targets").glob("*.java")):
            text = _read(target)
            unit = jast.parse(text)
            unit, nmap = normal.normalize(
                unit, sigmap.find_invocations(unit, mapping.deprecated), mapping)
            if jast.print_unit(normal.denormalize(unit, nmap)) != text:
                ok = False
            if not normal.purge_ok(harness.update_text(text, patch, mapping)):
                ok = False
    _report(7, "denormalize inverts normalize; no temporaries survive updates", ok)


def test_08_parser_roundtrip_full_corpus():
    files = corpus_java_files()
    ok = bool(files) and all(
        jast.print_unit(jast.parse(_read(f))) == _read(f) for f in files)
    _report(8, "print(parse(t)) == t over all %d corpus and fixture files"
               % len(files), ok)


def test_09_harness_accuracy_and_speed():
    start = time.perf_counter()
    summary = harness.run_corpus(CORPUS)
    elapsed = time.perf_counter() - start
    ok = (summary.ok and summary.total >= 20 and len(summary.cases) >= 5
          and summary.accuracy == 1.0 and elapsed < 10.0)
    _report(9, "golden corpus %d/%d targets in %.2f s"
               % (summary.passed, summary.total, elapsed), ok)


def test_10_cli_contract(tmp_path):
    example = tmp_path / "example.java"
    example.write_text((CORPUS / "cases" / "vibrate" / "example.java").read_text())
    main_java = tmp_path / "main.java"
    main_java.write_text(
        "public class Main {\n"
        "    void go(android.os.Vibrator v, long ms) {\n"
        "        v.vibrate(ms);\n"
        "    }\n"
        "}\n")
    patch_path = tmp_path / "vibrate_update.cocci"
    out_path = tmp_path / "main_updated.java"
    rc1 = cli.main(
        "--generate-patch android.os.Vibrator#vibrate(long) "
        "android.os.Vibrator#vibrate(android.os.VibrationEffect) "
        "--input {} --output {}".format(example, patch_path).split())
    rc2 = cli.main(
        "--apply-patch android.os.Vibrator#vibrate(long) "
        "android.os.Vibrator#vibrate(android.os.VibrationEffect) "
        "--input {} --patch {} --output {}".format(
            main_java, patch_path, out_path).split())
    ok = (rc1 == 0 and rc2 == 0 and patch_path.exists()
          and "createOneShot(50, 175)" in out_path.read_text())
    _report(10, "published command lines succeed end to end", ok)
