import json
import shutil

import pytest

from api_evolve import harness

from conftest import CORPUS


def test_full_corpus_passes():
    summary = harness.run_corpus(CORPUS)
    assert summary.ok
    assert summary.total >= 20
    assert len(summary.cases) >= 5
    assert all(c.passed >= 4 for c in summary.cases)
    assert summary.accuracy == 1.0


def test_empty_corpus(tmp_path):
    summary = harness.run_corpus(tmp_path)
    assert summary.total == 0
    assert summary.ok
    assert summary.accuracy == 1.0


def test_wrong_expected_file_fails_only_that_target(tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS / "cases" / "vibrate", root / "cases" / "vibrate")
    (root / "cases" / "vibrate" / "expected" / "basic.java").write_text(
        "class Wrong { }\n")
    summary = harness.run_corpus(root)
    (case,) = summary.cases
    assert case.failed == 1
    assert case.passed >= 3
    assert any(t == "basic.java" for t, _ in case.errors)


@pytest.mark.parametrize("edit", [
    lambda t: t.replace("    ", "  ", 1),
    lambda t: t + "\n",
    lambda t: t.replace("\n", "\r\n"),
], ids=["indent", "trailing_blank_line", "crlf"])
def test_a_golden_that_differs_only_in_whitespace_fails(tmp_path, edit):
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS / "cases" / "vibrate", root / "cases" / "vibrate")
    golden = root / "cases" / "vibrate" / "expected" / "basic.java"
    golden.write_bytes(edit(golden.read_text()).encode("utf-8"))
    (case,) = harness.run_corpus(root).cases
    assert case.failed == 1
    assert case.errors == [("basic.java", "output differs from expected")]


def test_broken_case_does_not_abort_others(tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS / "cases" / "vibrate", root / "cases" / "vibrate")
    bad = root / "cases" / "broken"
    bad.mkdir()
    (bad / "mapping.txt").write_text("garbage\n")
    summary = harness.run_corpus(root)
    by_name = {c.name: c for c in summary.cases}
    assert by_name["broken"].errors
    assert by_name["vibrate"].failed == 0 and not by_name["vibrate"].errors
    assert not summary.ok


def test_deterministic_summary():
    a = harness.run_corpus(CORPUS)
    b = harness.run_corpus(CORPUS)
    assert a.table() == b.table()
    assert a.to_json_dict() == b.to_json_dict()


def test_main_table_and_json(tmp_path, capsys):
    out = tmp_path / "summary.json"
    rc = harness.main([str(CORPUS), "--json", str(out)])
    assert rc == 0
    table = capsys.readouterr().out
    assert "100.0% accuracy" in table
    data = json.loads(out.read_text())
    assert data["passed"] == data["targets"]
    assert data["accuracy"] == 1.0


def test_main_nonzero_on_failure(tmp_path, capsys):
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS / "cases" / "vibrate", root / "cases" / "vibrate")
    (root / "cases" / "vibrate" / "expected" / "basic.java").write_text("x\n")
    assert harness.main([str(root)]) == 1


@pytest.mark.parametrize("layout", ["no_cases_directory", "empty_cases_directory"])
def test_main_fails_on_a_corpus_with_no_case(tmp_path, capsys, layout):
    if layout == "empty_cases_directory":
        (tmp_path / "cases").mkdir()
    assert harness.main([str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "api-evolve-corpus: no case under %s\n" % (tmp_path / "cases")


def test_main_exits_64_when_the_json_path_cannot_be_written(tmp_path, capsys):
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS / "cases" / "vibrate", root / "cases" / "vibrate")
    out = tmp_path / "missing" / "dir" / "s.json"
    assert harness.main([str(root), "--json", str(out)]) == 64
    captured = capsys.readouterr()
    assert "100.0% accuracy" in captured.out
    assert captured.err.startswith("api-evolve-corpus: cannot write %s: " % out)
    assert captured.err.count("\n") == 1
    assert not out.parent.exists()
