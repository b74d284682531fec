"""Golden-corpus runner.

Corpus layout:

    cases/<name>/mapping.txt     line 1: deprecated sig, line 2: updated sig
    cases/<name>/example.java    after-update example
    cases/<name>/targets/*.java  files to update
    cases/<name>/expected/*.java golden outputs (same basenames)

Each case generates its patch once, applies it to every target, and
compares the output with the golden file byte for byte.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import engine, jast, patchgen, sigmap


@dataclass
class CaseResult:
    name: str
    passed: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # of (target, message)


@dataclass
class CorpusSummary:
    cases: list = field(default_factory=list)  # of CaseResult

    @property
    def total(self) -> int:
        return sum(c.passed + c.failed for c in self.cases)

    @property
    def passed(self) -> int:
        return sum(c.passed for c in self.cases)

    @property
    def accuracy(self) -> float:
        return self.passed / self.total if self.total else 1.0

    @property
    def ok(self) -> bool:
        return all(c.failed == 0 and not c.errors for c in self.cases)

    def to_json_dict(self) -> dict:
        return {
            "cases": [{"name": c.name, "passed": c.passed, "failed": c.failed,
                       "errors": [{"target": t, "message": m} for t, m in c.errors]}
                      for c in self.cases],
            "targets": self.total,
            "passed": self.passed,
            "accuracy": self.accuracy,
        }

    def table(self) -> str:
        width = max([len(c.name) for c in self.cases] + [4])
        lines = ["%-*s  %6s  %6s" % (width, "case", "pass", "fail")]
        for c in sorted(self.cases, key=lambda c: c.name):
            lines.append("%-*s  %6d  %6d" % (width, c.name, c.passed, c.failed))
            for target, message in c.errors:
                lines.append("    %s: %s" % (target, message))
        lines.append("total: %d/%d targets (%.1f%% accuracy)"
                     % (self.passed, self.total, 100.0 * self.accuracy))
        return "\n".join(lines)


def update_text(target_text: str, patch: patchgen.SemanticPatch,
                mapping: sigmap.ApiMapping) -> str:
    """Full update pipeline over one target, returning the updated text."""
    return engine.update(target_text, patch, mapping)[0]


def run_case(case_dir: Path) -> CaseResult:
    result = CaseResult(name=case_dir.name)
    try:
        lines = (case_dir / "mapping.txt").read_text(encoding="utf-8").splitlines()
        mapping = sigmap.ApiMapping(sigmap.parse_signature(lines[0]),
                                    sigmap.parse_signature(lines[1]))
        example = jast.parse((case_dir / "example.java").read_text(encoding="utf-8"))
        patch = patchgen.generate_patch(example, mapping)
    except Exception as exc:
        result.errors.append(("<case setup>", str(exc)))
        return result

    for target in sorted((case_dir / "targets").glob("*.java")):
        expected_path = case_dir / "expected" / target.name
        try:
            if not expected_path.exists():
                raise FileNotFoundError("missing expected file %s" % expected_path)
            # bytes, decoded: reading as text would translate line endings
            actual = update_text(target.read_bytes().decode("utf-8"), patch, mapping)
            expected = expected_path.read_bytes().decode("utf-8")
            if actual == expected:
                result.passed += 1
            else:
                result.failed += 1
                result.errors.append((target.name, "output differs from expected"))
        except Exception as exc:
            result.failed += 1
            result.errors.append((target.name, str(exc)))
    return result


def run_corpus(root) -> CorpusSummary:
    root = Path(root)
    summary = CorpusSummary()
    cases_dir = root / "cases"
    if not cases_dir.is_dir():
        return summary
    for case_dir in sorted(p for p in cases_dir.iterdir() if p.is_dir()):
        summary.cases.append(run_case(case_dir))
    return summary


def main(argv=None) -> int:
    import argparse
    p = argparse.ArgumentParser(prog="api-evolve-corpus",
                                description="Run the golden update corpus.")
    p.add_argument("root", help="corpus root containing cases/")
    p.add_argument("--json", help="also write the summary as JSON here")
    args = p.parse_args(argv)
    summary = run_corpus(args.root)
    if not summary.cases:  # a missing corpus must not read as a passing one
        sys.stderr.write("api-evolve-corpus: no case under %s\n" % (Path(args.root) / "cases"))
        return 2
    print(summary.table())
    if args.json:
        try:
            Path(args.json).write_text(json.dumps(summary.to_json_dict(), indent=2) + "\n",
                                       encoding="utf-8")
        except OSError as exc:
            sys.stderr.write("api-evolve-corpus: cannot write %s: %s\n" % (args.json, exc))
            return 64
    return 0 if summary.ok else 1


if __name__ == "__main__":
    sys.exit(main())
