"""Tests of the benchmark itself: python3 -m pytest -q bench/tests"""

import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pytest  # noqa: E402

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import trace  # noqa: E402

CORPUS = ROOT / "corpus"


@pytest.fixture(scope="module")
def templates():
    return reference.load_templates(CORPUS)


@pytest.fixture(scope="module")
def api():
    from api_evolve import harness, jast, patchgen, sigmap
    case = CORPUS / "cases" / "vibrate"
    sigs = (case / "mapping.txt").read_text(encoding="utf-8").splitlines()
    mapping = sigmap.ApiMapping(sigmap.parse_signature(sigs[0]), sigmap.parse_signature(sigs[1]))
    example = jast.parse((case / "example.java").read_text(encoding="utf-8"))
    patch = patchgen.parse_patch(patchgen.render_patch(patchgen.generate_patch(example, mapping)))
    return harness, jast, patch, mapping


@pytest.mark.parametrize("make", [
    lambda seed, t: gen.dense_sites(seed, t),
    lambda seed, t: gen.app_sweep(seed, t),
    lambda seed, t: gen.generate_chains(seed, CORPUS),
], ids=["dense_sites", "app_sweep", "generate_chains"])
def test_generation_is_deterministic_per_seed(make, templates):
    first, other = make(7, templates), make(8, templates)
    assert gen.digest(first) == gen.digest(make(7, templates))
    assert gen.digest(first) != gen.digest(other)
    # the shape of the work does not depend on the seed
    if isinstance(first[0], gen.ApplyItem):
        sizes = [sorted((it.name, len(it.text)) for it in items) for items in (first, other)]
        assert all(a[0] == b[0] and abs(a[1] - b[1]) <= 100 for a, b in zip(*sizes))
    else:
        # depth and helper ladders are fixed; the seed pairs them
        ladders = [re.findall(r"_d(\d+)_h(\d+)", " ".join(it.name for it in items))
                   for items in (first, other)]
        assert [sorted(x) for x in zip(*ladders[0])] == [sorted(x) for x in zip(*ladders[1])]


def test_templates_reproduce_all_corpus_goldens(templates):
    checked = 0
    for case_dir in sorted((CORPUS / "cases").iterdir()):
        for target in sorted((case_dir / "targets").glob("*.java")):
            (full, _n), _reach, _sites = reference.expected_outputs(
                target.read_text(encoding="utf-8"), templates[case_dir.name])
            assert full == (case_dir / "expected" / target.name).read_text(encoding="utf-8")
            checked += 1
    assert checked == 20


def test_known_miss_contexts_are_the_seed_output(templates, api):
    harness, _jast, patch, mapping = api
    text = "\n".join([
        "public class Shaker {",
        "    @Override",
        "    public void onStart(android.os.Vibrator v, long ms) {",
        "        v.vibrate(ms);",
        "    }",
        "    void buzz(android.os.Vibrator v, long ms) {",
        "        for (int i = 0; i < 3; i++) {",
        "            v.vibrate(ms);",
        "        }",
        "        v.vibrate(ms);",
        "    }",
        "}", ""])
    (full, n_full), (reach, n_reach), sites = reference.expected_outputs(text, templates["vibrate"])
    assert [s.context for s in sites] == ["annotated", "loop", "plain"]
    assert (n_full, n_reach) == (3, 1)
    assert harness.update_text(text, patch, mapping) == reach != full


@pytest.mark.parametrize("n", [1, 10, 30])
def test_parse_calls_are_2n_plus_3_for_vibrate_sites(n, templates, api):
    harness, jast, patch, mapping = api
    lines = ["public class Dense {"]
    for k in range(n):
        lines += ["    void buzz%d(android.os.Vibrator v, long ms%d) {" % (k, k),
                  "        v.vibrate(ms%d * 2);" % k, "    }"]
    text = "\n".join(lines + ["}", ""])

    parser_runs = []
    real = jast._Parser.parse_unit

    def counted(self):
        parser_runs.append(1)
        return real(self)
    tracer = trace.Tracer()
    jast._Parser.parse_unit = counted
    tracer.install()
    try:
        out = harness.update_text(text, patch, mapping)
    finally:
        tracer.uninstall()
        jast._Parser.parse_unit = real
    calls = tracer.summarize(0, len(tracer.spans))["jast.parse"]["calls"]
    assert calls == len(parser_runs) == 2 * n + 3
    assert out == reference.expected_outputs(text, templates["vibrate"])[0][0]


def test_layer_counts_repeat_between_traced_runs():
    def counts():
        bench = run.Bench("app_sweep", 3)
        bench.setup()
        bench.make_inputs()
        bench.items = bench.items[:12]
        bench.kb = bench.kb[:12]
        metrics, _info, attempted, _failed = run.per_layer(bench, 0)
        assert not bench.unexpected
        return {k: v for k, (v, unit) in metrics.items() if unit == "count"}, attempted
    first, attempted = counts()
    assert attempted == 12 and first["harness.update_text.calls"] == 12
    assert counts() == (first, attempted)
