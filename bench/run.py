#!/usr/bin/env python3
"""api-evolve benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload dense_sites --seed 1 --seconds 20 --trace 0

Inputs are generated from --seed; the program only sees the generated Java.
Each operation (one file updated, or one patch generated) waits for the
previous one. Every output is checked against an independent reference.
With --trace 0 the last line reports the end-to-end metrics; with --trace 1
it reports per-layer metrics from spans recorded around api_evolve's public
functions. Earlier lines print the input manifest and a summary.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import reference  # noqa: E402
import trace  # noqa: E402

WORKLOADS = ("dense_sites", "app_sweep", "generate_chains")
# Set-up is timed in a fresh interpreter this many times before the inputs
# are made and once after every pass; setup_s is the median. The machine's
# speed drifts over seconds, so the samples are spread over the whole run.
SETUP_REPEATS = 5
CLI_SAMPLE = {"dense_sites": 2, "app_sweep": 4, "generate_chains": 4}
# Latency tail per workload, over the items' best times: p90 keeps 12 of
# app_sweep's 120 items and 10 of generate_chains' 100 beyond it.
# dense_sites has 9 items, so no percentile keeps ten beyond it; its p75 is
# the 7th-fastest file's time, with 2 files beyond it (see README.md).
TAIL = {"dense_sites": 75, "app_sweep": 90, "generate_chains": 90}

OK, KNOWN_MISS, KNOWN_CRASH = "ok", "known_miss", "known_crash"


class Bench:
    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.setup_times = []
        self.unexpected = []   # descriptions of outcomes no reference explains

    # -- set-up ---------------------------------------------------------------

    def setup(self):
        """Time SETUP_REPEATS set-ups, then load the patches the run uses."""
        for _ in range(SETUP_REPEATS):
            self.time_setup()
        self.patches = self.load_patches(importlib.import_module("api_evolve"))
        for sub in ("cli", "harness", "jast", "normal", "patchgen"):
            setattr(self, sub, importlib.import_module("api_evolve." + sub))

    def time_setup(self):
        """Import api_evolve, then generate, render and re-parse the five
        corpus patches, in a fresh interpreter (setup_once.py)."""
        script = Path(__file__).resolve().parent / "setup_once.py"
        proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, check=True,
                              capture_output=True, text=True)
        self.setup_times.append(float(proc.stdout.split()[-1]))

    @staticmethod
    def load_patches(ae):
        patches = {}
        for case in gen.CASES:
            d = CORPUS / "cases" / case
            sigs = (d / "mapping.txt").read_text(encoding="utf-8").splitlines()[:2]
            mapping = ae.sigmap.ApiMapping(ae.sigmap.parse_signature(sigs[0]),
                                           ae.sigmap.parse_signature(sigs[1]))
            example = ae.jast.parse((d / "example.java").read_text(encoding="utf-8"))
            text = ae.patchgen.render_patch(ae.patchgen.generate_patch(example, mapping))
            patches[case] = (ae.patchgen.parse_patch(text), mapping, text, sigs)
        return patches

    # -- inputs and operations ------------------------------------------------

    def make_inputs(self):
        if self.workload == "generate_chains":
            self.items = gen.generate_chains(self.seed, CORPUS)
            self.units = [self.jast.parse(it.text) for it in self.items]
            self.op = self.generate_op
        else:
            templates = reference.load_templates(CORPUS)
            self.items = getattr(gen, self.workload)(self.seed, templates)
            self.op = self.apply_op
        self.kb = [len(it.text.encode("utf-8")) / 1024.0 for it in self.items]

    def apply_op(self, i):
        item = self.items[i]
        patch, mapping, _text, _sigs = self.patches[item.case]
        return self.harness.update_text(item.text, patch, mapping)

    def generate_op(self, i):
        _patch, mapping, _text, _sigs = self.patches[self.items[i].case]
        pg = self.patchgen
        text = pg.render_patch(pg.generate_patch(self.units[i], mapping))
        pg.parse_patch(text)
        return text

    def run_op(self, i):
        """Run one operation; returns (seconds, outcome, output)."""
        t0 = perf_counter()
        try:
            out, err = self.op(i), None
        except Exception as exc:  # a failing operation is counted, not fatal
            out, err = None, exc
        dt = perf_counter() - t0
        return dt, self.classify(i, out, err), out

    def classify(self, i, out, err):
        item = self.items[i]
        if self.workload == "generate_chains":
            want = item.expected_patch or self.patches[item.case][2]
            if err is None and out == want:
                return OK
        elif err is None:
            if out == item.expected:
                return OK
            if out == item.reach:
                return KNOWN_MISS
        elif type(err).__name__ == "MultipleUse" and item.crash:
            return KNOWN_CRASH
        what = "raised %s: %s" % (type(err).__name__, err) if err else "output differs"
        self.unexpected.append("%s: %s" % (item.name, what))
        return "unexpected"

    def sites_done(self, i, outcome):
        """Sites the operation updated (generation: one call-site pair)."""
        item = self.items[i]
        if self.workload == "generate_chains":
            return 1 if outcome == OK else 0
        return {OK: item.updated, KNOWN_MISS: item.reach_updated}.get(outcome, 0)

    # -- the closed loop ------------------------------------------------------

    def timed_loop(self, seconds):
        """Run whole passes over the items, in their seeded order, until
        `seconds` have passed. Returns [(index, seconds, outcome)]."""
        self.outputs = {}
        samples = []
        deadline = perf_counter() + seconds
        while not samples or perf_counter() < deadline:
            for i in range(len(self.items)):
                dt, outcome, out = self.run_op(i)
                samples.append((i, dt, outcome))
                self.outputs.setdefault(i, (out, outcome))
            self.time_setup()
        return samples

    def warm_up(self):
        smallest = min(range(len(self.items)), key=lambda i: self.kb[i])
        self.run_op(smallest)

    # -- verification (untimed) -------------------------------------------------

    def verify(self):
        checks = 0
        if self.workload == "generate_chains":
            checks += self.verify_corpus_patches()
            for i, (text, _outcome) in self.outputs.items():
                if text is not None:
                    checks += 1
                    again = self.patchgen.render_patch(self.patchgen.parse_patch(text))
                    if _needs_as_set(again) != _needs_as_set(text):
                        self.unexpected.append("%s: patch does not re-render" % self.items[i].name)
        else:
            for i, (out, _outcome) in self.outputs.items():
                if out is None:
                    continue
                item = self.items[i]
                patch, mapping, _t, _s = self.patches[item.case]
                checks += 2
                if self.harness.update_text(out, patch, mapping) != out:
                    self.unexpected.append("%s: re-applying changes the output" % item.name)
                if not self.normal.purge_ok(out):
                    self.unexpected.append("%s: tool temporary left in output" % item.name)
        return checks + self.cross_check_cli()

    def verify_corpus_patches(self):
        """The setup's corpus patches reproduce the hand-written goldens."""
        checks = 0
        for case, (patch, mapping, _text, _sigs) in self.patches.items():
            d = CORPUS / "cases" / case
            for target in sorted((d / "targets").glob("*.java")):
                checks += 1
                got = self.harness.update_text(target.read_text(encoding="utf-8"), patch, mapping)
                if got != (d / "expected" / target.name).read_text(encoding="utf-8"):
                    self.unexpected.append("corpus %s/%s differs from golden" % (case, target.name))
        return checks

    def cross_check_cli(self):
        """cli.main on temporary files must agree with the library call."""
        rng = random.Random("cli/%s/%d" % (self.workload, self.seed))
        sample = rng.sample(range(len(self.items)), CLI_SAMPLE[self.workload])
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            for i in sample:
                item = self.items[i]
                _patch, _mapping, patch_text, sigs = self.patches[item.case]
                src, out, pfile = (os.path.join(tmp, n) for n in ("in.java", "out", "p.cocci"))
                for path, text in ((src, item.text), (pfile, patch_text)):
                    with open(path, "w", encoding="utf-8", newline="") as fh:
                        fh.write(text)
                if os.path.exists(out):
                    os.unlink(out)
                want, outcome = self.outputs[i]
                if self.workload == "generate_chains":
                    argv = ["--generate-patch", sigs[0], sigs[1], "--input", src, "--output", out]
                    want_rc = 0
                else:
                    argv = ["--apply-patch", sigs[0], sigs[1], "--input", src,
                            "--patch", pfile, "--output", out]
                    if outcome == KNOWN_CRASH:
                        want_rc = 3
                    else:
                        want_rc = 0 if self.sites_done(i, outcome) else 1
                with contextlib.redirect_stderr(io.StringIO()):
                    rc = self.cli.main(argv)
                got = None
                if os.path.exists(out):
                    with open(out, encoding="utf-8", newline="") as fh:
                        got = fh.read()
                if rc != want_rc or got != want:
                    self.unexpected.append("%s: cli exit %s (want %s), output %s" % (
                        item.name, rc, want_rc, "matches" if got == want else "differs"))
        return len(sample)

    # -- reports ----------------------------------------------------------------

    def manifest(self):
        ctx = {"plain": 0, "annotated": 0, "loop_try": 0, "guarded": 0, "other": 0}
        sites = 0
        for it in self.items:
            for c, k in getattr(it, "contexts", {}).items():
                key = {"loop": "loop_try", "try": "loop_try"}.get(c, c)
                ctx[key if key in ctx else "other"] += k
                sites += k
        out = {"workload": self.workload, "seed": self.seed, "files": len(self.items),
               "kb": round(sum(self.kb), 3), "sha256": gen.digest(self.items)}
        if self.workload == "generate_chains":
            out["sites"] = len(self.items)
            out["corpus_examples"] = sum(1 for it in self.items if not it.expected_patch)
        else:
            out["sites"] = sites
            out["sites_by_context"] = ctx
            out["sites_updated_by_reference"] = sum(it.updated for it in self.items)
            out["known_miss_sites"] = sum(it.updated - it.reach_updated for it in self.items)
            out["crash_files"] = sum(1 for it in self.items if it.crash)
        return out


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(math.ceil(p / 100.0 * len(s)), 1) - 1]


def _needs_as_set(patch_text):
    """A patch with its @needs@ definitions as a set: parse_patch lists
    helper classes before helper methods, which transplanting ignores."""
    head, _sep, needs = patch_text.partition("\n@needs@\n")
    return head, sorted(c.strip("\n") for c in needs.split("\n\n"))


def end_to_end(bench, samples):
    """Each item's time is its best over the run's passes. The machine's
    speed drifts by tens of percent over seconds; an item's best time is
    taken at its fastest and repeats from run to run. Throughput is one pass
    over the items at those times, and the latency percentiles are over the
    items' best times, one value per item."""
    times, sites = {}, {}
    for i, dt, outcome in samples:
        times.setdefault(i, []).append(dt)
        sites[i] = bench.sites_done(i, outcome)
    best = {i: min(v) for i, v in times.items()}
    pass_s = sum(best.values())
    lat = [t * 1000.0 for t in best.values()]
    tail = TAIL[bench.workload]
    metrics = {
        "kb_per_s": (sum(bench.kb[i] for i in best) / pass_s, "KB/s"),
        "sites_per_s": (sum(sites.values()) / pass_s, "sites/s"),
        "op_ms_p50": (statistics.median(lat), "ms"),
        "op_ms_tail": (percentile(lat, tail), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(bench.setup_times), "s"),
    }
    info = {"operations": len(samples), "items": len(best), "tail_percentile": tail,
            "items_beyond_tail": sum(1 for x in lat if x > metrics["op_ms_tail"][0]),
            "passes": len(samples) // len(bench.items), "pass_s": pass_s,
            "pass_s_median_times": sum(statistics.median(v) for v in times.values())}
    return metrics, info


def per_layer(bench, seconds):
    """Alternate untraced and traced passes over all items until `seconds`
    have passed (at least one of each). Counts come from one traced pass and
    must repeat exactly in every other; times are medians over passes. The
    tracing overhead compares a pass at each item's best traced time with
    one at its best untraced time."""
    jast = bench.jast
    opaque = sum(opaque_bytes(jast, jast.parse(it.text)) for it in bench.items)
    in_bytes = sum(len(it.text) for it in bench.items)
    n = len(bench.items)
    tracer = trace.Tracer()
    plain, traced = [float("inf")] * n, [float("inf")] * n
    summaries, outcomes = [], []
    deadline = perf_counter() + seconds
    while not summaries or perf_counter() < deadline:
        for i in range(n):
            plain[i] = min(plain[i], bench.run_op(i)[0])
        first = len(tracer.spans)
        tracer.install()
        try:
            result = []
            for i in range(n):
                tracer.op = i
                dt, outcome, _out = bench.run_op(i)
                traced[i] = min(traced[i], dt)
                result.append(outcome)
        finally:
            tracer.op = None
            tracer.uninstall()
        summaries.append(tracer.summarize(first, len(tracer.spans)))
        outcomes.append(result)

    def counts(summary):
        return {name: {k: v for k, v in entry.items() if k != "self_ms"}
                for name, entry in summary.items()}
    if any(counts(s) != counts(summaries[0]) for s in summaries[1:]):
        bench.unexpected.append("per-layer counts differ between traced passes")

    s0 = summaries[0]
    metrics = {}
    for name in trace.WRAPPED:
        metrics[name + ".calls"] = (s0[name]["calls"], "count")
        metrics[name + ".self_ms"] = (statistics.median(s[name]["self_ms"] for s in summaries), "ms")
    parsed = s0["jast.parse"].get("bytes", 0)
    apply_counts = s0["engine.apply_patch"]
    updated = apply_counts.get("updated", 0)
    norm_temps = s0["normal.normalize"].get("temps", 0)
    result = outcomes[0]
    failed = sum(1 for o in result if o != OK)
    metrics.update({
        "jast.parse.kb": (parsed / 1024.0, "KB"),
        "jast.parse.amplification": (parsed / in_bytes, "ratio"),
        "jast.opaque_ratio": (opaque / in_bytes, "ratio"),
        "sigmap.find_invocations.sites": (s0["sigmap.find_invocations"].get("sites", 0), "count"),
        "normal.normalize.temps": (norm_temps, "count"),
        "normal.denormalize.temps": (s0["normal.denormalize"].get("temps", 0), "count"),
        "normal.temps_per_updated_site": (norm_temps / updated if updated else float(norm_temps),
                                          "ratio"),
        "engine.sites_found": (apply_counts.get("found", 0), "count"),
        "engine.sites_updated": (updated, "count"),
        "engine.skipped.AlreadyGuarded": (apply_counts.get("skipped.AlreadyGuarded", 0), "count"),
        "engine.skipped.NoMatch": (apply_counts.get("skipped.NoMatch", 0), "count"),
        "engine.skipped.NonStatementContext": (
            apply_counts.get("skipped.NonStatementContext", 0), "count"),
        "ops_failed_ratio": (failed / len(result), "ratio"),
        "known_misses": (sum(1 for o in result if o == KNOWN_MISS), "count"),
        "trace.overhead_pct": ((sum(traced) / sum(plain) - 1.0) * 100.0, "%"),
    })
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / ("trace-%s-seed%d.json" % (bench.workload, bench.seed))
    tracer.dump(spans)
    info = {"passes": len(summaries), "untraced_pass_s": sum(plain), "traced_pass_s": sum(traced),
            "spans": str(spans.relative_to(ROOT))}
    attempted = sum(len(r) for r in outcomes)
    failed_all = sum(1 for r in outcomes for o in r if o != OK)
    return metrics, info, attempted, failed_all


def opaque_bytes(jast, unit):
    """Bytes the parser kept opaque: opaque statements and expressions, and
    class-body code outside every parsed member."""
    total = 0
    for tdecl, _outer in jast.iter_types(unit):
        members = sorted([m.span for m in tdecl.fields + tdecl.methods + tdecl.nested
                          if m.span is not None], key=lambda s: s.start)
        if not tdecl.implicit:
            pos = tdecl.body_span.start
            for span in members + [jast.Span(tdecl.body_span.end, tdecl.body_span.end)]:
                toks = jast.tokenize(unit.text[pos:span.start])[:-1]
                if toks:
                    total += toks[-1].end - toks[0].start
                pos = max(pos, span.end)
        for m in tdecl.methods:
            for stmt, _chain in jast.iter_statements(m.body):
                if isinstance(stmt, jast.OpaqueStmt):
                    total += stmt.span.end - stmt.span.start
                for root in jast.stmt_exprs(stmt):
                    for e in jast.iter_exprs(root):
                        if isinstance(e, jast.OpaqueExpr) and e.span is not None:
                            total += e.span.end - e.span.start
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "api_evolve").is_dir() or not (CORPUS / "cases").is_dir():
        sys.stderr.write("bench: %s has no src/api_evolve or corpus/cases; run from a "
                         "checkout of the repository\n" % ROOT)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10000))

    bench = Bench(args.workload, args.seed)
    bench.setup()
    bench.make_inputs()
    print(json.dumps({"manifest": bench.manifest()}))
    bench.warm_up()
    gc.collect()
    gc.freeze()  # the benchmark's own inputs are not the program's garbage
    if args.trace:
        metrics, info, attempted, failed = per_layer(bench, args.seconds)
        print(json.dumps({"trace": info}))
    else:
        samples = bench.timed_loop(args.seconds)
        checks = bench.verify()
        metrics, info = end_to_end(bench, samples)
        info["verification_checks"] = checks
        attempted = len(samples)
        outcomes = [o for _i, _dt, o in samples]
        failed = sum(1 for o in outcomes if o != OK)
        info.update({"ops_failed_ratio": failed / attempted,
                     "known_miss_ops": outcomes.count(KNOWN_MISS),
                     "known_crash_ops": outcomes.count(KNOWN_CRASH)})
        print(json.dumps({"summary": info}))
    for line in bench.unexpected[:20]:
        sys.stderr.write("bench: unexpected: %s\n" % line)
    print(json.dumps({
        "correct": not bench.unexpected, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
