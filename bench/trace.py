"""Span tracing of api_evolve's public functions, from outside the package.

install() replaces module attributes with wrappers, so calls made through
the module (including a module's calls to its own functions, which look
the name up in the module namespace) record a span: name, start, end,
parent span and operation id. Calls through a name bound elsewhere with
`from ... import` are not seen. Spans stay in memory until dump().
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

WRAPPED = (
    "jast.parse", "jast.tokenize", "jast.check_balanced", "jast.splice",
    "sigmap.find_invocations",
    "normal.normalize", "normal.denormalize",
    "engine.transplant_definitions", "engine.apply_patch", "engine.match_statement",
    "dataflow.resolve_expression", "dataflow.collect_dependencies",
    "patchgen.generate_patch", "patchgen.render_patch", "patchgen.parse_patch",
    "harness.update_text",
)


def _apply_counts(args, result):
    report = result[1]
    out = {"found": report.sites_found, "updated": report.sites_updated}
    for _span, reason in report.sites_skipped:
        out["skipped." + reason] = out.get("skipped." + reason, 0) + 1
    return out


# Per-call counts taken from a wrapped call's arguments and result.
COUNTERS = {
    "jast.parse": lambda a, r: {"bytes": len(a[0])},
    "sigmap.find_invocations": lambda a, r: {"sites": len(r)},
    "normal.normalize": lambda a, r: {"temps": len(r[1].entries)},
    "normal.denormalize": lambda a, r: {
        "temps": len(a[1].temp_names()) + len(a[2] if len(a) > 2 else ())},
    "engine.apply_patch": _apply_counts,
}


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index, op id, counts]
        self.stack = []
        self.op = None
        self._saved = []

    def install(self):
        for qual in WRAPPED:
            mod_name, fn_name = qual.split(".")
            mod = importlib.import_module("api_evolve." + mod_name)
            fn = getattr(mod, fn_name)
            self._saved.append((mod, fn_name, fn))
            setattr(mod, fn_name, self._wrap(qual, fn))

    def uninstall(self):
        for mod, fn_name, fn in reversed(self._saved):
            setattr(mod, fn_name, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack, count = self.spans, self.stack, COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result
        return traced

    def summarize(self, first: int, last: int) -> dict:
        """Calls, self time (ms) and summed counts per function over the
        spans with index in [first, last). Self time is a span's duration
        minus that of its direct children."""
        child = {}
        for name, t0, t1, parent, _op, _c in self.spans[first:last]:
            if parent >= first:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        out = {name: {"calls": 0, "self_ms": 0.0} for name in WRAPPED}
        for i in range(first, last):
            name, t0, t1, _parent, _op, counts = self.spans[i]
            entry = out[name]
            entry["calls"] += 1
            entry["self_ms"] += (t1 - t0 - child.get(i, 0.0)) * 1000.0
            for k, v in (counts or {}).items():
                entry[k] = entry.get(k, 0) + v
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "counts"],
                       "spans": self.spans}, fh)
