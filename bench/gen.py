"""Seeded generators for the benchmark's Java inputs.

Each workload has a fixed shape: the ladder of site counts, the file-size
quantiles, the mapping mix and the share of each site context are the same
for every seed, and files are padded to a fixed size, so runs with
different seeds do the same amount of work. The seed draws everything else:
identifiers, argument expressions, filler code, the pairing of the
generation ladders and the order of the items.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from statistics import NormalDist

import reference

CASES = ("vibrate", "vibrate_waveform", "set_sound", "from_html", "get_current_minute")

# dense_sites: one file per rung; the mapping rotates with the rung.
DENSE_SITES = (8, 10, 12, 14, 16, 18, 20, 22, 24)
# Each file is padded to DENSE_BASE_BYTES + DENSE_SITE_BYTES * sites.
DENSE_BASE_BYTES, DENSE_SITE_BYTES = 1500, 150

# app_sweep: file sizes at lognormal quantiles, clipped to 1..150 KB.
# The median, sigma, clip and the shares below are assumptions, not taken
# from a measurement of Android projects; bench/README.md says so.
SWEEP_FILES = 120
SWEEP_MEDIAN_BYTES = 8000
SWEEP_SIGMA = 1.25
SWEEP_MIN_BYTES, SWEEP_MAX_BYTES = 1000, 150000
# By size rank: every 4th file has 1-3 sites, every 10th (offset 5) is
# already migrated; every 6th site-bearing file puts one site in a
# known-miss context, and every 9th passes non-name arguments, rotating
# over _NONNAME_CASES.
SWEEP_SITE_EVERY, SWEEP_MIGRATED_EVERY = 4, 10
SWEEP_MISS_EVERY, SWEEP_NONNAME_EVERY = 6, 9
_NONNAME_CASES = ("from_html", "vibrate", "set_sound", "vibrate_waveform")

# generate_chains: synthetic examples besides the five corpus examples.
CHAIN_EXAMPLES = 95
CHAIN_DEPTH = (1, 150)
CHAIN_HELPERS = (0, 40)
CHAIN_FILLER_BYTES = (0, 30000)
CHAIN_FIELD_HOPS = (0, 6)

_WORDS = ("alpha", "beacon", "cursor", "delta", "ember", "flux", "glyph", "harbor",
          "index", "jolt", "kernel", "lumen", "marker", "nexus", "orbit", "pivot",
          "quill", "ripple", "signal", "tempo", "umbra", "vector", "warden", "zenith")


@dataclass
class ApplyItem:
    name: str
    case: str
    text: str
    expected: str = ""        # full reference
    reach: str = ""           # reference with known-miss sites untouched
    updated: int = 0          # sites updated in the full reference
    reach_updated: int = 0
    contexts: dict = field(default_factory=dict)
    crash: bool = False       # a shared argument that is not a plain name


@dataclass
class GenItem:
    name: str
    case: str
    text: str
    expected_patch: str = ""  # empty for corpus examples, checked via goldens


def _cap(w):
    return w[0].upper() + w[1:]


class _Names:
    def __init__(self, rng):
        self.rng = rng
        self.n = 0

    def word(self):
        return self.rng.choice(_WORDS)

    def fresh(self, prefix=""):
        self.n += 1
        return "%s%s%d" % (prefix, _cap(self.word()) if prefix else self.word(), self.n)

    def cls(self):
        self.n += 1
        return "%s%s%d" % (_cap(self.word()), _cap(self.word()), self.n)


# ---------------------------------------------------------------------------
# Filler: Android-shaped members. Every block opens at a line end and closes
# at a line start, one statement per line, as reference.scan_sites expects.
# ---------------------------------------------------------------------------

def _filler_stmts(rng, names, ind, count, locals_):
    out = []
    for _ in range(count):
        r = rng.random()
        k = rng.randint(2, 99)
        if r < 0.3 or not locals_:
            v = names.fresh("t")
            src = rng.choice(locals_) if locals_ else str(rng.randint(1, 9))
            out.append("%sint %s = %s * %d + %d;" % (ind, v, src, k, rng.randint(0, 9)))
            locals_.append(v)
        elif r < 0.45:
            out.append('%sString %s = "%s " + %s;' % (ind, names.fresh("s"), names.word(),
                                                      rng.choice(locals_)))
        elif r < 0.6:
            out.append('%sLog.d(TAG, "%s=" + %s);' % (ind, names.word(), rng.choice(locals_)))
        elif r < 0.72:
            v = rng.choice(locals_)
            out += ["%sif (%s > %d) {" % (ind, v, k),
                    "%s    %s = %s - %d;" % (ind, v, v, rng.randint(1, 9)),
                    "%s}" % ind]
        elif r < 0.8:
            out.append("%smCount = mCount + %s;" % (ind, rng.choice(locals_)))
        elif r < 0.87:
            out.append("%s%s += %d;" % (ind, rng.choice(locals_), k))
        elif r < 0.94:
            v = rng.choice(locals_)
            out.append('%sString %s = %s > %d ? "%s" : "%s";' % (
                ind, names.fresh("s"), v, k, names.word(), names.word()))
        else:
            out.append("%s// %s the %s before the %s pass" % (
                ind, _cap(names.word()), names.word(), names.word()))
    return out


def _plain_method(rng, names):
    locals_ = []
    lines = ["    private int %s(int %s) {" % (names.fresh("compute"), "seed")]
    locals_.append("seed")
    lines += _filler_stmts(rng, names, "        ", rng.randint(3, 10), locals_)
    lines += ["        return %s;" % rng.choice(locals_), "    }"]
    return lines


def _override_method(rng, names):
    hook = rng.choice(("onStart", "onResume", "onPause", "onStop", "onDestroy"))
    lines = ["    @Override", "    protected void %s() {" % hook,
             "        super.%s();" % hook]
    lines += _filler_stmts(rng, names, "        ", rng.randint(2, 6), [])
    return lines + ["    }"]


def _loop_method(rng, names):
    n = names.fresh("sum")
    lines = ["    int %s(java.util.List<Integer> values) {" % n, "        int total = 0;",
             "        for (int i = 0; i < values.size(); i++) {",
             "            total = total + values.get(i) * %d;" % rng.randint(2, 9),
             "        }",
             "        while (total > %d) {" % rng.randint(100, 999),
             "            total = total / 2;", "        }",
             "        return total;", "    }"]
    return lines


def _try_method(rng, names):
    return ["    void %s(String path) {" % names.fresh("load"), "        try {",
            "            mCount = Integer.parseInt(path.trim());",
            "        } catch (NumberFormatException e) {",
            '            Log.w(TAG, "bad %s " + path, e);' % names.word(),
            "        } finally {", "            mCount = mCount + 1;", "        }", "    }"]


def _switch_method(rng, names):
    lines = ["    String %s(int code) {" % names.fresh("label"), "        switch (code) {"]
    for c in range(rng.randint(2, 5)):
        lines += ["            case %d:" % c, '                return "%s";' % names.word()]
    return lines + ["            default:", '                return "other";', "        }", "    }"]


def _lambda_method(rng, names):
    return ["    void %s(android.os.Handler handler) {" % names.fresh("post"),
            "        handler.post(() -> {",
            "            mCount = mCount + %d;" % rng.randint(1, 9),
            '            Log.i(TAG, "%s");' % names.word(),
            "        });",
            "        mItems.forEach(item -> Log.v(TAG, item));", "    }"]


def _generic_member(rng, names):
    m = names.fresh("copy")
    return ["    private final java.util.Map<String, java.util.List<Integer>> %s = new java.util.HashMap<>();" % names.fresh("m"),
            "    static <T extends Comparable<T>> java.util.List<T> %s(java.util.List<T> in) {" % m,
            "        java.util.List<T> out = new java.util.ArrayList<>(in);",
            "        java.util.Collections.sort(out);", "        return out;", "    }"]


def _comment_member(rng, names):
    return ["    /**", "     * %s the %s of the %s; see {@link #onCreate}." % (
        _cap(names.word()), names.word(), names.word()),
            "     * Strings like \"%s\" and chars like '%s' are kept verbatim." % (
                names.word(), rng.choice("xyz")),
            "     */",
            '    private static final String %s = "%s\\t%s";' % (
                names.fresh("KEY_").upper(), names.word(), names.word())]


def _nested_member(rng, names):
    n = names.cls()
    return ["    static class %s {" % n,
            "        private int %s;" % names.fresh("f"),
            "        int %s(int x) {" % names.fresh("scale"),
            "            return x * %d + %d;" % (rng.randint(2, 9), rng.randint(0, 9)),
            "        }", "    }"]


_FILLERS = (_plain_method, _plain_method, _override_method, _loop_method, _try_method,
            _switch_method, _lambda_method, _generic_member, _comment_member, _nested_member)


# ---------------------------------------------------------------------------
# Sites
# ---------------------------------------------------------------------------

# Per mapping: method parameters, field declarations, and the statement.
_SITE_SHAPES = {
    "vibrate": (["android.os.Vibrator {r}", "long ms"], [], "{r}.vibrate({a0});"),
    "vibrate_waveform": (["android.os.Vibrator {r}", "long[] pattern", "int repeat"], [],
                         "{r}.vibrate({a0}, {a1});"),
    "set_sound": (["android.app.Notification.Builder {r}", "android.net.Uri tone"], [],
                  "{r}.setSound({a0});"),
    "from_html": (["String body"], ["CharSequence mText;"], "mText = Html.fromHtml({a0});"),
    "get_current_minute": (["android.widget.TimePicker {r}"], ["int mMinute;"],
                           "mMinute = {r}.getCurrentMinute();"),
}

_RECEIVERS = {"vibrate": ("v", "vibrator", "haptics"), "vibrate_waveform": ("v", "motor"),
              "set_sound": ("builder", "b", "notice"), "from_html": ("Html",),
              "get_current_minute": ("picker", "tp", "clock")}


def _site_args(rng, case, nonname):
    if case == "vibrate":
        if not nonname:
            return ["ms"]
        k = rng.randint(2, 9)
        return [rng.choice(("ms * %d" % k, "ms + %d" % (k * 10), "(ms + %d) * %d" % (k, k + 1),
                            "%d * ms" % k))]
    if case == "vibrate_waveform":
        if not nonname:
            return ["pattern", "repeat"]
        return ["pattern", rng.choice(("repeat + 1", "repeat * %d" % rng.randint(2, 5)))]
    if case == "set_sound":
        return ["android.provider.Settings.System.DEFAULT_NOTIFICATION_URI" if nonname else "tone"]
    if case == "from_html":
        return ['body + "%s"' % rng.choice(("!", "<br>", " ...")) if nonname else "body"]
    return []


def _site_method(rng, names, case, contexts, nonname):
    """A method holding one site per entry of contexts."""
    params, _fields, stmt = _SITE_SHAPES[case]
    recv = rng.choice(_RECEIVERS[case])
    params = ", ".join(p.format(r=recv) for p in params)
    mname = names.fresh("update")
    annotated = "annotated" in contexts
    lines = ["    @Override"] if annotated else []
    lines.append("    public void %s(%s) {" % (mname, params))
    locals_ = []
    for ctx in contexts:
        lines += _filler_stmts(rng, names, "        ", 1, locals_)
        args = _site_args(rng, case, nonname)
        call = stmt.format(r=recv, **{"a%d" % i: a for i, a in enumerate(args)})
        if ctx == "loop":
            lines += ["        for (int i = 0; i < %d; i++) {" % rng.randint(2, 5),
                      "            " + call, "        }"]
        elif ctx == "try":
            lines += ["        try {", "            " + call,
                      "        } catch (IllegalStateException e) {",
                      '            Log.e(TAG, "%s", e);' % names.word(), "        }"]
        else:
            lines.append("        " + call)
    return lines + ["    }"]


def _fill(rng, names, members, size, total_bytes, first):
    """Insert filler members at positions >= first until the text is within
    a comment line of total_bytes, so that a file's size does not depend on
    the seed."""
    while True:
        m = rng.choice(_FILLERS)(rng, names)
        msize = sum(len(x) + 1 for x in m) + 1
        if size + msize > total_bytes:
            break
        members.insert(rng.randint(first, len(members)), m)
        size += msize
    pad = []
    while size < total_bytes - 40:
        pad.append("    // %s %s %s %s" % (_cap(names.word()), names.word(), names.word(),
                                            names.word()))
        size += len(pad[-1]) + 1
    if pad:
        members.insert(rng.randint(first, len(members)), pad)


def _class_text(rng, names, case, site_methods, total_bytes, package, activity):
    _params, fields, _stmt = _SITE_SHAPES[case]
    cname = names.cls()
    head = []
    if package:
        head += ["package com.example.%s;" % names.word(), ""]
    if activity:
        head += ["import android.app.Activity;", "import android.os.Bundle;",
                 "import android.util.Log;", ""]
    head += ["/**", " * %s screen for the %s flow." % (cname, names.word()), " */"]
    head.append("public class %s%s {" % (cname, " extends Activity" if activity else ""))
    body = ['    private static final String TAG = "%s";' % cname,
            "    private int mCount;",
            "    private final java.util.List<String> mItems = new java.util.ArrayList<>();"]
    body += ["    private " + f for f in fields]
    if activity:
        body += ["", "    @Override", "    protected void onCreate(Bundle savedInstanceState) {",
                 "        super.onCreate(savedInstanceState);",
                 "        setContentView(R.layout.%s);" % names.word(), "    }"]
    members = list(site_methods)
    size = sum(len(x) + 1 for x in head + body) + sum(len(x) + 2 for m in members for x in m)
    _fill(rng, names, members, size, total_bytes, 0)
    for m in members:
        body.append("")
        body += m
    return "\n".join(head + body + ["}", ""])


def _reference(item: ApplyItem, templates) -> ApplyItem:
    tpl = templates[item.case]
    (item.expected, item.updated), (item.reach, item.reach_updated), sites = \
        reference.expected_outputs(item.text, tpl)
    for s in sites:
        item.contexts[s.context] = item.contexts.get(s.context, 0) + 1
        if s.context != "guarded" and any(
                tpl.uses_arg(i) and not a.isidentifier() for i, a in enumerate(s.args)):
            item.crash = True
    return item


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def dense_sites(seed: int, templates) -> list:
    rng = random.Random("dense_sites/%d" % seed)
    items = []
    for i, n_sites in enumerate(DENSE_SITES):
        case = CASES[i % len(CASES)]
        names = _Names(rng)
        methods, left = [], n_sites
        while left:
            k = min(left, rng.randint(1, 3))
            methods.append(_site_method(rng, names, case, ["plain"] * k,
                                        nonname=case in ("vibrate", "vibrate_waveform")))
            left -= k
        text = _class_text(rng, names, case, methods,
                           DENSE_BASE_BYTES + DENSE_SITE_BYTES * n_sites, package=True,
                           activity=False)
        items.append(_reference(ApplyItem("dense%02d_%s_%d.java" % (i, case, n_sites), case,
                                          text), templates))
    rng.shuffle(items)
    return items


def app_sweep(seed: int, templates) -> list:
    rng = random.Random("app_sweep/%d" % seed)
    dist = NormalDist()
    sizes = []
    for i in range(SWEEP_FILES):
        u = (i + 0.5) / SWEEP_FILES
        b = SWEEP_MEDIAN_BYTES * 2.718281828459045 ** (SWEEP_SIGMA * dist.inv_cdf(u))
        sizes.append(int(min(max(b, SWEEP_MIN_BYTES), SWEEP_MAX_BYTES)))
    items, site_files = [], 0
    miss_ctx = reference.KNOWN_MISS_CONTEXTS
    for rank, size in enumerate(sizes):
        names = _Names(rng)
        case = CASES[(rank // 2) % len(CASES)]
        migrated = rank % SWEEP_MIGRATED_EVERY == 5
        methods = []
        if rank % SWEEP_SITE_EVERY == 1 or migrated:
            site_files += 1
            contexts = ["plain"] * (1 + site_files % 3)
            nonname = False
            if not migrated and site_files % SWEEP_MISS_EVERY == 0:
                contexts[-1] = miss_ctx[(site_files // SWEEP_MISS_EVERY) % len(miss_ctx)]
            elif not migrated and site_files % SWEEP_NONNAME_EVERY == 4:
                nonname = True
                case = _NONNAME_CASES[(site_files // SWEEP_NONNAME_EVERY) % len(_NONNAME_CASES)]
            annotated = [c for c in contexts if c == "annotated"]
            rest = [c for c in contexts if c != "annotated"]
            if rest:
                methods.append(_site_method(rng, names, case, rest, nonname))
            if annotated:
                methods.append(_site_method(rng, names, case, annotated, nonname))
        text = _class_text(rng, names, case, methods, size, package=rank % 3 != 0,
                           activity=rank % 5 != 0)
        name = "Sweep%03d_%s.java" % (rank, case)
        if migrated:
            text = _reference(ApplyItem(name, case, text), templates).expected
        items.append(_reference(ApplyItem(name, case, text), templates))
    rng.shuffle(items)
    return items


_PREC = {"+": 9, "*": 10}


def _chain_example(rng, idx, depth, helpers, filler_bytes, hops):
    """A vibrate after-update example whose arguments resolve through a
    def-use chain, field hops and a chain of helper methods and classes.
    Returns (text, expected patch text)."""
    names = _Names(rng)
    cname = "Chain%02d" % idx
    lines = ["import android.os.VibrationEffect;", "import android.util.Log;", "",
             "public class %s {" % cname]

    # field hops: F0 = F1 op k, ..., F<hops> = literal
    value, prec = str(rng.randint(10, 90)), None
    fields = ["    private static final long F%d = %s;" % (hops, value)]
    for h in range(hops - 1, -1, -1):
        op, k = rng.choice("+*"), rng.randint(2, 9)
        fields.append("    private static final long F%d = F%d %s %d;" % (h, h + 1, op, k))
        left = "(%s)" % value if prec is not None and prec < _PREC[op] else value
        value, prec = "%s %s %d" % (left, op, k), _PREC[op]
    lines += fields[::-1]
    lines.append("    private static final int AMP = %d;" % rng.randint(1, 255))

    body = ["    void buzz(android.os.Vibrator v) {", "        long ms = F0;"]
    for _ in range(depth):
        op, k = rng.choice("+*"), rng.randint(2, 9)
        if rng.random() < 0.5:
            body.append("        ms = ms %s %d;" % (op, k))
            left = "(%s)" % value if prec is not None and prec < _PREC[op] else value
            value = "%s %s %d" % (left, op, k)
        else:
            body.append("        ms = %d %s ms;" % (k, op))
            right = "(%s)" % value if prec is not None and prec <= _PREC[op] else value
            value = "%d %s %s" % (k, op, right)
        prec = _PREC[op]
    if helpers:
        arg = rng.randint(1, 9)
        body.append("        int amp = h0(%d);" % arg)
        amp = "h0(%d)" % arg
    else:
        body.append("        int amp = AMP;")
        amp = lines[-1].split("= ")[1].rstrip(";")
    guard = "if (android.os.Build.VERSION.SDK_INT >= android.os.Build.VERSION_CODES.O) {"
    body += ["        " + guard,
             "            VibrationEffect effect = VibrationEffect.createOneShot(ms, amp);",
             "            v.vibrate(effect);", "        } else {", "            v.vibrate(ms);",
             "        }", "    }"]

    # helpers: n_methods chained static methods, then n_classes chained classes
    n_classes = helpers // 4
    n_methods = helpers - n_classes
    defs = []
    for h in range(n_methods):
        if h + 1 < n_methods:
            nxt = "h%d(x)" % (h + 1)
        elif n_classes:
            nxt = "Box0.get(x)"
        else:
            nxt = "x"
        defs.append("static int h%d(int x) {\n        return %s %s %d;\n    }"
                    % (h, nxt, rng.choice("+*"), rng.randint(2, 9)))
    for c in range(n_classes):
        nxt = "Box%d.get(x)" % (c + 1) if c + 1 < n_classes else "x"
        defs.append("static class Box%d {\n        static int get(int x) {\n"
                    "            return %s + %d;\n        }\n    }" % (c, nxt, rng.randint(1, 9)))

    members = [body] + [["    " + d] for d in defs]
    if filler_bytes:
        _fill(rng, names, members, 0, filler_bytes, 1)
    for m in members:
        lines.append("")
        lines += m
    if filler_bytes:
        lines[3:3] = ['    private static final String TAG = "%s";' % cname,
                      "    private int mCount;",
                      "    private final java.util.List<String> mItems = new java.util.ArrayList<>();"]
    text = "\n".join(lines + ["}", ""])

    then = "VibrationEffect newParameterVariable0 = VibrationEffect.createOneShot(%s, %s);" % (
        value, amp)
    patch = ["@update_vibrate@", "identifier iden0, classIden;", "@@", "...",
             "+ " + guard, "+ " + then, "+ classIden.vibrate(newParameterVariable0);",
             "+ } else {", "classIden.vibrate(iden0);", "+ }",
             "@needs@", "import android.os.VibrationEffect;"]
    for d in defs:
        patch += ["", d]
    return text, "\n".join(patch) + "\n"


def generate_chains(seed: int, corpus) -> list:
    rng = random.Random("generate_chains/%d" % seed)
    items = [GenItem("corpus_" + case, case,
                     (corpus / "cases" / case / "example.java").read_text(encoding="utf-8"))
             for case in sorted(CASES)]
    n = CHAIN_EXAMPLES

    def ladder(lo, hi, log=False):
        us = [(i + 0.5) / n for i in range(n)]
        vals = [lo * (hi / lo) ** u if log else lo + (hi - lo) * u for u in us]
        rng.shuffle(vals)
        return [int(round(v)) for v in vals]

    # Depths are log-spaced: generation cost grows with the square of the
    # depth, and a uniform ladder would spend most of a pass on a few
    # examples, leaving too few passes per run for a steady best time.
    for i, (d, h, f, hops) in enumerate(zip(ladder(*CHAIN_DEPTH, log=True),
                                            ladder(*CHAIN_HELPERS),
                                            ladder(*CHAIN_FILLER_BYTES),
                                            ladder(*CHAIN_FIELD_HOPS))):
        text, patch = _chain_example(rng, i, d, h, f, hops)
        items.append(GenItem("chain%02d_d%d_h%d.java" % (i, d, h), "vibrate", text, patch))
    rng.shuffle(items)
    return items


def digest(items) -> str:
    h = hashlib.sha256()
    for it in items:
        h.update(it.name.encode())
        h.update(b"\0")
        h.update(it.text.encode())
        h.update(b"\0")
    return h.hexdigest()
