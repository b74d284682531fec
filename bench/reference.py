"""Independent reference outputs for the apply workloads.

The expected output of updating a file is never taken from the tool. It is
rendered from templates learned from the hand-written goldens in
``corpus/cases/*/expected``: one golden per mapping shows how a site is
rewritten, which imports are added and which helper members are appended.
Sites are located with a line scanner that knows only the benchmark's own
formatting rules (one statement per line, blocks opened at a line end and
closed at a line start), so it serves both the corpus targets and the
generated inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

# Golden target from which each mapping's template is learned.
TEMPLATE_SOURCES = {
    "from_html": "basic.java",
    "get_current_minute": "assign.java",
    "set_sound": "basic.java",
    "vibrate": "basic.java",
    "vibrate_waveform": "basic.java",
}

# Site contexts in which the parser at the seed keeps the enclosing code
# opaque, so the site is missed without a report (ROADMAP item 3).
KNOWN_MISS_CONTEXTS = ("annotated", "loop", "try")

_HOLE = "\x00%s\x00"
_SIG_RE = re.compile(r"#(\w+)\(([^)]*)\)")
_CLASS_RE = re.compile(r"^(?:(?:public|final|abstract)\s+)*class\s+\w+", re.M)
_HEADER_RE = re.compile(r"^(?:package|import)\b[^\n]*;[ \t]*$", re.M)
_HELPER_HEAD_RE = re.compile(r"(\w+)\s*\(([^)]*)\)\s*\{\s*$")


@dataclass
class Template:
    case: str
    method: str
    arity: int
    assign: bool          # the matched statement is `lhs = recv.m(args);`
    guard: str            # `if (<SDK check>) {`
    then_lines: list      # then-branch lines with holes for recv/lhs/args
    imports: list         # import lines the update adds
    helpers: list         # member texts the update appends to the class

    def uses_arg(self, i: int) -> bool:
        hole = _HOLE % ("arg%d" % i)
        return any(hole in line for line in self.then_lines)


@dataclass
class Site:
    line: int             # 0-based line index
    indent: str
    stmt: str
    lhs: str
    recv: str
    args: list
    context: str          # plain | annotated | loop | try | switch | lambda | guarded


def split_args(text: str) -> list:
    if not text.strip():
        return []
    out, depth, cur = [], 0, []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur).strip())
    return out


def _site_re(method: str) -> re.Pattern:
    return re.compile(r"^(?P<indent>[ \t]*)(?P<stmt>(?:(?P<lhs>[\w.]+) = )?"
                      r"(?P<recv>\w+)\.%s\((?P<args>.*)\);)[ \t]*$" % re.escape(method))


def _block_label(stripped: str, prev: str) -> str:
    if stripped.startswith("if (") and "SDK_INT" in stripped:
        return "guarded"
    if stripped.startswith(("for ", "for(", "while ", "while(", "do ")):
        return "loop"
    if stripped.startswith(("try ", "try{", "} catch", "} finally")):
        return "try"
    if stripped.startswith("switch"):
        return "switch"
    if "->" in stripped:
        return "lambda"
    if prev.startswith("@"):
        return "annotated"
    return "plain"


_CONTEXT_ORDER = ("guarded", "annotated", "loop", "try", "switch", "lambda")


def scan_sites(text: str, method: str, arity: int) -> list:
    """Every statement line calling `method` with `arity` arguments, with the
    context of its innermost interesting enclosing block."""
    site_re = _site_re(method)
    stack, sites, prev = [], [], ""
    for i, line in enumerate(text.split("\n")):
        s = line.strip()
        m = site_re.match(line)
        if m and len(split_args(m.group("args"))) == arity:
            labels = set(stack)
            context = next((c for c in _CONTEXT_ORDER if c in labels), "plain")
            sites.append(Site(i, m.group("indent"), m.group("stmt"), m.group("lhs"),
                              m.group("recv"), split_args(m.group("args")), context))
        popped = stack.pop() if s.startswith("}") and stack else None
        if s.endswith("{"):
            if s.startswith("} else"):
                stack.append(popped)
            else:
                stack.append(_block_label(s, prev))
        if s:
            prev = s
    return sites


def _read_mapping(case_dir: Path):
    first = (case_dir / "mapping.txt").read_text(encoding="utf-8").splitlines()[0]
    m = _SIG_RE.search(first)
    params = m.group(2).strip()
    return m.group(1), (len(params.split(",")) if params else 0)


def _primary_close(text: str) -> int:
    """Offset of the closing brace of the first top-level class."""
    m = _CLASS_RE.search(text)
    close = text.index("\n}", m.end())
    return close + 1


def _helper_key(text: str):
    m = _HELPER_HEAD_RE.search(text.split("\n", 1)[0])
    params = m.group(2).strip()
    return m.group(1), (len(params.split(",")) if params else 0)


def _declares(text: str, name: str, arity: int) -> bool:
    decl = re.compile(r"^[ \t]*(?:[\w<>\[\],.]+[ \t]+)+%s[ \t]*\(([^)]*)\)[ \t]*\{"
                      % re.escape(name), re.M)
    for m in decl.finditer(text):
        params = m.group(1).strip()
        if (len(params.split(",")) if params else 0) == arity:
            return True
    return False


def render(text: str, tpl: Template, sites) -> tuple:
    """Rewrite the given sites as the golden shows; returns (text, updated)."""
    sites = [s for s in sites if (s.lhs is not None) == tpl.assign]
    if not sites:
        return text, 0
    lines = text.split("\n")
    for site in sorted(sites, key=lambda s: -s.line):
        ind = site.indent
        holes = {"recv": site.recv, "lhs": site.lhs or ""}
        holes.update(("arg%d" % i, a) for i, a in enumerate(site.args))
        block = [ind + tpl.guard]
        for t in tpl.then_lines:
            for k, v in holes.items():
                t = t.replace(_HOLE % k, v)
            block.append(ind + "    " + t)
        block += [ind + "} else {", ind + "    " + site.stmt, ind + "}"]
        lines[site.line:site.line + 1] = block
    out = "\n".join(lines)

    helpers = [h for h in tpl.helpers if not _declares(out, *_helper_key(h))]
    if helpers:
        at = _primary_close(out)
        out = out[:at] + "".join("\n    " + h + "\n" for h in helpers) + out[at:]
    imports = [i for i in tpl.imports if not re.search(r"^%s$" % re.escape(i), out, re.M)]
    if imports:
        heads = [m for m in _HEADER_RE.finditer(out) if m.start() < _CLASS_RE.search(out).start()]
        if heads:
            at = heads[-1].end()
            out = out[:at] + "".join("\n" + i for i in imports) + out[at:]
        else:
            out = "\n".join(imports) + "\n" + out
    return out, len(sites)


def expected_outputs(text: str, tpl: Template):
    """(full reference, reference as the seed's parser can reach it, sites).

    The full reference updates every unguarded site. The second leaves the
    sites in KNOWN_MISS_CONTEXTS untouched; an output equal to it (and not
    to the full reference) is a known miss, counted as a failed operation."""
    sites = scan_sites(text, tpl.method, tpl.arity)
    open_sites = [s for s in sites if s.context != "guarded"]
    full = render(text, tpl, open_sites)
    reach = render(text, tpl, [s for s in open_sites if s.context not in KNOWN_MISS_CONTEXTS])
    return full, reach, sites


def learn_template(case_dir: Path) -> Template:
    """Learn a mapping's rewrite from one hand-written golden pair."""
    method, arity = _read_mapping(case_dir)
    name = TEMPLATE_SOURCES[case_dir.name]
    target = (case_dir / "targets" / name).read_text(encoding="utf-8")
    expected = (case_dir / "expected" / name).read_text(encoding="utf-8")
    (site,) = scan_sites(target, method, arity)
    exp_lines = expected.split("\n")
    ind = site.indent
    k = next(i for i in range(len(exp_lines) - 2)
             if exp_lines[i] == ind + "} else {"
             and exp_lines[i + 1] == ind + "    " + site.stmt
             and exp_lines[i + 2] == ind + "}")
    g = max(i for i in range(k) if exp_lines[i].startswith(ind + "if (")
            and "SDK_INT" in exp_lines[i])
    holes = [("recv", site.recv)] + ([("lhs", site.lhs)] if site.lhs else [])
    holes += [("arg%d" % i, a) for i, a in enumerate(site.args) if re.match(r"^\w+$", a)]
    then_lines = []
    for line in exp_lines[g + 1:k]:
        t = line[len(ind) + 4:]
        for hole, word in holes:
            t = re.sub(r"\b%s\b" % re.escape(word), _HOLE % hole, t)
        then_lines.append(t)
    tpl = Template(case_dir.name, method, arity, site.lhs is not None,
                   exp_lines[g][len(ind):], then_lines, [], [])

    # What remains after the site rewrite is the added imports and helpers.
    bare, _ = render(target, tpl, [site])
    tpl.imports = [ln for ln in exp_lines if ln.startswith("import ")
                   and ln not in bare.split("\n")]
    with_imports, _ = render(target, tpl, [site])
    at = _primary_close(with_imports)
    head, tail = with_imports[:at], with_imports[at:]
    if not (expected.startswith(head) and expected.endswith(tail)):
        raise ValueError("golden %s/%s differs outside the site, imports and helpers"
                         % (case_dir.name, name))
    added = expected[len(head):len(expected) - len(tail)]
    for chunk in added.split("\n\n"):
        chunk = chunk.strip("\n")
        if chunk:
            tpl.helpers.append(chunk[4:] if chunk.startswith("    ") else chunk)
    return tpl


def load_templates(corpus: Path) -> dict:
    return {name: learn_template(corpus / "cases" / name) for name in TEMPLATE_SOURCES}
