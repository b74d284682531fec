import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

import api_evolve

from conftest import REPO


def _fresh(code, *args):
    """Run code in a fresh interpreter that warns as errors; return stdout."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code, *args], cwd=REPO, env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    return proc.stdout


_LOADED = "print(' '.join(sorted(m for m in sys.modules if m.startswith('api_evolve.'))))"


def test_patch_generation_loads_only_what_it_calls():
    out = _fresh("""
import sys
from pathlib import Path
import api_evolve as ae
case = Path("corpus/cases/vibrate")
lines = (case / "mapping.txt").read_text(encoding="utf-8").splitlines()
mapping = ae.ApiMapping(ae.parse_signature(lines[0]), ae.parse_signature(lines[1]))
example = ae.parse((case / "example.java").read_text(encoding="utf-8"))
ae.parse_patch(ae.render_patch(ae.generate_patch(example, mapping)))
""" + _LOADED)
    assert out.split() == ["api_evolve.dataflow", "api_evolve.jast", "api_evolve.patchgen",
                           "api_evolve.scope", "api_evolve.sigmap"]


def test_the_cli_loads_neither_normal_nor_harness():
    out = _fresh("import sys\nimport api_evolve.cli\n" + _LOADED)
    assert out.split() == ["api_evolve.cli", "api_evolve.dataflow", "api_evolve.engine",
                           "api_evolve.jast", "api_evolve.patchgen", "api_evolve.scope",
                           "api_evolve.sigmap"]


def test_the_cli_generates_no_code_on_import():
    # plain slotted classes: no dataclasses, and through it no inspect, ast,
    # dis or tokenize (unless the interpreter's site loaded one first)
    out = _fresh("""
import sys
before = set(sys.modules)
import api_evolve.cli
added = set(sys.modules) - before
print(*sorted(added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}))
print("dataclasses" in sys.modules)
""")
    assert out.split() == ["False"]


def test_import_star_binds_every_public_name():
    names = {}
    exec("from api_evolve import *", names)
    assert sorted(n for n in names if n != "__builtins__") == api_evolve.__all__
    assert len(api_evolve.__all__) == 37


@pytest.mark.parametrize("name", api_evolve.__all__)
def test_a_public_name_is_its_submodule_object(name):
    home = importlib.import_module("api_evolve." + api_evolve._HOME[name])
    assert getattr(api_evolve, name) is getattr(home, name)


def test_submodules_resolve_as_attributes():
    for module in ("cli", "dataflow", "engine", "harness", "jast", "normal", "patchgen",
                   "scope", "sigmap"):
        assert getattr(api_evolve, module) is importlib.import_module("api_evolve." + module)
    assert api_evolve.MultipleUse is api_evolve.normal.MultipleUse


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'update_patch'"):
        api_evolve.update_patch
    assert not hasattr(api_evolve, "Token")  # in jast, but not re-exported


def test_the_corpus_runs_as_a_module_without_a_warning():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "api_evolve.harness", "corpus"],
                          cwd=REPO, env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "total: 20/20 targets" in proc.stdout


def _definitions(path):
    """(name, first line, last line) of each top-level function, class and
    constant of a module, but its dunders."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno, node.end_lineno


def test_every_top_level_name_of_the_package_is_used():
    # a function, class or constant named nowhere but in its own
    # definition, across the package, its tests and the benchmark, is dead
    lines = {}  # (file, word) -> the lines that name the word
    for path in sorted(p for d in ("src", "tests", "bench") for p in (REPO / d).rglob("*.py")):
        for no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for word in set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", line)):
                lines.setdefault(word, []).append((path, no))
    dead = []
    for path in sorted((REPO / "src" / "api_evolve").glob("*.py")):
        for name, first, last in _definitions(path):
            if all(p == path and first <= no <= last for p, no in lines[name]):
                dead.append("%s.%s" % (path.stem, name))
    assert dead == []
