"""api-evolve: synthesize and apply deprecated-API update patches for
Java-subset sources, from a single after-update example.

Public names resolve on first use (PEP 562): importing the package loads
no submodule, so a run builds only the modules it touches. Patch
generation loads jast, sigmap, scope, dataflow and patchgen; the CLI adds
engine."""

import importlib

__version__ = "0.1.0"

# Every submodule, with the public names the package re-exports from it.
_EXPORTS = {
    "jast": ("CompilationUnit", "ParseError", "UnbalancedSource", "OverlappingEdits",
             "parse", "print_unit", "splice"),
    "sigmap": ("ApiMapping", "ApiSignature", "CallSite", "MalformedSignature",
               "find_invocations", "parse_signature"),
    "scope": ("Scope", "at_site"),
    "dataflow": ("ResolvedValue", "collect_dependencies", "resolve_expression"),
    "normal": ("NormalizationMap", "denormalize", "normalize"),
    "patchgen": ("ExampleShapeError", "MalformedPatch", "MultipleUse", "ResolutionError",
                 "SemanticPatch", "generate_patch", "parse_patch", "render_patch"),
    "engine": ("MetaBinding", "UpdateReport", "already_guarded", "apply_patch",
               "match_statement", "transplant_definitions", "update"),
    "harness": ("run_corpus",),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it as a package attribute
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value
