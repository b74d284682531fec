"""api-evolve: synthesize and apply deprecated-API update patches for
Java-subset sources, from a single after-update example."""

from .jast import (CompilationUnit, ParseError, UnbalancedSource,  # noqa: F401
                   OverlappingEdits, parse, print_unit, splice)
from .sigmap import (ApiMapping, ApiSignature, CallSite,  # noqa: F401
                     MalformedSignature, find_invocations, parse_signature)
from .scope import Scope, at_site  # noqa: F401
from .dataflow import ResolvedValue, collect_dependencies, resolve_expression  # noqa: F401
from .normal import NormalizationMap, MultipleUse, denormalize, normalize  # noqa: F401
from .patchgen import (ExampleShapeError, MalformedPatch, ResolutionError,  # noqa: F401
                       SemanticPatch, generate_patch, parse_patch, render_patch)
from .engine import (MetaBinding, UpdateReport, already_guarded,  # noqa: F401
                     apply_patch, match_statement, transplant_definitions, update)
from .harness import run_corpus  # noqa: F401

__version__ = "0.1.0"
