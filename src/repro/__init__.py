"""Reproduction of "Sharing Classes Between Families" (Qi & Myers, 2009).

The package implements J&s — Java-like family inheritance (nested
inheritance and nested intersection) extended with *class sharing*:
sharing declarations, views and view changes, view-dependent types, and
masked types protecting unshared state — together with the paper's formal
calculus and its complete evaluation suite.

Public entry points:

* :func:`repro.compile_program` / :func:`repro.run_program` — compile and
  execute J&s source in any of the four execution modes of Table 1;
* :mod:`repro.calculus` — the formal small-step calculus used by the
  soundness property tests;
* :mod:`repro.programs` — the evaluation programs (jolden, binary trees,
  the lambda compiler, CorONA).
"""

from . import obs
from .lang import provenance
from .api import (
    Program,
    cache_stats,
    caches_enabled,
    check_source,
    clear_caches,
    compile_program,
    run_program,
    set_caches_enabled,
)
from .diagnostics import Diagnostic, Span
from .lang.queries import CacheStats, QueryEngine
from .errors import JnsResourceError
from .lang.classtable import ClassTable, JnsError, ResolveError, TypeError_
from .lang.typecheck import CheckReport
from .runtime.interp import Interp
from .runtime.values import (
    JnsFailure,
    JnsRuntimeError,
    NullDereference,
    UninitializedFieldError,
)

__version__ = "0.1.0"

__all__ = [
    "obs",
    "provenance",
    "Program",
    "compile_program",
    "check_source",
    "run_program",
    "CacheStats",
    "QueryEngine",
    "cache_stats",
    "caches_enabled",
    "clear_caches",
    "set_caches_enabled",
    "ClassTable",
    "CheckReport",
    "Diagnostic",
    "DiagnosticSink",
    "Span",
    "Interp",
    "JnsError",
    "JnsResourceError",
    "ResolveError",
    "TypeError_",
    "JnsRuntimeError",
    "JnsFailure",
    "NullDereference",
    "UninitializedFieldError",
    "__version__",
]


def __getattr__(name: str):
    # DiagnosticSink loads with repro.sink, on first use
    if name == "DiagnosticSink":
        from .sink import DiagnosticSink

        return DiagnosticSink
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
