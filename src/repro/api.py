"""Public API of the J&s reproduction.

Typical use::

    from repro import compile_program

    program = compile_program(SOURCE)          # parse + resolve + typecheck
    interp = program.interp(mode="jns")        # pick an execution mode
    interp.run("Main.main")                    # instantiate Main, call main
    print(interp.output)                       # lines from Sys.print

Modes (Section 7.1 / Table 1): ``java``, ``jx``, ``jx_cl``, ``jns``.

For tooling that wants *all* problems in a source file rather than the
first raised exception, use :func:`check_source`, which drives every
front-end and semantic stage through one :class:`~repro.diagnostics.DiagnosticSink`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from .errors import JnsError
from .lang.classtable import ClassTable, ResolveError, TypeError_
from .lang.queries import (
    CacheStats,
    caches_enabled,
    clear_caches,
    collect_stats,
    global_stats,
    set_caches_enabled,
)
from .lang.resolve import resolve_program
from .lang.typecheck import CheckReport, check_program
from .records import Record
from .runtime.interp import Interp
from .source.parser import parse_program

if TYPE_CHECKING:
    from .sink import DiagnosticSink


def cache_stats() -> CacheStats:
    """Aggregate hit/miss/size counters for every live query cache in the
    process (class tables, sharing checkers, loaders, interpreters, and
    the program compile cache)."""
    return global_stats()


class Program(Record):
    """A compiled J&s program: resolved AST + class table + check report."""

    __slots__ = ("table", "report")

    def __init__(self, table: ClassTable, report: Optional[CheckReport]) -> None:
        self.table = table
        self.report = report

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.table == other.table and self.report == other.report
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def interp(
        self,
        mode: str = "jns",
        echo: bool = False,
        memoize_views: bool = True,
        eager_views: bool = False,
        backend: str = "walker",
        max_steps: Optional[int] = None,
        max_depth: Optional[int] = None,
        line_profile: bool = False,
    ) -> Interp:
        """Create a fresh interpreter for this program.  The keyword flags
        select the ablation variants described in DESIGN.md (D1: disable
        view-change memoization; D3: eager instead of lazy implicit view
        changes).  ``backend`` is ``"walker"`` (the tree-walking reference
        semantics) or ``"codegen"``, which builds every class record's
        slotted layout and read plans ahead of time
        (``repro/runtime/loader.py``) and emits and ``compile()``s real
        Python source per specialized method body, with sealed-family
        devirtualization (``repro/runtime/codegen.py``); ``jx`` mode
        always runs on the walker.  ``max_steps``/``max_depth`` bound
        evaluation fuel and J&s call depth; exceeding either raises
        :class:`~repro.errors.JnsResourceError`."""
        return Interp(
            self.table,
            mode=mode,
            echo=echo,
            memoize_views=memoize_views,
            eager_views=eager_views,
            backend=backend,
            max_steps=max_steps,
            max_depth=max_depth,
            line_profile=line_profile,
        )

    def cache_stats(self) -> CacheStats:
        """Live counters for this program's class-table queries (they keep
        moving after the check, as interpreters run against the same
        table).  The snapshot taken at check time — including the sharing
        checker's queries — is on ``report.cache_stats``."""
        return collect_stats([self.table.queries])


def compile_program(
    source: str,
    check: bool = True,
    strict_sharing: bool = False,
) -> Program:
    """Parse, resolve, and (optionally) type-check a J&s program.

    ``strict_sharing=True`` enforces the paper's modular rule that every
    view change must be justified by a sharing constraint in scope; the
    default also accepts view changes justified by the global closed
    world, reporting them as warnings."""
    unit = parse_program(source)
    table = ClassTable(unit)
    resolve_program(table)
    report: Optional[CheckReport] = None
    if check:
        report = check_program(table, strict_sharing=strict_sharing)
        report.raise_on_error()
    return Program(table, report)


def check_source(
    source: str,
    file: Optional[str] = None,
    strict_sharing: bool = False,
    sink: Optional[DiagnosticSink] = None,
    explain: bool = False,
) -> DiagnosticSink:
    """Run the whole static pipeline, accumulating *every* diagnostic.

    Unlike :func:`compile_program`, no stage aborts on the first error:
    the lexer skips bad characters, the parser resynchronizes at ``;`` /
    ``}`` boundaries, resolution records per-member failures, and the
    type checker reports per-construct errors (skipping classes whose
    resolution failed).  Returns the sink; callers decide how to render
    it (carets via ``sink.render(source)``, machine-readable via
    ``sink.to_json()``).  ``explain=True`` records derivations during the
    check and attaches refutation trees to failing sharing diagnostics
    (see :mod:`repro.lang.provenance`)."""
    if sink is None:
        from .sink import DiagnosticSink

        sink = DiagnosticSink(file=file)
    try:
        unit = parse_program(source, file=file, sink=sink)
        table = ClassTable(unit)
        resolve_program(table, sink=sink)
        # Partially resolved members are flagged by the resolver and
        # skipped member-by-member inside check_program, so sibling
        # members of a broken one still get their own diagnostics.
        report = check_program(table, strict_sharing=strict_sharing, explain=explain)
        for diag in report.errors + report.warnings:
            sink.add(diag)
    except JnsError as exc:
        # A table-construction failure (duplicate class, cyclic
        # inheritance) can still abort the later stages wholesale.
        sink.add_exc(exc)
    return sink


def run_program(
    source: str,
    entry: str = "Main.main",
    mode: str = "jns",
    check: bool = True,
    backend: str = "walker",
    max_steps: Optional[int] = None,
    max_depth: Optional[int] = None,
) -> Tuple[Any, List[str]]:
    """Compile and run; returns (result value, printed output lines)."""
    program = compile_program(source, check=check)
    interp = program.interp(
        mode=mode, backend=backend, max_steps=max_steps, max_depth=max_depth
    )
    result = interp.run(entry)
    return result, interp.output
