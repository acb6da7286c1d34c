"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run FILE``      — compile and run a J&s program (``--entry Main.main``,
  ``--mode jns|java|jx|jx_cl``); ``--max-steps``/``--max-depth`` bound
  evaluation fuel and J&s call depth (runaway programs exit 1 with a
  ``JNS-RES-*`` diagnostic instead of crashing the host).
* ``check FILE``    — report *all* static diagnostics (the parser
  resynchronizes after errors); ``--json`` emits a machine-readable
  report, ``--strict`` enforces modular sharing constraints, ``--infer``
  first infers missing constraints (Section 2.5 future work) and
  reports them.
* ``explain FILE --query Q`` — render the proof tree of a semantic
  judgment over the program's class table (``subtype T1 T2``,
  ``shares T1 T2``, ``masks P.C``, ``mem T``, ``fclass P.C f``), citing
  the paper rules (SH-CLS, S-EXACT, prefixExact_k, …); failing
  judgments additionally show the refutation (the failing premise
  chain).  See :mod:`repro.lang.provenance`.
* ``fmt FILE``      — parse and pretty-print the program.
* ``report WHAT``   — regenerate an evaluation artifact: ``table1``
  (jolden), ``table2`` (tree traversal), or ``corona`` (Section 7.4).
* ``corona``        — the chaos harness: live family evolution of one
  CorONA heap under in-flight traffic, with seeded fuel faults
  (``--nodes N --faults PLAN --seed S``); exits non-zero on any
  per-request oracle violation.
* ``repl``          — an interactive J&s session (see :mod:`repro.repl`).
* ``profile FILE``  — per-jns-line event counts (steps, dispatches, view
  changes, mask checks).
* ``graph FILE``    — print the family graph (``--dot`` for Graphviz).
* ``serve``         — the long-lived incremental check service over TCP.

``run`` and ``check`` share the observability flags (see
:mod:`repro.obs`): ``--profile`` prints the unified phase-timing +
semantic-event + cache report, ``--trace-out FILE`` writes a
Chrome-trace JSON for ``chrome://tracing`` / Perfetto (a ``.jsonl``
extension streams events as JSON Lines instead), ``--flame FILE``
writes the span tree as collapsed stacks, ``--stats-json`` emits
machine-readable cache counters to stdout.  ``corona`` takes the same
flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import obs
from .api import cache_stats, compile_program
from .lang.classtable import JnsError


def read_source(path: str) -> str:
    """Read a source file; unreadable paths exit with a clean error
    instead of a traceback (the SystemExit carries the exit code)."""
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(1)


def tracing_requested(args) -> bool:
    return bool(
        getattr(args, "profile", False)
        or getattr(args, "trace_out", None)
        or getattr(args, "flame", None)
    )


def begin_tracing(args) -> None:
    """Enable the tracer for ``run``/``check``; a ``--trace-out`` path
    with a ``.jsonl`` extension opens the streaming JSONL sink up front
    so events bypass the bounded ring."""
    obs.enable()
    trace_out = getattr(args, "trace_out", None)
    if trace_out and trace_out.endswith(".jsonl"):
        obs.TRACER.open_stream(trace_out)


def emit_observability(args, stats) -> None:
    """Shared tail of ``run``/``check``: the ``--profile`` unified report
    and ``--trace-out`` Chrome trace go to stderr/file, ``--stats-json``
    prints the machine-readable cache counters (the same schema as
    ``report.cache_stats.to_dict()``) to stdout for CI to diff."""
    if getattr(args, "stats", False) and stats is not None:
        print(stats.format(), file=sys.stderr)
    if getattr(args, "profile", False):
        print(obs.format_report(cache_stats=stats), file=sys.stderr)
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        if trace_out.endswith(".jsonl"):
            obs.TRACER.close_stream()
            print(
                f"streamed trace events to {trace_out} "
                "(one Chrome-trace event object per line)",
                file=sys.stderr,
            )
        else:
            obs.TRACER.write_chrome_trace(trace_out)
            print(
                f"wrote Chrome trace to {trace_out} "
                "(load in chrome://tracing or https://ui.perfetto.dev)",
                file=sys.stderr,
            )
    flame = getattr(args, "flame", None)
    if flame:
        obs.TRACER.write_collapsed(flame)
        print(
            f"wrote collapsed-stack flamegraph to {flame} "
            "(fold with flamegraph.pl or load in https://speedscope.app)",
            file=sys.stderr,
        )
    if getattr(args, "stats_json", False) and stats is not None:
        print(json.dumps(stats.to_dict(), sort_keys=True))


def cmd_run(args) -> int:
    source = read_source(args.file)
    if tracing_requested(args):
        begin_tracing(args)
    interp = None
    try:
        try:
            program = compile_program(source, check=not args.no_check)
        except JnsError as exc:
            from .sink import render

            print(render(exc.to_diagnostic(), source), file=sys.stderr)
            return 1
        interp = program.interp(
            mode=args.mode,
            echo=True,
            backend=args.backend,
            max_steps=args.max_steps,
            max_depth=args.max_depth,
            line_profile=getattr(args, "line_profile", False),
        )
        if getattr(args, "line_profile", False):
            from .profiler import PROFILER

            PROFILER.start()
        try:
            result = interp.run(args.entry)
        except JnsError as exc:
            # only a failure of the running program is a runtime error;
            # e.g. a missing entry class (JNS-RESOLVE-006) is not
            from .errors import JnsResourceError
            from .runtime.values import JnsRuntimeError

            runtime = isinstance(exc, (JnsRuntimeError, JnsResourceError))
            label = "runtime error" if runtime else "error"
            print(f"{label}: {exc}", file=sys.stderr)
            for note in exc.notes:
                print(f"  note: {note}", file=sys.stderr)
            print(f"[{exc.code}]", file=sys.stderr)
            return 1
        if result is not None:
            print(f"=> {result}")
        return 0
    finally:
        # Observability output is emitted even when the program failed —
        # a profile of the failing run is exactly what one wants then.
        if getattr(args, "line_profile", False) and interp is not None:
            from .profiler import PROFILER, ProfileReport

            PROFILER.stop()
            report = ProfileReport(
                source, args.file, det=PROFILER.snapshot(),
                backend_det=interp.backend,
            )
            print(
                report.render_text(color=sys.stderr.isatty()),
                file=sys.stderr,
                end="",
            )
        if tracing_requested(args):
            obs.disable()
        stats = interp.cache_stats() if interp is not None else cache_stats()
        emit_observability(args, stats)


def add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by ``run``, ``check`` and ``corona``."""
    parser.add_argument(
        "--profile",
        action="store_true",
        help="trace the pipeline and print the unified phase-timing + "
        "semantic-event + cache report to stderr",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a Chrome-trace JSON (chrome://tracing / Perfetto) of "
        "the traced pipeline to FILE; the in-memory event ring is bounded "
        "(oldest events are dropped past 16384), so for long runs give "
        "FILE a .jsonl extension to stream every event as JSON Lines "
        "instead of going through the ring",
    )
    parser.add_argument(
        "--stats-json",
        action="store_true",
        help="print query-cache counters as machine-readable JSON to stdout "
        "(same schema as report.cache_stats.to_dict())",
    )
    parser.add_argument(
        "--flame",
        metavar="OUT",
        default=None,
        help="write the span tree as collapsed-stack lines ('a;b;c USEC', "
        "self-time weighted) — the input format of flamegraph.pl and "
        "speedscope",
    )


#: Every subcommand, in ``repro --help`` order.  ``run`` is built here,
#: the others by :mod:`repro.commands`.
COMMANDS = (
    "run", "profile", "check", "explain", "fmt", "report", "corona",
    "graph", "repl", "serve",
)


def add_run(sub) -> None:
    p_run = sub.add_parser("run", help="compile and run a J&s program")
    p_run.add_argument("file")
    p_run.add_argument("--entry", default="Main.main")
    p_run.add_argument("--mode", default="jns", choices=("java", "jx", "jx_cl", "jns"))
    p_run.add_argument("--no-check", action="store_true")
    p_run.add_argument(
        "--backend",
        default="codegen",
        choices=("walker", "codegen"),
        help="execution backend: 'codegen' (default) emits real Python "
        "per specialized method body; 'walker' is the tree interpreter "
        "(the reference semantics)",
    )
    p_run.add_argument(
        "--max-steps",
        type=int,
        default=None,
        metavar="N",
        help="evaluation fuel: abort with JNS-RES-001 after N expression steps",
    )
    p_run.add_argument(
        "--max-depth",
        type=int,
        default=None,
        metavar="N",
        help="J&s call-depth limit (default 4000); exceeding it raises JNS-RES-002",
    )
    p_run.add_argument(
        "--stats",
        action="store_true",
        help="print query-cache hit/miss counters to stderr after the run",
    )
    p_run.add_argument(
        "--line-profile",
        action="store_true",
        help="deterministic per-jns-line profile of the run (statement "
        "counts + dispatch/view/mask event columns), rendered as an "
        "annotated-source heatmap on stderr",
    )
    add_obs_flags(p_run)
    p_run.set_defaults(func=cmd_run)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` argument parser.  ``command`` names the one
    subcommand to build, since a command line needs only its own;
    ``None`` builds them all (for ``--help`` and unknown commands)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    # Built for one command, the parser still shows every command in its
    # usage line, which argparse prints for an unrecognized argument.
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}",
    )
    for name in COMMANDS if command is None else (command,):
        if name == "run":
            add_run(sub)
        else:
            from .commands import PARSERS

            PARSERS[name](sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
