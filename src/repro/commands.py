"""The ``repro`` subcommands other than ``run``, with their argument
parsers.

A ``repro run`` needs none of this, so :func:`repro.cli.main` loads the
module only for a command line that names one of these commands, for
``--help`` and for an unknown command (the full parser).  Each
``add_NAME(sub)`` adds one subcommand to the subparsers action ``sub``;
:data:`PARSERS` maps the names to them.
"""

from __future__ import annotations

import json
import sys

from . import obs
from .api import cache_stats
from .cli import (
    add_obs_flags,
    begin_tracing,
    emit_observability,
    read_source,
    tracing_requested,
)
from .lang.classtable import ClassTable, JnsError
from .lang.resolve import resolve_program
from .lang.typecheck import check_program
from .sink import DiagnosticSink, render
from .source.parser import parse_program


def cmd_profile(args) -> int:
    """Source-level line profiler: deterministic event counts on one
    backend, rendered as an annotated-source heatmap (or HTML/JSON)."""
    from . import profiler as prof

    if args.file.startswith("jolden:"):
        from .programs import jolden

        name = args.file.split(":", 1)[1]
        mod = jolden.BY_NAME.get(name)
        if mod is None:
            print(
                f"error: unknown jolden driver {name!r} "
                f"(choices: {', '.join(sorted(jolden.BY_NAME))})",
                file=sys.stderr,
            )
            return 2
        source = mod.SOURCE
        entry = args.entry or "Main.run"
        entry_args = tuple(args.args) if args.args else tuple(mod.DEFAULT_ARGS)
    else:
        source = read_source(args.file)
        entry = args.entry or "Main.main"
        entry_args = tuple(args.args or ())
    try:
        report = prof.profile_source(
            source,
            file=args.file,
            entry=entry,
            args=entry_args,
            mode=args.mode,
            det_backend=args.det_backend,
        )
    except JnsError as exc:
        print(render(exc.to_diagnostic(), source), file=sys.stderr)
        return 1
    if args.html:
        with open(args.html, "w") as fh:
            fh.write(report.render_html())
        print(f"wrote HTML report to {args.html}", file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(
            report.render_text(
                context=args.context, color=sys.stdout.isatty()
            ),
            end="",
        )
    return 0


def cmd_check(args) -> int:
    source = read_source(args.file)
    if tracing_requested(args):
        begin_tracing(args)
    sink = DiagnosticSink(file=args.file)
    table = None
    stats = None
    try:
        try:
            unit = parse_program(source, file=args.file, sink=sink)
            table = ClassTable(unit)
            resolve_program(table, sink=sink)
        except JnsError as exc:
            # Table construction (duplicate class, cyclic extends) aborts the
            # later stages wholesale; everything else accumulates in the sink.
            sink.add_exc(exc)
            table = None
        inferred_lines = []
        if table is not None:
            if args.infer:
                from .lang.infer import infer_constraints, install_constraints

                try:
                    inferred = infer_constraints(table)
                    installed = install_constraints(table, inferred)
                    for c in inferred:
                        inferred_lines.append(f"inferred  {c}")
                    inferred_lines.append(f"installed {installed} constraint clause(s)")
                except JnsError as exc:
                    sink.add_exc(exc)
            report = check_program(
                table, strict_sharing=args.strict, explain=args.explain
            )
            for diag in report.warnings + report.errors:
                sink.add(diag)
            stats = report.cache_stats
        if args.json:
            print(sink.to_json())
            return 1 if sink.has_errors else 0
        for line in inferred_lines:
            print(line)
        if len(sink):
            print(sink.render(source))
        errors = sink.errors
        print("ok" if not errors else f"{len(errors)} error(s)")
        return 1 if errors else 0
    finally:
        if tracing_requested(args):
            obs.disable()
        emit_observability(args, stats if stats is not None else cache_stats())


def cmd_fmt(args) -> int:
    from .source.unparse import unparse

    try:
        unit = parse_program(read_source(args.file))
    except JnsError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(unparse(unit))
    return 0


def cmd_report(args) -> int:
    if args.what == "table1":
        from .programs.jolden.report import main as table1

        sys.argv = ["report"]
        table1()
    elif args.what == "table2":
        from .programs import trees

        trees.main()
    elif args.what == "corona":
        from .programs import corona

        corona.main()
    else:
        print(f"unknown report {args.what!r}", file=sys.stderr)
        return 1
    return 0


def cmd_explain(args) -> int:
    """``repro explain FILE --query Q``: run one semantic judgment over
    the program's class table with the derivation recorder on and render
    the proof tree.  Only parsing + name resolution are required, so
    programs that fail the type check can still be explained — that is
    the main use case (asking *why* the checker rejected a judgment).
    The evaluation itself lives in :mod:`repro.lang.explain`, shared
    with the check service's ``explain`` op; ``--html`` writes the same
    payload as a standalone collapsible-tree document."""
    from .lang.explain import ExplainError, render_html, run_explain

    source = read_source(args.file)
    try:
        result = run_explain(source, args.file, args.query)
    except ExplainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except JnsError as exc:
        print(render(exc.to_diagnostic(), source), file=sys.stderr)
        return 1

    html_out = getattr(args, "html", None)
    if html_out:
        try:
            with open(html_out, "w") as f:
                f.write(render_html(result))
        except OSError as exc:
            print(
                f"error: cannot write {html_out}: {exc.strerror}",
                file=sys.stderr,
            )
            return 1
        print(f"wrote derivation tree to {html_out}", file=sys.stderr)
        if not getattr(args, "json", False):
            return 0
    if getattr(args, "json", False):
        print(json.dumps(result.payload, indent=2))
        return 0
    print(result.format_text())
    return 0


def cmd_corona(args) -> int:
    """``repro corona``: run the CorONA live-evolution harness (one heap,
    in-flight traffic, seeded fuel faults) and print the report.  The
    report is byte-identical for a given seed/plan when ``--json`` is
    used without ``--wall``."""
    from .chaos import parse_fuel_plan
    from .programs.corona import ChaosCoronaDriver

    try:
        fuel = parse_fuel_plan(args.faults)
    except ValueError as exc:
        print(f"error: bad fault plan: {exc}", file=sys.stderr)
        return 2
    if tracing_requested(args):
        begin_tracing(args)
    try:
        driver = ChaosCoronaDriver(
            nodes=args.nodes,
            objects=args.objects,
            requests=args.requests,
            seed=args.seed,
            fuel=fuel,
        )
        report = driver.run()
    finally:
        if tracing_requested(args):
            obs.disable()
        emit_observability(args, None)
    if args.json:
        print(report.to_json(include_wall=args.wall))
    else:
        c = report.counters
        print(
            f"corona chaos: {report.params['nodes']} nodes, "
            f"{report.params['requests']} requests, seed {report.params['seed']}"
        )
        print(
            f"  completed {report.wall['requests_completed']} "
            f"({report.wall['rps']} req/s wall), virtual time "
            f"{report.virtual_ms:.1f} ms"
        )
        print(
            f"  faults injected {c.get('chaos.injected', 0)} "
            f"(fuel {c.get('chaos.injected.fuel', 0)}); "
            f"failures {len(report.failures)}"
        )
        pause = report.histograms.get("evolution.pause_virtual_ms")
        if pause:
            print(
                f"  evolution pause (virtual): p50 {pause['p50']:.1f} ms, "
                f"p95 {pause['p95']:.1f} ms over {pause['count']} transitions"
            )
        print(f"  family: {report.family}")
        print(f"  oracle violations: {len(report.oracle_violations)}")
        for v in report.oracle_violations[:10]:
            print(f"    {v}")
    return 1 if report.oracle_violations else 0


def cmd_graph(args) -> int:
    from .lang.graph import family_graph

    try:
        unit = parse_program(read_source(args.file))
        table = ClassTable(unit)
        resolve_program(table)
        graph = family_graph(table, include_implicit=not args.explicit_only)
    except JnsError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(graph.to_dot() if args.dot else graph.to_text())
    return 0


def add_profile(sub) -> None:
    p_profile = sub.add_parser(
        "profile",
        help="source-level line profiler: deterministic per-line event "
        "counts, rendered as an annotated-source heatmap "
        "(FILE or jolden:NAME)",
    )
    p_profile.add_argument(
        "file", help="a .jns source file, or jolden:NAME for a built-in driver"
    )
    p_profile.add_argument(
        "--entry",
        default=None,
        help="entry method (default Main.main; jolden: Main.run)",
    )
    p_profile.add_argument(
        "--args",
        type=int,
        nargs="*",
        default=None,
        metavar="N",
        help="integer arguments for the entry method "
        "(jolden drivers default to their DEFAULT_ARGS)",
    )
    p_profile.add_argument(
        "--mode", default="jns", choices=("java", "jx", "jx_cl", "jns")
    )
    p_profile.add_argument(
        "--det-backend",
        default="codegen",
        choices=("walker", "codegen"),
        help="backend for the deterministic event pass (default "
        "%(default)s)",
    )
    p_profile.add_argument(
        "--context",
        type=int,
        default=0,
        metavar="N",
        help="only show N source lines around attributed lines "
        "(default: whole file)",
    )
    p_profile.add_argument(
        "--html", default=None, metavar="OUT",
        help="also write a self-contained HTML report",
    )
    p_profile.add_argument(
        "--json", action="store_true",
        help="emit the per-line table as JSON instead of the heatmap",
    )
    p_profile.set_defaults(func=cmd_profile)


def add_check(sub) -> None:
    p_check = sub.add_parser("check", help="type-check a J&s program")
    p_check.add_argument("file")
    p_check.add_argument("--strict", action="store_true")
    p_check.add_argument("--infer", action="store_true")
    p_check.add_argument(
        "--json",
        action="store_true",
        help="emit diagnostics as machine-readable JSON",
    )
    p_check.add_argument(
        "--explain",
        action="store_true",
        help="record derivations while checking and attach refutation "
        "trees (why the judgment failed) to sharing diagnostics; "
        "meant for --json consumers",
    )
    p_check.add_argument(
        "--stats",
        action="store_true",
        help="print query-cache hit/miss counters to stderr after checking",
    )
    add_obs_flags(p_check)
    p_check.set_defaults(func=cmd_check)


def add_explain(sub) -> None:
    p_explain = sub.add_parser(
        "explain",
        help="render the proof tree of a semantic judgment (subtype, "
        "shares, masks) over the program's class table",
    )
    p_explain.add_argument("file")
    p_explain.add_argument(
        "--query",
        required=True,
        metavar="Q",
        help="the judgment to explain: 'subtype T1 T2', 'shares T1 T2', "
        "'masks P.C', 'mem T', or 'fclass P.C f' (types use surface "
        "syntax, e.g. pair!.Exp)",
    )
    p_explain.add_argument(
        "--json",
        action="store_true",
        help="emit the derivation trees as machine-readable JSON",
    )
    p_explain.add_argument(
        "--html",
        metavar="OUT",
        help="write the derivation trees as a standalone HTML document "
        "with collapsible proof-tree nodes",
    )
    p_explain.set_defaults(func=cmd_explain)


def add_fmt(sub) -> None:
    p_fmt = sub.add_parser("fmt", help="pretty-print a J&s program")
    p_fmt.add_argument("file")
    p_fmt.set_defaults(func=cmd_fmt)


def add_report(sub) -> None:
    p_report = sub.add_parser("report", help="regenerate an evaluation artifact")
    p_report.add_argument("what", choices=("table1", "table2", "corona"))
    p_report.set_defaults(func=cmd_report)


def add_corona(sub) -> None:
    p_corona = sub.add_parser(
        "corona",
        help="run the CorONA chaos harness: live family evolution of one "
        "heap under in-flight traffic, seeded fuel faults",
    )
    p_corona.add_argument("--nodes", type=int, default=64, metavar="N")
    p_corona.add_argument("--objects", type=int, default=96, metavar="M")
    p_corona.add_argument("--requests", type=int, default=600, metavar="R")
    p_corona.add_argument("--seed", type=int, default=11, metavar="S")
    p_corona.add_argument(
        "--faults",
        default="",
        metavar="PLAN",
        help="fault plan 'fuel:REQ[,fuel:REQ...]': trip JNS-RES-001 while "
        "serving request REQ (empty = no faults)",
    )
    p_corona.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    p_corona.add_argument(
        "--wall",
        action="store_true",
        help="include wall-clock throughput/pause figures in --json output "
        "(excluded by default so reports replay byte-identically)",
    )
    add_obs_flags(p_corona)
    p_corona.set_defaults(func=cmd_corona)


def add_graph(sub) -> None:
    p_graph = sub.add_parser(
        "graph", help="print the family graph (inheritance + sharing edges)"
    )
    p_graph.add_argument("file")
    p_graph.add_argument("--dot", action="store_true", help="Graphviz output")
    p_graph.add_argument(
        "--explicit-only", action="store_true", help="omit implicit classes"
    )
    p_graph.set_defaults(func=cmd_graph)


def add_repl(sub) -> None:
    p_repl = sub.add_parser("repl", help="interactive J&s session")
    p_repl.set_defaults(func=lambda args: __import__("repro.repl", fromlist=["main"]).main())


def add_serve(sub) -> None:
    p_serve = sub.add_parser(
        "serve",
        help="long-lived incremental check service (JSON Lines over a "
        "local TCP socket; see repro.serve for the wire protocol)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default %(default)s)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port; 0 picks an ephemeral one, announced on the "
        "JSON ready line (default %(default)s)",
    )
    p_serve.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        metavar="S",
        help="evict sessions idle longer than S seconds (default %(default)s)",
    )
    p_serve.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="seed for the deterministic per-request trace-id stream "
        "(default %(default)s)",
    )
    p_serve.set_defaults(
        func=lambda args: __import__("repro.serve", fromlist=["main"]).main(args)
    )


#: Subcommand name -> the function that adds its parser.
PARSERS = {
    "profile": add_profile,
    "check": add_check,
    "explain": add_explain,
    "fmt": add_fmt,
    "report": add_report,
    "corona": add_corona,
    "graph": add_graph,
    "repl": add_repl,
    "serve": add_serve,
}
