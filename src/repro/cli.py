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
* ``corona``        — the chaos harness: sharded async CorONA traffic
  with seeded fault injection and live family evolution
  (``--nodes N --shards K --faults PLAN --seed S``); exits non-zero on
  any per-request oracle violation.
* ``repl``          — an interactive J&s session (see :mod:`repro.repl`).
* ``profile FILE``  — per-jns-line event counts and wall-clock samples.
* ``bench-diff``    — gate the two latest ``BENCH_history.jsonl`` entries.
* ``graph FILE``    — print the family graph (``--dot`` for Graphviz).
* ``serve``         — the long-lived incremental check service over TCP.
* ``top``           — a live ops console for a running ``repro serve``.

``run`` and ``check`` share the observability flags (see
:mod:`repro.obs`): ``--profile`` prints the unified phase-timing +
semantic-event + cache report, ``--trace-out FILE`` writes a
Chrome-trace JSON for ``chrome://tracing`` / Perfetto (a ``.jsonl``
extension streams events as JSON Lines instead), ``--stats-json``
emits machine-readable cache counters to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import obs
from .api import cache_stats, compile_program
from .diagnostics import DiagnosticSink, render
from .lang.classtable import ClassTable, JnsError
from .lang.resolve import resolve_program
from .lang.typecheck import check_program
from .source.parser import parse_program


def _read(path: str) -> str:
    """Read a source file; unreadable paths exit with a clean error
    instead of a traceback (the SystemExit carries the exit code)."""
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(1)


def _tracing_requested(args) -> bool:
    return bool(
        getattr(args, "profile", False)
        or getattr(args, "trace_out", None)
        or getattr(args, "flame", None)
        or getattr(args, "otlp_out", None)
    )


def _begin_tracing(args) -> None:
    """Enable the tracer for ``run``/``check``; a ``--trace-out`` path
    with a ``.jsonl`` extension opens the streaming JSONL sink up front
    so events bypass the bounded ring."""
    obs.enable()
    trace_out = getattr(args, "trace_out", None)
    if trace_out and trace_out.endswith(".jsonl"):
        obs.TRACER.open_stream(trace_out)


def _emit_observability(args, stats) -> None:
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
    otlp_out = getattr(args, "otlp_out", None)
    if otlp_out:
        from . import telemetry

        n = telemetry.write_otlp_jsonl(obs.TRACER, otlp_out)
        print(f"wrote {n} OTLP-flavored spans to {otlp_out}", file=sys.stderr)
    if getattr(args, "stats_json", False) and stats is not None:
        print(json.dumps(stats.to_dict(), sort_keys=True))


#: one-shot latch for the --no-specialize deprecation warning
_no_specialize_warned = False


def _resolve_backend(args) -> str:
    """Merge the unified ``--backend`` selector with the deprecated
    ``--no-specialize`` alias (warns once per process, maps to
    ``--backend compiled``).  Default: ``codegen``."""
    global _no_specialize_warned
    backend = getattr(args, "backend", None)
    if getattr(args, "no_specialize", False):
        if not _no_specialize_warned:
            print(
                "warning: --no-specialize is deprecated; use --backend compiled",
                file=sys.stderr,
            )
            _no_specialize_warned = True
        if backend is None:
            backend = "compiled"
    return backend or "codegen"


def cmd_run(args) -> int:
    source = _read(args.file)
    if _tracing_requested(args):
        _begin_tracing(args)
    interp = None
    try:
        try:
            program = compile_program(source, check=not args.no_check)
        except JnsError as exc:
            print(render(exc.to_diagnostic(), source), file=sys.stderr)
            return 1
        interp = program.interp(
            mode=args.mode,
            echo=True,
            backend=_resolve_backend(args),
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
            print(f"runtime error: {exc}", file=sys.stderr)
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
            from .profiler import PROFILER, merge_reports

            PROFILER.stop()
            report = merge_reports(
                source, args.file, PROFILER.snapshot(), None,
                backend_det=interp.backend,
            )
            print(
                report.render_text(color=sys.stderr.isatty()),
                file=sys.stderr,
                end="",
            )
        if _tracing_requested(args):
            obs.disable()
        stats = interp.cache_stats() if interp is not None else cache_stats()
        _emit_observability(args, stats)


def cmd_profile(args) -> int:
    """Source-level line profiler: deterministic event counts on one
    backend merged with wall-clock samples from the codegen tier,
    rendered as an annotated-source heatmap (or HTML/JSON/flame)."""
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
        source = _read(args.file)
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
            sample=not args.no_sample,
            interval=args.interval / 1000.0,
            min_samples=args.min_samples,
        )
    except JnsError as exc:
        print(render(exc.to_diagnostic(), source), file=sys.stderr)
        return 1
    if args.flame:
        folds = "".join(
            ";".join(k) + f" {n}\n" for k, n in sorted(report.folds.items())
        )
        with open(args.flame, "w") as fh:
            fh.write(folds)
        print(
            f"wrote {len(report.folds)} jns-frame folds to {args.flame}",
            file=sys.stderr,
        )
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


def cmd_bench_diff(args) -> int:
    """Compare the two latest BENCH_history.jsonl entries; exit 1 when a
    directed metric regressed past the threshold."""
    from .benchtrack import bench_diff

    status, lines = bench_diff(args.history, threshold=args.threshold)
    for line in lines:
        print(line)
    return status


def cmd_check(args) -> int:
    source = _read(args.file)
    if _tracing_requested(args):
        _begin_tracing(args)
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
        if _tracing_requested(args):
            obs.disable()
        _emit_observability(args, stats if stats is not None else cache_stats())


def cmd_fmt(args) -> int:
    from .source.unparse import unparse

    try:
        unit = parse_program(_read(args.file))
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

    source = _read(args.file)
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
    """``repro corona``: run the chaos-hardened CorONA harness (sharded
    async traffic + seeded fault injection + live evolution) and print
    the report.  The report is byte-identical for a given seed/plan when
    ``--json`` is used without ``--wall``."""
    from .chaos import FaultPlan
    from .programs.corona import ChaosCoronaDriver, EvolutionJournal

    try:
        plan = FaultPlan.parse(args.faults)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: bad fault plan: {exc}", file=sys.stderr)
        return 2
    if _tracing_requested(args):
        _begin_tracing(args)
    journal = None
    if args.journal:
        import os

        journal = (
            EvolutionJournal.load(args.journal)
            if os.path.exists(args.journal)
            else EvolutionJournal(path=args.journal)
        )
    try:
        driver = ChaosCoronaDriver(
            nodes=args.nodes,
            shards=args.shards,
            objects=args.objects,
            requests=args.requests,
            seed=args.seed,
            plan=plan,
            journal=journal,
        )
        report = driver.run()
    finally:
        if _tracing_requested(args):
            obs.disable()
        _emit_observability(args, None)
    if args.json:
        print(report.to_json(include_wall=args.wall))
    else:
        c = report.counters
        print(
            f"corona chaos: {report.params['nodes']} nodes / "
            f"{report.params['shards']} shards, {report.params['requests']} requests, "
            f"seed {report.params['seed']}"
        )
        print(
            f"  completed {report.wall['requests_completed']} "
            f"({report.wall['rps']} req/s wall), virtual time "
            f"{report.virtual_ms:.1f} ms"
        )
        print(
            f"  faults injected {c.get('chaos.injected', 0)} "
            f"(crash {c.get('chaos.injected.crash', 0)}, "
            f"drop {c.get('chaos.injected.drop', 0)}, "
            f"delay {c.get('chaos.injected.delay', 0)}, "
            f"fuel {c.get('chaos.injected.fuel', 0)}); "
            f"restarts {c.get('chaos.restart', 0)}, "
            f"journal-recovered transitions {c.get('chaos.recovered', 0)}"
        )
        print(
            f"  retries {c.get('retry.attempt', 0)} "
            f"(exhausted {c.get('retry.exhausted', 0)}), "
            f"stale serves {c.get('degraded.stale_serve', 0)}, "
            f"failures {len(report.failures)}"
        )
        pause = report.histograms.get("evolution.pause_virtual_ms")
        if pause:
            print(
                f"  evolution pause (virtual): p50 {pause['p50']:.1f} ms, "
                f"p95 {pause['p95']:.1f} ms over {pause['count']} transitions"
            )
        print(f"  families: " + ", ".join(
            f"shard{s['index']}={s['family']}(epoch {s['epoch']})"
            for s in report.shards
        ))
        print(f"  oracle violations: {len(report.oracle_violations)}")
        for v in report.oracle_violations[:10]:
            print(f"    {v}")
    return 1 if report.oracle_violations else 0


def cmd_top(args) -> int:
    """``repro top`` — a live ops console for a running ``repro serve``:
    polls the ``metrics`` op and redraws req/s, per-op p50/p95 latency,
    cache hit rate, and incremental revalidation counts in place."""
    import time as _time

    from . import telemetry
    from .serve import ServeClient

    try:
        client = ServeClient(args.host, args.port, timeout=5.0)
    except OSError as exc:
        print(f"error: cannot connect to {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    prev = None
    prev_t: Optional[float] = None
    frames = 0
    try:
        while True:
            try:
                resp = client.request("metrics")
            except (OSError, ConnectionError) as exc:
                print(f"error: lost server: {exc}", file=sys.stderr)
                return 1
            if not resp.get("ok"):
                print(f"error: {resp.get('error')}", file=sys.stderr)
                return 1
            now = _time.monotonic()
            dt = None if prev_t is None else now - prev_t
            frame = telemetry.render_top(resp, prev, dt)
            if not args.no_clear:
                print("\x1b[2J\x1b[H", end="")
            print(frame, flush=True)
            prev, prev_t = resp, now
            frames += 1
            if args.iterations is not None and frames >= args.iterations:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def cmd_graph(args) -> int:
    from .lang.graph import family_graph

    try:
        unit = parse_program(_read(args.file))
        table = ClassTable(unit)
        resolve_program(table)
        graph = family_graph(table, include_implicit=not args.explicit_only)
    except JnsError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(graph.to_dot() if args.dot else graph.to_text())
    return 0


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by ``run`` and ``check``."""
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
    parser.add_argument(
        "--otlp-out",
        metavar="FILE",
        default=None,
        help="write finished spans as OTLP-flavored JSON Lines (traceId/"
        "spanId/attributes per span) alongside the Chrome-trace formats",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="compile and run a J&s program")
    p_run.add_argument("file")
    p_run.add_argument("--entry", default="Main.main")
    p_run.add_argument("--mode", default="jns", choices=("java", "jx", "jx_cl", "jns"))
    p_run.add_argument("--no-check", action="store_true")
    p_run.add_argument(
        "--backend",
        default=None,
        choices=("walker", "compiled", "specialized", "codegen"),
        help="execution backend: 'codegen' (default) emits real Python "
        "per specialized method body; 'specialized' is the register-"
        "frame escape hatch; 'compiled' closure trees; 'walker' the "
        "tree interpreter",
    )
    p_run.add_argument(
        "--no-specialize",
        action="store_true",
        help="deprecated alias for --backend compiled (warns once)",
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
    _add_obs_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_profile = sub.add_parser(
        "profile",
        help="source-level line profiler: deterministic event counts "
        "merged with wall-clock samples from the codegen tier, rendered "
        "as an annotated-source heatmap (FILE or jolden:NAME)",
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
        default="specialized",
        choices=("walker", "compiled", "specialized", "codegen"),
        help="backend for the deterministic event pass (default "
        "%(default)s; the wall-clock pass always samples codegen)",
    )
    p_profile.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="MS",
        help="sampling interval in milliseconds (default %(default)s)",
    )
    p_profile.add_argument(
        "--min-samples",
        type=int,
        default=80,
        metavar="N",
        help="repeat the entry until N wall-clock samples landed "
        "(default %(default)s; 0 = single run)",
    )
    p_profile.add_argument(
        "--no-sample",
        action="store_true",
        help="skip the codegen sampling pass (deterministic counts only)",
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
        "--flame", default=None, metavar="OUT",
        help="also write collapsed folds keyed by jns frames "
        "(P.C.m:line) for flamegraph.pl / speedscope",
    )
    p_profile.add_argument(
        "--json", action="store_true",
        help="emit the merged per-line table as JSON instead of the heatmap",
    )
    p_profile.set_defaults(func=cmd_profile)

    p_bdiff = sub.add_parser(
        "bench-diff",
        help="compare the two latest BENCH_history.jsonl entries; exits "
        "nonzero when a directed metric regressed past the threshold",
    )
    p_bdiff.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        help="history file written by scripts/bench_history.py "
        "(default %(default)s)",
    )
    p_bdiff.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="relative regression threshold (default %(default)s = 25%%)",
    )
    p_bdiff.set_defaults(func=cmd_bench_diff)

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
    _add_obs_flags(p_check)
    p_check.set_defaults(func=cmd_check)

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

    p_fmt = sub.add_parser("fmt", help="pretty-print a J&s program")
    p_fmt.add_argument("file")
    p_fmt.set_defaults(func=cmd_fmt)

    p_report = sub.add_parser("report", help="regenerate an evaluation artifact")
    p_report.add_argument("what", choices=("table1", "table2", "corona"))
    p_report.set_defaults(func=cmd_report)

    p_corona = sub.add_parser(
        "corona",
        help="run the chaos-hardened CorONA harness: sharded async "
        "traffic, seeded fault injection, live family evolution",
    )
    p_corona.add_argument("--nodes", type=int, default=256, metavar="N")
    p_corona.add_argument("--shards", type=int, default=4, metavar="K")
    p_corona.add_argument("--objects", type=int, default=96, metavar="M")
    p_corona.add_argument("--requests", type=int, default=600, metavar="R")
    p_corona.add_argument("--seed", type=int, default=11, metavar="S")
    p_corona.add_argument(
        "--faults",
        default="",
        metavar="PLAN",
        help="fault plan: JSON file path, JSON object string, or compact "
        "DSL 'crash:SHARD@REQ+DOWNMS,drop:RATE,delay:RATE@MS,fuel:REQ' "
        "(empty = no faults)",
    )
    p_corona.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="persist the evolution journal to FILE (JSONL); if FILE "
        "exists the run resumes from it, completing any pending "
        "transitions (crash-recoverable evolution)",
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
    _add_obs_flags(p_corona)
    p_corona.set_defaults(func=cmd_corona)

    p_graph = sub.add_parser(
        "graph", help="print the family graph (inheritance + sharing edges)"
    )
    p_graph.add_argument("file")
    p_graph.add_argument("--dot", action="store_true", help="Graphviz output")
    p_graph.add_argument(
        "--explicit-only", action="store_true", help="omit implicit classes"
    )
    p_graph.set_defaults(func=cmd_graph)

    p_repl = sub.add_parser("repl", help="interactive J&s session")
    p_repl.set_defaults(func=lambda args: __import__("repro.repl", fromlist=["main"]).main())

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
        "--metrics-port",
        type=int,
        default=None,
        metavar="P",
        help="also serve GET /metrics (Prometheus text format) over HTTP "
        "on this port (0 picks an ephemeral one, announced as "
        "metrics_port on the ready line); omitted = no HTTP endpoint",
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

    p_top = sub.add_parser(
        "top",
        help="live ops console for a running 'repro serve': polls the "
        "metrics op and renders req/s, per-op p50/p95 latency, cache "
        "hit rate, and incremental revalidation counts in place",
    )
    p_top.add_argument(
        "--host", default="127.0.0.1", help="server host (default %(default)s)"
    )
    p_top.add_argument(
        "--port", type=int, required=True, help="server port (from the ready line)"
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between polls (default %(default)s)",
    )
    p_top.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N frames (default: run until Ctrl-C)",
    )
    p_top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen (for logs/tests)",
    )
    p_top.set_defaults(func=cmd_top)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
