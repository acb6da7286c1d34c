"""``repro`` command line under benchmark spans.

Usage: ``python perfbench/traced_cli.py SPANS_JSON ARGS...`` runs
``repro.cli.main(ARGS)`` like ``python -m repro ARGS`` would, with the
layer wrappers of :mod:`tracing` installed and the program's own tracer
(``repro.obs.TRACER``) on, then writes the spans, the tracer's counters
and the query-cache totals to SPANS_JSON.  ``t0``/``t1`` mark the first
and last statement of this process, so the caller can account for
interpreter start-up and exit.
"""

import time

T0 = time.perf_counter_ns()

import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = tracing.Recorder()
    with rec.span("import"):
        import repro.cli

        if argv[:1] == ["serve"]:
            import repro.serve  # noqa: F401  (what `repro serve` imports first)
    with rec.span("trace.install"):
        tracing.install(rec)
    repro.obs.enable()
    code = 1
    try:
        code = repro.cli.main(argv)
    finally:
        repro.obs.disable()
        stats = repro.api.cache_stats()
        rec.dump(out, {
            "t0": T0,
            "t1": time.perf_counter_ns(),
            "counters": dict(repro.obs.TRACER.counters),
            "cache": {"hits": stats.hits, "misses": stats.misses},
        })
    return code


if __name__ == "__main__":
    sys.exit(main())
