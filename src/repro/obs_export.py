"""What tracing produces: records, histograms, exporters and the report.

:mod:`repro.obs` holds the tracer and its switch; this module holds what
only a traced process needs.  That is the live :class:`Span` and the
ring records (:class:`SpanRecord`, :class:`InstantRecord`),
:class:`Histogram` (span durations, ``observe`` series, and the bucketed
series of :class:`~repro.telemetry.MetricsRegistry`), the Chrome-trace
and collapsed-stack exporters behind ``--trace-out`` and ``--flame``,
and the phase/event report behind ``--profile``.  An untraced ``repro
run`` needs none of it, so ``obs`` loads this module on first use and
keeps the public names importable from ``repro.obs``; the ``Tracer``
exporter methods delegate here.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .obs import SPAN_ARG_VALUES, TRACER, Tracer
from .records import Frozen

_set = object.__setattr__

class SpanRecord(Frozen):
    """A finished span, as stored in the event ring.  ``path`` holds the
    ancestor span names, self last; ``start_ns`` is relative to the
    tracer's enable() epoch; ``tid`` is a small per-thread id (first-use
    order), for Chrome tracks."""

    __slots__ = ("name", "path", "start_ns", "dur_ns", "args", "tid")

    def __init__(
        self,
        name: str,
        path: Tuple[str, ...],
        start_ns: int,
        dur_ns: int,
        args: Tuple[Tuple[str, Any], ...],
        tid: int = 1,
    ) -> None:
        _set(self, "name", name)
        _set(self, "path", path)
        _set(self, "start_ns", start_ns)
        _set(self, "dur_ns", dur_ns)
        _set(self, "args", args)
        _set(self, "tid", tid)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.name == other.name
                and self.path == other.path
                and self.start_ns == other.start_ns
                and self.dur_ns == other.dur_ns
                and self.args == other.args
                and self.tid == other.tid
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(
            (self.name, self.path, self.start_ns, self.dur_ns, self.args, self.tid)
        )


class InstantRecord(Frozen):
    """A point-in-time semantic event, as stored in the event ring."""

    __slots__ = ("name", "ts_ns", "args", "tid")

    def __init__(
        self, name: str, ts_ns: int, args: Tuple[Tuple[str, Any], ...], tid: int = 1
    ) -> None:
        _set(self, "name", name)
        _set(self, "ts_ns", ts_ns)
        _set(self, "args", args)
        _set(self, "tid", tid)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.name == other.name
                and self.ts_ns == other.ts_ns
                and self.args == other.args
                and self.tid == other.tid
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name, self.ts_ns, self.args, self.tid))


class Span:
    """A live span: measures its own duration on exit, attributes child
    time to the parent frame, and records itself into the ring."""

    __slots__ = ("tracer", "name", "args", "start_ns", "path")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "Span":
        tracer = self.tracer
        tracer._stack.append(self)
        self.path = tuple(s.name for s in tracer._stack)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: Any) -> bool:
        end_ns = time.perf_counter_ns()
        tracer = self.tracer
        dur_ns = end_ns - self.start_ns
        # Reentrancy-safe unwind: pop frames above us if an exception
        # skipped their __exit__ (shouldn't happen with `with`, but a
        # generator-held span could outlive its parent).  The stack is
        # thread-local, so no lock is needed for it.
        stack = tracer._stack
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        # Aggregate by call path (the report's tree) and by name (avg);
        # aggregates are shared across threads, so take the tracer lock
        # for the whole bookkeeping batch (one acquisition per span).
        with tracer._lock:
            agg = tracer._span_agg.get(self.path)
            if agg is None:
                agg = tracer._span_agg[self.path] = [0, 0, {}]
            agg[0] += 1
            agg[1] += dur_ns
            if self.args:
                summary = agg[2]
                for k, v in self.args.items():
                    entry = summary.get(k)
                    if entry is None:
                        entry = summary[k] = [[], 0]
                    values = entry[0]
                    if v not in values:
                        if len(values) < SPAN_ARG_VALUES:
                            values.append(v)
                        else:
                            entry[1] += 1
            tracer._histogram_locked("span." + self.name).observe(dur_ns)
            if tracer.enabled:  # disabled mid-span: drop the ring record
                rec = SpanRecord(
                    self.name,
                    self.path,
                    self.start_ns - tracer._epoch_ns,
                    dur_ns,
                    tuple(sorted(self.args.items())),
                    tracer._current_tid_locked(),
                )
                tracer._append_locked(rec)
        return False


#: Canonical pipeline ordering for the phase-timing report.
_PHASE_ORDER = {
    name: i
    for i, name in enumerate(
        (
            "lex",
            "parse",
            "resolve",
            "typecheck",
            "build_sharing",
            "check_class",
            "load",
            "compile",
            "run",
            # chaos-harness spans (repro corona) sort after the pipeline
            "corona.boot",
            "corona.evolve",
        )
    )
}


#: Retained-sample cap per histogram for percentile estimation.  When
#: full, the reservoir decimates deterministically (keeps every other
#: sample and doubles its stride) — no randomness, so reports and tests
#: are reproducible.
HISTOGRAM_SAMPLES = 1024

#: Prometheus latency bucket bounds (seconds) of the labeled metrics
#: registry — tuned for a local check service where ops run 100µs..1s.
#: ``+Inf`` is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


class Histogram:
    """Streaming summary of a series of observations: exact count / total
    / min / max (Python integers do not overflow), plus p50/p95 estimated
    from a bounded, deterministically decimated sample reservoir.

    Built with ``bounds`` (ascending), it also counts observations per
    fixed bucket, read back cumulatively by :meth:`buckets` — the
    Prometheus histogram shape."""

    __slots__ = (
        "name", "count", "total", "min", "max", "_samples", "_stride",
        "bounds", "_per_bucket",
    )

    def __init__(self, name: str, bounds: Sequence[float] = ()) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._stride = 1
        self.bounds = tuple(bounds)
        #: observations whose first bound ``>= value`` is this one
        self._per_bucket = [0] * len(self.bounds)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # Deterministic reservoir: keep every _stride-th observation;
        # at capacity, thin to every other retained sample and double
        # the stride so long runs stay O(1) memory.
        if (self.count - 1) % self._stride == 0:
            self._samples.append(value)
            if len(self._samples) >= HISTOGRAM_SAMPLES:
                self._samples = self._samples[::2]
                self._stride *= 2
        if self.bounds:
            i = bisect_left(self.bounds, value)
            if i < len(self._per_bucket):
                self._per_bucket[i] += 1

    def buckets(self) -> List[List[Any]]:
        """``[[le, cumulative count], ...]`` over the bounds, ending with
        ``["+Inf", count]``."""
        out: List[List[Any]] = []
        cum = 0
        for bound, n in zip(self.bounds, self._per_bucket):
            cum += n
            out.append([bound, cum])
        out.append(["+Inf", self.count])
        return out

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """The q-th percentile (0..100) estimated from the retained
        samples; None when nothing was observed."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        idx = min(len(ordered) - 1, int(len(ordered) * q / 100.0))
        return ordered[idx]

    @property
    def p50(self) -> Optional[float]:
        return self.percentile(50)

    @property
    def p95(self) -> Optional[float]:
        return self.percentile(95)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
        }


def span_tree(tracer: Tracer) -> List[Tuple[Tuple[str, ...], int, int]]:
    """Aggregated spans as (call path, count, total_ns), preorder in
    pipeline order (unknown span names sort after the known phases)."""
    key: Callable[[Tuple[str, ...]], Tuple] = lambda path: tuple(
        (_PHASE_ORDER.get(name, len(_PHASE_ORDER)), name) for name in path
    )
    with tracer._lock:
        items = list(tracer._span_agg.items())
    return [
        (path, agg[0], agg[1])
        for path, agg in sorted(items, key=lambda kv: key(kv[0]))
    ]


def to_chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The event ring as a Chrome-trace (Trace Event Format) object.

    Finished spans become complete events (``ph: "X"`` with ``ts`` /
    ``dur`` in microseconds); semantic events become thread-scoped
    instants (``ph: "i"``).  Records carry the per-thread ``tid``
    they were made on, so concurrent serve sessions render on
    distinct tracks.  Ring overwrites are reported in
    ``otherData.events_dropped``.  Loads in ``chrome://tracing`` and
    Perfetto; the schema is asserted by ``tests/test_obs.py``.
    """
    with tracer._lock:
        records = list(tracer.events)
        dropped = tracer.events_dropped
    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": "repro (J&s)"},
        }
    ]
    for tid in sorted({getattr(rec, "tid", 1) for rec in records}):
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": f"worker-{tid}"},
            }
        )
    trace_events.extend(trace_event(rec) for rec in records)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"events_dropped": dropped},
    }


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    with open(path, "w") as f:
        json.dump(to_chrome_trace(tracer), f, indent=1)
        f.write("\n")


def to_collapsed(tracer: Tracer, weight: str = "us") -> str:
    """The span-path aggregate as collapsed-stack lines
    (``root;child;leaf VALUE``), the input format of flamegraph.pl
    and speedscope.  ``weight="us"`` weighs each frame by its *self*
    time in microseconds (child time is subtracted, so the folded
    graph sums correctly); ``weight="count"`` weighs by occurrence
    count, which is wall-clock-free and therefore byte-stable across
    seeded replays — the determinism tests fold with it.

    Frame labels are escaped (``;`` and whitespace are structural in
    the collapsed format: the former separates frames, the latter
    separates the stack from its weight), so a span named
    ``"check A; B"`` folds as one frame, not three."""
    if weight not in ("us", "count"):
        raise ValueError(f"weight must be 'us' or 'count', got {weight!r}")
    rows = span_tree(tracer)
    if weight == "count":
        return format_folds((path, count) for path, count, _ in rows)
    # self time: each path's total minus its direct children's totals
    self_ns = {path: total for path, _, total in rows}
    for path, _, total in rows:
        if path[:-1] in self_ns:
            self_ns[path[:-1]] -= total
    return format_folds(
        (path, max(0, ns) // 1000) for path, ns in self_ns.items()
    )


def write_collapsed(tracer: Tracer, path: str, weight: str = "us") -> None:
    with open(path, "w") as f:
        f.write(to_collapsed(tracer, weight=weight))


def format_phases(tracer: Tracer) -> str:
    """Human-readable phase-timing tree (indent = span nesting).  Spans
    that carried args show a bounded summary of the distinct values
    seen, e.g. ``unit=Main.main mode=jns``; ``…+N`` counts the
    distinct values past :data:`SPAN_ARG_VALUES`."""
    rows = span_tree(tracer)
    if not rows:
        return "phase timings: (no spans recorded)"
    lines = ["phase timings:"]
    width = max(2 * (len(p) - 1) + len(p[-1]) for p, _, _ in rows)
    width = max(width, len("phase"))
    lines.append(
        "  {:<{w}}  {:>7}  {:>10}  {:>10}  {:>10}  {:>10}".format(
            "phase", "count", "total", "avg", "p50", "p95", w=width
        )
    )
    for path, count, total_ns in rows:
        label = "  " * (len(path) - 1) + path[-1]
        hist = tracer.histograms.get("span." + path[-1])
        p50 = hist.p50 if hist is not None else None
        p95 = hist.p95 if hist is not None else None
        row = "  {:<{w}}  {:>7}  {:>10}  {:>10}  {:>10}  {:>10}".format(
            label,
            count,
            _fmt_ns(total_ns),
            _fmt_ns(total_ns // count),
            _fmt_ns(p50) if p50 is not None else "-",
            _fmt_ns(p95) if p95 is not None else "-",
            w=width,
        )
        summary = tracer._span_agg[path][2]
        if summary:
            row += "  " + _fmt_arg_summary(summary)
        lines.append(row)
    return "\n".join(lines)


def format_events(tracer: Tracer) -> str:
    """Semantic event counters (everything that isn't a span)."""
    items = sorted(tracer.counters.items())
    if not items:
        return "semantic events: (none recorded)"
    lines = ["semantic events:"]
    width = max(len(name) for name, _ in items)
    for name, value in items:
        lines.append("  {:<{w}}  {:>10}".format(name, value, w=width))
    return "\n".join(lines)


def fold_label(name: str) -> str:
    """Sanitize one frame label for the collapsed-stack fold format.

    Folds are ``frame;frame;frame COUNT`` — a ``;`` or any whitespace
    inside a frame name would corrupt the fold structure for downstream
    tools (flamegraph.pl, speedscope), so both are replaced.
    """
    if not name:
        return "(anonymous)"
    out = []
    for ch in name:
        if ch == ";":
            out.append(":")
        elif ch.isspace():
            out.append("_")
        else:
            out.append(ch)
    return "".join(out)


def format_folds(rows: Iterable[Tuple[Sequence[str], Any]]) -> str:
    """Render ``(frames, weight)`` rows, outermost frame first, as
    collapsed-stack lines ``a;b;c WEIGHT`` (each frame escaped by
    :func:`fold_label`), the input format of flamegraph.pl and
    speedscope.  The one fold writer behind every ``--flame`` output."""
    return "".join(
        ";".join(map(fold_label, frames)) + f" {weight}\n"
        for frames, weight in rows
    )


def trace_event(rec: Any) -> Dict[str, Any]:
    """One ring record as a Chrome-trace (Trace Event Format) object —
    shared by :func:`to_chrome_trace` and the tracer's JSONL stream."""
    if isinstance(rec, SpanRecord):
        return {
            "name": rec.name,
            "cat": "phase",
            "ph": "X",
            "ts": rec.start_ns / 1000.0,
            "dur": rec.dur_ns / 1000.0,
            "pid": 1,
            "tid": rec.tid,
            "args": dict(rec.args),
        }
    return {
        "name": rec.name,
        "cat": "semantic",
        "ph": "i",
        "ts": rec.ts_ns / 1000.0,
        "s": "t",
        "pid": 1,
        "tid": rec.tid,
        "args": dict(rec.args),
    }


def _fmt_arg_summary(summary: Dict[str, Any]) -> str:
    """Render a span-arg summary: ``key=v1,v2`` per key, with an
    ``…+N`` suffix when distinct values beyond the cap were dropped."""
    parts = []
    for k in sorted(summary):
        values, dropped = summary[k]
        text = ",".join(str(v) for v in values)
        if dropped:
            text += f",…+{dropped}"
        parts.append(f"{k}={text}")
    return " ".join(parts)


def _fmt_ns(ns: float) -> str:
    """Adaptive duration formatting: ns -> µs -> ms -> s."""
    if ns < 1_000:
        return f"{ns:.0f}ns"
    if ns < 1_000_000:
        return f"{ns / 1_000:.1f}µs"
    if ns < 1_000_000_000:
        return f"{ns / 1_000_000:.2f}ms"
    return f"{ns / 1_000_000_000:.3f}s"


def format_report(
    tracer: Optional[Tracer] = None, cache_stats: Optional[Any] = None
) -> str:
    """The unified observability report: phase timings + semantic events
    (+ a :class:`~repro.lang.queries.CacheStats` section when provided).
    Shared by ``repro run --profile``, ``repro check --profile``, and the
    REPL's ``:profile`` / ``:stats`` meta-commands."""
    tracer = TRACER if tracer is None else tracer
    parts = [format_phases(tracer), format_events(tracer)]
    if cache_stats is not None:
        parts.append(cache_stats.format())
    return "\n\n".join(parts)
