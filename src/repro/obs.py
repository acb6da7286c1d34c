"""Unified tracing, metrics, and profiling for the J&s pipeline and runtime.

One process-wide :class:`Tracer` (the module singleton :data:`TRACER`)
collects three kinds of observations:

* **Phase spans** — hierarchical wall-clock timings opened with
  ``with TRACER.span("typecheck", unit=name):``.  Every pipeline stage
  (lex → parse → resolve → typecheck → load → compile → run) opens one,
  so a single compile-and-run paints a tree of where time went.  Span
  durations also feed a per-name :class:`Histogram` (count/total/min/max
  plus p50/p95 from a deterministic sample reservoir), which is where
  the report's avg/p50/p95 columns come from.  The same type, built with
  bucket bounds, is the histogram series of
  :class:`~repro.telemetry.MetricsRegistry`.
* **Semantic events** — typed counters (and ring-buffer instants) for
  the paper-specific runtime operations: explicit/implicit view changes
  and reference-object memo hits (§6.3), dispatch inline-cache hit/miss,
  sharing-group fallback reads (§3.3), masked-field checks (§3), and
  conformance checks.  Giannini et al. (PAPERS.md) make sharing events
  first-class observations; this is the engineering counterpart.

  The chaos harness (:mod:`repro.programs.corona.driver`) mirrors its
  report counters and histograms here when tracing is enabled: counters
  ``chaos.injected`` (with ``.crash/.drop/.delay/.fuel`` breakdowns),
  ``chaos.restart``, ``chaos.recovered``, ``retry.attempt``,
  ``retry.exhausted``, ``degraded.stale_serve``, and histograms
  ``evolution.pause_virtual_ms`` (virtual-time pause clients observe
  per shard transition), ``retry.per_request`` (retry amplification),
  ``degraded.staleness`` and ``staleness.cache_lag`` (versions behind
  the acknowledged head).
* **Event ring** — a bounded ``deque`` of finished spans and instant
  events, exportable as Chrome-trace JSON (``chrome://tracing`` /
  Perfetto) via :meth:`Tracer.to_chrome_trace`.

The disabled path is near-free by construction: instrumentation sites
guard with a single attribute load and branch (``if TRACER.enabled:``),
and :meth:`Tracer.span` returns a reusable no-op context manager when
disabled, so no objects are allocated, no clocks are read, and no lock
is taken.  ``benchmarks/test_obs_json.py`` measures the guard cost and
enforces the ≤ 5% disabled-overhead budget on the jolden driver.

The *enabled* path is thread-safe: ``repro serve`` handles sessions on
concurrent connection threads, so aggregate state (counters, histograms,
the event ring, the span-path aggregate) is guarded by one lock, while
the span *stack* is thread-local — each thread paints its own coherent
span tree, and records carry a small per-thread ``tid`` (assigned in
first-use order) that the Chrome-trace export emits so concurrent
sessions land on distinct tracks.  When the bounded ring overwrites an
old event, the ``events_dropped`` counter bumps (surfaced in the
``--profile`` report and in Chrome-trace ``otherData``), so silent loss
is visible.

Collapsed stacks (``a;b;c VALUE`` lines for speedscope / flamegraph.pl)
have one writer, :func:`format_folds`, which escapes every frame through
:func:`fold_label`, and one producer, ``Tracer.to_collapsed()``, which
feeds it the span-path aggregate (``run/check/corona --flame``, the
REPL's ``:flame``).

The unified report (:func:`format_report`) folds a
:class:`~repro.lang.queries.CacheStats` snapshot into the same output,
so ``repro run --profile`` and the REPL's ``:profile`` show phase
timings, semantic events, and query-cache counters side by side.
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_left
from collections import deque
from typing import (
    Any, Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from .records import Frozen

_set = object.__setattr__

__all__ = [
    "Tracer",
    "TRACER",
    "Histogram",
    "SpanRecord",
    "InstantRecord",
    "enable",
    "disable",
    "enabled",
    "format_report",
    "LineProfiler",
    "PROFILER",
    "fold_label",
    "format_folds",
    "DEFAULT_BUCKETS",
]

#: Default capacity of the in-memory event ring.  Old events fall off
#: the front; aggregate counters/histograms are unaffected by drops.
DEFAULT_RING_CAPACITY = 16384

#: Distinct values kept per span-arg key in the phase-tree aggregate
#: (further distinct values are counted, not stored, so hot spans with
#: high-cardinality args — e.g. ``load`` with one ``unit`` per class —
#: stay bounded).
SPAN_ARG_VALUES = 4

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
            "corona.restart",
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


class _NullSpan:
    """Reusable no-op context manager handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: measures its own duration on exit, attributes child
    time to the parent frame, and records itself into the ring."""

    __slots__ = ("tracer", "name", "args", "start_ns", "path")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
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


class Tracer:
    """Process-wide trace/metric collector.  See the module docstring.

    All state is owned by the instance so tests can build private
    tracers; production code uses the :data:`TRACER` singleton, whose
    ``enabled`` flag is the one branch every instrumentation site pays
    when tracing is off.
    """

    def __init__(self, ring_capacity: int = DEFAULT_RING_CAPACITY) -> None:
        self.enabled = False
        self.events: Deque[Any] = deque(maxlen=ring_capacity)
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: total observations recorded while enabled (spans + instants +
        #: counter increments) — the disabled-overhead benchmark uses it
        #: as the count of guarded sites a workload actually traverses.
        self.observations = 0
        #: optional JSONL sink (``open_stream``): every finished span and
        #: every instant is written as one Chrome-trace event object
        #: per line, independent of the bounded ring.
        self._stream = None
        #: ring overwrites since the last reset (old events silently
        #: falling off the front are production data loss — count it).
        self.events_dropped = 0
        #: guards counters/histograms/ring/span-aggregate on the
        #: *enabled* path; the disabled path never touches it.
        self._lock = threading.Lock()
        #: per-thread span stacks + small tids (see ``_stack``).
        self._tls = threading.local()
        self._tid_by_thread: Dict[int, int] = {}
        #: call-path tuple -> [count, total_ns, args_summary] where
        #: args_summary maps each span-arg key to [distinct values
        #: (bounded by SPAN_ARG_VALUES), overflow count]
        self._span_agg: Dict[Tuple[str, ...], List[Any]] = {}
        self._epoch_ns = time.perf_counter_ns()
        self._enabled_at_ns: Optional[int] = None

    @property
    def _stack(self) -> List["_Span"]:
        """This thread's live-span stack.  Thread-local so concurrent
        serve sessions each paint a coherent span tree instead of
        interleaving frames through one shared list."""
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _current_tid_locked(self) -> int:
        """Small per-thread id in first-use order (1 = first thread seen).
        Caller holds ``_lock``; the id is cached thread-locally so the
        map lookup happens once per thread."""
        tid = getattr(self._tls, "tid", None)
        if tid is None:
            ident = threading.get_ident()
            tid = self._tid_by_thread.get(ident)
            if tid is None:
                tid = self._tid_by_thread[ident] = len(self._tid_by_thread) + 1
            self._tls.tid = tid
        return tid

    def _append_locked(self, rec: Any) -> None:
        """Append one record to the ring (and stream), counting the
        overwrite when the ring is full.  Caller holds ``_lock``."""
        events = self.events
        if events.maxlen is not None and len(events) == events.maxlen:
            self.events_dropped += 1
            self.counters["events_dropped"] = (
                self.counters.get("events_dropped", 0) + 1
            )
        events.append(rec)
        if self._stream is not None:
            self._stream_write(rec)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def enable(self, reset: bool = True) -> None:
        """Turn on collection (clearing old data unless ``reset=False``)."""
        if reset:
            self.reset()
        self.enabled = True
        self._epoch_ns = time.perf_counter_ns()
        self._enabled_at_ns = self._epoch_ns

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all collected data (ring, counters, histograms, stack).
        Per-thread tids survive — they are identities, not data."""
        with self._lock:
            self.events.clear()
            self.counters.clear()
            self.histograms.clear()
            self.observations = 0
            self.events_dropped = 0
            self._stack.clear()
            self._span_agg.clear()
            self._epoch_ns = time.perf_counter_ns()

    # ------------------------------------------------------------------
    # streaming export (JSONL)
    # ------------------------------------------------------------------

    def open_stream(self, path: str) -> None:
        """Stream events to ``path`` as JSON Lines: every finished span
        and every instant is appended as one Chrome-trace event
        object per line as it happens, so long-running workloads are not
        limited by the bounded in-memory ring."""
        self.close_stream()
        with self._lock:
            self._stream = open(path, "w")

    def close_stream(self) -> None:
        with self._lock:
            stream = self._stream
            self._stream = None
        if stream is not None:
            stream.close()

    def _stream_write(self, rec: Any) -> None:
        self._stream.write(json.dumps(_trace_event(rec)) + "\n")

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def span(self, name: str, **args: Any):
        """Open a hierarchical timing span.  Usable as
        ``with TRACER.span("typecheck", unit=cls):`` from any call site;
        returns a shared no-op context manager while disabled."""
        if not self.enabled:
            return _NULL_SPAN
        with self._lock:
            self.observations += 1
        return _Span(self, name, args)

    def event(self, name: str, **args: Any) -> None:
        """Record an instant semantic event into the ring (and bump the
        same-named counter).  Callers on hot paths must guard with
        ``if TRACER.enabled:`` — this method assumes it is only reached
        while enabled."""
        with self._lock:
            self.observations += 1
            self.counters[name] = self.counters.get(name, 0) + 1
            rec = InstantRecord(
                name,
                time.perf_counter_ns() - self._epoch_ns,
                tuple(sorted(args.items())),
                self._current_tid_locked(),
            )
            self._append_locked(rec)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a named counter (created on first use).  Python
        integers are unbounded, so counters accumulate without overflow."""
        with self._lock:
            self.observations += 1
            self.counters[name] = self.counters.get(name, 0) + n

    def _histogram_locked(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        return h

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            return self._histogram_locked(name)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into a named histogram."""
        with self._lock:
            self.observations += 1
            self._histogram_locked(name).observe(value)

    # ------------------------------------------------------------------
    # exporters
    # ------------------------------------------------------------------

    def span_tree(self) -> List[Tuple[Tuple[str, ...], int, int]]:
        """Aggregated spans as (call path, count, total_ns), preorder in
        pipeline order (unknown span names sort after the known phases)."""
        key: Callable[[Tuple[str, ...]], Tuple] = lambda path: tuple(
            (_PHASE_ORDER.get(name, len(_PHASE_ORDER)), name) for name in path
        )
        with self._lock:
            items = list(self._span_agg.items())
        return [
            (path, agg[0], agg[1])
            for path, agg in sorted(items, key=lambda kv: key(kv[0]))
        ]

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The event ring as a Chrome-trace (Trace Event Format) object.

        Finished spans become complete events (``ph: "X"`` with ``ts`` /
        ``dur`` in microseconds); semantic events become thread-scoped
        instants (``ph: "i"``).  Records carry the per-thread ``tid``
        they were made on, so concurrent serve sessions render on
        distinct tracks.  Ring overwrites are reported in
        ``otherData.events_dropped``.  Loads in ``chrome://tracing`` and
        Perfetto; the schema is asserted by ``tests/test_obs.py``.
        """
        with self._lock:
            records = list(self.events)
            dropped = self.events_dropped
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
        trace_events.extend(_trace_event(rec) for rec in records)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {"events_dropped": dropped},
        }

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_chrome_trace(), f, indent=1)
            f.write("\n")

    def to_collapsed(self, weight: str = "us") -> str:
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
        rows = self.span_tree()
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

    def write_collapsed(self, path: str, weight: str = "us") -> None:
        with open(path, "w") as f:
            f.write(self.to_collapsed(weight=weight))

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------

    def format_phases(self) -> str:
        """Human-readable phase-timing tree (indent = span nesting).  Spans
        that carried args show a bounded summary of the distinct values
        seen, e.g. ``unit=Main.main mode=jns``; ``…+N`` counts the
        distinct values past :data:`SPAN_ARG_VALUES`."""
        rows = self.span_tree()
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
            hist = self.histograms.get("span." + path[-1])
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
            summary = self._span_agg[path][2]
            if summary:
                row += "  " + _fmt_arg_summary(summary)
            lines.append(row)
        return "\n".join(lines)

    def format_events(self) -> str:
        """Semantic event counters (everything that isn't a span)."""
        items = sorted(self.counters.items())
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


def _trace_event(rec: Any) -> Dict[str, Any]:
    """One ring record as a Chrome-trace (Trace Event Format) object —
    shared by :meth:`Tracer.to_chrome_trace` and the JSONL stream."""
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


#: The process-wide tracer.  Instrumentation sites import this and guard
#: with ``if TRACER.enabled:`` — one attribute load and branch when off.
TRACER = Tracer()


class LineProfiler:
    """Deterministic per-jns-line counters.

    One process-wide instance (:data:`PROFILER`) mirrors the
    :data:`TRACER` pattern: hot sites check ``PROFILER.enabled`` (one
    attribute load and branch) and pay nothing when profiling is off.
    Events without an explicit line attribute to :attr:`cur_line`, the
    line of the most recently entered statement — identical across
    backends because statement entry order is a backend invariant.
    """

    EVENT_KINDS = ("mask", "view", "dispatch")

    __slots__ = ("enabled", "cur_line", "steps", "mask", "view", "dispatch")

    def __init__(self) -> None:
        self.enabled = False
        self.cur_line = 0
        self.steps: Dict[int, int] = {}
        self.mask: Dict[int, int] = {}
        self.view: Dict[int, int] = {}
        self.dispatch: Dict[int, int] = {}

    # -- lifecycle -------------------------------------------------------

    def reset(self) -> None:
        self.cur_line = 0
        self.steps = {}
        self.mask = {}
        self.view = {}
        self.dispatch = {}

    def start(self) -> None:
        self.reset()
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    def snapshot(self) -> Dict[str, Dict[int, int]]:
        return {
            "steps": dict(self.steps),
            "mask": dict(self.mask),
            "view": dict(self.view),
            "dispatch": dict(self.dispatch),
        }

    # -- hot-path hooks --------------------------------------------------

    def stmt_hit(self, line: int) -> None:
        """One statement entry at jns ``line``; becomes the attribution
        point for subsequent anonymous events."""
        self.cur_line = line
        d = self.steps
        d[line] = d.get(line, 0) + 1

    def mask_hit(self) -> None:
        d = self.mask
        line = self.cur_line
        d[line] = d.get(line, 0) + 1

    def view_hit(self) -> None:
        d = self.view
        line = self.cur_line
        d[line] = d.get(line, 0) + 1

    def dispatch_hit(self) -> None:
        d = self.dispatch
        line = self.cur_line
        d[line] = d.get(line, 0) + 1


#: The process-wide deterministic line profiler (see :mod:`repro.profiler`).
PROFILER = LineProfiler()


def enabled() -> bool:
    return TRACER.enabled


def enable(reset: bool = True) -> None:
    """Turn on the process-wide tracer (clearing old data by default)."""
    TRACER.enable(reset=reset)


def disable() -> None:
    TRACER.disable()


def format_report(
    tracer: Optional[Tracer] = None, cache_stats: Optional[Any] = None
) -> str:
    """The unified observability report: phase timings + semantic events
    (+ a :class:`~repro.lang.queries.CacheStats` section when provided).
    Shared by ``repro run --profile``, ``repro check --profile``, and the
    REPL's ``:profile`` / ``:stats`` meta-commands."""
    tracer = TRACER if tracer is None else tracer
    parts = [tracer.format_phases(), tracer.format_events()]
    if cache_stats is not None:
        parts.append(cache_stats.format())
    return "\n\n".join(parts)
