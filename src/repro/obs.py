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
  ``chaos.injected`` (with its ``.fuel`` breakdown),
  ``evolution.applied``, ``fetch.ok``, ``publish.ok``,
  ``requests.failed`` and ``oracle.violation``, and histograms
  ``evolution.pause_virtual_ms`` (virtual-time pause clients observe
  per transition) and ``staleness.cache_lag`` (versions behind the
  acknowledged head).
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

This module holds the tracer, its switch and the disabled path.  The
live span, the ring records, :class:`Histogram`, the exporters, the fold
writer and the report live in :mod:`repro.obs_export`, which loads on
first use, so an untraced ``repro run`` never compiles them.  Their
names stay importable from here.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

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


class _NullSpan:
    """Reusable no-op context manager handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


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
    def _stack(self) -> List[Any]:
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
        """Turn on collection (clearing old data unless ``reset=False``).
        Loads the recording machinery here rather than inside the first
        span, so no traced phase pays for compiling it."""
        _export()
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
        self._stream.write(json.dumps(_export().trace_event(rec)) + "\n")

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
        return _export().Span(self, name, args)

    def event(self, name: str, **args: Any) -> None:
        """Record an instant semantic event into the ring (and bump the
        same-named counter).  Callers on hot paths must guard with
        ``if TRACER.enabled:`` — this method assumes it is only reached
        while enabled."""
        with self._lock:
            self.observations += 1
            self.counters[name] = self.counters.get(name, 0) + 1
            rec = _export().InstantRecord(
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

    def _histogram_locked(self, name: str) -> "Histogram":
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = _export().Histogram(name)
        return h

    def histogram(self, name: str) -> "Histogram":
        with self._lock:
            return self._histogram_locked(name)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into a named histogram."""
        with self._lock:
            self.observations += 1
            self._histogram_locked(name).observe(value)

    # ------------------------------------------------------------------
    # exporters and report (repro/obs_export.py, loaded on first use)
    # ------------------------------------------------------------------

    def span_tree(self) -> List[Tuple[Tuple[str, ...], int, int]]:
        return _export().span_tree(self)

    def to_chrome_trace(self) -> Dict[str, Any]:
        return _export().to_chrome_trace(self)

    def write_chrome_trace(self, path: str) -> None:
        _export().write_chrome_trace(self, path)

    def to_collapsed(self, weight: str = "us") -> str:
        return _export().to_collapsed(self, weight)

    def write_collapsed(self, path: str, weight: str = "us") -> None:
        _export().write_collapsed(self, path, weight)

    def format_phases(self) -> str:
        return _export().format_phases(self)

    def format_events(self) -> str:
        return _export().format_events(self)


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


#: Names that live in :mod:`repro.obs_export`, importable from here.
_EXPORTED = frozenset(
    ("SpanRecord", "InstantRecord", "Histogram", "HISTOGRAM_SAMPLES",
     "DEFAULT_BUCKETS", "fold_label", "format_folds", "format_report")
)
_EXPORT = None


def _export():
    """:mod:`repro.obs_export`, loaded by the first traced span, event or
    histogram, export or report (an untraced run needs none of them)."""
    global _EXPORT
    if _EXPORT is None:
        from . import obs_export

        _EXPORT = obs_export
    return _EXPORT


def __getattr__(name: str) -> Any:
    if name in _EXPORTED:
        return getattr(_export(), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
