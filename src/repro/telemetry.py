"""Request-scoped telemetry: trace contexts and labeled metrics.

:mod:`repro.obs` is a process-global tracer — great for one pipeline run,
blind to *which request* a span or counter belongs to.  This module adds
the request-scoped layer on top of it:

* :class:`TraceContext` — a W3C-trace-context-shaped identity (128-bit
  trace id + 64-bit span id + optional parent).  Contexts are derived
  **deterministically** from a seeded :class:`repro.chaos.Rng`
  (:meth:`TraceContext.from_rng`), so two CorONA chaos replays with the
  same seed produce byte-identical trace-id sequences, and the check
  service hands every JSONL request a ``traceparent`` that clients can
  also supply inbound (:meth:`TraceContext.parse`, which accepts only
  the exact lowercase-hex ``00-<32>-<16>-<2>`` shape).
* :class:`MetricsRegistry` — labeled counters / gauges / histograms with
  **bounded label cardinality** (beyond :data:`MAX_SERIES_PER_FAMILY`
  distinct label sets per family, further series collapse into an
  ``overflow="true"`` bucket — misbehaving label values can never grow
  memory without bound).  Histogram series are
  :class:`repro.obs.Histogram` built with the fixed
  :data:`~repro.obs.DEFAULT_BUCKETS` bounds.  Snapshots are JSON-able
  and cumulative (scrapes never reset state).
  :meth:`MetricsRegistry.exposition` renders Prometheus text format
  0.0.4, returned by the ``metrics`` op of ``repro serve`` when asked
  with ``exposition: true``.  :func:`validate_exposition` is the
  checker both the tests and ``scripts/metrics_smoke.py`` run against a
  scrape.

Request spans carry their trace identity as ``trace_id`` / ``span_id``
args, so it shows in the Chrome trace and the JSONL stream of
:mod:`repro.obs`.

Everything here is pure stdlib and allocation-light: registries are flat
dicts keyed by ``(name, sorted-label-items)``, histogram buckets are
fixed lists, and nothing in this module touches the tracer's disabled
hot path.
"""

from __future__ import annotations

import hashlib
import re
import threading
from typing import Any, Dict, List, Optional, Tuple

from .obs import DEFAULT_BUCKETS, Histogram
from .records import Frozen

_set = object.__setattr__

__all__ = [
    "TraceContext",
    "MetricsRegistry",
    "MAX_SERIES_PER_FAMILY",
    "validate_exposition",
]


# ----------------------------------------------------------------------
# trace context
# ----------------------------------------------------------------------

_TRACE_MASK = (1 << 128) - 1
_SPAN_MASK = (1 << 64) - 1

_TRACEPARENT_RE = re.compile(r"00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}")


class TraceContext(Frozen):
    """A request's trace identity: 128-bit trace id, 64-bit span id, and
    the parent span id when this context was derived via :meth:`child`.

    The wire rendering follows the W3C ``traceparent`` shape
    (``00-<32 hex>-<16 hex>-01``) so the ids paste straight into any
    OTLP-speaking tool."""

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(self, trace_id: int, span_id: int, parent_id: Optional[int] = None) -> None:
        _set(self, "trace_id", trace_id)
        _set(self, "span_id", span_id)
        _set(self, "parent_id", parent_id)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.trace_id == other.trace_id
                and self.span_id == other.span_id
                and self.parent_id == other.parent_id
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.parent_id))

    @classmethod
    def from_rng(cls, rng: Any) -> "TraceContext":
        """Draw a fresh root context from a seeded
        :class:`repro.chaos.Rng` — fully deterministic, so replays with
        the same seed regenerate the same id sequence.  All-zero ids are
        forbidden by the W3C format; nudge them to 1."""
        trace_id = int.from_bytes(rng.randbytes(16), "big") & _TRACE_MASK
        span_id = int.from_bytes(rng.randbytes(8), "big") & _SPAN_MASK
        return cls(trace_id or 1, span_id or 1)

    def child(self, label: str) -> "TraceContext":
        """A child span context: same trace, new span id derived by
        hashing ``(trace, span, label)`` — stable across replays."""
        digest = hashlib.blake2b(
            f"{self.trace_id:032x}:{self.span_id:016x}:{label}".encode(),
            digest_size=8,
        ).digest()
        span_id = int.from_bytes(digest, "big") & _SPAN_MASK
        return TraceContext(self.trace_id, span_id or 1, parent_id=self.span_id)

    @property
    def hex_trace(self) -> str:
        return f"{self.trace_id:032x}"

    @property
    def hex_span(self) -> str:
        return f"{self.span_id:016x}"

    @property
    def traceparent(self) -> str:
        return f"00-{self.hex_trace}-{self.hex_span}-01"

    @classmethod
    def parse(cls, traceparent: str) -> "TraceContext":
        """Parse a ``traceparent`` header value; raises ``ValueError`` on
        anything that is not exactly ``00-<32 hex>-<16 hex>-<2 hex>`` in
        lowercase, or that carries an all-zero id."""
        m = _TRACEPARENT_RE.fullmatch(traceparent)
        if m is None:
            raise ValueError(f"malformed traceparent {traceparent!r}")
        trace_id = int(m.group(1), 16)
        span_id = int(m.group(2), 16)
        if not trace_id or not span_id:
            raise ValueError(f"all-zero ids in traceparent {traceparent!r}")
        return cls(trace_id, span_id)


# ----------------------------------------------------------------------
# labeled metrics
# ----------------------------------------------------------------------

#: Distinct label sets retained per metric family; further series fold
#: into the ``overflow="true"`` bucket and bump ``dropped_series``.
MAX_SERIES_PER_FAMILY = 64

_OVERFLOW_KEY: Tuple[Tuple[str, str], ...] = (("overflow", "true"),)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


class _Family:
    __slots__ = ("name", "kind", "help", "series")

    def __init__(self, name: str, kind: str, help_: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_
        #: label-items tuple -> float (counter/gauge) or obs.Histogram
        self.series: Dict[Tuple[Tuple[str, str], ...], Any] = {}


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Labeled counters, gauges, and histograms with bounded cardinality.

    Thread-safe (one lock; every mutation is a handful of dict ops) and
    cumulative: scrapes read a consistent :meth:`snapshot` or
    :meth:`exposition` without resetting anything, so any number of
    scrapers can watch one registry (delta computation is the reader's
    job)."""

    def __init__(self, max_series: int = MAX_SERIES_PER_FAMILY) -> None:
        self.max_series = max_series
        self.dropped_series = 0
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- internals ------------------------------------------------------

    def _family(self, name: str, kind: str, help_: str) -> _Family:
        fam = self._families.get(name)
        if fam is None:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid metric name {name!r}")
            fam = self._families[name] = _Family(name, kind, help_)
        elif fam.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind}, not {kind}"
            )
        return fam

    def _series_key(
        self, fam: _Family, labels: Dict[str, Any]
    ) -> Tuple[Tuple[str, str], ...]:
        key = _label_key(labels)
        if key not in fam.series and len(fam.series) >= self.max_series:
            self.dropped_series += 1
            return _OVERFLOW_KEY
        return key

    # -- writers --------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, help: str = "", **labels: Any) -> None:
        """Add ``value`` to the counter series ``name{labels}``."""
        with self._lock:
            fam = self._family(name, "counter", help)
            key = self._series_key(fam, labels)
            fam.series[key] = fam.series.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, help: str = "", **labels: Any) -> None:
        """Set the gauge series ``name{labels}`` to ``value``."""
        with self._lock:
            fam = self._family(name, "gauge", help)
            fam.series[self._series_key(fam, labels)] = value

    def observe(self, name: str, value: float, help: str = "", **labels: Any) -> None:
        """Record ``value`` into the histogram series ``name{labels}``
        (bucketed by :data:`~repro.obs.DEFAULT_BUCKETS`)."""
        with self._lock:
            fam = self._family(name, "histogram", help)
            key = self._series_key(fam, labels)
            hist = fam.series.get(key)
            if hist is None:
                hist = fam.series[key] = Histogram(name, DEFAULT_BUCKETS)
            hist.observe(value)

    # -- readers --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able, cumulative view of every series.  Shape::

            {"counters":   [{"name", "labels", "value"}, ...],
             "gauges":     [ ... same ... ],
             "histograms": [{"name", "labels", "count", "sum",
                             "buckets": [[le, cum], ..., ["+Inf", n]]}],
             "dropped_series": int}
        """
        counters: List[Dict[str, Any]] = []
        gauges: List[Dict[str, Any]] = []
        histograms: List[Dict[str, Any]] = []
        with self._lock:
            for fam in sorted(self._families.values(), key=lambda f: f.name):
                for key in sorted(fam.series):
                    labels = dict(key)
                    if fam.kind == "histogram":
                        h = fam.series[key]
                        histograms.append(
                            {
                                "name": fam.name,
                                "labels": labels,
                                "count": h.count,
                                "sum": float(h.total),
                                "buckets": h.buckets(),
                            }
                        )
                    elif fam.kind == "counter":
                        counters.append(
                            {"name": fam.name, "labels": labels,
                             "value": fam.series[key]}
                        )
                    else:
                        gauges.append(
                            {"name": fam.name, "labels": labels,
                             "value": fam.series[key]}
                        )
            dropped = self.dropped_series
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "dropped_series": dropped,
        }

    def exposition(self) -> str:
        """Prometheus text format 0.0.4 (``# HELP`` / ``# TYPE`` headers,
        ``_bucket``/``_sum``/``_count`` histogram triplets, trailing
        newline)."""
        lines: List[str] = []
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
            for fam in families:
                if fam.help:
                    lines.append(f"# HELP {fam.name} {fam.help}")
                lines.append(f"# TYPE {fam.name} {fam.kind}")
                for key in sorted(fam.series):
                    if fam.kind == "histogram":
                        h = fam.series[key]
                        for le, cum in h.buckets():
                            le_txt = le if le == "+Inf" else _fmt_value(le)
                            lines.append(
                                f"{fam.name}_bucket"
                                f"{_fmt_labels(key + (('le', str(le_txt)),))}"
                                f" {cum}"
                            )
                        lines.append(
                            f"{fam.name}_sum{_fmt_labels(key)}"
                            f" {_fmt_value(float(h.total))}"
                        )
                        lines.append(f"{fam.name}_count{_fmt_labels(key)} {h.count}")
                    else:
                        lines.append(
                            f"{fam.name}{_fmt_labels(key)}"
                            f" {_fmt_value(fam.series[key])}"
                        )
            lines.append(
                f"# TYPE repro_metrics_dropped_series counter"
            )
            lines.append(f"repro_metrics_dropped_series {self.dropped_series}")
        return "\n".join(lines) + "\n"


def _fmt_value(v: float) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return repr(v) if isinstance(v, float) else str(v)


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _fmt_labels(items: Tuple[Tuple[str, str], ...]) -> str:
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in items)
    return "{" + body + "}"


# ----------------------------------------------------------------------
# exposition validation (tests + scripts/metrics_smoke.py)
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>NaN|[+-]?Inf|[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)$"
)
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def validate_exposition(text: str) -> List[str]:
    """Check a Prometheus text-format scrape; returns a list of problems
    (empty = valid).  Checks: trailing newline, sample-line syntax, label
    syntax, ``# TYPE`` declared before a family's first sample,
    cumulative (monotone) histogram buckets, and ``_count`` equal to the
    ``+Inf`` bucket."""
    problems: List[str] = []
    if not text.endswith("\n"):
        problems.append("exposition must end with a newline")
    typed: Dict[str, str] = {}
    # (histogram base name, label key minus le) -> [(le, cum), ...]
    buckets: Dict[Tuple[str, Tuple[str, ...]], List[Tuple[float, float]]] = {}
    counts: Dict[Tuple[str, Tuple[str, ...]], float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            problems.append(f"line {lineno}: blank line")
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                kind = parts[3] if len(parts) > 3 else ""
                if kind not in ("counter", "gauge", "histogram", "summary",
                                "untyped"):
                    problems.append(
                        f"line {lineno}: unknown metric type {kind!r}"
                    )
                typed[parts[2]] = kind
            elif len(parts) >= 2 and parts[1] not in ("HELP", "TYPE"):
                problems.append(f"line {lineno}: unknown comment {parts[1]!r}")
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            problems.append(f"line {lineno}: malformed sample {line!r}")
            continue
        name = m.group("name")
        label_text = m.group("labels")
        labels: Dict[str, str] = {}
        if label_text:
            for item in _split_labels(label_text[1:-1]):
                if not _LABEL_RE.match(item):
                    problems.append(f"line {lineno}: malformed label {item!r}")
                else:
                    k, _, v = item.partition("=")
                    labels[k] = v[1:-1]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                base = name[: -len(suffix)]
                break
        if base not in typed:
            problems.append(
                f"line {lineno}: sample for {name!r} before its # TYPE line"
            )
        if name.endswith("_bucket") and base != name:
            le = labels.get("le")
            if le is None:
                problems.append(f"line {lineno}: _bucket sample without le label")
            else:
                key = (
                    base,
                    tuple(sorted(f"{k}={v}" for k, v in labels.items() if k != "le")),
                )
                bound = float("inf") if le == "+Inf" else float(le)
                buckets.setdefault(key, []).append((bound, float(m.group("value"))))
        elif name.endswith("_count") and base != name:
            key = (base, tuple(sorted(f"{k}={v}" for k, v in labels.items())))
            counts[key] = float(m.group("value"))
    for key, rows in buckets.items():
        rows.sort(key=lambda r: r[0])
        cums = [cum for _, cum in rows]
        if cums != sorted(cums):
            problems.append(f"histogram {key[0]}{list(key[1])}: buckets not cumulative")
        if rows and rows[-1][0] != float("inf"):
            problems.append(f"histogram {key[0]}{list(key[1])}: missing +Inf bucket")
        total = counts.get(key)
        if total is not None and rows and rows[-1][1] != total:
            problems.append(
                f"histogram {key[0]}{list(key[1])}: _count {total} != +Inf "
                f"bucket {rows[-1][1]}"
            )
    return problems


def _split_labels(body: str) -> List[str]:
    """Split ``k1="v1",k2="v2"`` on commas outside quotes."""
    items: List[str] = []
    depth_quote = False
    cur: List[str] = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\" and depth_quote:
            cur.append(body[i : i + 2])
            i += 2
            continue
        if c == '"':
            depth_quote = not depth_quote
        if c == "," and not depth_quote:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(c)
        i += 1
    if cur:
        items.append("".join(cur))
    return items

