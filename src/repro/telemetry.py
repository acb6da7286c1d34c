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
  and cumulative (scrapes never reset state); :func:`diff_snapshots`
  subtracts two snapshots for rate/p50/p95 windows, which is how
  ``repro top`` computes per-interval views.
  :meth:`MetricsRegistry.exposition` renders Prometheus text format
  0.0.4, served by the ``metrics`` op and ``repro serve
  --metrics-port``.  :func:`validate_exposition` is the
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
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .obs import DEFAULT_BUCKETS, Histogram

__all__ = [
    "TraceContext",
    "MetricsRegistry",
    "MAX_SERIES_PER_FAMILY",
    "diff_snapshots",
    "quantile_from_buckets",
    "validate_exposition",
    "render_top",
]


# ----------------------------------------------------------------------
# trace context
# ----------------------------------------------------------------------

_TRACE_MASK = (1 << 128) - 1
_SPAN_MASK = (1 << 64) - 1

_TRACEPARENT_RE = re.compile(r"00-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}")


@dataclass(frozen=True)
class TraceContext:
    """A request's trace identity: 128-bit trace id, 64-bit span id, and
    the parent span id when this context was derived via :meth:`child`.

    The wire rendering follows the W3C ``traceparent`` shape
    (``00-<32 hex>-<16 hex>-01``) so the ids paste straight into any
    OTLP-speaking tool."""

    trace_id: int
    span_id: int
    parent_id: Optional[int] = None

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
    job — see :func:`diff_snapshots`)."""

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
# snapshot arithmetic (delta windows for `repro top`)
# ----------------------------------------------------------------------


def _series_index(rows: List[Dict[str, Any]]) -> Dict[Tuple[Any, ...], Dict[str, Any]]:
    return {
        (row["name"], tuple(sorted(row["labels"].items()))): row for row in rows
    }


def diff_snapshots(prev: Dict[str, Any], cur: Dict[str, Any]) -> Dict[str, Any]:
    """``cur - prev`` for counters and histograms (gauges pass through
    unchanged — they are levels, not totals).  Series absent from
    ``prev`` diff against zero; a counter that went *backwards* (server
    restart) is passed through at its current value."""
    out: Dict[str, Any] = {"counters": [], "gauges": list(cur.get("gauges", [])),
                           "histograms": [],
                           "dropped_series": cur.get("dropped_series", 0)}
    prev_counters = _series_index(prev.get("counters", []))
    for row in cur.get("counters", []):
        key = (row["name"], tuple(sorted(row["labels"].items())))
        base = prev_counters.get(key, {}).get("value", 0.0)
        delta = row["value"] - base
        if delta < 0:
            delta = row["value"]
        out["counters"].append({**row, "value": delta})
    prev_hists = _series_index(prev.get("histograms", []))
    for row in cur.get("histograms", []):
        key = (row["name"], tuple(sorted(row["labels"].items())))
        base = prev_hists.get(key)
        if base is None or base["count"] > row["count"]:
            out["histograms"].append(dict(row))
            continue
        base_buckets = {le: cum for le, cum in base["buckets"]}
        out["histograms"].append(
            {
                **row,
                "count": row["count"] - base["count"],
                "sum": row["sum"] - base["sum"],
                "buckets": [
                    [le, cum - base_buckets.get(le, 0)]
                    for le, cum in row["buckets"]
                ],
            }
        )
    return out


def quantile_from_buckets(buckets: List[List[Any]], q: float) -> Optional[float]:
    """Estimate the q-quantile (0..1) from cumulative ``[le, count]``
    buckets by linear interpolation within the target bucket (the
    standard Prometheus ``histogram_quantile`` scheme).  Returns None on
    an empty histogram; clamps to the last finite bound when the target
    falls in the ``+Inf`` bucket."""
    if not buckets:
        return None
    total = buckets[-1][1]
    if total <= 0:
        return None
    rank = q * total
    prev_bound = 0.0
    prev_cum = 0
    last_finite: Optional[float] = None
    for le, cum in buckets:
        if le == "+Inf":
            return last_finite  # target beyond every finite bound
        bound = float(le)
        if cum >= rank and cum > prev_cum:
            frac = (rank - prev_cum) / (cum - prev_cum)
            return prev_bound + (bound - prev_bound) * min(1.0, max(0.0, frac))
        prev_bound, prev_cum, last_finite = bound, cum, bound
    return last_finite


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


# ----------------------------------------------------------------------
# `repro top` frame rendering
# ----------------------------------------------------------------------


def _find(rows: List[Dict[str, Any]], name: str, **labels: str) -> List[Dict[str, Any]]:
    want = set(labels.items())
    return [
        r for r in rows
        if r["name"] == name and want <= set(r["labels"].items())
    ]


def render_top(
    resp: Dict[str, Any],
    prev: Optional[Dict[str, Any]] = None,
    dt: Optional[float] = None,
) -> str:
    """One ``repro top`` frame from a ``metrics`` op response (and the
    previous response, for delta rates).  Renders service uptime,
    sessions, req/s, a per-op table (count / rate / p50 / p95), cache
    hit rate, and incremental revalidation counts."""
    snap = resp.get("metrics", {})
    window = snap if prev is None else diff_snapshots(
        prev.get("metrics", {}), snap
    )
    lines: List[str] = []
    uptime = resp.get("uptime_s", 0.0)
    sessions = resp.get("sessions", [])
    total_req = resp.get("requests", 0)
    window_req = sum(
        r["value"] for r in window.get("counters", [])
        if r["name"] == "serve_requests_total"
    )
    if dt and dt > 0:
        rate_txt = f"{window_req / dt:8.1f} req/s"
    else:
        rate_txt = "     (first sample)"
    lines.append(
        f"repro top — uptime {uptime:7.1f}s   sessions {len(sessions):3d}   "
        f"requests {total_req:8d}   {rate_txt}"
    )
    lines.append("")
    # per-op table from the serve_request_seconds histograms
    hists = [
        r for r in window.get("histograms", [])
        if r["name"] == "serve_request_seconds"
    ]
    lines.append(f"  {'op':<10} {'count':>8} {'rate':>9} {'p50':>9} {'p95':>9}")
    if not hists:
        lines.append("  (no requests in window)")
    for row in sorted(hists, key=lambda r: -r["count"]):
        op = row["labels"].get("op", "?")
        count = row["count"]
        rate = f"{count / dt:8.1f}" if dt and dt > 0 else "       -"
        p50 = quantile_from_buckets(row["buckets"], 0.50)
        p95 = quantile_from_buckets(row["buckets"], 0.95)
        lines.append(
            "  {:<10} {:>8} {:>9} {:>9} {:>9}".format(
                op,
                count,
                rate,
                _fmt_secs(p50),
                _fmt_secs(p95),
            )
        )
    # outcome split
    ok = sum(
        r["value"]
        for r in _find(window.get("counters", []), "serve_requests_total",
                       outcome="ok")
    )
    err = sum(
        r["value"]
        for r in _find(window.get("counters", []), "serve_requests_total",
                       outcome="error")
    )
    lines.append("")
    lines.append(f"  outcomes: ok {int(ok)}  error {int(err)}")
    # per-session cache + incremental gauges (levels: read from cur snapshot)
    gauges = snap.get("gauges", [])
    cache_lines = []
    for sess in sessions:
        hits = sum(r["value"] for r in _find(gauges, "repro_query_cache_hits",
                                             session=sess))
        misses = sum(r["value"] for r in _find(gauges, "repro_query_cache_misses",
                                               session=sess))
        reval = sum(
            r["value"]
            for r in _find(gauges, "repro_query_cache_revalidations",
                           session=sess)
        )
        reused = sum(
            r["value"]
            for r in _find(gauges, "repro_incr_check_classes",
                           session=sess, kind="reused")
        )
        recheck = sum(
            r["value"]
            for r in _find(gauges, "repro_incr_check_classes",
                           session=sess, kind="recomputed")
        )
        total = hits + misses
        hit_rate = f"{100.0 * hits / total:5.1f}%" if total else "    -"
        cache_lines.append(
            f"  {sess:<16} cache hit {hit_rate}  revalidated {int(reval):6d}  "
            f"classes reused {int(reused):4d} / rechecked {int(recheck):4d}"
        )
    if cache_lines:
        lines.append("")
        lines.append("  sessions:")
        lines.extend(cache_lines)
    dropped = snap.get("dropped_series", 0)
    if dropped:
        lines.append("")
        lines.append(f"  ! {dropped} metric series dropped (label overflow)")
    return "\n".join(lines)


def _fmt_secs(s: Optional[float]) -> str:
    if s is None:
        return "-"
    if s < 0.001:
        return f"{s * 1e6:.0f}µs"
    if s < 1.0:
        return f"{s * 1e3:.1f}ms"
    return f"{s:.2f}s"
