"""Trace-context derivation, the labeled metrics registry, and Prometheus
exposition (:mod:`repro.telemetry`).

The serve/CorONA integration of these pieces is covered in
tests/test_serve.py and tests/test_corona_chaos.py; here we pin the
substrate itself: determinism of id derivation, exposition-format
validity, and bounded label cardinality.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.chaos import Rng
from repro.obs import DEFAULT_BUCKETS
from repro.telemetry import (
    MAX_SERIES_PER_FAMILY,
    MetricsRegistry,
    TraceContext,
    validate_exposition,
)


# ----------------------------------------------------------------------
# TraceContext
# ----------------------------------------------------------------------


class TestTraceContext:
    def test_from_rng_is_deterministic(self):
        a = [TraceContext.from_rng(Rng(42).fork("t")) for _ in range(1)][0]
        b = TraceContext.from_rng(Rng(42).fork("t"))
        assert a == b
        c = TraceContext.from_rng(Rng(43).fork("t"))
        assert a != c

    def test_traceparent_round_trip(self):
        ctx = TraceContext.from_rng(Rng(1))
        parsed = TraceContext.parse(ctx.traceparent)
        assert parsed.trace_id == ctx.trace_id
        assert parsed.span_id == ctx.span_id

    def test_traceparent_shape(self):
        ctx = TraceContext.from_rng(Rng(5))
        parts = ctx.traceparent.split("-")
        assert parts[0] == "00" and parts[3] == "01"
        assert len(parts[1]) == 32 and len(parts[2]) == 16
        assert int(parts[1], 16) == ctx.trace_id

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "00-zz-11-01",
            "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace id
            "00-" + "1" * 32 + "-" + "0" * 16 + "-01",  # all-zero span id
            "01-" + "1" * 32 + "-" + "2" * 16 + "-01",  # unknown version
            "00-" + "1" * 31 + "-" + "2" * 16 + "-01",  # short trace id
            # int(..., 16) alone accepts each of these
            "00-0123456789abcdef_123456789abcdef-0123456789abcdef-01",
            "00-" + "A" * 32 + "-" + "B" * 16 + "-01",  # uppercase hex
            "00-" + "1" * 32 + "-" + "2" * 16 + "-zz",  # non-hex flags
            "00- " + "1" * 31 + "-" + "2" * 16 + "-01",  # space inside id
            "00-+" + "1" * 31 + "-" + "2" * 16 + "-01",  # sign inside id
        ],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            TraceContext.parse(bad)

    def test_child_shares_trace_and_links_parent(self):
        ctx = TraceContext.from_rng(Rng(2))
        kid = ctx.child("attempt0")
        assert kid.trace_id == ctx.trace_id
        assert kid.parent_id == ctx.span_id
        assert kid.span_id != ctx.span_id
        # derivation is a pure function of (trace, span, label)
        assert kid == ctx.child("attempt0")
        assert kid != ctx.child("attempt1")


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.inc("req_total", op="check")
        reg.inc("req_total", op="check")
        reg.inc("req_total", op="edit")
        snap = reg.snapshot()
        by = {tuple(sorted(c["labels"].items())): c["value"]
              for c in snap["counters"]}
        assert by[(("op", "check"),)] == 2.0
        assert by[(("op", "edit"),)] == 1.0

    def test_gauge_is_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("sessions", 3)
        reg.set_gauge("sessions", 1)
        (g,) = reg.snapshot()["gauges"]
        assert g["value"] == 1.0

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        for v in (0.0001, 0.002, 0.002, 9.0):
            reg.observe("lat", v, op="run")
        (h,) = reg.snapshot()["histograms"]
        assert h["count"] == 4
        assert h["sum"] == pytest.approx(9.0041)
        cum = dict((str(le), n) for le, n in h["buckets"])
        assert cum["0.0005"] == 1
        assert cum["0.0025"] == 3
        assert cum["+Inf"] == 4
        # monotone non-decreasing
        counts = [n for _, n in h["buckets"]]
        assert counts == sorted(counts)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(ValueError):
            reg.set_gauge("x", 1)

    def test_cardinality_overflow_folds_into_overflow_series(self):
        reg = MetricsRegistry()
        for i in range(MAX_SERIES_PER_FAMILY + 10):
            reg.inc("wide", key=str(i))
        snap = reg.snapshot()
        assert snap["dropped_series"] == 10
        series = {tuple(sorted(c["labels"].items())): c["value"]
                  for c in snap["counters"]}
        assert series[(("overflow", "true"),)] == 10.0
        # exactly the cap of real series plus the overflow bucket
        assert len(series) == MAX_SERIES_PER_FAMILY + 1

    def test_exposition_validates_clean(self):
        reg = MetricsRegistry()
        reg.inc("req_total", op="check", help="requests served")
        reg.set_gauge("sessions", 2, help="live sessions")
        reg.observe("lat_seconds", 0.004, op="check")
        text = reg.exposition()
        assert validate_exposition(text) == []
        assert "# TYPE req_total counter" in text
        assert 'req_total{op="check"} 1' in text
        assert 'lat_seconds_bucket{op="check",le="+Inf"} 1' in text
        assert 'lat_seconds_count{op="check"} 1' in text

    def test_exposition_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.inc("weird", path='a"b\\c\nd')
        text = reg.exposition()
        assert validate_exposition(text) == []
        assert '\\"' in text and "\\n" in text

    def test_validate_catches_broken_exposition(self):
        assert validate_exposition("no trailing newline")
        bad = '# TYPE x counter\nx{op="a} 1\n'
        assert any("label" in p or "sample" in p
                   for p in validate_exposition(bad))
        shrinking = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\nh_count 3\n"
        )
        assert any("monoton" in p or "cumulative" in p
                   for p in validate_exposition(shrinking))


# ----------------------------------------------------------------------
# byte goldens: scrapers and the metrics op read these bytes, so any
# change to them is a format change
# ----------------------------------------------------------------------

GOLDEN_DIR = Path(__file__).parent / "golden"


def _golden_registry() -> MetricsRegistry:
    """Counters with escaped label values, gauges, a histogram with
    values on bucket bounds and past the last bound, and one family past
    the series cap."""
    reg = MetricsRegistry()
    reg.inc("req_total", help="requests served", op="check", outcome="ok")
    reg.inc("req_total", value=2.5, op="edit", outcome="error")
    reg.inc("weird_total", help="escaped labels", path='a"b\\c\nd')
    reg.set_gauge("sessions", 3, help="live sessions")
    reg.set_gauge("sessions", 1.25, kind="idle")
    for v in (DEFAULT_BUCKETS[0], DEFAULT_BUCKETS[3], DEFAULT_BUCKETS[-1],
              0.0001, 0.007, 3.0, 10):
        reg.observe("lat_seconds", v, help="latency by op", op="run")
    reg.observe("lat_seconds", 0.0025, op="check")
    for i in range(MAX_SERIES_PER_FAMILY + 3):
        reg.inc("wide_total", key=f"k{i:02d}")
    return reg


class TestGoldens:
    def test_exposition_bytes(self):
        text = _golden_registry().exposition()
        assert validate_exposition(text) == []
        assert text == (GOLDEN_DIR / "metrics_exposition.txt").read_text()

    def test_snapshot_bytes(self):
        text = json.dumps(_golden_registry().snapshot(), sort_keys=True)
        golden = (GOLDEN_DIR / "metrics_snapshot.json").read_text()
        assert text == golden.rstrip("\n")
