"""Tests for the observability layer (src/repro/obs.py, ISSUE 3).

Covers the tracer primitives (span nesting/reentrancy, counter
accumulation, the bounded event ring), the Chrome-trace exporter schema,
the unified report, and the differential guarantee that tracing never
changes behavior: run results and diagnostics are byte-identical with
tracing on and off.
"""

import json

import pytest

from repro import check_source, compile_program, obs
from repro.obs import (
    DEFAULT_RING_CAPACITY,
    InstantRecord,
    SpanRecord,
    Tracer,
    format_report,
)

VIEWS_PROGRAM = """
class A { class C { int v = 7; class D { } } }
class B extends A { class C shares A.C { int twice() { return v * 2; } } }
class Main {
  int main() {
    A!.C a = new A.C();
    B!.C b = (view B!.C)a;
    int acc = 0;
    for (int i = 0; i < 10; i = i + 1) { acc = acc + b.twice(); }
    Sys.print(acc);
    return acc;
  }
}
"""

BROKEN_PROGRAM = """
class Main {
  int main() { return y; }
  boolean b() { return 1 + true; }
}
"""


@pytest.fixture(autouse=True)
def _tracer_restored():
    """Never leak an enabled process tracer into other tests."""
    yield
    obs.disable()
    obs.TRACER.reset()


class TestSpans:
    def test_span_records_duration_and_path(self):
        t = Tracer()
        t.enable()
        with t.span("outer"):
            with t.span("inner"):
                pass
        tree = t.span_tree()
        paths = [path for path, _, _ in tree]
        assert ("outer",) in paths and ("outer", "inner") in paths
        for _, count, total_ns in tree:
            assert count == 1 and total_ns >= 0

    def test_nested_spans_attribute_to_call_path(self):
        t = Tracer()
        t.enable()
        with t.span("a"):
            with t.span("b"):
                pass
        with t.span("b"):
            pass
        agg = dict((path, count) for path, count, _ in t.span_tree())
        assert agg[("a", "b")] == 1
        assert agg[("b",)] == 1  # same name, different path: separate row

    def test_reentrant_same_name_spans(self):
        t = Tracer()
        t.enable()
        with t.span("phase"):
            with t.span("phase"):
                with t.span("phase"):
                    pass
        agg = {path: count for path, count, _ in t.span_tree()}
        assert agg[("phase",)] == 1
        assert agg[("phase", "phase")] == 1
        assert agg[("phase", "phase", "phase")] == 1
        assert not t._stack  # fully unwound

    def test_span_exits_cleanly_on_exception(self):
        t = Tracer()
        t.enable()
        with pytest.raises(ValueError):
            with t.span("outer"):
                with t.span("inner"):
                    raise ValueError("boom")
        assert not t._stack
        assert {path for path, _, _ in t.span_tree()} == {
            ("outer",),
            ("outer", "inner"),
        }

    def test_span_durations_feed_histograms(self):
        t = Tracer()
        t.enable()
        for _ in range(3):
            with t.span("work"):
                pass
        h = t.histograms["span.work"]
        assert h.count == 3
        assert h.min is not None and h.min <= h.mean <= h.max

    def test_disabled_span_is_shared_noop(self):
        t = Tracer()
        s1 = t.span("x")
        s2 = t.span("y", unit="z")
        assert s1 is s2  # the reusable null context manager
        with s1:
            pass
        assert not t.span_tree() and not t.events and not t.counters


class TestCountersAndRing:
    def test_counters_accumulate_exactly(self):
        t = Tracer()
        t.enable()
        for _ in range(10_000):
            t.count("hot")
        t.count("hot", 2**62)  # far beyond any fixed-width counter
        t.count("hot", 2**62)
        assert t.counters["hot"] == 10_000 + 2**63

    def test_event_bumps_counter_and_ring(self):
        t = Tracer()
        t.enable()
        t.event("view_change.explicit", source="A.C", target="B!.C")
        assert t.counters["view_change.explicit"] == 1
        rec = t.events[-1]
        assert isinstance(rec, InstantRecord)
        assert dict(rec.args) == {"source": "A.C", "target": "B!.C"}

    def test_ring_is_bounded(self):
        t = Tracer(ring_capacity=8)
        t.enable()
        for i in range(100):
            t.event("e", i=i)
        assert len(t.events) == 8
        assert t.counters["e"] == 100  # aggregates unaffected by drops
        assert dict(t.events[-1].args) == {"i": 99}

    def test_default_ring_capacity(self):
        assert Tracer().events.maxlen == DEFAULT_RING_CAPACITY

    def test_histogram_observe(self):
        t = Tracer()
        t.enable()
        for v in (5, 1, 3):
            t.observe("sizes", v)
        h = t.histograms["sizes"]
        assert (h.count, h.total, h.min, h.max) == (3, 9, 1, 5)
        assert h.mean == 3.0

    def test_reset_clears_everything(self):
        t = Tracer()
        t.enable()
        with t.span("s"):
            t.count("c")
            t.event("e")
        t.reset()
        assert not t.events and not t.counters and not t.histograms
        assert not t.span_tree() and t.observations == 0


class TestChromeTrace:
    def _traced_run(self):
        obs.enable()
        program = compile_program(VIEWS_PROGRAM)
        interp = program.interp(mode="jns")
        interp.run("Main.main")
        obs.disable()
        return obs.TRACER.to_chrome_trace()

    def test_schema(self):
        trace = self._traced_run()
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert trace["otherData"]["events_dropped"] == 0
        events = trace["traceEvents"]
        assert events, "a traced run must record events"
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert spans and instants
        for e in spans:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(e)
            assert isinstance(e["ts"], float) and isinstance(e["dur"], float)
            assert e["dur"] >= 0 and e["ts"] >= 0
        for e in instants:
            assert {"name", "ph", "ts", "s", "pid", "tid"} <= set(e)
            assert e["s"] == "t"
        # every pipeline phase shows up as a span
        names = {e["name"] for e in spans}
        for phase in ("lex", "parse", "resolve", "typecheck", "load", "run"):
            assert phase in names, f"missing phase span {phase}"

    def test_semantic_events_present(self):
        trace = self._traced_run()
        instants = {e["name"] for e in trace["traceEvents"] if e["ph"] == "i"}
        assert "view_change.explicit" in instants

    def test_json_round_trip_and_write(self, tmp_path):
        trace = self._traced_run()
        assert json.loads(json.dumps(trace)) == trace
        out = tmp_path / "trace.json"
        obs.TRACER.write_chrome_trace(str(out))
        assert json.loads(out.read_text())["traceEvents"]

    def test_spans_nest_by_containment(self):
        """Perfetto infers nesting from time containment on one tid: every
        child span must lie within its parent's [ts, ts+dur] interval."""
        obs.enable()
        compile_program(VIEWS_PROGRAM)
        obs.disable()
        spans = {}
        for rec in obs.TRACER.events:
            if isinstance(rec, SpanRecord):
                spans.setdefault(rec.path, rec)
        for path, rec in spans.items():
            if len(path) < 2:
                continue
            parent = spans.get(path[:-1])
            assert parent is not None
            assert parent.start_ns <= rec.start_ns
            assert rec.start_ns + rec.dur_ns <= parent.start_ns + parent.dur_ns


class TestUnifiedReport:
    def test_report_sections(self):
        obs.enable()
        program = compile_program(VIEWS_PROGRAM)
        interp = program.interp(mode="jns")
        interp.run("Main.main")
        obs.disable()
        report = format_report(cache_stats=interp.cache_stats())
        assert "phase timings:" in report
        assert "semantic events:" in report
        assert "cache stats" in report
        # dispatch reads the class records: the loader's record table row
        assert "typecheck" in report and "loader.rtclass" in report

    def test_empty_report_is_printable(self):
        t = Tracer()
        text = format_report(t)
        assert "no spans recorded" in text and "none recorded" in text

    def test_to_dict_snapshot(self):
        """The aggregate snapshot is read through the report: span rows
        with their args, and counters."""
        t = Tracer()
        t.enable()
        with t.span("s", unit="u"):
            t.count("c", 3)
        t.disable()
        assert [path for path, _, _ in t.span_tree()] == [("s",)]
        row = t.format_phases().splitlines()[2]
        assert row.lstrip().startswith("s ") and row.endswith("  unit=u")
        assert t.format_events().splitlines()[1].split() == ["c", "3"]


class TestSpanArgs:
    """Per-span args in the phase-tree report (PR 3 follow-up)."""

    def test_args_rendered_in_phase_report(self):
        t = Tracer()
        t.enable()
        with t.span("run", unit="Main.main", mode="jns"):
            pass
        t.disable()
        report = t.format_phases()
        assert "unit=Main.main" in report
        assert "mode=jns" in report

    def test_argless_spans_unchanged(self):
        t = Tracer()
        t.enable()
        with t.span("build_sharing"):
            pass
        t.disable()
        line = [
            l for l in t.format_phases().splitlines() if "build_sharing" in l
        ][0]
        assert "=" not in line

    def test_distinct_values_bounded_with_overflow_marker(self):
        t = Tracer()
        t.enable()
        for i in range(obs.SPAN_ARG_VALUES + 3):
            with t.span("load", unit=f"C{i}"):
                pass
        t.disable()
        row = t.format_phases().splitlines()[2]
        kept = ",".join(f"C{i}" for i in range(obs.SPAN_ARG_VALUES))
        assert row.endswith(f"  unit={kept},…+3")

    def test_repeated_value_counted_once(self):
        t = Tracer()
        t.enable()
        for _ in range(5):
            with t.span("run", unit="Main.main"):
                pass
        t.disable()
        row = t.format_phases().splitlines()[2]
        assert row.endswith("  unit=Main.main")
        assert "…" not in row

    def test_to_dict_spans_carry_args_and_serialize(self):
        """Nested spans each render their own args in the phase tree."""
        t = Tracer()
        t.enable()
        with t.span("run", unit="Main.main"):
            with t.span("load", unit="Main"):
                pass
        t.disable()
        rows = t.format_phases().splitlines()[2:]
        assert rows[0].lstrip().startswith("run ")
        assert rows[0].endswith("  unit=Main.main")
        assert rows[1].lstrip().startswith("load ")
        assert rows[1].endswith("  unit=Main")

    def test_span_tree_signature_unchanged(self):
        t = Tracer()
        t.enable()
        with t.span("run", unit="Main.main"):
            pass
        t.disable()
        ((path, count, total),) = t.span_tree()
        assert path == ("run",) and count == 1 and total > 0

    def test_profile_report_shows_run_args(self):
        obs.enable()
        program = compile_program(VIEWS_PROGRAM)
        interp = program.interp(mode="jns")
        interp.run("Main.main")
        obs.disable()
        report = format_report()
        assert "unit=Main.main" in report and "mode=jns" in report


class TestDifferential:
    """Tracing must observe, never perturb."""

    def test_run_results_identical_trace_on_and_off(self):
        def run():
            program = compile_program(VIEWS_PROGRAM)
            interp = program.interp(mode="jns")
            result = interp.run("Main.main")
            return result, list(interp.output)

        baseline = run()
        obs.enable()
        traced = run()
        obs.disable()
        untraced = run()
        assert traced == baseline == untraced
        assert obs.TRACER.observations > 0  # tracing actually observed

    def test_diagnostics_identical_trace_on_and_off(self):
        baseline = check_source(BROKEN_PROGRAM, file="x.jns").to_json()
        obs.enable()
        traced = check_source(BROKEN_PROGRAM, file="x.jns").to_json()
        obs.disable()
        assert traced == baseline  # byte-identical JSON reports

    def test_compiled_backend_identical(self):
        def run():
            program = compile_program(VIEWS_PROGRAM)
            interp = program.interp(mode="jns", backend="codegen")
            return interp.run("Main.main"), list(interp.output)

        obs.enable()
        traced = run()
        obs.disable()
        assert traced == run()
        # emitted call sites count their inline-cache and devirtualized
        # hits as dispatch.codegen_hit
        assert obs.TRACER.counters.get("dispatch.codegen_hit", 0) > 0


class TestJsonlStreaming:
    """open_stream(path): every finished span and instant is written
    as one Chrome-trace event object per line, bypassing the ring bound."""

    def test_stream_has_one_chrome_event_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        t = Tracer()
        t.enable()
        t.open_stream(str(path))
        with t.span("parse", unit="Main"):
            t.event("view_change.explicit", target="B!.C")
        t.close_stream()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        events = [json.loads(line) for line in lines]
        # Instant is written when it happens — before the span finishes.
        assert [e["ph"] for e in events] == ["i", "X"]
        span = events[1]
        assert span["name"] == "parse" and span["args"]["unit"] == "Main"

    def test_stream_not_bounded_by_ring(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        t = Tracer(ring_capacity=4)
        t.enable()
        t.open_stream(str(path))
        for i in range(50):
            t.event("e", i=i)
        t.close_stream()
        assert len(t.events) == 4  # ring still bounded
        assert len(path.read_text().splitlines()) == 50  # stream kept all

    def test_stream_matches_ring_export_schema(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        t = Tracer()
        t.enable()
        t.open_stream(str(path))
        with t.span("lex"):
            pass
        t.close_stream()
        streamed = json.loads(path.read_text().splitlines()[0])
        ring = t.to_chrome_trace()["traceEvents"]
        span_events = [e for e in ring if e["ph"] == "X" and e["name"] == "lex"]
        assert streamed == span_events[0]

    def test_close_stream_idempotent(self, tmp_path):
        t = Tracer()
        t.open_stream(str(tmp_path / "x.jsonl"))
        t.close_stream()
        t.close_stream()  # no error

    def test_cli_trace_out_jsonl_streams(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        src = tmp_path / "p.jns"
        src.write_text(VIEWS_PROGRAM)
        out = tmp_path / "t.jsonl"
        assert cli_main(["run", str(src), "--trace-out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "streamed trace events" in err
        lines = out.read_text().splitlines()
        assert lines
        for line in lines[:5]:
            assert json.loads(line)["ph"] in ("X", "i")


class TestHistogramPercentiles:
    def test_small_series_percentiles_exact(self):
        h = obs.Histogram("h")
        for v in (10, 20, 30, 40, 50, 60, 70, 80, 90, 100):
            h.observe(v)
        assert h.p50 == 60  # index int(10*0.5)=5 of sorted samples
        assert h.p95 == 100
        assert h.percentile(0) == 10

    def test_empty_histogram_percentile_none(self):
        h = obs.Histogram("h")
        assert h.p50 is None and h.p95 is None

    def test_to_dict_includes_percentiles(self):
        h = obs.Histogram("h")
        for v in (1, 2, 3):
            h.observe(v)
        d = h.to_dict()
        assert d["p50"] == 2 and d["p95"] == 3
        assert d["count"] == 3 and d["max"] == 3

    def test_reservoir_decimates_deterministically(self):
        from repro.obs import HISTOGRAM_SAMPLES

        h = obs.Histogram("h")
        n = HISTOGRAM_SAMPLES * 4
        for v in range(n):
            h.observe(v)
        assert len(h._samples) <= HISTOGRAM_SAMPLES
        # Aggregates stay exact regardless of decimation.
        assert (h.count, h.min, h.max) == (n, 0, n - 1)
        # Percentiles stay close despite decimation (exactly reproducible
        # run to run: the reservoir keeps every stride-th observation).
        assert abs(h.p50 - n / 2) <= n * 0.1
        assert h.p95 >= n * 0.85

    def test_format_phases_has_percentile_columns(self):
        t = Tracer()
        t.enable()
        for _ in range(3):
            with t.span("lex"):
                pass
        text = t.format_phases()
        header = text.splitlines()[1]
        assert "p50" in header and "p95" in header
        row = next(line for line in text.splitlines() if "lex" in line)
        assert row.count("s") >= 2  # rendered durations, not "-"


class TestRingDropCounter:
    def test_events_dropped_counts_overwrites(self):
        t = Tracer(ring_capacity=4)
        t.enable()
        for i in range(10):
            t.event("tick")
        assert len(t.events) == 4
        assert t.events_dropped == 6
        assert t.counters["events_dropped"] == 6

    def test_chrome_trace_metadata_reports_drops(self):
        t = Tracer(ring_capacity=2)
        t.enable()
        for _ in range(5):
            t.event("tick")
        trace = t.to_chrome_trace()
        assert trace["otherData"]["events_dropped"] == 3

    def test_profile_report_shows_drops(self):
        t = Tracer(ring_capacity=2)
        t.enable()
        for _ in range(5):
            t.event("tick")
        report = format_report(tracer=t)
        assert "events_dropped" in report

    def test_no_drops_when_ring_fits(self):
        t = Tracer(ring_capacity=64)
        t.enable()
        for _ in range(10):
            t.event("tick")
        assert t.events_dropped == 0
        assert "events_dropped" not in t.counters


class TestThreadSafety:
    def test_concurrent_spans_and_counters_are_exact(self):
        import threading

        t = Tracer()
        t.enable()
        WORKERS, ITERS = 8, 250
        barrier = threading.Barrier(WORKERS)

        def work(w):
            barrier.wait()
            for i in range(ITERS):
                with t.span("outer", worker=w):
                    with t.span("inner"):
                        pass
                t.count("ticks")
                t.observe("lat_ms", float(i % 7))

        threads = [
            threading.Thread(target=work, args=(w,)) for w in range(WORKERS)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert all(not th.is_alive() for th in threads)
        total = WORKERS * ITERS
        # Aggregates are lock-guarded: no lost updates anywhere.
        assert t.counters["ticks"] == total
        # two spans + one count + one observe per iteration
        assert t.observations == 4 * total
        assert t.histograms["lat_ms"].count == total
        assert t.histograms["span.outer"].count == total
        by_path = {path: count for path, count, _ in t.span_tree()}
        assert by_path[("outer",)] == total
        assert by_path[("outer", "inner")] == total
        # Per-thread stacks: every span closed cleanly on its own thread.
        assert not t._stack

    def test_chrome_trace_tids_distinguish_threads(self):
        import threading

        t = Tracer()
        t.enable()
        # Hold all three threads alive together: tids are per live
        # thread, and the OS reuses idents of exited threads.
        barrier = threading.Barrier(3)

        def work():
            with t.span("phase"):
                barrier.wait(timeout=30)

        threads = [threading.Thread(target=work) for _ in range(3)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
        spans = [r for r in t.events if isinstance(r, SpanRecord)]
        assert len({r.tid for r in spans}) == 3
        trace = t.to_chrome_trace()
        names = [
            e for e in trace["traceEvents"]
            if e.get("name") == "thread_name"
        ]
        assert {e["args"]["name"] for e in names} == {
            "worker-1", "worker-2", "worker-3"
        }


class TestCollapsedStacks:
    def _tracer_with_tree(self):
        t = Tracer()
        t.enable()
        for _ in range(3):
            with t.span("check"):
                with t.span("resolve"):
                    pass
                with t.span("types"):
                    pass
        return t

    def test_folds_have_semicolon_paths_and_weights(self):
        t = self._tracer_with_tree()
        text = t.to_collapsed(weight="count")
        lines = dict(
            line.rsplit(" ", 1) for line in text.strip().splitlines()
        )
        assert lines["check"] == "3"
        assert lines["check;resolve"] == "3"
        assert lines["check;types"] == "3"

    def test_self_time_weights_subtract_children(self):
        t = self._tracer_with_tree()
        rows = {path: total for path, _, total in t.span_tree()}
        text = t.to_collapsed(weight="us")
        folds = {}
        for line in text.strip().splitlines():
            path, val = line.rsplit(" ", 1)
            folds[path] = int(val)
        child_ns = rows[("check", "resolve")] + rows[("check", "types")]
        expect_self_us = (rows[("check",)] - child_ns) // 1000
        assert folds["check"] == expect_self_us

    def test_write_collapsed(self, tmp_path):
        t = self._tracer_with_tree()
        out = tmp_path / "folds.txt"
        t.write_collapsed(str(out), weight="count")
        assert out.read_text() == t.to_collapsed(weight="count")

    def test_invalid_weight_rejected(self):
        t = self._tracer_with_tree()
        with pytest.raises(ValueError):
            t.to_collapsed(weight="bogus")

    def test_structural_characters_in_labels_are_escaped(self):
        # ';' separates frames and whitespace separates the stack from
        # its weight in the collapsed format — a span label containing
        # either must fold as ONE frame, not shear the line apart
        t = Tracer()
        t.enable()
        with t.span("check A; B"):
            with t.span("phase\ttwo words"):
                pass
        text = t.to_collapsed(weight="count")
        folds = dict(
            line.rsplit(" ", 1) for line in text.strip().splitlines()
        )
        assert folds["check_A:_B"] == "1"
        assert folds["check_A:_B;phase_two_words"] == "1"
        # every line is exactly "frames SPACE weight"
        for line in text.strip().splitlines():
            stack, value = line.rsplit(" ", 1)
            assert " " not in stack and int(value) >= 0

    def test_fold_writer_escapes_frames(self):
        assert obs.format_folds([]) == ""
        rows = [(("a b", "c;d"), 3), (("",), 0)]
        assert obs.format_folds(rows) == "a_b;c:d 3\n(anonymous) 0\n"

    def test_cli_flame_flag_writes_folds(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        src = tmp_path / "p.jns"
        src.write_text(VIEWS_PROGRAM)
        out = tmp_path / "flame.txt"
        assert cli_main(["run", str(src), "--flame", str(out)]) == 0
        capsys.readouterr()
        folds = out.read_text().strip().splitlines()
        assert folds
        assert all(
            line.rsplit(" ", 1)[1].isdigit() for line in folds
        )
        assert any(line.startswith("run") or "check" in line for line in folds)


class TestCollapsedGolden:
    """Byte goldens for the span fold: the replay tests compare count
    folds byte for byte, and flame tools parse these lines."""

    @staticmethod
    def _tree(t):
        with t.span("run"):
            with t.span("check A; B"):
                with t.span("eval"):
                    with t.span("eval"):
                        with t.span("eval"):
                            pass
                with t.span("eval"):
                    pass
            with t.span("load", unit="Main"):
                pass
        with t.span("lex"):
            pass
        with t.span("run"):
            with t.span("load"):
                pass

    def test_count_weights(self):
        t = Tracer()
        t.enable()
        self._tree(t)
        assert t.to_collapsed(weight="count") == (
            "lex 1\n"
            "run 2\n"
            "run;load 2\n"
            "run;check_A:_B 1\n"
            "run;check_A:_B;eval 2\n"
            "run;check_A:_B;eval;eval 1\n"
            "run;check_A:_B;eval;eval;eval 1\n"
        )

    def test_self_time_weights(self, monkeypatch):
        # a clock that advances 1 µs per read makes every duration exact
        ticks = iter(range(0, 10**9, 1000))
        monkeypatch.setattr(obs.time, "perf_counter_ns", lambda: next(ticks))
        t = Tracer()
        t.enable()
        self._tree(t)
        assert t.to_collapsed(weight="us") == (
            "lex 1\n"
            "run 5\n"
            "run;load 2\n"
            "run;check_A:_B 3\n"
            "run;check_A:_B;eval 3\n"
            "run;check_A:_B;eval;eval 2\n"
            "run;check_A:_B;eval;eval;eval 1\n"
        )
