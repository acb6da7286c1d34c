"""CorONA under chaos: acceptance tests of the live-evolution harness.

The headline scenario: one 64-node heap, concurrent fetch/publish
traffic on the virtual-time scheduler, live corona → pccorona →
beecorona evolution racing the traffic, and a seeded fuel fault that
trips JNS-RES-001 mid-request — with zero per-request oracle
violations and byte-identical replay from the seed."""

import json

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.errors import JnsResourceError
from repro.programs.corona import (
    ChaosCoronaDriver,
    feed_content,
    parse_feed,
    run_chaos,
)
from repro.runtime.interp import Interp

ACCEPTANCE = dict(
    nodes=64,
    objects=96,
    requests=400,
    seed=11,
    faults="fuel:77",
)

#: The acceptance scenario's outcome (the CI chaos smoke run), pinned so
#: a change to how the heap executes J&s cannot silently change what
#: the run does: same-seed replay equality alone would not notice.
ACCEPTANCE_DIGEST = (
    "cc85a9f750b39c52b43d2b071c824d5f6d4dac79a616e3c6899d2fe481297292"
)
ACCEPTANCE_COUNTERS = {
    "chaos.injected": 1,
    "chaos.injected.fuel": 1,
    "evolution.applied": 2,
    "fetch.ok": 350,
    "publish.ok": 50,
}


@pytest.fixture(autouse=True)
def _tracer_restored():
    yield
    obs.disable()
    obs.TRACER.reset()


def test_feed_content_roundtrip():
    assert parse_feed(feed_content(12, 7)) == (12, 7)
    assert parse_feed("garbage") is None
    assert parse_feed("feed-3") is None
    assert parse_feed(None) is None


class TestAcceptance:
    def test_full_evolution_under_chaos(self, monkeypatch):
        """The acceptance run: the fuel fault trips JNS-RES-001, the
        budget is reset and the request re-runs, the full evolution
        completes, zero oracle violations, zero failures."""
        resets = []
        reset_budget = Interp.reset_budget

        def spy(interp):
            resets.append(interp)
            reset_budget(interp)

        monkeypatch.setattr(Interp, "reset_budget", spy)
        report = run_chaos(**ACCEPTANCE)
        assert report.oracle_violations == []
        assert report.failures == []
        assert report.family == "beecorona"
        c = report.counters
        assert c["chaos.injected.fuel"] == 1
        assert len(resets) == 1
        assert c["fetch.ok"] + c["publish.ok"] == ACCEPTANCE["requests"]
        assert report.wall["requests_completed"] == ACCEPTANCE["requests"]
        assert c["evolution.applied"] == 2
        pause = report.histograms["evolution.pause_virtual_ms"]
        assert pause["count"] == 2
        assert pause["p95"] == 0.25 * ACCEPTANCE["nodes"]

    def test_outcome_matches_pinned_golden(self):
        report = run_chaos(**ACCEPTANCE)
        assert report.oracle_violations == []
        assert report.trace_digest == ACCEPTANCE_DIGEST
        assert report.counters == ACCEPTANCE_COUNTERS

    def test_byte_identical_replay(self):
        a = run_chaos(**ACCEPTANCE).to_json(include_wall=False)
        b = run_chaos(**ACCEPTANCE).to_json(include_wall=False)
        assert a == b

    def test_seed_changes_the_run(self):
        a = run_chaos(**{**ACCEPTANCE, "seed": 11}).to_json(include_wall=False)
        b = run_chaos(**{**ACCEPTANCE, "seed": 12}).to_json(include_wall=False)
        assert a != b


def test_a_request_that_trips_twice_is_a_failure(monkeypatch):
    """The fuel re-run happens once: a request whose re-run trips too is
    reported as a failure, and the run goes on."""
    serve = ChaosCoronaDriver._serve

    def tripping(self, rid, *rest):
        if rid == 5:
            raise JnsResourceError("budget exhausted")
        return serve(self, rid, *rest)

    monkeypatch.setattr(ChaosCoronaDriver, "_serve", tripping)
    report = run_chaos(nodes=16, objects=8, requests=40, seed=1)
    assert [(f["rid"], f["code"]) for f in report.failures] == [(5, "JNS-RES-001")]
    assert report.counters["requests.failed"] == 1
    assert report.wall["requests_completed"] == 39
    assert report.family == "beecorona"


class TestHeapIsolation:
    def test_store_rows_hold_their_own_feeds(self):
        driver = ChaosCoronaDriver(nodes=32, objects=24, requests=80, seed=5)
        report = driver.run()
        assert report.oracle_violations == []
        rows = driver.system.store_contents()
        assert {key for _node, key, _v, _c in rows} == set(range(24))
        for _node, key, version, content in rows:
            assert parse_feed(content) == (key, version)

    def test_isolation_oracle_detects_a_planted_breach(self):
        driver = ChaosCoronaDriver(nodes=32, objects=24, requests=40, seed=5)
        report = driver.run()
        assert report.oracle_violations == []
        # plant key 1's content under key 0 and re-check
        driver.system.publish(0, 1, feed_content(1, 1))
        driver._check_store()
        assert any(
            v["reason"] == "isolation-breach" for v in driver.oracle_violations
        )


class TestObservability:
    def test_counters_and_histograms_mirror_into_tracer(self):
        obs.enable()
        run_chaos(nodes=32, objects=24, requests=120, seed=7, faults="fuel:17")
        counters = obs.TRACER.counters
        assert counters.get("chaos.injected.fuel", 0) == 1
        assert counters.get("evolution.applied", 0) == 2
        assert "evolution.pause_virtual_ms" in obs.TRACER.histograms
        spans = {path[0] for path, _c, _ns in obs.TRACER.span_tree()}
        assert "corona.boot" in spans
        assert "corona.evolve" in spans

    def test_disabled_tracer_untouched(self):
        run_chaos(nodes=16, objects=8, requests=40, seed=1)
        assert obs.TRACER.counters == {}


class TestCli:
    ARGV = [
        "corona",
        "--nodes", "32", "--objects", "24",
        "--requests", "120", "--seed", "7",
        "--faults", "fuel:17",
    ]

    def test_exit_zero_and_json_deterministic(self, capsys):
        assert cli_main(self.ARGV + ["--json"]) == 0
        first = capsys.readouterr().out
        assert cli_main(self.ARGV + ["--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["oracle_violations"] == []
        assert "wall" not in payload  # replay surface excludes wall clock

    def test_human_output_mentions_faults(self, capsys):
        assert cli_main(self.ARGV) == 0
        out = capsys.readouterr().out
        assert "faults injected 1 (fuel 1)" in out
        assert "oracle violations: 0" in out

    def test_bad_plan_exits_2(self, capsys):
        """Unknown kinds exit 2, the retired ``crash:``/``drop:``/
        ``delay:`` ones included, so an old plan is never ignored."""
        for plan in ("frobnicate:9", "crash:1@30+120", "drop:0.05", "delay:0.1@6"):
            assert cli_main(["corona", "--faults", plan]) == 2
            err = capsys.readouterr().err
            assert "bad fault plan" in err
            assert f"unknown fault kind {plan.partition(':')[0]!r}" in err

    def test_oracle_violation_exits_1(self, monkeypatch, capsys):
        """A fetch that loses its feed is a violation, and any violation
        makes ``repro corona`` exit 1."""
        from repro.programs.corona.system import CoronaSystem

        monkeypatch.setattr(CoronaSystem, "fetch", lambda *args: None)
        assert cli_main(self.ARGV) == 1
        out = capsys.readouterr().out
        assert "'reason': 'lost'" in out
        assert "oracle violations: 0" not in out


class TestTraceDeterminism:
    SMALL = dict(nodes=64, objects=32, requests=80, seed=17)

    def _run(self, **over):
        cfg = {**self.SMALL, **over}
        driver = ChaosCoronaDriver(**cfg)
        report = driver.run()
        return driver, report

    def test_same_seed_same_trace_id_sequence(self):
        da, ra = self._run()
        db, rb = self._run()
        assert da.trace_ids == db.trace_ids
        assert len(da.trace_ids) == self.SMALL["requests"]
        assert len(set(da.trace_ids)) == self.SMALL["requests"]
        assert ra.trace_digest == rb.trace_digest
        assert len(ra.trace_digest) == 64

    def test_different_seed_different_digest(self):
        _, ra = self._run(seed=17)
        _, rb = self._run(seed=18)
        assert ra.trace_digest != rb.trace_digest

    def test_trace_digest_survives_json_round_trip(self):
        _, report = self._run()
        payload = json.loads(report.to_json(include_wall=False))
        assert payload["trace_digest"] == report.trace_digest

    def test_flamegraph_folds_replay_identically(self):
        """Two same-seed runs under an enabled tracer produce identical
        count-weighted collapsed stacks (wall-time weights differ)."""

        def folds():
            obs.TRACER.reset()
            obs.enable()
            try:
                self._run()
                return obs.TRACER.to_collapsed(weight="count")
            finally:
                obs.disable()
        a = folds()
        b = folds()
        assert a == b
        assert any(
            line.startswith("corona.request") for line in a.splitlines()
        )

    def test_request_spans_carry_trace_identity(self):
        obs.TRACER.reset()
        obs.enable()
        try:
            driver, _ = self._run()
        finally:
            obs.disable()
        from repro.obs import SpanRecord

        spans = [
            r for r in obs.TRACER.events
            if isinstance(r, SpanRecord) and r.name == "corona.request"
        ]
        assert spans
        for rec in spans:
            args = dict(rec.args)
            assert args["trace_id"] in driver.trace_ids
            assert len(args["span_id"]) == 16
            assert args["op"] in ("fetch", "publish")

    def test_labeled_request_metrics(self):
        """Every request ends ok or failed, as the report counts them."""
        _, report = self._run()
        completed = report.wall["requests_completed"]
        failed = report.counters.get("requests.failed", 0)
        assert completed + failed == self.SMALL["requests"]
        c = report.counters
        assert c["fetch.ok"] + c["publish.ok"] == completed
