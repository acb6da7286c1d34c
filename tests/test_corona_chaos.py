"""Chaos-hardened CorONA acceptance tests (ISSUE 6 tentpole).

The headline scenario: ≥256 nodes across ≥4 sharded heaps, concurrent
fetch/publish traffic on the virtual-time scheduler, live corona →
pccorona → beecorona evolution racing the traffic, and crash / drop /
delay / fuel faults all active — with zero per-request oracle
violations, byte-identical replay from the seed, and kill-and-restart
recovery through the evolution journal."""

import json

import pytest

from repro import obs
from repro.chaos import FaultPlan, RetryPolicy
from repro.cli import main as cli_main
from repro.programs.corona import (
    ChaosCoronaDriver,
    DriverKilled,
    EvolutionJournal,
    feed_content,
    parse_feed,
    run_chaos,
)

ACCEPTANCE = dict(
    nodes=256,
    shards=4,
    objects=96,
    requests=400,
    seed=11,
    faults="crash:2@120+120,drop:0.02,delay:0.05@6,fuel:77",
)

#: The acceptance scenario's outcome (the CI chaos smoke run), pinned so
#: a change to how the shards execute J&s cannot silently change what
#: the run does: same-seed replay equality alone would not notice.
ACCEPTANCE_DIGEST = (
    "cc85a9f750b39c52b43d2b071c824d5f6d4dac79a616e3c6899d2fe481297292"
)
ACCEPTANCE_COUNTERS = {
    "chaos.injected": 22,
    "chaos.injected.crash": 1,
    "chaos.injected.delay": 14,
    "chaos.injected.drop": 6,
    "chaos.injected.fuel": 1,
    "chaos.recovered": 1,
    "chaos.restart": 1,
    "evolution.applied": 7,
    "evolution.deferred": 1,
    "fetch.ok": 350,
    "publish.ok": 47,
    "publish.superseded": 3,
    "retry.attempt": 176,
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
    def test_full_evolution_under_chaos(self):
        """The ISSUE acceptance run: all four fault kinds active, full
        evolution completes, zero oracle violations, zero failures."""
        report = run_chaos(**ACCEPTANCE)
        assert report.oracle_violations == []
        assert report.failures == []
        assert not report.killed
        assert all(s["family"] == "beecorona" for s in report.shards)
        c = report.counters
        assert c.get("chaos.injected.crash", 0) >= 1
        assert c.get("chaos.injected.drop", 0) >= 1
        assert c.get("chaos.injected.delay", 0) >= 1
        assert c.get("chaos.injected.fuel", 0) >= 1
        assert c.get("chaos.restart", 0) >= 1
        assert c.get("retry.attempt", 0) > 0
        # two transitions x four shards, split between the live path and
        # journal recovery on the crashed shard
        applied = c.get("evolution.applied", 0) + c.get("chaos.recovered", 0)
        assert applied == 2 * 4
        pause = report.histograms["evolution.pause_virtual_ms"]
        assert pause["count"] == c.get("evolution.applied", 0)
        assert pause["p95"] > 0

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


class TestKillAndRestart:
    ARGS = dict(nodes=32, shards=4, objects=24, requests=120, seed=7)

    def test_kill_mid_evolution_then_resume_completes(self):
        plan = FaultPlan.parse("delay:0.1@6")
        journal = EvolutionJournal()
        first = ChaosCoronaDriver(
            plan=plan, journal=journal, kill_after_prepare=(0, 2), **self.ARGS
        )
        r1 = first.run()
        assert r1.killed
        assert journal.pending(2) == ["corona->pccorona"]
        resumed = ChaosCoronaDriver(plan=plan, journal=journal, **self.ARGS)
        r2 = resumed.run()
        assert not r2.killed
        assert r2.oracle_violations == []
        assert all(s["family"] == "beecorona" for s in r2.shards)
        assert r2.counters.get("chaos.recovered", 0) >= 1
        assert journal.pending(2) == []

    def test_kill_during_traffic_leaves_replayable_journal_file(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        first = ChaosCoronaDriver(
            journal=EvolutionJournal(path=path), kill_at=180, **self.ARGS
        )
        r1 = first.run()
        assert r1.killed is True or r1.killed is False  # kill_at past end is a no-op
        # force a mid-evolution kill with persistence
        path2 = str(tmp_path / "journal2.jsonl")
        killed = ChaosCoronaDriver(
            journal=EvolutionJournal(path=path2),
            kill_after_prepare=(1, 1),
            **self.ARGS,
        )
        assert killed.run().killed
        loaded = EvolutionJournal.load(path2)
        assert loaded.pending(1) == ["pccorona->beecorona"]
        resumed = ChaosCoronaDriver(journal=loaded, **self.ARGS)
        r2 = resumed.run()
        assert r2.oracle_violations == []
        assert all(s["family"] == "beecorona" for s in r2.shards)
        # every recovery record landed in the file as well
        with open(path2) as f:
            records = [json.loads(line) for line in f if line.strip()]
        assert any(e.get("recovered") for e in records)

    def test_every_prepare_eventually_has_a_done(self):
        report = run_chaos(
            faults="crash:1@30+120,delay:0.05@4", **self.ARGS
        )
        seen = {}
        for e in report.journal:
            key = (e["shard"], e["transition"])
            seen.setdefault(key, set()).add(e["phase"])
        assert seen, "no evolution recorded"
        assert all({"prepare", "done"} <= phases for phases in seen.values())


class TestDegradation:
    def test_long_outage_degrades_to_stale_serves(self):
        """A crash longer than the whole retry budget forces the client
        to serve hot keys from its stale cache instead of failing."""
        report = run_chaos(
            nodes=32,
            shards=4,
            objects=24,
            requests=160,
            seed=3,
            faults="crash:0@40+5000",
        )
        c = report.counters
        assert c.get("retry.exhausted", 0) > 0
        assert c.get("degraded.stale_serve", 0) > 0
        assert report.oracle_violations == []
        assert "degraded.staleness" in report.histograms

    def test_short_outage_is_absorbed_by_retries(self):
        report = run_chaos(
            nodes=32,
            shards=4,
            objects=24,
            requests=160,
            seed=3,
            faults="crash:0@40+80",
        )
        assert report.counters.get("retry.exhausted", 0) == 0
        assert report.failures == []
        assert report.oracle_violations == []


class TestHeapIsolation:
    def test_shards_only_hold_their_own_keys(self):
        driver = ChaosCoronaDriver(
            nodes=32, shards=4, objects=24, requests=80, seed=5
        )
        report = driver.run()
        assert report.oracle_violations == []
        for shard in driver.shards:
            for _node, local, _version, content in shard.system.store_contents():
                gkey, _v = parse_feed(content)
                assert gkey % 4 == shard.index
                assert gkey // 4 == local

    def test_isolation_oracle_detects_a_planted_breach(self):
        driver = ChaosCoronaDriver(
            nodes=32, shards=4, objects=24, requests=40, seed=5
        )
        report = driver.run()
        assert report.oracle_violations == []
        # plant a foreign key's content in shard 0 and re-check
        driver.shards[0].system.publish(0, 1, feed_content(1, 1))
        driver._check_isolation()
        assert any(
            v["reason"] == "isolation-breach" for v in driver.oracle_violations
        )


class TestObservability:
    def test_counters_and_histograms_mirror_into_tracer(self):
        obs.enable()
        run_chaos(
            nodes=32,
            shards=4,
            objects=24,
            requests=120,
            seed=7,
            faults="crash:1@30+120,drop:0.05,delay:0.1@6,fuel:17",
        )
        counters = obs.TRACER.counters
        assert counters.get("chaos.injected", 0) >= 3
        assert counters.get("retry.attempt", 0) > 0
        assert "evolution.pause_virtual_ms" in obs.TRACER.histograms
        spans = {path[0] for path, _c, _ns in obs.TRACER.span_tree()}
        assert "corona.boot" in spans
        assert "corona.evolve" in spans
        assert "corona.restart" in spans

    def test_disabled_tracer_untouched(self):
        run_chaos(nodes=16, shards=2, objects=8, requests=40, seed=1)
        assert obs.TRACER.counters == {}


class TestCli:
    ARGV = [
        "corona",
        "--nodes", "32", "--shards", "4", "--objects", "24",
        "--requests", "120", "--seed", "7",
        "--faults", "crash:1@30+120,drop:0.05,delay:0.1@6,fuel:17",
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
        assert "faults injected" in out
        assert "oracle violations: 0" in out

    def test_bad_plan_exits_2(self, capsys):
        assert cli_main(["corona", "--faults", "frobnicate:9"]) == 2
        assert "bad fault plan" in capsys.readouterr().err

    def test_journal_file_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "evo.jsonl")
        assert cli_main(self.ARGV + ["--journal", path]) == 0
        capsys.readouterr()
        with open(path) as f:
            assert sum(1 for line in f if line.strip()) >= 16


class TestRetryBudgetContract:
    def test_budget_covers_default_down_time(self):
        # documented invariant: budget_ms(316) > default crash window
        assert RetryPolicy().budget_ms > 120


def test_driver_killed_is_not_swallowed_outside_run():
    driver = ChaosCoronaDriver(
        nodes=16, shards=2, objects=8, requests=40, seed=1, kill_at=10
    )
    report = driver.run()
    assert report.killed
    with pytest.raises(DriverKilled):
        raise DriverKilled("direct")


class TestTraceDeterminism:
    SMALL = dict(nodes=64, shards=2, objects=32, requests=80, seed=17)

    def _run(self, **over):
        from repro.chaos import FaultPlan

        cfg = {**self.SMALL, **over}
        driver = ChaosCoronaDriver(plan=FaultPlan(), **cfg)
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
        """Every request ends ok, degraded or failed, as the report
        counts them."""
        _, report = self._run()
        # requests_completed counts ok and degraded (stale-served) ends
        completed = report.wall["requests_completed"]
        failed = report.counters.get("requests.failed", 0)
        assert completed + failed == self.SMALL["requests"]
        assert completed > report.counters.get("degraded.stale_serve", 0)
