"""CorONA under chaos benchmark.

Runs the acceptance scenario (one 64-node heap, concurrent fetch/publish
traffic, live corona -> pccorona -> beecorona evolution, a seeded fuel
fault) REPEATS times and locks two service-level floors:

- **throughput**: the first quartile of completed requests per
  wall-clock second stays at or above ``MIN_RPS`` (live evolution and
  fault recovery do not stall the traffic);
- **evolution pause**: the third quartile of the per-run p95 pause
  observed by clients stays at or below ``MAX_PAUSE_WALL_MS`` of wall
  time (the view-change work itself) and ``MAX_PAUSE_VIRTUAL_MS`` of
  virtual time (the modelled client-visible gate closure).

It also locks the determinism contract: every run has zero oracle
violations, and the wall-free report is byte-identical across all runs
from the same seed.  Its sha256 is recorded in ``BENCH_corona.json`` so
CI detects any drift in the seeded fault schedule.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_corona_chaos_json.py -q -s
"""

import hashlib

import pytest

from benchmarks import harness
from repro import clear_caches, obs
from repro.programs.corona import run_chaos

MIN_RPS = 100.0
MAX_PAUSE_WALL_MS = 1000.0
MAX_PAUSE_VIRTUAL_MS = 50.0

SCENARIO = dict(
    nodes=64,
    objects=96,
    requests=400,
    seed=11,
    faults="fuel:77",
)

_RESULTS = {}


@pytest.fixture(autouse=True)
def _runtime_restored():
    yield
    obs.disable()
    obs.TRACER.reset()
    clear_caches()


def test_chaos_floors_and_replay():
    seconds, reports = harness.repeated(lambda: run_chaos(**SCENARIO))
    for report in reports:
        assert report.oracle_violations == [], report.oracle_violations
        assert report.failures == []
        assert report.family == "beecorona"
    replays = {r.to_json(include_wall=False) for r in reports}
    assert len(replays) == 1, "chaos report is not byte-identical across replays"

    result = _RESULTS["chaos:acceptance"] = harness.entry(
        wall_s=seconds,
        rps=[r.wall["rps"] for r in reports],
        pause_virtual_p95_ms=[r.histograms["evolution.pause_virtual_ms"]["p95"] for r in reports],
        pause_wall_p95_ms=[r.wall["evolution_pause_ms"]["p95"] for r in reports],
    )
    result["replay_sha256"] = hashlib.sha256(replays.pop().encode()).hexdigest()
    harness.floor(result, "rps", MIN_RPS)
    harness.floor(result, "pause_virtual_p95_ms", MAX_PAUSE_VIRTUAL_MS, better="lower")
    harness.floor(result, "pause_wall_p95_ms", MAX_PAUSE_WALL_MS, better="lower")


def test_write_bench_json():
    """Runs last (file order): persist everything measured above."""
    harness.write_bench(
        harness.ROOT / "BENCH_corona.json",
        "CorONA under chaos",
        "REPEATS runs of the seeded acceptance scenario ("
        + ", ".join(f"{k}={v}" for k, v in SCENARIO.items())
        + "); zero oracle violations and byte-identical wall-free reports "
        "asserted before any floor is checked; the replay sha256 covers the "
        "wall-free report surface",
        _RESULTS,
    )
