"""Incremental re-check speedup benchmark.

Times the cold from-scratch build-and-check of an edited CorONA source
against the warm single-edit re-check (one body edit inside the CorONA
tower, applied through ``IncrementalChecker.apply_edit`` + ``check``), in
alternating pairs, and checks the >= 5x floor on the first quartile of
the paired speedups.  The numbers land in ``BENCH_incremental.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_incremental_json.py -q -s
"""

from itertools import cycle

from benchmarks import harness
from repro.lang.incremental import IncrementalChecker
from repro.programs.corona.source import SOURCE as CORONA

MIN_SPEEDUP = 5.0

#: One body-level statement inside corona.Store.put: line count and
#: every signature position preserved, so the edit grafts.
EDIT_OLD = "count = count + 1;"
EDIT_NEW = "count = count + 1 + 0;"

_RESULTS = {}


def test_incremental_speedup_floor():
    edited = CORONA.replace(EDIT_OLD, EDIT_NEW)
    assert edited != CORONA
    # Alternate the two sources so every warm call is a real edit.
    cold_sources, warm_sources = cycle((edited, CORONA)), cycle((edited, CORONA))
    strategies = []

    def cold():
        report = IncrementalChecker(next(cold_sources), file="corona.jns").check()
        assert not report.has_errors

    inc = IncrementalChecker(CORONA, file="corona.jns")
    assert not inc.check().has_errors

    def warm():
        strategies.append(inc.apply_edit(next(warm_sources))["strategy"])
        assert not inc.check().has_errors

    cold_s, warm_s = harness.paired(cold, warm)
    assert strategies == ["incremental"] * harness.REPEATS, strategies
    result = _RESULTS["corona:body-edit"] = harness.entry(
        cold_s=cold_s, warm_s=warm_s, speedup=[c / w for c, w in zip(cold_s, warm_s)]
    )
    harness.floor(result, "speedup", MIN_SPEEDUP)


def test_write_bench_json():
    """Runs last (file order): persist everything measured above."""
    harness.write_bench(
        harness.ROOT / "BENCH_incremental.json",
        "incremental single-edit re-check vs cold check",
        f"program corona, body edit {EDIT_OLD!r} -> {EDIT_NEW!r}; alternating "
        "pairs of a cold IncrementalChecker build + check and a warm "
        "apply_edit + check; floor on q1 of the paired speedups",
        _RESULTS,
    )
