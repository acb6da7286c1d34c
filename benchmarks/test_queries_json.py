"""Query-engine speedup: caches on vs off.

Times a jolden subset and the CorONA evolution workload with the query
caches globally *disabled* (every judgment, loader synthesis and dispatch
recomputed from scratch) against *enabled* and warm (steady state), in
alternating pairs, and checks the >= 1.5x floor on the first quartile of
the paired ratios.  The numbers land in ``BENCH_queries.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_queries_json.py -q -s
"""

import pytest

from benchmarks import harness
from repro import clear_caches, set_caches_enabled
from repro.programs import cached_program
from repro.programs.corona import CoronaSystem
from repro.programs.jolden import bisort, em3d, treeadd

MIN_SPEEDUP = 1.5

#: Sizes trimmed so the *uncached* end stays tolerable under pytest.
JOLDEN = [
    (treeadd, (9, 2)),
    (bisort, (6, 12345)),
    (em3d, (48, 4, 4, 777)),
]

_RESULTS = {}


@pytest.fixture(autouse=True)
def _caches_restored():
    yield
    set_caches_enabled(True)
    clear_caches()


def _measure(name, run_once):
    """Pair ``run_once`` caches-off with ``run_once`` caches-on (warmed
    outside the clock before every timed call) and check the floor."""

    def caches_off():
        set_caches_enabled(False)
        clear_caches()

    def caches_warm():
        set_caches_enabled(True)
        clear_caches()
        run_once()

    uncached, cached = harness.paired(
        run_once, run_once, setup_a=caches_off, setup_b=caches_warm
    )
    speedup = [u / c for u, c in zip(uncached, cached)]
    result = _RESULTS[name] = harness.entry(
        uncached_s=uncached, cached_s=cached, speedup=speedup
    )
    harness.floor(result, "speedup", MIN_SPEEDUP)


@pytest.mark.parametrize("module,args", JOLDEN, ids=[m.NAME for m, _ in JOLDEN])
def test_jolden_speedup(module, args):
    program = cached_program(module.SOURCE)

    def run_once():
        interp = program.interp(mode="jns")
        ref = interp.new_instance(("Main",), ())
        interp.call_method(ref, "run", list(args))

    _measure(f"jolden:{module.NAME}", run_once)


def test_corona_evolution_speedup():
    def run_once():
        system = CoronaSystem(size=8, objects=24)
        system.run_phase("corona", fetches=60)
        system.evolve_to_pc()
        system.run_phase("pccorona", fetches=60)

    _measure("corona:evolution", run_once)


def test_write_bench_json():
    """Runs last (file order): persist everything measured above."""
    harness.write_bench(
        harness.ROOT / "BENCH_queries.json",
        "query-engine caches on vs off (mode jns)",
        "alternating pairs of caches-off and warm caches-on calls; "
        "floor on q1 of the paired speedups",
        _RESULTS,
    )
