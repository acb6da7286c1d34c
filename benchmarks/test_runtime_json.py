"""Runtime benchmark: the codegen backend against the tree walker.

Measures the same trimmed jolden driver set as BENCH_obs.json /
BENCH_queries.json plus the CorONA workload under both backends:

- ``walker``: the tree-walking reference interpreter,
- ``codegen``: AOT specialization (slotted object layouts, sealed-family
  devirtualization) plus emitted + ``compile()``d Python per specialized
  method body (``repro/runtime/codegen.py``).

Times are steady-state: one interpreter per backend and one warm-up call
each (so specialization, emission and inline-cache fills are excluded),
then alternating pairs of timed calls.  One floor is enforced per jolden
driver: the first quartile of the paired speedups is at least
``MIN_CODEGEN_SPEEDUP``.  CorONA is recorded without a floor (its wall
time is dominated by the Python driver crossing the API boundary).  The
warm-up calls also lock semantics: both backends must produce the
identical result and printed output.  The numbers land in
``BENCH_runtime.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_runtime_json.py -q -s
"""

import pytest

from benchmarks import harness
from repro import clear_caches, obs
from repro.programs import cached_program
from repro.programs.corona import CoronaSystem
from repro.programs.jolden import bisort, em3d, treeadd

MIN_CODEGEN_SPEEDUP = 3.0

#: Same trimmed jolden driver set as the query and obs benchmarks, so
#: all BENCH_*.json files describe the same workloads.
JOLDEN = [
    (treeadd, (9, 2)),
    (bisort, (6, 12345)),
    (em3d, (48, 4, 4, 777)),
]

BACKENDS = ("walker", "codegen")

_RESULTS = {}


@pytest.fixture(autouse=True)
def _runtime_restored():
    yield
    obs.disable()
    obs.TRACER.reset()
    clear_caches()


def _record(name, walker, codegen):
    _RESULTS[name] = harness.entry(
        walker_s=walker, codegen_s=codegen, speedup=[w / c for w, c in zip(walker, codegen)]
    )
    return _RESULTS[name]


@pytest.mark.parametrize("module,args", JOLDEN, ids=[m.NAME for m, _ in JOLDEN])
def test_jolden_codegen_floor(module, args):
    program = cached_program(module.SOURCE)
    calls, observed = [], []
    for backend in BACKENDS:
        interp = program.interp(mode="jns", backend=backend)
        ref = interp.new_instance(("Main",), ())

        def run_once(interp=interp, ref=ref):
            del interp.output[:]
            return interp.call_method(ref, "run", list(args))

        observed.append((run_once(), tuple(interp.output)))  # warm-up
        calls.append(run_once)

    assert observed[0] == observed[1], f"{module.NAME}: backends disagree: {observed}"
    result = _record(f"jolden:{module.NAME}", *harness.paired(*calls))
    harness.floor(result, "speedup", MIN_CODEGEN_SPEEDUP)


def test_corona_workload_recorded():
    """CorONA under each backend: semantics must agree; times are
    recorded without a floor (driver-bound workload)."""
    calls, observed = [], []
    for backend in BACKENDS:
        system = CoronaSystem(size=16, objects=48, backend=backend)
        system.run_phase("corona", fetches=150)  # warm

        def run_once(system=system):
            return system.run_phase("corona", fetches=150, seed=77)

        stats = run_once()
        observed.append((stats.lookups, stats.total_hops, stats.misses))
        calls.append(run_once)

    assert observed[0] == observed[1], f"corona: backends disagree: {observed}"
    _record("corona:workload", *harness.paired(*calls))


def test_write_bench_json():
    """Runs last (file order): persist everything measured above."""
    harness.write_bench(
        harness.ROOT / "BENCH_runtime.json",
        "AOT runtime specialization + Python codegen vs the walker (mode jns)",
        "steady state: one interpreter per backend, one warm-up call each "
        "with identical results asserted, then alternating pairs of timed "
        "calls; floor on q1 of the paired speedups (jolden only)",
        _RESULTS,
    )
