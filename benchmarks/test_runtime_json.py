"""Runtime benchmark: the codegen backend against the tree walker.

Measures the same trimmed jolden driver set as BENCH_obs.json /
BENCH_queries.json plus the CorONA workload under both backends:

- ``interp``: the tree-walking reference interpreter (``walker``),
- ``codegen``: AOT specialization (slotted object layouts, sealed-family
  devirtualization) plus emitted + ``compile()``d Python per specialized
  method body (``repro/runtime/codegen.py``).

Times are steady-state: one interpreter per backend, one warm-up call
(so specialization, emission, and inline-cache fills are excluded), then
the best of ``ROUNDS`` timed calls.  One floor is enforced per jolden
driver: codegen at least ``MIN_CODEGEN_SPEEDUP``x faster than the
walker.  CorONA is recorded for the report but carries no hard floor
(its wall time is dominated by the Python driver crossing the API
boundary).  Each measurement also locks semantics: both backends must
produce the identical result and printed output.

The numbers land in ``BENCH_runtime.json`` at the repo root (uploaded
as a CI artifact by the runtime-bench job).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_runtime_json.py -q -s
"""

import json
import time
from pathlib import Path

import pytest

from repro import clear_caches, obs
from repro.programs import cached_program
from repro.programs.corona import CoronaSystem
from repro.programs.jolden import bisort, em3d, treeadd

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_runtime.json"
MIN_CODEGEN_SPEEDUP = 3.0
ROUNDS = 3

#: Same trimmed jolden driver set as the query and obs benchmarks, so
#: all BENCH_*.json files describe the same workloads.
JOLDEN = [
    (treeadd, (9, 2)),
    (bisort, (6, 12345)),
    (em3d, (48, 4, 4, 777)),
]

#: report label -> backend name
BACKENDS = (("interp", "walker"), ("codegen", "codegen"))

_RESULTS = {}


@pytest.fixture(autouse=True)
def _runtime_restored():
    yield
    obs.disable()
    obs.TRACER.reset()
    clear_caches()


def _best(fn):
    best, value = float("inf"), None
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


@pytest.mark.parametrize("module,args", JOLDEN, ids=[m.NAME for m, _ in JOLDEN])
def test_jolden_codegen_floor(module, args):
    program = cached_program(module.SOURCE)
    seconds, observed = {}, {}
    for label, backend in BACKENDS:
        interp = program.interp(mode="jns", backend=backend)
        ref = interp.new_instance(("Main",), ())

        def run_once():
            del interp.output[:]
            return interp.call_method(ref, "run", list(args))

        run_once()  # warm: specialize/emit/fill caches outside the clock
        seconds[label], result = _best(run_once)
        observed[label] = (result, tuple(interp.output))

    assert observed["interp"] == observed["codegen"], (
        f"{module.NAME}: backends disagree: {observed}"
    )
    speedup = seconds["interp"] / seconds["codegen"]
    _RESULTS[f"jolden:{module.NAME}"] = {
        "args": list(args),
        "seconds_interp": round(seconds["interp"], 6),
        "seconds_codegen": round(seconds["codegen"], 6),
        "speedup_vs_interp": round(speedup, 3),
        "codegen_floor": MIN_CODEGEN_SPEEDUP,
    }
    assert speedup >= MIN_CODEGEN_SPEEDUP, (
        f"{module.NAME}: codegen backend is only {speedup:.2f}x faster "
        f"than the walker (floor {MIN_CODEGEN_SPEEDUP}x): "
        f"{seconds['codegen']:.4f}s vs {seconds['interp']:.4f}s"
    )


def test_corona_workload_recorded():
    """CorONA under each backend: semantics must agree; times are
    recorded without a floor (driver-bound workload)."""
    seconds, observed = {}, {}
    for label, backend in BACKENDS:
        system = CoronaSystem(size=16, objects=48, backend=backend)
        system.run_phase("corona", fetches=150)  # warm
        seconds[label], stats = _best(
            lambda: system.run_phase("corona", fetches=150, seed=77)
        )
        observed[label] = (stats.lookups, stats.total_hops, stats.misses)

    assert observed["interp"] == observed["codegen"], (
        f"corona: backends disagree: {observed}"
    )
    _RESULTS["corona:workload"] = {
        "args": {"size": 16, "objects": 48, "fetches": 150},
        "seconds_interp": round(seconds["interp"], 6),
        "seconds_codegen": round(seconds["codegen"], 6),
        "speedup_vs_interp": round(seconds["interp"] / seconds["codegen"], 3),
        "codegen_floor": None,
    }


def test_write_bench_json():
    """Runs last (file order): persist everything measured above."""
    assert _RESULTS, "measurement tests did not run"
    payload = {
        "benchmark": "AOT runtime specialization + Python codegen",
        "mode": "jns",
        "rounds": ROUNDS,
        "min_codegen_speedup_vs_interp": MIN_CODEGEN_SPEEDUP,
        "method": (
            "steady state: one interpreter per backend, one warm-up call, "
            "best-of-rounds timed calls; identical results asserted across "
            "interp/codegen before timing counts"
        ),
        "results": _RESULTS,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {JSON_PATH}")
    for name, entry in _RESULTS.items():
        print(
            f"  {name}: codegen {entry['seconds_codegen']}s, "
            f"interp {entry['seconds_interp']}s, "
            f"{entry['speedup_vs_interp']}x vs interp"
        )
