"""Tracing-overhead benchmark: the disabled tracer must be near-free.

Every instrumented hot site of the interpreter pays one
``TRACER.enabled`` attribute load plus a branch when tracing is off;
these workloads run on the walker, where all of them sit.  Bodies
emitted by the codegen tier pay nothing: their counts are planted only
when the compiler is built with tracing on.  A true uninstrumented
baseline cannot be measured in-process (the guards are compiled into
the functions), so the disabled overhead is bounded from above by
construction:

1. run each workload tracing-*enabled* and read ``TRACER.observations``,
   the number of guarded sites traversed (every span, event and counter
   increment passes through one guard);
2. microbenchmark the cost of one disabled guard (attribute load + false
   branch) with ``timeit``;
3. ``guard_ns * observations / disabled_wall_ns`` is then a conservative
   estimate of the fraction of the disabled run spent in guards:
   conservative because the enabled run traverses at least every site the
   disabled run does.

Disabled and enabled runs alternate in pairs; each pair gives one
estimate, and the third quartile of the estimates must stay <= 5%
(``MAX_OVERHEAD``) for every workload.  The numbers land in
``BENCH_obs.json``, and a sample Chrome trace is written to ``trace.json``
(load it in chrome://tracing or https://ui.perfetto.dev).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_obs_json.py -q -s
"""

import json
import timeit

import pytest

from benchmarks import harness
from repro import clear_caches, obs
from repro.programs import cached_program
from repro.programs.jolden import bisort, em3d, treeadd

TRACE_PATH = harness.ROOT / "trace.json"
MAX_OVERHEAD = 0.05

#: Same trimmed jolden driver set as the query benchmark, so the two
#: BENCH_*.json files describe the same workloads.
JOLDEN = [
    (treeadd, (9, 2)),
    (bisort, (6, 12345)),
    (em3d, (48, 4, 4, 777)),
]

_RESULTS = {}


@pytest.fixture(autouse=True)
def _obs_restored():
    yield
    obs.disable()
    obs.TRACER.reset()
    clear_caches()


def _guard_ns():
    """REPEATS samples of the cost of one disabled guard: an attribute load
    plus a not-taken branch, what every instrumented hot site executes
    when tracing is off."""
    obs.disable()
    timer = timeit.Timer(
        "if tracer.enabled:\n    raise AssertionError",
        globals={"tracer": obs.TRACER},
    )
    number = 200_000
    return [s * 1e9 / number for s in timer.repeat(repeat=harness.REPEATS, number=number)]


@pytest.mark.parametrize("module,args", JOLDEN, ids=[m.NAME for m, _ in JOLDEN])
def test_disabled_tracing_overhead(module, args):
    program = cached_program(module.SOURCE)
    observations = []

    def run_once():
        interp = program.interp(mode="jns")
        ref = interp.new_instance(("Main",), ())
        interp.call_method(ref, "run", list(args))

    def traced():
        run_once()
        observations.append(obs.TRACER.observations)

    guard_ns = _guard_ns()
    run_once()  # warm the query caches outside the clock
    disabled, enabled = harness.paired(
        run_once, traced, setup_a=obs.disable, setup_b=obs.enable
    )
    obs.disable()
    overhead = [
        g * n / (d * 1e9) for g, n, d in zip(guard_ns, observations, disabled)
    ]
    result = _RESULTS[f"jolden:{module.NAME}"] = harness.entry(
        disabled_s=disabled,
        enabled_s=enabled,
        enabled_slowdown=[e / d for e, d in zip(enabled, disabled)],
        guard_ns=guard_ns,
        guarded_site_traversals=observations,
        overhead=overhead,
    )
    harness.floor(result, "overhead", MAX_OVERHEAD, better="lower")


def test_write_sample_trace():
    """The sample Chrome trace uploaded by CI: a traced Table 2
    binary-tree view-change workload, so the trace shows semantic instants
    (view changes, sharing-group lookups) alongside the phase spans."""
    from repro.programs import trees

    obs.enable()
    trees.measure(height=6, mode="jns")
    obs.disable()
    obs.TRACER.write_chrome_trace(str(TRACE_PATH))
    events = json.loads(TRACE_PATH.read_text())["traceEvents"]
    assert any(e["ph"] == "X" for e in events)
    assert any(e["ph"] == "i" for e in events), "expected semantic instants"
    print(f"\nwrote {TRACE_PATH} ({len(events)} events)")


def test_write_bench_json():
    """Runs last (file order): persist everything measured above."""
    harness.write_bench(
        harness.ROOT / "BENCH_obs.json",
        "tracing disabled-overhead bound (mode jns)",
        "alternating pairs of tracing-disabled and tracing-enabled runs; "
        "overhead = guard_ns (timeit, disabled branch) * "
        "guarded_site_traversals (TRACER.observations, enabled run) / "
        "disabled wall time, one estimate per pair; ceiling on q3",
        _RESULTS,
    )
