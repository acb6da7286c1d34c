"""The one measurement harness behind every ratio floor in ``benchmarks/``.

Each ``test_*_json.py`` times its workload with :func:`paired` (two
sides, e.g. caches off against caches on) or :func:`repeated` (one
side), checks its floor with :func:`floor` on the unfavourable quartile
of the repeats, and writes its ``BENCH_*.json`` with :func:`write_bench`.
Every file has one schema::

    {"benchmark": TEXT, "method": TEXT, "repeats": REPEATS,
     "results": {NAME: {SAMPLE: {"median": m, "iqr": [q1, q3]}, ...,
                        "floors": [{"on": SAMPLE, "statistic": "q1",
                                    "value": q1, "bound": b,
                                    "better": "higher"}, ...]}}}

End-to-end speed is measured by ``perfbench/``, not here.
"""

import json
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Samples per side.  With seven, q1 and q3 are the second smallest and
#: second largest sample, so a floor fails when two samples miss it.
REPEATS = 7


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def repeated(fn):
    """Call ``fn`` REPEATS times; return the wall seconds and the return
    value of each call."""
    runs = [_timed(fn) for _ in range(REPEATS)]
    return [s for s, _ in runs], [v for _, v in runs]


def paired(a, b, setup_a=None, setup_b=None):
    """REPEATS pairs of timed calls of ``a`` and ``b``; return the wall
    seconds of each side.  Even pairs run ``a`` first and odd pairs run
    ``b`` first, so host drift lands on both sides alike.  ``setup_a`` and
    ``setup_b`` run untimed before each call of their side."""
    sides = ((a, setup_a, []), (b, setup_b, []))
    for i in range(REPEATS):
        for fn, setup, seconds in sides if i % 2 == 0 else sides[::-1]:
            if setup is not None:
                setup()
            seconds.append(_timed(fn)[0])
    return sides[0][2], sides[1][2]


def summary(values):
    """Median and ``[q1, q3]`` of ``values``, with the cut points of
    ``statistics.quantiles(n=4)`` as in ``perfbench/compare.describe``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": _sig(med), "iqr": [_sig(q1), _sig(q3)]}


def _sig(x):
    return float(f"{x:.6g}")


def entry(**samples):
    """One result: the summary of each named sample list."""
    return dict({name: summary(values) for name, values in samples.items()}, floors=[])


def floor(result, on, bound, better="higher"):
    """Record ``bound`` on ``result`` and assert it on the unfavourable
    quartile of sample ``on``: q1 when higher is better, q3 when lower is."""
    q1, q3 = result[on]["iqr"]
    statistic, value = ("q1", q1) if better == "higher" else ("q3", q3)
    result["floors"].append(
        {"on": on, "statistic": statistic, "value": value, "bound": bound, "better": better}
    )
    holds = value >= bound if better == "higher" else value <= bound
    assert holds, f"{on}: {statistic} {value:.4g} misses the bound {bound} ({result[on]})"


def write_bench(path, benchmark, method, results):
    """Write ``results`` (name -> :func:`entry`) to ``path`` in the one
    ``BENCH_*.json`` schema and print each sample's median [q1, q3]."""
    assert results, "measurement tests did not run"
    payload = {"benchmark": benchmark, "method": method, "repeats": REPEATS, "results": results}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {path}")
    for name, result in results.items():
        cells = [
            f"{k} {v['median']:.4g} [{v['iqr'][0]:.4g}, {v['iqr'][1]:.4g}]"
            for k, v in result.items()
            if isinstance(v, dict)
        ]
        print(f"  {name}: " + "; ".join(cells))
