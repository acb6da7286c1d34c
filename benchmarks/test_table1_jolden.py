"""Table 1 (Section 7.1) shape: jolden under the four execution modes,
Java baseline, J& [31] (no classloader), J& with classloader and J&s.

The paper's claim, checked on the medians of repeated treeadd runs: jx is
by far the slowest, jx_cl is close to java, and jns pays a moderate
view-machinery overhead over jx_cl.  Each repeat runs every mode once,
starting at the next mode in turn, so host drift lands on all modes
alike rather than on whichever mode ran while it lasted.  The full
table is printed by ``python -m repro.programs.jolden.report``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_table1_jolden.py -q -s
"""

from benchmarks import harness
from repro.programs.jolden import treeadd

MODES = ("java", "jx", "jx_cl", "jns")


def test_table1_shape():
    """jx slowest, jx_cl within 2x of java, jns within 2.5x of jx_cl."""
    runs = {mode: [] for mode in MODES}
    for i in range(harness.REPEATS):
        k = i % len(MODES)
        for mode in MODES[k:] + MODES[:k]:
            runs[mode].append(treeadd.timed(mode, 11, 3)[0])
    times = {mode: harness.summary(runs[mode])["median"] for mode in MODES}
    print(f"\ntreeadd(11, 3) median seconds: {times}")
    assert times["jx"] > 1.5 * times["jx_cl"]
    assert times["jx_cl"] < 2.0 * times["java"] + 0.01
    assert times["jns"] < 2.5 * times["jx_cl"] + 0.01
