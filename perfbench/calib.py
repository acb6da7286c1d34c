"""Host speed, measured next to every op, so timings do not follow the host.

The shared host this benchmark runs on changes speed by up to 1.6x for
seconds to minutes at a time, far more than a program change should
have to beat.  Every time the benchmark reports is therefore scaled to a
reference speed: right before each op (and around each set-up), on the
same CPU as the work, it times :func:`sample`, a fixed pure-Python loop
that no code under ``src/`` can touch, and divides the op's wall time by
the host's current slowness, the median of the samples taken within
``WINDOW_NS`` of the op.  At the reference speed the loop takes
``REF_NS``; a host in its fast state is about there.  Raw wall times stay
in the run record next to the scaled ones.

The loop does integer arithmetic and calls only: it allocates nothing
the garbage collector tracks, so the program's heap cannot slow it.
"""

from __future__ import annotations

import bisect
import os
import statistics
from time import perf_counter_ns
from typing import List, Sequence

#: Steps of the loop, and its time at the reference speed.
STEPS = 8000
REF_NS = 1_000_000
#: Samples within this distance of an op's start set its host speed.
WINDOW_NS = 500_000_000


def _step(x: int) -> int:
    return (x * 7 + 3) % 1013


def sample() -> int:
    """Wall ns of one run of the calibration loop."""
    start = perf_counter_ns()
    s = 0
    for i in range(STEPS):
        s = _step(s + i)
    return perf_counter_ns() - start


def samples(n: int) -> List[int]:
    return [sample() for _ in range(n)]


def pin() -> int:
    """Pin this process, and so every child it starts, to one CPU, so the
    calibration loop runs where the work does.  Returns the CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def scaled(ns: float, cal_ns: Sequence[int]) -> float:
    """``ns`` at the reference speed, given samples taken around it."""
    return ns * REF_NS / statistics.median(cal_ns)


def scale_ops(starts: Sequence[int], latencies: Sequence[int],
              cals: Sequence[int]) -> List[float]:
    """Each op's latency at the reference speed.  ``starts`` (ns, one
    clock, ascending) and ``cals`` are the ops' start times and the
    calibration sample taken right before each."""
    out = []
    for start, latency in zip(starts, latencies):
        lo = bisect.bisect_left(starts, start - WINDOW_NS)
        hi = bisect.bisect_right(starts, start + WINDOW_NS)
        out.append(scaled(latency, cals[lo:hi]))
    return out
