"""Compare two sets of benchmark runs: a parent and a change.

Usage, from the repository root::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records ``perfbench/run.py --out DIR``
wrote (``DIR/runs/*.json``; ``DIR`` may also be the ``runs`` directory
itself).  Runs are paired in the order they started, so the two sets
should be made in alternating pairs, with the side that goes first
alternating too.  One row is printed per workload and end-to-end
metric: each side's median and quartiles, the share of pairs the change
won (ties count for neither), and a verdict:

* ``unresolved``: the parent's spread (distance between its quartiles,
  as a share of its median) is wider than the metric's bound, unless
  every change run reads better than every parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``improved``: the change won at least nine tenths of the pairs and the
  medians differ, in the better direction, by more than the parent's
  spread;
* ``unchanged``: otherwise.

Bounds come from ``BENCHMARK.json``.  ``write_p50_ms`` and
``write_tail_ms`` (recorded only by workloads with writes) take the
bounds of ``latency_p50_ms`` and ``latency_tail_ms``; ``error_rate``
may not grow at all.  Traced records are checked for the exact counts
that must repeat across runs of one seed; a seed whose counts differ is
reported as non-deterministic.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
EXTRA_BOUNDS = {"write_p50_ms": "latency_p50_ms", "write_tail_ms": "latency_tail_ms"}


def runs_dir(path: Path) -> Path:
    return path / "runs" if (path / "runs").is_dir() else path


def load(path: Path) -> List[dict]:
    records = [json.loads(p.read_text()) for p in sorted(runs_dir(path).glob("*.json"))]
    return sorted(records, key=lambda r: r["provenance"]["started"])


def run_key(record: dict) -> str:
    """The seed and code digest a run's exact counts must repeat under."""
    prov = record["provenance"]
    return f"seed {prov['seed']} (code {prov.get('code_sha256')})"


def nondeterministic(path: Path) -> List[str]:
    """One message per seed and code digest whose traced runs disagree on
    an exact count."""
    seen: Dict[str, Dict[str, set]] = {}
    for record in load(path):
        if record.get("exact"):
            counts = seen.setdefault(run_key(record), {})
            for key, value in record["exact"].items():
                counts.setdefault(key, set()).add(value)
    return [
        f"{run} : {key} took values {sorted(values)}"
        for run, counts in sorted(seen.items())
        for key, values in sorted(counts.items())
        if len(values) > 1
    ]


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """The verdict on one metric, and the share of pairs the change won."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) < 0) / len(pairs)
    mp, mc = statistics.median(parent), statistics.median(change)
    if mp == 0:
        return ("worse" if sign * (mc - mp) > 0 else "unchanged"), won
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (mp, mp, mp)
    spread = q3 - q1
    gain = sign * (mp - mc)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread / abs(mp) > bound and not all_better:
        return "unresolved", won
    if -gain / abs(mp) > bound:
        return "worse", won
    if won >= 0.9 and gain > spread:
        return "improved", won
    return "unchanged", won


def describe(values: List[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    for name, like in EXTRA_BOUNDS.items():
        metrics[name] = dict(metrics[like], name=name)
    metrics["error_rate"] = {"name": "error_rate", "better": "lower", "bound": 0.0}
    sides = [[r for r in load(p) if r["trace"] == 0] for p in (args.parent, args.change)]
    workloads = sorted({r["workload"] for r in sides[0]} & {r["workload"] for r in sides[1]})
    if not workloads:
        print("compare: no workload has untraced runs on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':14s} {'metric':18s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'won':>6s}  verdict")
    for workload in workloads:
        parent, change = ([r for r in side if r["workload"] == workload] for side in sides)
        n = min(len(parent), len(change))
        if n < 10:
            print(f"compare: {workload} has {n} pairs; a claim needs at least ten",
                  file=sys.stderr)
        for name, spec in metrics.items():
            pv = [r["metrics"][name] for r in parent[:n] if name in r["metrics"]]
            cv = [r["metrics"][name] for r in change[:n] if name in r["metrics"]]
            if not pv or len(pv) != len(cv):
                continue
            result, won = verdict(pv, cv, spec["better"], spec["bound"])
            print(f"{workload:14s} {name:18s} {describe(pv):>30s} {describe(cv):>30s} "
                  f"{won:6.0%}  {result}")
    for label, path in (("parent", args.parent), ("change", args.change)):
        for message in nondeterministic(path):
            print(f"{label}: NON-DETERMINISTIC {message}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
