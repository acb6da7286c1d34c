"""In-process worker for ``jolden-steady`` and ``views-evolve``.

Usage: ``python perfbench/inproc.py WORKLOAD --seed N --seconds S
[--spans FILE]``.  The worker imports ``repro``, sets the workload up
(compile, interpreter, one untimed warm-up op of every kind), prints
``ready``, then runs whole cycles of timed ops until ``--seconds`` have
passed and prints one JSON line: every op as ``[kind, is_write,
latency_ns, ok, calibration ns, start ns]`` (see :mod:`calib`), every
cycle (a jolden round of ten drivers, a CorONA epoch) as the ``[first,
end)`` indices of its ops, the measured window, the first errors, and
the process's peak RSS.  With ``--spans`` it runs
under benchmark spans (:mod:`tracing`) and the program's own tracer, and
writes both there.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Dict, List, Optional

import calib
import workloads as wl
from tracing import OP, Recorder, install

HERE = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# views-evolve ops, shared with reference.py

def reboot(system) -> None:
    """A fresh ring and feed set on the system's warm interpreter."""
    interp = system.interp
    system.net = interp.call_method(system.main, "boot", [wl.RING])
    interp.call_method(system.main, "publishAll", [system.net, wl.OBJECTS])


def views_op(system, op) -> Any:
    kind = op[0]
    if kind == "poll":
        _, family, start, keys = op
        return [system.fetch(start, key, family) for key in keys]
    if kind == "publish":
        system.publish(*op[1:])
    else:
        system.evolve(op[1])
    return None


def total_hops(system) -> int:
    return system.interp.get_field(system.net, "totalHops")


def views_output(system, op, value, hops_before: int):
    """The checked output of one op: ``[hops, contents digest]`` for a
    poll, ``None`` otherwise; and the ring's hop total after it."""
    if op[0] != "poll":
        return None, hops_before
    hops = total_hops(system)
    return [hops - hops_before, wl.digest(value)], hops


def store_digest(system) -> str:
    return wl.digest(system.store_contents())


# ---------------------------------------------------------------------------

class Worker:
    """Timed closed loop over one workload's ops; ``rec`` is set in the
    traced run."""

    def __init__(self, seed: int, reference: Dict[str, Any],
                 rec: Optional[Recorder]) -> None:
        self.seed = seed
        self.reference = reference
        self.rec = rec
        self.ops: List[list] = []
        #: per cycle: [index of its first op, index past its last op]
        self.cycles: List[list] = []
        self.errors: List[str] = []
        self.extra: Dict[str, Any] = {}

    def cycle(self, fn, *args) -> None:
        first = len(self.ops)
        fn(*args)
        self.cycles.append([first, len(self.ops)])

    def fail(self, message: str) -> bool:
        if len(self.errors) < 10:
            self.errors.append(message)
        return False

    def timed(self, kind: str, write: bool, fn, *args):
        """Run one op; returns its value, or the exception it raised."""
        from repro import JnsError

        op_id = len(self.ops)
        cal = calib.sample()
        start = perf_counter_ns()
        try:
            if self.rec is None:
                value = fn(*args)
            else:
                with self.rec.span(OP, op=op_id, attrs={"kind": kind}):
                    value = fn(*args)
        except JnsError as exc:
            value = exc
        self.ops.append([kind, int(write), perf_counter_ns() - start, True, cal, start])
        return value

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.ops[-1][3] = self.fail(message)

    def counters(self) -> Dict[str, int]:
        from repro.obs import TRACER

        return dict(TRACER.counters)


class JoldenSteady(Worker):
    def setup(self) -> None:
        from repro import compile_program

        self.refs = {}
        for name in wl.DRIVERS:
            program = compile_program(wl.jolden_source(name))
            interp = program.interp(backend="codegen")
            main = interp.new_instance(("Main",), ())
            self.refs[name] = (interp, main)
            self.call(name, 0, timed=False)

    def call(self, name: str, variant: int, timed: bool = True) -> None:
        interp, main = self.refs[name]
        args = list(wl.jolden_args(name, variant))
        expected = self.reference["jolden"][name][variant]
        if not timed:
            value = interp.call_method(main, "run", args)
            if value != expected:
                raise SystemExit(f"warm-up {name}: {value!r} != {expected!r}")
            return
        value = self.timed(name, False, interp.call_method, main, "run", args)
        self.check(value == expected, f"{name}[{variant}]: {value!r} != {expected!r}")

    def loop(self, seconds: float) -> None:
        start = perf_counter_ns()
        before = self.counters() if self.rec else {}
        for cycle in wl.jolden_cycles(self.seed):
            self.cycle(lambda: [self.call(name, variant) for name, variant in cycle])
            if perf_counter_ns() - start >= seconds * 1e9:
                break
        if self.rec:
            after = self.counters()
            self.extra["alloc"] = after.get("alloc", 0) - before.get("alloc", 0)


class ViewsEvolve(Worker):
    def setup(self) -> None:
        from repro.programs.corona import CoronaSystem

        self.system = CoronaSystem(size=wl.RING, objects=wl.OBJECTS,
                                   backend="codegen")
        self.scripts = [wl.views_script(i) for i in range(wl.SCRIPTS)]
        system = self.system
        hops = 0
        warm = self.reference["views"][0]
        for op, expected in zip(self.scripts[0], warm["ops"]):
            output, hops = views_output(system, op, views_op(system, op), hops)
            if output != expected:
                raise SystemExit(f"warm-up {op[:2]}: {output!r} != {expected!r}")

    def epoch(self, index: int) -> None:
        system = self.system
        reboot(system)
        expected = self.reference["views"][index]
        hops = 0
        for op, want in zip(self.scripts[index], expected["ops"]):
            kind = op[0] if op[0] == "publish" else f"{op[0]}:{op[1]}"
            value = self.timed(kind, op[0] != "poll", views_op, system, op)
            if isinstance(value, Exception):
                self.check(False, f"{kind}: {value}")
                continue
            output, hops = views_output(system, op, value, hops)
            self.check(output == want, f"epoch {index} {kind}: {output!r} != {want!r}")
        if store_digest(system) != expected["store"]:
            self.ops[-1][3] = self.fail(f"epoch {index}: store contents differ")

    def loop(self, seconds: float) -> None:
        start = perf_counter_ns()
        first = None
        for n, index in enumerate(wl.views_epochs(self.seed)):
            before = self.counters() if self.rec else {}
            self.cycle(self.epoch, index)
            if n == 0 and self.rec:
                after = self.counters()
                fetches = sum(len(op[3]) for op in self.scripts[index] if op[0] == "poll")
                first = {
                    "new_ref": after.get("view_change.new_ref", 0)
                    - before.get("view_change.new_ref", 0),
                    "hops_per_fetch": total_hops(self.system) / fetches,
                }
            if perf_counter_ns() - start >= seconds * 1e9:
                break
        if self.rec:
            self.extra["first_epoch"] = first
            counters = self.counters()
            self.extra["memo_hit"] = counters.get("view_change.memo_hit", 0)
            self.extra["new_ref"] = counters.get("view_change.new_ref", 0)


WORKERS = {"jolden-steady": JoldenSteady, "views-evolve": ViewsEvolve}


def main() -> int:
    t0 = perf_counter_ns()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    rec = Recorder() if args.spans else None
    if rec is None:
        import repro  # noqa: F401
    else:
        with rec.span("import"):
            import repro

            if args.workload == "views-evolve":
                import repro.programs.corona  # noqa: F401
        with rec.span("trace.install"):
            install(rec)
        repro.obs.enable()
    reference = json.loads((HERE / "reference.json").read_text())
    worker = WORKERS[args.workload](args.seed, reference, rec)
    worker.setup()
    print("ready", flush=True)
    window = perf_counter_ns()
    worker.loop(args.seconds)
    window = perf_counter_ns() - window
    if rec is not None:
        repro.obs.disable()
        rec.dump(args.spans, {"t0": t0, "counters": worker.counters()})
    print(json.dumps({
        "ops": worker.ops,
        "cycles": worker.cycles,
        "window_ns": window,
        "errors": worker.errors,
        "extra": worker.extra,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
