"""The repository's benchmark: four workloads, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``layers.json`` for why each was chosen and which layer
metric should move which end-to-end metric):

* ``jolden-steady``: ``call_method(Main.run)`` on warm codegen
  interpreters, cycling through the ten jolden drivers;
* ``cold-run``: one fresh ``python -m repro run FILE --entry Bench.main``
  per op, on a small jolden input;
* ``serve-edit``: one TCP client of ``repro serve`` replaying a seeded
  chain of ``edit``/``check``/``run`` requests on CorONA plus a driver;
* ``views-evolve``: in-process ``CoronaSystem`` polls and publishes, with
  the live evolutions ``corona -> pccorona -> beecorona``.

Every workload is a closed loop with one client and runs whole cycles of
ops until ``--seconds`` have passed.  The benchmark pins itself and its
children to one CPU, and every end-to-end time is scaled to a reference
host speed measured next to each op (see ``calib.py``), because the
shared host's own speed drifts by more than any bound.  Every op's
output is checked against ``reference.json`` (pinned on the ``walker``
backend by ``reference.py``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of ``BENCHMARK.json``; the last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  Each run also writes a full record (provenance,
tail percentiles, write latencies, error rate, exact counts) to
``.perfbench_out/runs/`` (``--out`` to change), which
``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Dict, List, Optional

import calib
import workloads as wl
from tracing import OP, Recorder, graft, op_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PY = sys.executable

#: Set-ups per untraced run; ``setup_s`` is their median.  The in-process
#: and serve workloads measure an equal share of the run after each; for
#: cold-run the first precedes the measured window and the others follow.
SETUPS = 3
#: An op's layer self times should add up to its latency within this
#: share; the traced run warns past it.
UNATTRIBUTED_PCT = 5.0
#: Hard limit on one child process, far above any healthy one.
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not measure (not a wrong program output)."""


def child_env() -> Dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


#: Every long-lived child started, so none outlives the benchmark.
CHILDREN: List[subprocess.Popen] = []


def spawn(cmd: List[str]) -> subprocess.Popen:
    """Start a child whose stdout is read line by line; it is killed if
    it outlives ``CHILD_TIMEOUT_S``."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, env=child_env())
    CHILDREN.append(proc)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.daemon = True
    timer.start()
    proc.timer = timer  # type: ignore[attr-defined]
    return proc


def reap_children() -> None:
    for proc in CHILDREN:
        proc.timer.cancel()  # type: ignore[attr-defined]
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


def finish(proc: subprocess.Popen) -> str:
    """The rest of the child's stdout, once it has exited with 0."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        proc.timer.cancel()  # type: ignore[attr-defined]
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(proc.args[1:3])} exited with {proc.returncode}")
    return out


class Measurement:
    """Ops of one workload, each ``[kind, is_write, latency_ns, ok,
    calibration_ns, start_ns]``, the measured window, set-up samples (wall
    and scaled to the reference speed), peak RSS and, when traced, spans."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.ops: List[list] = []
        #: per cycle of ops: [index of its first op, index past its last]
        self.cycles: List[list] = []
        self.window_ns = 0
        self.setup_s: List[float] = []
        self.setup_wall_s: List[float] = []
        self.rss_mb = 0.0
        self.errors: List[str] = []
        self.spans: Optional[List[list]] = None
        self.extra: Dict[str, Any] = {}
        #: per-op facts read from a child process (counters, edit stats)
        self.info: Dict[int, Dict[str, Any]] = {}

    def op(self, kind: str, write: bool, latency_ns: int, ok: bool, cal_ns: int,
           start_ns: int, error: str = "") -> None:
        self.ops.append([kind, int(write), latency_ns, ok, cal_ns, start_ns])
        if not ok and len(self.errors) < 10:
            self.errors.append(error)

    def end_cycle(self, first: int) -> None:
        self.cycles.append([first, len(self.ops)])

    def setup(self, wall_s: float, cal_ns: List[int]) -> None:
        self.setup_wall_s.append(wall_s)
        self.setup_s.append(calib.scaled(wall_s, cal_ns))

    def scaled_ms(self) -> List[float]:
        """Every op's latency in ms at the reference host speed."""
        return [ns / 1e6 for ns in calib.scale_ops(
            [op[5] for op in self.ops], [op[2] for op in self.ops],
            [op[4] for op in self.ops])]

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op[3])


# ---------------------------------------------------------------------------
# jolden-steady and views-evolve: an in-process worker

def measure_inproc(m: Measurement, seed: int, seconds: float, traced: bool,
                   setups: int, scratch: Path) -> None:
    """``setups`` worker processes, one after another, each set up and
    then measure an equal share of ``seconds``.  Their ops are pooled, so
    a run spans several hash seeds and memory layouts, not one."""
    spans_path = scratch / f"{m.workload}-spans.json"
    cmd = [PY, str(HERE / "inproc.py"), m.workload,
           "--seed", str(seed), "--seconds", str(seconds / setups)]
    if traced:
        cmd += ["--spans", str(spans_path)]
    for _ in range(setups):
        cal = calib.samples(3)
        start = perf_counter()
        proc = spawn(cmd)
        ready = proc.stdout.readline()
        wall = perf_counter() - start
        m.setup(wall, cal + calib.samples(3))
        out = finish(proc)
        if ready.strip() != "ready":
            raise BenchError(f"{m.workload} worker did not get ready")
        result = json.loads(out.strip().splitlines()[-1])
        base = len(m.ops)
        m.ops += result["ops"]
        m.cycles += [[first + base, end + base] for first, end in result["cycles"]]
        m.window_ns += result["window_ns"]
        m.errors += result["errors"]
        m.extra = result["extra"]
        m.rss_mb = max(m.rss_mb, result["rss_kb"] / 1024)
    if traced:
        m.spans = json.loads(spans_path.read_text())["spans"]


# ---------------------------------------------------------------------------
# cold-run: a fresh `repro run` process per op

def measure_cold(m: Measurement, seed: int, seconds: float, traced: bool,
                 setups: int, scratch: Path, reference: dict) -> None:
    workdir = scratch / "cold"
    rec = Recorder() if traced else None
    spans_path = scratch / "cold-op.json"

    def run_op(name: str, variant: int, timed: bool = True) -> None:
        path = str(workdir / wl.cold_file(name, variant))
        if rec is None:
            cmd = [PY, "-m", "repro", "run", path, "--entry", "Bench.main"]
        else:
            cmd = [PY, str(HERE / "traced_cli.py"), str(spans_path),
                   "run", path, "--entry", "Bench.main"]
        op_id = len(m.ops)
        cal = calib.sample()
        root = rec.begin(OP, op=op_id, attrs={"kind": name}) if rec and timed else -1
        start = perf_counter_ns()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=CHILD_TIMEOUT_S)
        end = perf_counter_ns()
        if root >= 0:
            rec.end(root)
        lines = proc.stdout.strip().splitlines()
        got = lines[-1] if lines else proc.stderr.strip()[-200:]
        want = reference["cold"][name][variant]
        ok = proc.returncode == 0 and got == want
        if not timed:
            if not ok:
                raise BenchError(f"cold-run warm-up {name}: {got!r} != {want!r}")
            return
        m.op(name, False, end - start, ok, cal, start, f"{name}[{variant}]: {got!r} != {want!r}")
        if root >= 0:
            child = json.loads(spans_path.read_text())
            rec.spans.append(["python.startup", start, child["t0"], root, op_id, None])
            rec.spans.append(["python.exit", child["t1"], end, root, op_id, None])
            graft(rec.spans, child["spans"], lambda s: root, lambda s: op_id)
            m.info[op_id] = {"counters": child["counters"], "cache": child["cache"]}

    cycles = wl.jolden_cycles(seed)
    cycle = next(cycles)

    def setup() -> None:
        cal = calib.samples(3)
        start = perf_counter()
        workdir.mkdir(parents=True, exist_ok=True)
        for name in wl.DRIVERS:
            for variant in range(wl.variants(name)):
                (workdir / wl.cold_file(name, variant)).write_text(
                    wl.cold_source(name, variant))
        run_op(*cycle[0], timed=False)
        m.setup(perf_counter() - start, cal + calib.samples(3))

    setup()
    start = perf_counter_ns()
    while True:
        first = len(m.ops)
        for name, variant in cycle:
            run_op(name, variant)
        m.end_cycle(first)
        if perf_counter_ns() - start >= seconds * 1e9:
            break
        cycle = next(cycles)
    m.window_ns = perf_counter_ns() - start
    for _ in range(setups - 1):
        setup()
    m.rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if rec is not None:
        m.spans = rec.spans


# ---------------------------------------------------------------------------
# serve-edit: one TCP client of a `repro serve` process

class ServeClient:
    """Minimal JSON-lines client of the serve protocol."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=CHILD_TIMEOUT_S)
        self.rfile = self.sock.makefile("rb")

    def request(self, op: str, rid: Any, **fields: Any) -> Dict[str, Any]:
        self.sock.sendall((json.dumps({"op": op, "id": rid, **fields}) + "\n").encode())
        line = self.rfile.readline()
        if not line:
            raise BenchError(f"serve closed the connection on {op}")
        resp = json.loads(line)
        if resp.get("id") != rid:
            raise BenchError(f"serve answered id {resp.get('id')!r} for {rid!r}")
        return resp

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError("no VmHWM in /proc status")


def serve_verdict(reference: dict, op: str, state, resp: Dict[str, Any]):
    """Whether a serve response is right, and what it said otherwise."""
    key = wl.serve_state_key(state)
    if op == "edit":
        return resp.get("ok") is True, resp.get("error")
    if op == "run":
        want = reference["serve"]["run"][key]
        return resp.get("ok") is True and resp.get("result") == want, resp.get("result", resp.get("error"))
    codes = sorted(d["code"] for d in resp.get("diagnostics", ())
                   if d.get("severity") == "error")
    if state[0] == "good":
        return resp.get("ok") is True and not codes, codes
    return codes == reference["serve"]["check"][key], codes


def measure_serve(m: Measurement, seed: int, seconds: float, traced: bool,
                  setups: int, scratch: Path, reference: dict) -> None:
    corona = wl.corona_source()
    sources = {wl.serve_state_key(s): wl.serve_source(corona, s) for s in wl.serve_states()}
    spans_path = scratch / "serve-spans.json"
    cmd = ([PY, str(HERE / "traced_cli.py"), str(spans_path)] if traced
           else [PY, "-m", "repro"]) + ["serve", "--port", "0"]

    def stop(proc: subprocess.Popen, client: ServeClient) -> None:
        client.request("shutdown", "shutdown")
        client.close()
        finish(proc)

    def setup():
        cal = calib.samples(3)
        start = perf_counter()
        proc = spawn(cmd)
        client = ServeClient(json.loads(proc.stdout.readline())["port"])
        initial = wl.INITIAL_STATE
        client.request("open", "setup-open", session="bench",
                       source=sources[wl.serve_state_key(initial)])
        resp = client.request("run", "setup-run", session="bench", entry="Bench.main")
        ok, said = serve_verdict(reference, "run", initial, resp)
        if not ok:
            raise BenchError(f"serve warm-up run: {said!r}")
        m.setup(perf_counter() - start, cal + calib.samples(3))
        return proc, client

    def blocks(client: ServeClient, share: float) -> None:
        edited = False
        start = perf_counter_ns()
        for block, ops in enumerate(wl.serve_blocks(seed)):
            first = len(m.ops)
            for op, state in ops:
                op_id = len(m.ops)
                fields: Dict[str, Any] = {"session": "bench"}
                if op == "edit":
                    fields["source"] = sources[wl.serve_state_key(state)]
                elif op == "run":
                    fields["entry"] = "Bench.main"
                kind = op if op != "run" else ("run:after-edit" if edited else "run:warm")
                cal = calib.sample()
                root = rec.begin(OP, op=op_id, attrs={"kind": kind}) if rec else -1
                t = perf_counter_ns()
                resp = client.request(op, op_id, **fields)
                latency = perf_counter_ns() - t
                if root >= 0:
                    rec.end(root)
                ok, said = serve_verdict(reference, op, state, resp)
                m.op(kind, op == "edit", latency, ok, cal, t,
                     f"{op} {wl.serve_state_key(state)}: {said!r}")
                stats = resp.get("stats") or {}
                m.info[op_id] = {"block": block, "strategy": stats.get("strategy"),
                                 "recomputed": (stats.get("check") or {}).get("recomputed")}
                edited = op == "edit" or (edited and op == "check")
            m.end_cycle(first)
            if perf_counter_ns() - start >= share * 1e9:
                break
        m.window_ns += perf_counter_ns() - start

    # As in the in-process workloads, each server measures an equal share
    # of the run and the ops are pooled.
    rec = Recorder() if traced else None
    for _ in range(setups):
        proc, client = setup()
        blocks(client, seconds / setups)
        m.rss_mb = max(m.rss_mb, peak_rss_mb(proc.pid))
        stop(proc, client)
    if rec is not None:
        roots = {s[4]: i for i, s in enumerate(rec.spans) if s[0] == OP}
        child = json.loads(spans_path.read_text())["spans"]
        graft(rec.spans, child, lambda s: roots.get(s[4], -1),
              lambda s: s[4] if s[4] in roots else None)
        m.spans = rec.spans


def measure(workload: str, seed: int, seconds: float, traced: bool, setups: int,
            scratch: Path, reference: dict) -> Measurement:
    m = Measurement(workload)
    if workload in ("jolden-steady", "views-evolve"):
        measure_inproc(m, seed, seconds, traced, setups, scratch)
    elif workload == "cold-run":
        measure_cold(m, seed, seconds, traced, setups, scratch, reference)
    else:
        measure_serve(m, seed, seconds, traced, setups, scratch, reference)
    return m


# ---------------------------------------------------------------------------
# metrics

def tail(values: List[float]) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return {"value": s[-1], "percentile": 100.0, "samples": n}
    return {"value": s[n - 11], "percentile": round(100.0 * (n - 10) / n, 2), "samples": n}


def end_to_end(m: Measurement) -> Dict[str, Any]:
    """Every time at the reference host speed (``calib.py``); the wall
    clock figures they come from are in the details."""
    lat = m.scaled_ms()
    writes = [ms for ms, op in zip(lat, m.ops) if op[1]]
    raw = [op[2] / 1e6 for op in m.ops]
    out = {
        "setup_s": statistics.median(m.setup_s),
        # Ops completed right per second of op time, as a median over
        # whole cycles, each the same mix of ops.
        "throughput_ops_s": statistics.median(
            sum(op[3] for op in m.ops[first:end]) / (sum(lat[first:end]) / 1e3)
            for first, end in m.cycles),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail(lat)["value"],
        "peak_rss_mb": m.rss_mb,
        "error_rate": m.failed / len(m.ops),
    }
    by_kind: Dict[str, List[float]] = {}
    for ms, op in zip(lat, m.ops):
        by_kind.setdefault(op[0], []).append(ms)
    details = {"latency_tail": tail(lat), "setup_samples_s": m.setup_s,
               "p50_ms_by_kind": {k: [len(v), statistics.median(v)]
                                  for k, v in sorted(by_kind.items())},
               "ops": len(m.ops), "cycles": len(m.cycles), "window_s": m.window_ns / 1e9,
               # The wall clock, unscaled; the window includes the
               # calibration samples.
               "wall": {"setup_samples_s": m.setup_wall_s,
                        "latency_p50_ms": statistics.median(raw),
                        "latency_tail_ms": tail(raw)["value"],
                        "throughput_window_ops_s":
                            sum(op[3] for op in m.ops) / (m.window_ns / 1e9)},
               "host_slowness_p50": statistics.median(op[4] for op in m.ops) / calib.REF_NS}
    if writes:
        out["write_p50_ms"] = statistics.median(writes)
        out["write_tail_ms"] = tail(writes)["value"]
        details["write_tail"] = tail(writes)
    return {"metrics": out, "details": details}


def span_ms(m: Measurement, name: str, where=lambda s: True) -> Dict[Any, float]:
    """Per op, the summed duration in ms of its spans called ``name``."""
    out: Dict[Any, float] = {}
    for s in m.spans or ():
        if s[0] == name and s[4] is not None and where(s):
            out[s[4]] = out.get(s[4], 0.0) + (s[2] - s[1]) / 1e6
    return out


def median_of(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def cold_layers(m: Measurement) -> Dict[str, float]:
    first = [i for i in m.info if i < len(wl.DRIVERS)]
    counter = lambda i, name: m.info[i]["counters"].get(name, 0)  # noqa: E731
    parse = span_ms(m, "source.parse")
    tokens = sum(counter(i, "lex.tokens") for i in m.info)
    ratios = [c["hits"] / (c["hits"] + c["misses"])
              for c in (m.info[i]["cache"] for i in m.info) if c["hits"] + c["misses"]]
    is_first = lambda s: bool(s[5] and s[5].get("first"))  # noqa: E731
    return {
        "import.cli_ms": median_of(span_ms(m, "import").values()),
        "source.parse_ms": median_of(parse.values()),
        "source.tokens": sum(counter(i, "lex.tokens") for i in first),
        "source.tokens_per_s": tokens / (sum(parse.values()) / 1e3),
        "lang.classtable_ms": median_of(span_ms(m, "lang.classtable").values()),
        "lang.resolve_ms": median_of(span_ms(m, "lang.resolve").values()),
        "lang.check_ms": median_of(span_ms(m, "lang.check").values()),
        "lang.queries.hit_ratio": median_of(ratios),
        "lang.queries.misses": sum(m.info[i]["cache"]["misses"] for i in first),
        "runtime.first_new_ms": median_of(span_ms(m, "runtime.new", is_first).values()),
        "runtime.first_call_ms": median_of(span_ms(m, "runtime.call", is_first).values()),
        "runtime.codegen.bodies_emitted": sum(counter(i, "codegen.bodies_emitted") for i in first),
        "runtime.specialize.sites_devirtualized": sum(
            counter(i, "specialize.sites_devirtualized") for i in first),
    }


def jolden_layers(m: Measurement) -> Dict[str, float]:
    calls = span_ms(m, "runtime.call", lambda s: s[3] >= 0 and m.spans[s[3]][0] == OP)
    kind = {i: op[0] for i, op in enumerate(m.ops)}
    out = {
        f"runtime.call_ms.{name}": median_of(v for i, v in calls.items() if kind[i] == name)
        for name in wl.DRIVERS
    }
    gcs = [s for s in m.spans if s[0] == "py.gc" and s[4] is not None]
    out["runtime.alloc"] = m.extra["alloc"] / len(m.ops)
    out["py.gc.collections"] = len(gcs) / len(m.ops)
    out["py.gc.pause_ms"] = sum(s[2] - s[1] for s in gcs) / 1e6 / len(m.ops)
    return out


def views_layers(m: Measurement) -> Dict[str, float]:
    def by(name: str, attr: str, value: Optional[str]) -> List[float]:
        return [(s[2] - s[1]) / 1e6 for s in m.spans if s[0] == name and s[4] is not None
                and (value is None or (s[5] or {}).get(attr) == value)]

    hits, new = m.extra["memo_hit"], m.extra["new_ref"]
    out = {f"corona.fetch_ms.{f}": median_of(by("corona.fetch", "family", f)) for f in wl.FAMILIES}
    out.update({f"corona.evolve_ms.{f}": median_of(by("corona.evolve", "family", f))
                for f in wl.FAMILIES[1:]})
    out["corona.publish_ms"] = median_of(by("corona.publish", "", None))
    out["corona.hops_per_fetch"] = m.extra["first_epoch"]["hops_per_fetch"]
    out["runtime.view_change.memo_hit_ratio"] = hits / (hits + new) if hits + new else 0.0
    out["runtime.view_change.new_ref"] = m.extra["first_epoch"]["new_ref"]
    return out


def serve_layers(m: Measurement) -> Dict[str, float]:
    lat = lambda pred: [op[2] / 1e6 for op in m.ops if pred(op[0])]  # noqa: E731
    edits = [i for i, op in enumerate(m.ops) if op[0] == "edit"]
    grafted = sum(1 for i in edits if m.info[i]["strategy"] == "incremental")
    return {
        "lang.incremental.edit_ms": median_of(span_ms(m, "lang.incremental.edit").values()),
        "lang.incremental.check_ms": median_of(
            (s[2] - s[1]) / 1e6 for s in m.spans
            if s[0] == "lang.incremental.check" and s[4] is not None),
        "lang.incremental.graft_ratio": grafted / len(edits),
        "lang.incremental.recomputed": sum(
            info["recomputed"] or 0 for info in m.info.values() if info["block"] == 0),
        "serve.request_ms.run": median_of(lat(lambda k: k.startswith("run"))),
        "serve.request_ms.check": median_of(lat(lambda k: k == "check")),
        "serve.request_ms.edit": median_of(lat(lambda k: k == "edit")),
        "serve.run_warm_ms": median_of(lat(lambda k: k == "run:warm")),
        "serve.run_after_edit_ms": median_of(lat(lambda k: k == "run:after-edit")),
    }


LAYERS = {"cold-run": cold_layers, "jolden-steady": jolden_layers,
          "views-evolve": views_layers, "serve-edit": serve_layers}

#: Counts that must repeat exactly across runs of one seed.
EXACT = ("source.tokens", "runtime.codegen.bodies_emitted",
         "runtime.specialize.sites_devirtualized", "lang.incremental.recomputed",
         "corona.hops_per_fetch")


def trace_overhead(base: Measurement, traced: Measurement) -> Dict[str, Any]:
    """Traced minus untraced latency, and how much of each traced op's
    latency the layers' self times leave unexplained."""
    p50 = statistics.median(base.scaled_ms())
    p50_traced = statistics.median(traced.scaled_ms())
    layers = op_layers(traced.spans)
    unattributed = sorted(e["unattributed"] for e in layers.values())
    layer_self: Dict[str, List[float]] = {}
    by_kind: Dict[str, List[float]] = {}
    for op_id, entry in layers.items():
        by_kind.setdefault(traced.ops[op_id][0], []).append(100.0 * entry["unattributed"])
        for layer, ns in entry["layers"].items():
            layer_self.setdefault(layer, []).append(ns / 1e6)
    return {
        "metrics": {
            "trace.overhead_ms": p50_traced - p50,
            "trace.overhead_pct": 100.0 * (p50_traced - p50) / p50,
            "trace.unattributed_pct": 100.0 * statistics.median(unattributed),
        },
        "unattributed_p95_pct": 100.0 * unattributed[int(0.95 * (len(unattributed) - 1))],
        "unattributed_pct_p50_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "layer_self_ms_p50": {k: statistics.median(v) for k, v in sorted(layer_self.items())},
    }


# ---------------------------------------------------------------------------
# records

def provenance(args) -> Dict[str, Any]:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    # The program and the benchmark: runs compare only under equal digests.
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py"),
                        HERE / "reference.json"]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "code_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".perfbench_out"),
                        help="directory for run records and scratch files")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources under src/; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cpu = calib.pin()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    out = Path(args.out)
    scratch = out / "scratch" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    record: Dict[str, Any] = {"workload": args.workload, "trace": args.trace,
                              "provenance": {**provenance(args), "cpu": cpu}}
    try:
        return report(args, bench, reference, scratch, record, out)
    finally:
        reap_children()
        shutil.rmtree(scratch, ignore_errors=True)


def report(args, bench: dict, reference: dict, scratch: Path, record: Dict[str, Any],
           out: Path) -> int:
    """Measure, print the result line and save the run record."""
    try:
        if args.trace == 0:
            m = measure(args.workload, args.seed, args.seconds, False, SETUPS, scratch, reference)
            measured = [m]
            e2e = end_to_end(m)
            record["details"] = e2e["details"]
            wanted = [x["name"] for x in bench["end_to_end"]]
            metrics = e2e["metrics"]
        else:
            # Half the run untraced and half traced, so a traced run costs
            # about what an untraced one does.
            half = args.seconds / 2
            base = measure(args.workload, args.seed, half, False, 1, scratch, reference)
            found = {args.workload: measure(args.workload, args.seed, half, True, 1,
                                            scratch, reference)}
            for w in wl.WORKLOADS:
                if w != args.workload:
                    found[w] = measure(w, args.seed, 0, True, 1, scratch, reference)
            measured = [base, *found.values()]
            metrics = {}
            for w, m in found.items():
                metrics.update(LAYERS[w](m))
            overhead = trace_overhead(base, found[args.workload])
            metrics.update(overhead.pop("metrics"))
            record["trace_details"] = overhead
            if metrics["trace.unattributed_pct"] > UNATTRIBUTED_PCT:
                print(f"perfbench: layer self times leave "
                      f"{metrics['trace.unattributed_pct']:.1f}% of the median "
                      f"{args.workload} op unattributed", file=sys.stderr)
            record["exact"] = {k: metrics[k] for k in EXACT}
            wanted = [x["name"] for x in bench["per_layer"]]
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"perfbench: {args.workload}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1
    units = {x["name"]: x["unit"] for x in bench["end_to_end"] + bench["per_layer"]}
    attempted = sum(len(m.ops) for m in measured)
    failed = sum(m.failed for m in measured)
    errors = [e for m in measured for e in m.errors][:10]
    record.update({"attempted": attempted, "failed": failed, "errors": errors,
                   "metrics": metrics})
    runs = out / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if "exact" in record:
        from compare import nondeterministic, run_key

        flagged = [msg for msg in nondeterministic(runs)
                   if msg.startswith(run_key(record) + " :")]
        if flagged:
            record["nondeterministic"] = flagged
            path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        for message in flagged:
            print(f"perfbench: NON-DETERMINISTIC: {message}", file=sys.stderr)
    for key in sorted(metrics):
        print(f"  {args.workload:14s} {key:40s} {metrics[key]:14.4f} {units.get(key, '')}",
              file=sys.stderr)
    for e in errors:
        print(f"  error: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
