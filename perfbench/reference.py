"""Regenerate the pinned reference outputs, ``reference.json``.

Run from the repository root::

    python3 perfbench/reference.py

Every output is computed on the ``walker`` backend (the reference
semantics), never on ``codegen``, the backend the benchmark measures:

* ``jolden``: ``Main.run`` of each driver on each steady input variant;
* ``cold``: the ``=> N`` line of ``repro run --backend walker`` on each
  small cold-run file;
* ``serve``: ``Bench.main`` of each good serve-edit program state, and
  the sorted error codes of each ill-typed one;
* ``views``: per CorONA epoch script, each poll's hop count and contents
  digest, and the digest of the store contents at the end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import workloads as wl
from inproc import store_digest, views_op, views_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COMMAND = "python3 perfbench/reference.py"


def jolden():
    from repro import compile_program

    out = {}
    for name in wl.DRIVERS:
        interp = compile_program(wl.jolden_source(name)).interp(backend="walker")
        main = interp.new_instance(("Main",), ())
        out[name] = [
            interp.call_method(main, "run", list(wl.jolden_args(name, v)))
            for v in range(wl.variants(name))
        ]
    return out


def cold(workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = {}
    for name in wl.DRIVERS:
        lines = []
        for v in range(wl.variants(name)):
            path = workdir / wl.cold_file(name, v)
            path.write_text(wl.cold_source(name, v))
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "run", str(path),
                 "--entry", "Bench.main", "--backend", "walker"],
                capture_output=True, text=True, env=env, cwd=ROOT, check=True,
            )
            lines.append(proc.stdout.strip().splitlines()[-1])
        out[name] = lines
    return out


def serve():
    from repro import check_source, compile_program

    corona = wl.corona_source()
    out = {"run": {}, "check": {}}
    for state in wl.serve_states():
        source = wl.serve_source(corona, state)
        key = wl.serve_state_key(state)
        if state[0] == "good":
            interp = compile_program(source).interp(backend="walker")
            out["run"][key] = interp.run("Bench.main")
        else:
            out["check"][key] = sorted(d.code for d in check_source(source).errors)
    return out


def views():
    from repro.programs.corona import CoronaSystem

    out = []
    for index in range(wl.SCRIPTS):
        system = CoronaSystem(size=wl.RING, objects=wl.OBJECTS, backend="walker")
        ops, hops = [], 0
        for op in wl.views_script(index):
            output, hops = views_output(system, op, views_op(system, op), hops)
            ops.append(output)
        out.append({"ops": ops, "store": store_digest(system)})
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    reference = {
        "command": COMMAND,
        "backend": "walker",
        "jolden": jolden(),
        "cold": cold(ROOT / ".perfbench_out" / "reference"),
        "serve": serve(),
        "views": views(),
    }
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
