#!/usr/bin/env python
"""Run-path map: what a cold ``repro run`` compiles, and how much of it runs.

For every ``repro`` module that ``repro run`` loads on the ten cold-run
jolden driver inputs (``perfbench/workloads.py``: each driver's program
plus a ``Bench.main`` on its small input), print

* ``lines``: physical source lines of the module;
* ``compile ms``: ``compile()`` of its source, best of N (a process
  without a bytecode cache pays this on every start);
* ``never-called lines``: lines inside functions (and methods) that no
  run called, counting each outermost such function once.

A child process imports ``repro.cli``, installs a ``sys.setprofile``
hook and runs ``repro.cli.main(["run", FILE, "--entry", "Bench.main"])``
on each driver in turn, so the module set and the called functions are
the union over all ten runs.  Standard library only; informational, it
gates nothing.

Run from the repository root::

    python scripts/runpath_map.py [--repeat N] [--json]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child(files: list) -> dict:
    """Run each driver in this process and report the loaded ``repro``
    modules and the (file, first line) of every function called, import
    time included."""
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(hook)
    try:
        import repro.cli

        for path in files:
            with contextlib.redirect_stdout(io.StringIO()):
                code = repro.cli.main(["run", path, "--entry", "Bench.main"])
            if code != 0:
                raise SystemExit(f"repro run {path} exited {code}")
    finally:
        sys.setprofile(None)
    modules = {
        name: mod.__file__
        for name, mod in sys.modules.items()
        if (name == "repro" or name.startswith("repro.")) and getattr(mod, "__file__", None)
    }
    return {"modules": modules, "called": sorted(called)}


def never_called(source: str, filename: str, called: set) -> list:
    """``(name, first line, lines)`` of the outermost functions of
    ``source`` that were never called."""
    found = []
    stack = [ast.parse(source, filename)]
    while stack:
        node = stack.pop()
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([sub.lineno] + [d.lineno for d in sub.decorator_list])
                if (filename, first) not in called:
                    found.append((sub.name, first, sub.end_lineno - first + 1))
                    continue
            stack.append(sub)
    return sorted(found, key=lambda f: f[1])


def compile_ms(source: str, filename: str, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        compile(source, filename, "exec", dont_inherit=True)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def driver_files(workdir: Path) -> list:
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(SRC))
    import workloads as wl

    files = []
    for name in wl.DRIVERS:
        path = workdir / wl.cold_file(name, 0)
        path.write_text(wl.cold_source(name, 0))
        files.append(str(path))
    return files


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=7, help="compile() repeats per module")
    ap.add_argument("--json", action="store_true", help="print the rows as JSON")
    ap.add_argument("--functions", action="store_true",
                    help="also list each module's never-called functions")
    ap.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        json.dump(child(args.child), sys.stdout)
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        files = driver_files(Path(tmp))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, __file__, "--child", *files],
            capture_output=True, text=True, env=env, cwd=tmp,
        )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return 1
    result = json.loads(proc.stdout)
    called = {tuple(c) for c in result["called"]}

    rows = []
    for name, filename in sorted(result["modules"].items()):
        source = Path(filename).read_text()
        unused = never_called(source, filename, called)
        rows.append({
            "module": name,
            "lines": source.count("\n"),
            "compile_ms": round(compile_ms(source, filename, args.repeat), 2),
            "never_called": sum(n for _, _, n in unused),
            "functions": [f"{fn}:{line} ({n})" for fn, line, n in unused],
        })
    totals = {
        "module": f"total ({len(rows)} modules)",
        "lines": sum(r["lines"] for r in rows),
        "compile_ms": round(sum(r["compile_ms"] for r in rows), 2),
        "never_called": sum(r["never_called"] for r in rows),
    }
    if args.json:
        if not args.functions:
            for r in rows:
                del r["functions"]
        print(json.dumps({"rows": rows, "total": totals}, indent=2))
        return 0
    width = max(len(r["module"]) for r in rows + [totals])
    print(f"{'module':<{width}}  {'lines':>6}  {'compile ms':>10}  {'never-called lines':>18}")
    for r in rows + [totals]:
        if r is totals:
            print("-" * (width + 40))
        print(f"{r['module']:<{width}}  {r['lines']:>6}  {r['compile_ms']:>10.2f}  "
              f"{r['never_called']:>18}")
        if args.functions and r is not totals:
            for fn in r["functions"]:
                print(f"    {fn}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
