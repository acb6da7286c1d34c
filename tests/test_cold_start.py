"""What a fresh ``python -m repro run`` process loads and leaves behind.

A one-shot ``repro run`` pays for every module it imports, so the run
path must not import modules only other commands use.  The process
also skips the interpreter's exit-time GC sweep (see ``__main__.py``);
the last test checks that every output a run writes is still complete.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.programs.jolden import treeadd

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Modules only other commands (or flags) need.
NOT_ON_RUN_PATH = (
    "repro.profiler",
    "repro.lang.infer",
    "repro.source.unparse",
    "repro.runtime.compiler",
    "repro.telemetry",
    "repro.serve",
)

DEPTH, ITERS = 6, 2
DRIVER = treeadd.SOURCE + (
    "\nclass Bench {\n  int main() {\n"
    f"    Main m = new Main();\n    return m.run({DEPTH}, {ITERS});\n  }}\n}}\n"
)
RESULT = f"=> {treeadd.expected(DEPTH, ITERS)}"


def python(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, env=env, timeout=120)


def imported(importtime_log: str) -> set:
    """Module names in a ``-X importtime`` log."""
    return {line.rsplit("|", 1)[1].strip()
            for line in importtime_log.splitlines() if line.startswith("import time:")}


@pytest.fixture
def driver(tmp_path):
    path = tmp_path / "treeadd.jns"
    path.write_text(DRIVER)
    return path


def test_import_cli_footprint(tmp_path):
    proc = python("-X", "importtime", "-c", "import repro.cli", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = imported(proc.stderr)
    assert "repro.cli" in loaded
    assert sorted(loaded.intersection(NOT_ON_RUN_PATH)) == []


def test_run_footprint(driver, tmp_path):
    proc = python("-X", "importtime", "-m", "repro", "run", str(driver),
                  "--entry", "Bench.main", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [RESULT]
    loaded = imported(proc.stderr)
    assert "repro.runtime.codegen" in loaded
    assert sorted(loaded.intersection(NOT_ON_RUN_PATH)) == []


def test_profiler_reexports_are_the_same_objects():
    import repro.obs
    import repro.profiler
    import repro.runtime.codegen

    assert repro.profiler.PROFILER is repro.obs.PROFILER
    assert repro.profiler.LineProfiler is repro.obs.LineProfiler
    assert repro.profiler.fold_label is repro.obs.fold_label
    assert repro.profiler.EmittedSource is repro.runtime.codegen.EmittedSource


def test_exit_path_writes_complete_outputs(driver, tmp_path):
    proc = python("-m", "repro", "run", str(driver), "--entry", "Bench.main",
                  "--trace-out", "t.jsonl", "--flame", "f.txt",
                  "--otlp-out", "o.jsonl", "--stats-json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # The program's own output ends with its result; --stats-json adds
    # one JSON line after it.
    *program, stats = proc.stdout.splitlines()
    assert program[-1] == RESULT
    assert json.loads(stats)["hits"] > 0
    for name in ("t.jsonl", "o.jsonl"):
        text = (tmp_path / name).read_text()
        assert text.endswith("\n")
        events = [json.loads(line) for line in text.splitlines()]
        assert {"parse", "typecheck"} <= {e["name"] for e in events}, name
    folds = (tmp_path / "f.txt").read_text()
    assert folds.endswith("\n")
    lines = folds.splitlines()
    assert lines and all(re.fullmatch(r"\S+ \d+", line) for line in lines)
