"""What a fresh ``python -m repro run`` process loads and leaves behind.

A one-shot ``repro run`` pays for every module it imports (without a
bytecode cache it compiles each from source), so the run path must not
import modules only other commands, flags or programs use, nor
``dataclasses`` and the ``inspect`` machinery it drags in; ``repro
serve`` likewise loads no HTTP stack.  The process
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

#: Modules only other commands, flags or programs need: the tree walker,
#: the tracer's records and exporters, the derivation recorder, the
#: diagnostic sink and renderer, the non-run commands, and the sharing
#: judgments (the treeadd driver shares no class).
NOT_ON_RUN_PATH = (
    "repro.profiler",
    "repro.lang.infer",
    "repro.source.unparse",
    "repro.telemetry",
    "repro.serve",
    "repro.runtime.walker",
    "repro.obs_export",
    "repro.lang.derivation",
    "repro.sink",
    "repro.commands",
    "repro.lang.sharing",
)

#: Standard-library modules no run-path module may pull in:
#: ``dataclasses`` imports ``inspect`` (and with it ``dis``, ``ast`` and
#: ``tokenize``) and runs ``exec`` per decorated class.
NOT_IMPORTED_STDLIB = ("dataclasses", "inspect", "dis")

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
    assert sorted(loaded.intersection(NOT_IMPORTED_STDLIB)) == []


def test_run_footprint(driver, tmp_path):
    proc = python("-X", "importtime", "-m", "repro", "run", str(driver),
                  "--entry", "Bench.main", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [RESULT]
    loaded = imported(proc.stderr)
    assert "repro.runtime.codegen" in loaded
    assert sorted(loaded.intersection(NOT_ON_RUN_PATH)) == []
    assert sorted(loaded.intersection(NOT_IMPORTED_STDLIB)) == []


#: ``A.next`` is view-dependent (``F0[this.class].A``), so its read plan
#: has a no-op set; no statement asks for a sharing judgment.
VIEW_FIELD = """\
class F0 {
  class A {
    int v = 1;
    A next;
    int get() { return v; }
  }
}
class Main {
  int main() {
    F0!.A a = new F0.A();
    a.next = new F0.A();
    return a.get() + a.next.get();
  }
}
"""


def test_run_with_view_dependent_field_skips_sharing(tmp_path):
    """A read plan's no-op set is the class table's conformance set, so
    specializing a view-dependent field loads no sharing judgments."""
    path = tmp_path / "views.jns"
    path.write_text(VIEW_FIELD)
    proc = python("-X", "importtime", "-m", "repro", "run", str(path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["=> 2"]
    loaded = imported(proc.stderr)
    assert "repro.runtime.codegen" in loaded
    assert "repro.lang.sharing" not in loaded


def test_import_serve_footprint(tmp_path):
    """The check service speaks JSON Lines over a raw socket; it must not
    pull in an HTTP stack (``http.server`` drags in ``email``)."""
    proc = python("-X", "importtime", "-c", "import repro.serve", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = imported(proc.stderr)
    assert "repro.serve" in loaded
    assert sorted(m for m in loaded if m.split(".")[0] in ("http", "email")) == []


def test_profiler_reexports_are_the_same_objects():
    import repro.obs
    import repro.profiler
    import repro.runtime.codegen

    assert repro.profiler.PROFILER is repro.obs.PROFILER
    assert repro.profiler.LineProfiler is repro.obs.LineProfiler
    assert repro.profiler.EmittedSource is repro.runtime.codegen.EmittedSource


def test_exit_path_writes_complete_outputs(driver, tmp_path):
    proc = python("-m", "repro", "run", str(driver), "--entry", "Bench.main",
                  "--trace-out", "t.jsonl", "--flame", "f.txt",
                  "--stats-json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # The program's own output ends with its result; --stats-json adds
    # one JSON line after it.
    *program, stats = proc.stdout.splitlines()
    assert program[-1] == RESULT
    assert json.loads(stats)["hits"] > 0
    text = (tmp_path / "t.jsonl").read_text()
    assert text.endswith("\n")
    events = [json.loads(line) for line in text.splitlines()]
    assert {"parse", "typecheck"} <= {e["name"] for e in events}
    folds = (tmp_path / "f.txt").read_text()
    assert folds.endswith("\n")
    lines = folds.splitlines()
    assert lines and all(re.fullmatch(r"\S+ \d+", line) for line in lines)
