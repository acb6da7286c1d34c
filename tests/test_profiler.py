"""Source-level profiler tests: jns source maps on the emitted code,
deterministic per-line event counters across every backend, and the
report surfaces."""

import json
import linecache
import subprocess
import sys

import pytest

from repro.api import compile_program
from repro.cli import main as cli_main
from repro import obs
from repro.obs import fold_label
from repro.profiler import (
    PROFILER,
    EmittedSource,
    ProfileReport,
    run_deterministic,
)
from repro.runtime.interp import BACKENDS

# Fig. 5-style masked field behind a view change, plus a loop so the
# deterministic counters have a hot line.
MASKED_LOOP = """
class F0 {
  class A {
    int x = 5;
    int get() { return x; }
  }
}
class F1 extends F0 {
  class A shares F0.A {
    int y;
    int get() { return x + y; }
  }
}
class Main {
  int main() {
    F0!.A a = new F0.A();
    F1!.A\\y v = (view F1!.A\\y)a;
    v.y = 37;
    int t = 0;
    int i = 0;
    while (i < 50) {
      t = t + a.get() + v.get();
      i = i + 1;
    }
    return t;
  }
}
"""

# The same shape without views, for the modes that have none: field
# reads and writes through ``this`` and through another receiver.
PLAIN_LOOP = """
class A {
  int x = 5;
  A next;
  int get() { return x; }
}
class Main {
  int main() {
    A a = new A();
    a.next = new A();
    a.next.x = 37;
    int t = 0;
    int i = 0;
    while (i < 50) {
      t = t + a.get() + a.next.x;
      i = i + 1;
    }
    return t;
  }
}
"""


# ----------------------------------------------------------------------
# fold labels
# ----------------------------------------------------------------------


class TestFoldLabel:
    def test_semicolons_and_whitespace_escaped(self):
        assert fold_label("a;b c\td") == "a:b_c_d"

    def test_newlines_escaped(self):
        assert fold_label("a\nb") == "a_b"

    def test_empty_becomes_anonymous(self):
        assert fold_label("") == "(anonymous)"

    def test_clean_label_unchanged(self):
        assert fold_label("Main.run:24") == "Main.run:24"


# ----------------------------------------------------------------------
# source maps on the emitted python
# ----------------------------------------------------------------------


class TestSourceMaps:
    def _cg(self):
        interp = compile_program(MASKED_LOOP).interp(
            mode="jns", backend="codegen"
        )
        # a keeps the F0 view (get -> 5); v sees the shared field (42)
        assert interp.run("Main.main") == 50 * (5 + 42)
        return interp._cg

    def test_sources_are_emitted_source_strings(self):
        cg = self._cg()
        src = cg.sources["Main.main"]
        assert isinstance(src, EmittedSource)
        assert isinstance(src, str)  # str-compat for substring asserts
        assert src.label == "Main.main"
        assert src.filename == "<jns:Main.main>"

    def test_linemap_covers_every_emitted_line(self):
        cg = self._cg()
        src = cg.sources["Main.main"]
        # one linemap slot per emitted python line, 1-based via resolve()
        assert len(src.linemap) == len(str(src).splitlines())

    def test_resolve_maps_python_lines_to_jns_positions(self):
        cg = self._cg()
        src = cg.sources["Main.main"]
        positions = {
            src.resolve(i) for i in range(1, len(src.linemap) + 1)
        }
        positions.discard(None)
        assert positions, "no python line resolved to a jns span"
        jns_lines = {pos[0] for pos in positions}
        # the while loop (condition + body) must be attributed
        assert jns_lines & {21, 22, 23}

    def test_header_resolves_to_declaration(self):
        cg = self._cg()
        src = cg.sources["Main.main"]
        # the def header (python line 1) carries the declaration's span,
        # so a frame stopped at function entry still resolves
        assert src.resolve(1) is not None

    def test_by_filename_index_and_linecache(self):
        cg = self._cg()
        src = cg.sources["Main.main"]
        assert cg.by_filename[src.filename] is src
        # tracebacks through the emitted code can show source lines
        assert linecache.getline(src.filename, 1).startswith("def ")

    def test_out_of_range_resolve_is_none(self):
        cg = self._cg()
        src = cg.sources["Main.main"]
        assert src.resolve(0) is None
        assert src.resolve(len(src.linemap) + 10) is None


# ----------------------------------------------------------------------
# deterministic counters: a cross-backend invariant
# ----------------------------------------------------------------------


class TestDeterministicParity:
    def _snapshots(self, mode="jns"):
        program = compile_program(MASKED_LOOP if mode == "jns" else PLAIN_LOOP)
        snaps = {}
        results = set()
        for backend in BACKENDS:
            snap, result = run_deterministic(
                program, entry="Main.main", backend=backend, mode=mode
            )
            snaps[backend] = snap
            results.add(result)
        assert len(results) == 1
        return snaps

    @pytest.mark.parametrize("mode", ["java", "jx_cl", "jns"])
    def test_steps_mask_view_agree_across_all_backends(self, mode):
        snaps = self._snapshots(mode)
        base = snaps["walker"]
        for backend, snap in snaps.items():
            for col in ("steps", "mask", "view"):
                assert snap[col] == base[col], (backend, col)
            assert snap["steps"]
            if mode != "jns":
                # no views: no mask test and no view change to count
                assert not snap["mask"] and not snap["view"], backend
        if mode == "jns":
            return
        # nor a traced mask check
        program = compile_program(PLAIN_LOOP)
        for backend in BACKENDS:
            obs.enable()
            try:
                assert program.interp(mode=mode, backend=backend).run("Main.main")
                assert "mask.check" not in obs.TRACER.counters, backend
            finally:
                obs.disable()

    def test_loop_body_is_the_hot_line(self):
        snaps = self._snapshots()
        steps = snaps["walker"]["steps"]
        # the two while-body statements step once per iteration; the
        # straight-line prologue steps once
        assert steps[22] == 50 and steps[23] == 50
        assert steps[16] == 1

    def test_mask_checks_attributed_to_get_calls(self):
        snaps = self._snapshots()
        mask = snaps["walker"]["mask"]
        assert sum(mask.values()) > 0
        # every mask check lands on a line that also stepped
        assert set(mask) <= set(snaps["walker"]["steps"])

    def test_dispatch_elision_is_visible(self):
        # dispatch is deliberately NOT invariant: it counts megamorphic
        # lookups, and the optimizing tiers exist to elide them
        snaps = self._snapshots()
        walker = sum(snaps["walker"]["dispatch"].values())
        codegen = sum(snaps["codegen"]["dispatch"].values())
        assert walker >= codegen

    def test_profiler_disabled_after_run(self):
        program = compile_program(MASKED_LOOP)
        run_deterministic(program, entry="Main.main", backend="walker")
        assert not PROFILER.enabled

    def test_unprofiled_interp_emits_no_hits(self):
        program = compile_program(MASKED_LOOP)
        interp = program.interp(mode="jns", backend="codegen")
        assert interp.run("Main.main") > 0
        assert "_pfh(" not in str(interp._cg.sources["Main.main"])

    def test_profiled_interp_emits_hit_calls(self):
        program = compile_program(MASKED_LOOP)
        interp = program.interp(
            mode="jns", backend="codegen", line_profile=True
        )
        assert interp.run("Main.main") > 0
        assert "_pfh(" in str(interp._cg.sources["Main.main"])


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------


class TestReport:
    def _report(self):
        program = compile_program(MASKED_LOOP)
        snap, _ = run_deterministic(program, entry="Main.main")
        return ProfileReport(
            MASKED_LOOP, "<test>", det=snap, backend_det="codegen"
        )

    def test_render_text_has_heat_and_columns(self):
        text = self._report().render_text()
        assert "steps" in text and "mask" in text and "view" in text
        assert "█" in text  # the hottest line gets the full heat bar

    def test_render_text_context_collapses(self):
        text = self._report().render_text(context=1)
        assert "..." in text  # unattributed stretches collapse

    def test_to_dict_shape(self):
        d = self._report().to_dict()
        assert set(d) == {"file", "backend_det", "lines"}
        assert d["backend_det"] == "codegen"
        assert d["lines"]
        row = d["lines"][0]
        assert set(row) == {"line", "steps", "mask", "view", "dispatch", "text"}

    def test_render_html_is_self_contained(self):
        html = self._report().render_html()
        assert html.startswith("<!DOCTYPE html>") or "<html" in html
        assert "<script" not in html
        assert "<details" in html


# ----------------------------------------------------------------------
# emitted-source determinism (two fresh processes)
# ----------------------------------------------------------------------

_DUMP_SOURCES = """
import sys
sys.path.insert(0, {src_path!r})
from repro.api import compile_program
program = compile_program({source!r})
interp = program.interp(mode="jns", backend="codegen")
interp.run("Main.main")
for label in sorted(interp._cg.sources):
    src = interp._cg.sources[label]
    sys.stdout.write(f"== {{label}} {{src.filename}}\\n")
    sys.stdout.write(str(src))
    sys.stdout.write(repr(list(src.linemap)) + "\\n")
"""


class TestEmittedDeterminism:
    def test_sources_byte_identical_across_processes(self, tmp_path):
        import os

        src_path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        script = _DUMP_SOURCES.format(src_path=src_path, source=MASKED_LOOP)
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert "== Main.main <jns:Main.main>" in outs[0]


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------


@pytest.fixture
def masked_file(tmp_path):
    path = tmp_path / "masked.jns"
    path.write_text(MASKED_LOOP)
    return str(path)


class TestProfileCli:
    def test_json_output(self, masked_file, capsys):
        assert cli_main(["profile", masked_file, "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["lines"] and set(d) == {"file", "backend_det", "lines"}

    def test_text_heatmap(self, masked_file, capsys):
        assert cli_main(["profile", masked_file]) == 0
        out = capsys.readouterr().out
        assert "steps" in out and "source" in out

    def test_html_report(self, masked_file, tmp_path, capsys):
        out = tmp_path / "profile.html"
        assert cli_main(["profile", masked_file, "--html", str(out)]) == 0
        html = out.read_text()
        assert "<details" in html and "<script" not in html

    @pytest.mark.parametrize(
        "flag",
        [["--no-sample"], ["--flame", "f.txt"], ["--interval", "1"],
         ["--min-samples", "5"]],
        ids=["no-sample", "flame", "interval", "min-samples"],
    )
    def test_sampler_flags_are_gone(self, masked_file, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["profile", masked_file, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_jolden_driver(self, capsys):
        assert cli_main(["profile", "jolden:nope"]) == 2

    def test_check_error_renders_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.jns"
        bad.write_text('class Main { int main() { return "oops"; } }')
        assert cli_main(["profile", str(bad)]) == 1

    def test_run_line_profile_flag(self, masked_file, capsys):
        assert cli_main(["run", masked_file, "--line-profile"]) == 0
        err = capsys.readouterr().err
        assert "steps" in err and "heat" in err
