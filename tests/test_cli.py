"""CLI tests (python -m repro)."""

import json
import sys
from pathlib import Path

import pytest

from repro.cli import main

GOOD = """
class A { class C { } }
class B extends A { class C shares A.C { } }
class Main {
  int main() {
    A!.C a = new A.C();
    B!.C b = (view B!.C)a;
    Sys.print("hi");
    return 5;
  }
}
"""

BAD_TYPES = 'class Main { int main() { return "oops"; } }'


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.jns"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.jns"
    path.write_text(BAD_TYPES)
    return str(path)


class TestRun:
    def test_run_success(self, good_file, capsys):
        assert main(["run", good_file]) == 0
        out = capsys.readouterr().out
        assert "hi" in out and "=> 5" in out

    def test_run_mode_flag(self, good_file, capsys):
        # java mode rejects the view change at run time
        assert main(["run", good_file, "--mode", "java"]) == 1

    def test_run_custom_entry(self, tmp_path, capsys):
        path = tmp_path / "app.jns"
        path.write_text("class App { int go() { return 9; } }")
        assert main(["run", str(path), "--entry", "App.go"]) == 0
        assert "=> 9" in capsys.readouterr().out

    def test_run_type_error(self, bad_file, capsys):
        assert main(["run", bad_file]) == 1

    @pytest.mark.parametrize("backend", ["walker", "codegen"])
    def test_run_backend_flag(self, good_file, capsys, backend):
        assert main(["run", good_file, "--backend", backend]) == 0
        out = capsys.readouterr().out
        assert "hi" in out and "=> 5" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--backend", "specialized"],
            ["--backend", "compiled"],
            ["--no-specialize"],
        ],
        ids=["specialized", "compiled", "no-specialize"],
    )
    def test_run_rejects_removed_backend_options(self, good_file, capsys, flags):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", good_file, *flags])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flags[-1] in captured.err

    def test_run_no_check_skips_static_errors(self, tmp_path, capsys):
        path = tmp_path / "sloppy.jns"
        path.write_text("class Main { int main() { return 1; } int bad() { return nope.x; } }")
        # resolution failure is still fatal even without type checking
        rc = main(["run", str(path), "--no-check"])
        assert rc == 1

    def test_run_max_steps_bounds_divergence(self, tmp_path, capsys):
        path = tmp_path / "diverge.jns"
        path.write_text("class Main { int main() { while (true) { } return 0; } }")
        limit_before = sys.getrecursionlimit()
        assert main(["run", str(path), "--max-steps", "10000"]) == 1
        err = capsys.readouterr().err
        assert "JNS-RES" in err
        assert sys.getrecursionlimit() == limit_before

    @pytest.mark.parametrize("backend", ["walker", "codegen"])
    def test_run_double_remainder_by_zero_is_nan(self, tmp_path, backend):
        """``%`` on doubles gives Java's NaN where ``math.fmod`` raises:
        a zero divisor or an infinite dividend."""
        import os
        import subprocess

        path = tmp_path / "nan.jns"
        path.write_text(
            "class Main { double main() { double a = 1.5; double z = 0.0; "
            "Sys.print(a % z); Sys.print((a / z) % 2.0); return a % z; } }"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", str(path), "--backend", backend],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["NaN", "NaN", "=> nan"]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("backend", ["walker", "codegen"])
    def test_run_int_cast_of_nan_and_infinity(self, tmp_path, backend):
        """``(int)`` of NaN or an infinity gives Java's value, not a
        Python traceback."""
        import os
        import subprocess

        path = tmp_path / "cast.jns"
        path.write_text(
            "class Main { int main() { double z = 0.0; "
            "Sys.print((int)(0.0 / z)); Sys.print((int)(1.0 / z)); "
            "Sys.print(Sys.intOf(-1.0 / z)); return (int)(-1.0 / z); } }"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", str(path), "--backend", backend],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "0", "2147483647", "-2147483648", "=> -2147483648"
        ]
        assert "Traceback" not in proc.stderr

    def test_run_max_depth_bounds_recursion(self, tmp_path, capsys):
        path = tmp_path / "recurse.jns"
        path.write_text("class Main { int main() { return main(); } }")
        limit_before = sys.getrecursionlimit()
        assert main(["run", str(path), "--max-depth", "100"]) == 1
        err = capsys.readouterr().err
        assert "JNS-RES-002" in err
        assert "Main.main" in err  # the J&s call stack rides along as notes
        assert sys.getrecursionlimit() == limit_before


class TestCheck:
    def test_check_ok(self, good_file, capsys):
        assert main(["check", good_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_reports_errors(self, bad_file, capsys):
        assert main(["check", bad_file]) == 1
        assert "error" in capsys.readouterr().out

    def test_strict_fails_without_constraints(self, good_file, capsys):
        assert main(["check", good_file, "--strict"]) == 1

    def test_infer_fixes_strict(self, good_file, capsys):
        assert main(["check", good_file, "--strict", "--infer"]) == 0
        out = capsys.readouterr().out
        assert "inferred" in out and "A!.C = B!.C" in out

    def test_check_reports_all_errors_with_carets(self, tmp_path, capsys):
        path = tmp_path / "multi.jns"
        path.write_text(
            "class Main {\n"
            "  int main() {\n"
            "    int x = 1 +;\n"
            "    return x\n"
            "  }\n"
            "  double bad() { return $ 3.0; }\n"
            "}\n"
        )
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.count("^") >= 3  # caret-rendered, one per diagnostic
        for code in ("JNS-LEX-001", "JNS-PARSE-001", "JNS-PARSE-002"):
            assert code in out

    def test_check_json_matches_text_error_set(self, tmp_path, capsys):
        path = tmp_path / "multi.jns"
        path.write_text(
            "class Main {\n"
            "  int main() { return y; }\n"
            "  boolean b() { return 1 + true; }\n"
            "}\n"
        )
        assert main(["check", str(path)]) == 1
        text_out = capsys.readouterr().out
        assert main(["check", str(path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        json_codes = {d["code"] for d in payload["diagnostics"]}
        assert len(json_codes) >= 3
        for code in json_codes:
            assert f"[{code}]" in text_out

    def test_check_json_ok_on_clean_file(self, good_file, capsys):
        assert main(["check", good_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        # non-strict mode may still report warnings (globally justified
        # view changes), but never error-severity diagnostics
        assert all(d["severity"] != "error" for d in payload["diagnostics"])


class TestObservabilityFlags:
    @pytest.fixture(autouse=True)
    def _tracer_restored(self):
        from repro import obs

        yield
        obs.disable()
        obs.TRACER.reset()

    def test_run_profile_prints_unified_report(self, good_file, capsys):
        assert main(["run", good_file, "--profile"]) == 0
        captured = capsys.readouterr()
        assert "=> 5" in captured.out  # program output untouched
        assert "phase timings:" in captured.err
        assert "cache stats" in captured.err  # CacheStats folded in
        for phase in ("parse", "typecheck", "run"):
            assert phase in captured.err

    def test_run_trace_out_writes_chrome_trace(self, good_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["run", good_file, "--trace-out", str(trace)]) == 0
        assert "wrote Chrome trace" in capsys.readouterr().err
        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "run" for e in events)
        assert any(e["name"] == "view_change.explicit" for e in events)

    def test_run_stats_json_is_machine_readable(self, good_file, capsys):
        assert main(["run", good_file, "--stats-json"]) == 0
        out = capsys.readouterr().out
        # last stdout line is the JSON document; program output precedes it
        payload = json.loads(out.strip().splitlines()[-1])
        assert set(payload) >= {"enabled", "hits", "misses", "hit_rate", "queries"}
        assert isinstance(payload["queries"], list)

    def test_check_stats_json(self, good_file, capsys):
        assert main(["check", good_file, "--stats-json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["hits"] + payload["misses"] > 0

    def test_profile_emitted_even_on_runtime_failure(self, good_file, capsys):
        assert main(["run", good_file, "--mode", "java", "--profile"]) == 1
        assert "phase timings:" in capsys.readouterr().err

    def test_tracer_disabled_after_profiled_run(self, good_file, capsys):
        from repro import obs

        assert main(["run", good_file, "--profile"]) == 0
        assert not obs.TRACER.enabled


class TestMissingFile:
    def test_unreadable_file_exits_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["check", str(tmp_path / "nope.jns")])
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert "cannot read" in err and "Traceback" not in err


class TestFmt:
    def test_fmt_outputs_parseable_source(self, good_file, capsys):
        assert main(["fmt", good_file]) == 0
        printed = capsys.readouterr().out
        from repro import compile_program

        program = compile_program(printed)
        interp = program.interp()
        ref = interp.new_instance(("Main",), ())
        assert interp.call_method(ref, "main", []) == 5


class TestFlameAndOtlp:
    def test_run_flame_writes_collapsed_stacks(self, good_file, tmp_path, capsys):
        out = tmp_path / "flame.txt"
        assert main(["run", good_file, "--flame", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        assert lines
        for line in lines:
            path, value = line.rsplit(" ", 1)
            assert path and value.isdigit()

    def test_flame_leaves_tracer_disabled(self, good_file, tmp_path, capsys):
        from repro import obs

        assert main(["run", good_file, "--flame", str(tmp_path / "f.txt")]) == 0
        assert not obs.enabled()


class TestRemovedCommands:
    def test_top_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["top", "--port", "1"])
        assert exc.value.code == 2
        assert "invalid choice: 'top'" in capsys.readouterr().err


GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

#: golden name -> (command line, exit code).  The texts were captured
#: before ``repro run`` started building only its own subparser; a run
#: command line must still print what the full parser printed.
HELP_CASES = {
    "repro": (["--help"], 0),
    **{cmd: ([cmd, "--help"], 0) for cmd in (
        "run", "profile", "check", "explain", "fmt", "report", "corona",
        "graph", "repl", "serve",
    )},
    "unknown": (["frobnicate", "x"], 2),
    "none": ([], 2),
    "run-bad-flag": (["run", "x.jns", "--bogus"], 2),
}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="goldens hold CPython 3.11's argparse layout",
)
@pytest.mark.parametrize("name", sorted(HELP_CASES))
def test_help_and_usage_errors_match_golden(name, monkeypatch, capsys):
    """``repro --help``, every ``repro CMD --help``, and the usage errors
    of an unknown command, of no command, and of a bad ``run`` flag."""
    monkeypatch.setenv("COLUMNS", "80")
    argv, code = HELP_CASES[name]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert captured.out + captured.err == (GOLDEN / f"{name}.txt").read_text()
