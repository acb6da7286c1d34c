"""Public API tests (repro.api)."""

import pytest

from repro import (
    JnsError,
    Program,
    ResolveError,
    TypeError_,
    compile_program,
    run_program,
)

HELLO = """
class Main {
  int main() { Sys.print("hello"); return 7; }
}
"""


class TestCompile:
    def test_compile_returns_program(self):
        program = compile_program(HELLO)
        assert isinstance(program, Program)
        assert program.report is not None and program.report.ok

    def test_compile_without_check(self):
        program = compile_program(HELLO, check=False)
        assert program.report is None

    def test_syntax_error_raises(self):
        with pytest.raises(Exception):
            compile_program("class { }")

    def test_type_error_raises(self):
        with pytest.raises(TypeError_):
            compile_program('class A { int m() { return "x"; } }')

    def test_unknown_name_raises(self):
        with pytest.raises(JnsError):
            compile_program("class A extends Nothing { }")

    def test_check_false_skips_type_errors(self):
        program = compile_program('class A { int m() { return "x"; } }', check=False)
        assert program.report is None


class TestRun:
    def test_run_program(self):
        result, output = run_program(HELLO)
        assert result == 7
        assert output == ["hello"]

    def test_run_program_mode(self):
        result, _ = run_program(HELLO, mode="java")
        assert result == 7

    def test_custom_entry(self):
        src = "class App { int go() { return 3; } }"
        result, _ = run_program(src, entry="App.go")
        assert result == 3

    def test_missing_entry_class(self):
        with pytest.raises(ResolveError):
            run_program(HELLO, entry="Nope.main")

    def test_fresh_interp_per_call(self):
        program = compile_program(HELLO)
        i1, i2 = program.interp(), program.interp()
        assert i1 is not i2
        i1.run("Main.main")
        assert i1.output == ["hello"]
        assert i2.output == []

    def test_nested_entry_class(self):
        src = "class Outer { class Inner { int go() { return 5; } } }"
        result, _ = run_program(src, entry="Outer.Inner.go")
        assert result == 5

    def test_jx_mode_runs_on_walker(self):
        # jx mode has no run-time precomputation, so a codegen request
        # runs on the walker and says so
        program = compile_program(HELLO)
        jx = program.interp(mode="jx", backend="codegen")
        walker = program.interp(mode="jx", backend="walker")
        assert jx.backend == "walker"
        assert not jx.codegen
        assert jx.run("Main.main") == walker.run("Main.main") == 7
        assert jx.output == walker.output == ["hello"]
