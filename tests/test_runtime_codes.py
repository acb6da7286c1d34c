"""JNS-RUN-003/004/005: a missing method, field or variable, a wrong
argument count (of a call or a ``new``), and a failed cast or view
change raise their catalogued codes, not the catch-all JNS-RUN-000.

Each case runs on both backends, once through ``Interp.call_method`` and
once through ``repro run``.  The checker rejects most of these programs,
so they run with ``--no-check``/``check=False``.  An unbound variable
cannot come from source (the resolver rejects the name), so that case
runs through ``Interp`` on an edited method body only.
"""

from __future__ import annotations

import pytest

from repro.api import compile_program
from repro.cli import main
from repro.errors import JnsError
from repro.runtime.values import (
    ArityError,
    CastError,
    JnsRuntimeError,
    NoSuchMethod,
    NoSuchName,
)
from repro.source import ast

SOURCE = """
class A { int f() { return 1; } }
class B extends A { }
class Main {
  int missing() { A a = new A(); return a.g(); }
  int arity() { A a = new A(); return a.f(3); }
  int downcast() { A a = new A(); B b = (B) a; return 0; }
  int castString() { A a = (A) "text"; return 0; }
  int castArray() { A a = (A) new int[2]; return 0; }
  int noField() { A a = new A(); return a.h; }
  int setNoField() { A a = new A(); a.h = 2; return 0; }
  int arrayField() { int[] xs = new int[2]; return xs.size; }
  int newArity() { A a = new A(1); return 0; }
  int viewPrimitive() { A a = (view A) 3; return 0; }
}
"""

CASES = [
    ("missing", NoSuchMethod, "JNS-RUN-003", "no method 'g' on A"),
    ("arity", ArityError, "JNS-RUN-004", "'f' expects 0 arguments, got 1"),
    ("downcast", CastError, "JNS-RUN-005", "ClassCastException: A is not a B"),
    ("castString", CastError, "JNS-RUN-005", "cannot cast 'text' to A"),
    ("castArray", CastError, "JNS-RUN-005", "cannot cast array to A"),
    ("noField", NoSuchName, "JNS-RUN-003", "no field 'h' on A"),
    ("setNoField", NoSuchName, "JNS-RUN-003", "no field 'h' on A"),
    ("arrayField", NoSuchName, "JNS-RUN-003", "arrays have no field 'size'"),
    ("newArity", ArityError, "JNS-RUN-004", "no 1-argument constructor for A"),
    ("viewPrimitive", CastError, "JNS-RUN-005", "view change applied to non-object 3"),
]

BACKENDS = ("walker", "codegen")


def test_codes_are_catalogued_runtime_errors():
    for cls, code in ((NoSuchName, "JNS-RUN-003"), (NoSuchMethod, "JNS-RUN-003"),
                      (ArityError, "JNS-RUN-004"), (CastError, "JNS-RUN-005")):
        assert issubclass(cls, JnsRuntimeError) and cls.code == code
    assert issubclass(NoSuchMethod, NoSuchName)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method,cls,code,message", CASES)
def test_call_method_raises_the_code(backend, method, cls, code, message):
    interp = compile_program(SOURCE, check=False).interp(backend=backend)
    ref = interp.new_instance(("Main",), ())
    with pytest.raises(cls) as info:
        interp.call_method(ref, method, [])
    assert info.value.code == code
    assert str(info.value) == message


@pytest.mark.parametrize("backend", BACKENDS)
def test_missing_method_on_call_method_itself(backend):
    interp = compile_program(SOURCE, check=False).interp(backend=backend)
    with pytest.raises(NoSuchMethod, match="no method 'nope' on Main"):
        interp.call_method(interp.new_instance(("Main",), ()), "nope", [])


@pytest.mark.parametrize("backend", BACKENDS)
def test_arity_on_call_method_itself(backend):
    interp = compile_program(SOURCE, check=False).interp(backend=backend)
    with pytest.raises(ArityError, match="'missing' expects 0 arguments, got 2"):
        interp.call_method(interp.new_instance(("Main",), ()), "missing", [1, 2])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method,cls,code,message", CASES)
def test_repro_run_reports_the_code(tmp_path, capsys, backend, method, cls, code, message):
    path = tmp_path / "codes.jns"
    path.write_text(SOURCE)
    argv = ["run", str(path), "--entry", f"Main.{method}", "--backend", backend,
            "--no-check"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert f"runtime error: {message}" in err
    assert f"[{code}]" in err


def test_checked_downcast_fails_at_run_time_with_the_code():
    """A downcast passes the checker; only the run rejects it."""
    program = compile_program(
        "class A { } class B extends A { } "
        "class Main { int main() { A a = new A(); B b = (B) a; return 0; } }"
    )
    for backend in BACKENDS:
        with pytest.raises(JnsError) as info:
            program.interp(backend=backend).run("Main.main")
        assert info.value.code == "JNS-RUN-005"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", ["java", "jx_cl"])
def test_no_field_outside_jns_mode(backend, mode):
    """The field reads of the modes without views raise the same code."""
    interp = compile_program(SOURCE, check=False).interp(mode=mode, backend=backend)
    ref = interp.new_instance(("Main",), ())
    for method, message in (("noField", "no field 'h' on A"),
                            ("arrayField", "arrays have no field 'size'")):
        with pytest.raises(NoSuchName) as info:
            interp.call_method(ref, method, [])
        assert (info.value.code, str(info.value)) == ("JNS-RUN-003", message)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", ["java", "jx", "jx_cl"])
def test_field_write_outside_jns_mode(tmp_path, capsys, backend, mode):
    """A write to an undeclared field raises the read's code in the modes
    without views too, instead of storing the value."""
    path = tmp_path / "codes.jns"
    path.write_text(SOURCE)
    argv = ["run", str(path), "--entry", "Main.setNoField", "--mode", mode,
            "--backend", backend, "--no-check"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert "runtime error: no field 'h' on A" in err
    assert "[JNS-RUN-003]" in err


@pytest.mark.parametrize("backend", BACKENDS)
def test_unbound_variable(backend):
    program = compile_program(
        "class Main { int main() { return 0; } }", check=False
    )
    (method,) = program.table.explicit[("Main",)].decl.methods
    ret = method.body.stmts[0]
    ret.value = ast.Var("y", pos=ret.value.pos)
    interp = program.interp(backend=backend)
    with pytest.raises(NoSuchName) as info:
        interp.run("Main.main")
    assert (info.value.code, str(info.value)) == ("JNS-RUN-003", "unbound variable 'y'")


#: ``Sys.fail`` two J&s calls deep, with a computed message
FAIL_SOURCE = """
class A {
  int depth;
  A(int d) { depth = d; }
  int f(int n) { return g(n + 1); }
  int g(int n) { Sys.fail("boom " + n + " at " + depth); return n; }
}
class Main {
  int main() { A a = new A(7); Sys.print("before"); return a.f(2); }
}
"""


@pytest.mark.parametrize("max_depth,expected", [
    (None, ("JNS-RUN-008", "boom 3 at 7", None, ["before"])),
    # the depth guard trips on entering ``g``, before ``Sys.fail``; under
    # codegen the stack labels come from the emitted frames, found by the
    # interpreter each body holds in its globals
    (2, ("JNS-RES-002", "J&s call depth limit exceeded (2)",
         ["Main.main", "A.f", "A.g"], ["before"])),
])
def test_sys_fail_raises_its_code_through_interp(max_depth, expected):
    """JNS-RUN-008: ``Sys.fail`` raises a ``JnsFailure`` with the program's
    message on both backends.  Only resource errors carry a J&s stack, so
    the same program one call too deep pins the labels."""
    from repro.runtime.values import JnsFailure

    assert issubclass(JnsFailure, JnsRuntimeError) and JnsFailure.code == "JNS-RUN-008"
    seen = {}
    for backend in BACKENDS:
        interp = compile_program(FAIL_SOURCE).interp(backend=backend, max_depth=max_depth)
        with pytest.raises(JnsError) as info:
            interp.run("Main.main")
        exc = info.value
        seen[backend] = (
            exc.code, str(exc), getattr(exc, "jns_stack", None), interp.output
        )
    assert seen["codegen"] == seen["walker"] == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_repro_run_reports_sys_fail(tmp_path, capsys, backend):
    path = tmp_path / "fail.jns"
    path.write_text(FAIL_SOURCE)
    assert main(["run", str(path), "--backend", backend]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["before"]
    assert captured.err.splitlines() == ["runtime error: boom 3 at 7", "[JNS-RUN-008]"]
