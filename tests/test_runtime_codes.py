"""JNS-RUN-003/004/005: a missing method, a wrong argument count and a
failed cast raise their catalogued codes, not the catch-all JNS-RUN-000.

Each case runs on both backends, once through ``Interp.call_method`` and
once through ``repro run``.  The checker rejects the first two programs,
so they run with ``--no-check``/``check=False``.
"""

from __future__ import annotations

import pytest

from repro.api import compile_program
from repro.cli import main
from repro.errors import JnsError
from repro.runtime.values import ArityError, CastError, JnsRuntimeError, NoSuchMethod

SOURCE = """
class A { int f() { return 1; } }
class B extends A { }
class Main {
  int missing() { A a = new A(); return a.g(); }
  int arity() { A a = new A(); return a.f(3); }
  int downcast() { A a = new A(); B b = (B) a; return 0; }
  int castString() { A a = (A) "text"; return 0; }
  int castArray() { A a = (A) new int[2]; return 0; }
}
"""

CASES = [
    ("missing", NoSuchMethod, "JNS-RUN-003", "no method 'g' on A"),
    ("arity", ArityError, "JNS-RUN-004", "'f' expects 0 arguments, got 1"),
    ("downcast", CastError, "JNS-RUN-005", "ClassCastException: A is not a B"),
    ("castString", CastError, "JNS-RUN-005", "cannot cast 'text' to A"),
    ("castArray", CastError, "JNS-RUN-005", "cannot cast array to A"),
]

BACKENDS = ("walker", "codegen")


def test_codes_are_catalogued_runtime_errors():
    for cls, code in ((NoSuchMethod, "JNS-RUN-003"), (ArityError, "JNS-RUN-004"),
                      (CastError, "JNS-RUN-005")):
        assert issubclass(cls, JnsRuntimeError) and cls.code == code


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
