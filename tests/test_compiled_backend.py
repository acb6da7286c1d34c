"""Compiled (codegen) backend tests: semantics must match the tree walker
exactly (the two strategies share all view/dispatch machinery)."""

import pytest

from repro import JnsRuntimeError, UninitializedFieldError, compile_program
from repro.runtime.interp import BACKENDS

from conftest import FIG123_SOURCE, FIG5_SOURCE, run_main


def both(src: str, method: str = "main", cls: str = "Main", mode: str = "jns"):
    program = compile_program(src)
    results = []
    outputs = []
    for backend in BACKENDS:
        interp = program.interp(mode=mode, backend=backend)
        ref = interp.new_instance((cls,), ())
        results.append(interp.call_method(ref, method, []))
        outputs.append(interp.output)
    assert results[0] == results[1]
    assert outputs[0] == outputs[1]
    return results[0]


class TestAgreement:
    def test_arithmetic_and_control(self):
        assert both(
            """class Main {
              int main() {
                int s = 0;
                for (int i = 1; i <= 10; i++) {
                  if (i % 3 == 0) { continue; }
                  s += i * i;
                  if (s > 200) { break; }
                }
                return s - (-7) / 2;
              }
            }"""
        ) == both(
            """class Main {
              int main() {
                int s = 0;
                for (int i = 1; i <= 10; i++) {
                  if (i % 3 == 0) { continue; }
                  s += i * i;
                  if (s > 200) { break; }
                }
                return s - (-7) / 2;
              }
            }"""
        )

    def test_figures_example(self):
        src = FIG123_SOURCE
        program = compile_program(src)
        for backend in BACKENDS:
            interp = program.interp(backend=backend)
            main = interp.new_instance(("Main",), ())
            assert interp.call_method(main, "showSample", []) == "(v1+v2)"

    def test_strings_and_sys(self):
        both(
            """class Main {
              String main() {
                String s = "";
                s += 1;
                s += true;
                s = s + Sys.str(Sys.min(3, 4)) + Sys.substring("hello", 0, 2);
                Sys.print(s);
                return s;
              }
            }"""
        )

    def test_masked_fields_and_views(self):
        src = FIG5_SOURCE + """
        class Main {
          int main() sharing A1!.B = A2!.B\\f {
            A1!.B b1 = new A1.B();
            A2!.B\\f b2 = (view A2!.B\\f)b1;
            b2.f = 41;
            return b2.f + b1.b0 + 1;
          }
        }
        """
        assert both(src) == 42

    def test_runtime_mask_guard_preserved(self):
        src = FIG5_SOURCE + """
        class Main {
          A2!.B\\f go() sharing A1!.B = A2!.B\\f {
            return (view A2!.B\\f)(new A1.B());
          }
        }
        """
        program = compile_program(src)
        interp = program.interp(backend="codegen")
        main = interp.new_instance(("Main",), ())
        b = interp.call_method(main, "go", [])
        with pytest.raises(UninitializedFieldError):
            interp.get_field(b, "f")

    def test_instanceof_and_casts(self):
        both(
            """class A { }
               class B extends A { int only() { return 5; } }
               class Main {
                 int main() {
                   A a = new B();
                   if (a instanceof B) { return ((B)a).only(); }
                   return 0;
                 }
               }"""
        )

    def test_compound_int_division_truncates(self):
        assert both(
            "class Main { int main() { int x = 7; x /= 2; return x; } }"
        ) == 3

    def test_ctor_and_initializers(self):
        both(
            """class Box {
                 int a = 2;
                 int b;
                 Box(int b) { this.b = b + a; }
               }
               class Main { int main() { return new Box(5).b; } }"""
        )

    def test_exceptions_identical(self):
        program = compile_program(
            "class Main { int main() { int[] a = new int[1]; return a[3]; } }"
        )
        for backend in BACKENDS:
            interp = program.interp(backend=backend)
            ref = interp.new_instance(("Main",), ())
            with pytest.raises(JnsRuntimeError):
                interp.call_method(ref, "main", [])

    @pytest.mark.parametrize("mode", ("java", "jx_cl", "jns"))
    def test_modes_compose_with_compilation(self, mode):
        src = """
        class A { int m() { return 1; } int go() { return m() * 10; } }
        class B extends A { int m() { return 2; } }
        class Main { int main() { A a = new B(); return a.go(); } }
        """
        program = compile_program(src)
        interp = program.interp(mode=mode, backend="codegen")
        ref = interp.new_instance(("Main",), ())
        assert interp.call_method(ref, "main", []) == 20


class TestJoldenAgreement:
    @pytest.mark.parametrize(
        "name", ["treeadd", "bisort", "mst", "perimeter", "power"]
    )
    def test_compiled_matches_walker(self, name):
        from repro.programs.jolden import BY_NAME

        module = BY_NAME[name]
        program = compile_program(module.SOURCE)
        values = []
        for backend in BACKENDS:
            interp = program.interp(mode="jns", backend=backend)
            ref = interp.new_instance(("Main",), ())
            values.append(
                interp.call_method(ref, "run", list(module.DEFAULT_ARGS))
            )
        assert values[0] == values[1]


class TestCaching:
    def test_bodies_compiled_once(self):
        program = compile_program(
            "class A { int m() { return 1; } } "
            "class Main { int main() { A a = new A(); int s = 0; "
            "for (int i = 0; i < 50; i++) { s += a.m(); } return s; } }"
        )
        interp = program.interp(backend="codegen")
        ref = interp.new_instance(("Main",), ())
        interp.call_method(ref, "main", [])
        interp.call_method(ref, "main", [])
        # one emitted body per executed method (main + m), reused by the
        # second call
        assert interp._cg.bodies_emitted == 2
