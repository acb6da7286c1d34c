"""Interpreter basics: expressions, statements, Java-flavored semantics,
objects, inheritance, dispatch."""

import pytest

from repro import JnsFailure, JnsRuntimeError, NullDereference, compile_program

from conftest import run_main


def evaluate(body: str, decls: str = "", mode: str = "jns"):
    src = decls + "\nclass Main { METHOD }"
    result, _ = run_main(src.replace("METHOD", body), mode=mode)
    return result


class TestArithmetic:
    def test_int_ops(self):
        assert evaluate("int main() { return 2 + 3 * 4 - 1; }") == 13

    def test_java_int_division_truncates_toward_zero(self):
        assert evaluate("int main() { return 7 / 2; }") == 3
        assert evaluate("int main() { return -7 / 2; }") == -3

    def test_java_modulo_sign_of_dividend(self):
        assert evaluate("int main() { return -7 % 2; }") == -1
        assert evaluate("int main() { return 7 % -2; }") == 1

    def test_division_by_zero(self):
        with pytest.raises(JnsRuntimeError):
            evaluate("int main() { return 1 / 0; }")

    def test_double_arithmetic(self):
        assert evaluate("double main() { return 1.5 * 2.0; }") == 3.0

    def test_mixed_promotes_to_double(self):
        assert evaluate("double main() { return 1 / 2.0; }") == 0.5

    def test_cast_double_to_int_truncates(self):
        assert evaluate("int main() { return (int)(-2.7); }") == -2

    def test_comparisons(self):
        assert evaluate("boolean main() { return 1 < 2 && 2 <= 2 && 3 > 2 && 3 >= 3; }")

    def test_unary_minus_and_not(self):
        assert evaluate("int main() { return -(-5); }") == 5
        assert evaluate("boolean main() { return !false; }")

    def test_short_circuit_and(self):
        # the second operand would divide by zero
        assert evaluate("boolean main() { return false && 1 / 0 == 0; }") is False

    def test_short_circuit_or(self):
        assert evaluate("boolean main() { return true || 1 / 0 == 0; }") is True

    def test_compound_assignment(self):
        assert evaluate("int main() { int x = 10; x += 5; x -= 3; x *= 2; return x; }") == 24

    def test_increment_in_for(self):
        assert evaluate(
            "int main() { int s = 0; for (int i = 0; i < 5; i++) { s += i; } return s; }"
        ) == 10


class TestStrings:
    def test_concat(self):
        assert evaluate('String main() { return "a" + "b"; }') == "ab"

    def test_concat_with_int(self):
        assert evaluate('String main() { return "n=" + 42; }') == "n=42"

    def test_concat_with_boolean_java_style(self):
        assert evaluate('String main() { return "" + true; }') == "true"

    def test_concat_with_null(self):
        assert evaluate('String main() { String s = null; return "" + s; }') == "null"

    def test_double_formatting(self):
        assert evaluate('String main() { return "" + 2.0; }') == "2.0"

    def test_value_equality(self):
        assert evaluate('boolean main() { return "ab" == "a" + "b"; }') is True

    def test_sys_string_functions(self):
        assert evaluate('int main() { return Sys.strLen("hello"); }') == 5
        assert evaluate('String main() { return Sys.substring("hello", 1, 3); }') == "el"
        assert evaluate('int main() { return Sys.parseInt("123"); }') == 123


class TestControlFlow:
    def test_if_else(self):
        assert evaluate("int main() { if (1 < 2) { return 1; } else { return 2; } }") == 1

    def test_while(self):
        assert evaluate(
            "int main() { int i = 0; while (i < 10) { i = i + 1; } return i; }"
        ) == 10

    def test_break(self):
        assert evaluate(
            "int main() { int i = 0; while (true) { i++; if (i == 5) { break; } } return i; }"
        ) == 5

    def test_continue(self):
        assert evaluate(
            """int main() {
              int s = 0;
              for (int i = 0; i < 10; i++) { if (i % 2 == 0) { continue; } s += i; }
              return s;
            }"""
        ) == 25

    def test_nested_loops(self):
        assert evaluate(
            """int main() {
              int s = 0;
              for (int i = 0; i < 3; i++) {
                for (int j = 0; j < 3; j++) { if (j > i) { break; } s++; }
              }
              return s;
            }"""
        ) == 6

    def test_ternary(self):
        assert evaluate("int main() { return 1 < 2 ? 10 : 20; }") == 10

    def test_early_return(self):
        assert evaluate(
            "int main() { for (int i = 0; i < 100; i++) { if (i == 7) { return i; } } return -1; }"
        ) == 7


class TestObjects:
    POINT = """
    class Point {
      int x; int y;
      Point(int x, int y) { this.x = x; this.y = y; }
      int norm1() { return Sys.abs(x) + Sys.abs(y); }
      void move(int dx, int dy) { x += dx; y += dy; }
    }
    """

    def test_construction_and_fields(self):
        assert evaluate(
            "int main() { Point p = new Point(3, 4); return p.x * 10 + p.y; }",
            self.POINT,
        ) == 34

    def test_method_call(self):
        assert evaluate(
            "int main() { return new Point(-3, 4).norm1(); }", self.POINT
        ) == 7

    def test_mutation(self):
        assert evaluate(
            "int main() { Point p = new Point(0, 0); p.move(2, 5); return p.x + p.y; }",
            self.POINT,
        ) == 7

    def test_field_defaults(self):
        assert evaluate(
            "int main() { return new D().i; }",
            "class D { int i; double d; boolean b; String s; D next; }",
        ) == 0

    def test_field_initializers(self):
        assert evaluate(
            "int main() { return new D().i; }", "class D { int i = 41 + 1; }"
        ) == 42

    def test_null_field_default(self):
        assert evaluate(
            "boolean main() { return new D().next == null; }",
            "class D { D next; }",
        ) is True

    def test_null_dereference(self):
        with pytest.raises(NullDereference):
            evaluate("int main() { Point p = null; return p.x; }", self.POINT)

    def test_null_method_call(self):
        with pytest.raises(NullDereference):
            evaluate("int main() { Point p = null; return p.norm1(); }", self.POINT)

    def test_reference_identity_equality(self):
        assert evaluate(
            """boolean main() {
              Point p = new Point(1, 1);
              Point q = new Point(1, 1);
              Point alias = p;
              return p == alias && p != q;
            }""",
            self.POINT,
        ) is True

    def test_this_in_initializer_sees_methods(self):
        assert evaluate(
            "int main() { return new D().x; }",
            "class D { int x = base(); int base() { return 9; } }",
        ) == 9


class TestInheritance:
    HIERARCHY = """
    class Animal {
      String noise() { return "..."; }
      String speak() { return "I say " + noise(); }
    }
    class Dog extends Animal {
      String noise() { return "woof"; }
    }
    class Puppy extends Dog {
      String speak() { return "(small) " + noise(); }
    }
    """

    def test_override(self):
        assert evaluate(
            'String main() { return new Dog().noise(); }', self.HIERARCHY
        ) == "woof"

    def test_late_binding_through_base_method(self):
        assert evaluate(
            'String main() { return new Dog().speak(); }', self.HIERARCHY
        ) == "I say woof"

    def test_two_levels(self):
        assert evaluate(
            'String main() { return new Puppy().speak(); }', self.HIERARCHY
        ) == "(small) woof"

    def test_polymorphic_variable(self):
        assert evaluate(
            'String main() { Animal a = new Dog(); return a.speak(); }',
            self.HIERARCHY,
        ) == "I say woof"

    def test_instanceof(self):
        assert evaluate(
            "boolean main() { Animal a = new Dog(); return a instanceof Dog; }",
            self.HIERARCHY,
        ) is True
        assert evaluate(
            "boolean main() { Animal a = new Animal(); return a instanceof Dog; }",
            self.HIERARCHY,
        ) is False

    def test_instanceof_null_false(self):
        assert evaluate(
            "boolean main() { Animal a = null; return a instanceof Dog; }",
            self.HIERARCHY,
        ) is False

    def test_cast_success_and_failure(self):
        assert evaluate(
            'String main() { Animal a = new Dog(); return ((Dog)a).noise(); }',
            self.HIERARCHY,
        ) == "woof"
        with pytest.raises(JnsRuntimeError):
            evaluate(
                "int main() { Animal a = new Animal(); Dog d = (Dog)a; return 0; }",
                self.HIERARCHY,
            )

    def test_inherited_fields(self):
        src = """
        class A { int x = 1; }
        class B extends A { int y = 2; }
        """
        assert evaluate("int main() { B b = new B(); return b.x + b.y; }", src) == 3

    def test_abstract_dispatch(self):
        src = """
        abstract class Shape { abstract int area(); int doubled() { return 2 * area(); } }
        class Square extends Shape { int s; Square(int s) { this.s = s; } int area() { return s * s; } }
        """
        assert evaluate("int main() { return new Square(3).doubled(); }", src) == 18


class TestArrays:
    def test_create_and_fill(self):
        assert evaluate(
            """int main() {
              int[] a = new int[5];
              for (int i = 0; i < a.length; i++) { a[i] = i * i; }
              return a[4];
            }"""
        ) == 16

    def test_default_values(self):
        assert evaluate("int main() { return new int[3][2]; }") == 0
        assert evaluate("boolean main() { boolean[] b = new boolean[1]; return b[0]; }") is False

    def test_array_of_objects(self):
        assert evaluate(
            """int main() {
              D[] a = new D[2];
              a[0] = new D();
              a[0].x = 5;
              return a[0].x;
            }""",
            "class D { int x; }",
        ) == 5

    def test_out_of_bounds(self):
        with pytest.raises(JnsRuntimeError):
            evaluate("int main() { int[] a = new int[2]; return a[5]; }")

    def test_negative_index(self):
        with pytest.raises(JnsRuntimeError):
            evaluate("int main() { int[] a = new int[2]; return a[-1]; }")

    def test_2d_arrays(self):
        assert evaluate(
            """int main() {
              int[][] m = new int[3][];
              for (int i = 0; i < 3; i++) { m[i] = new int[3]; m[i][i] = 1; }
              return m[0][0] + m[1][1] + m[2][2];
            }"""
        ) == 3


class TestSys:
    def test_math_functions(self):
        assert evaluate("double main() { return Sys.sqrt(16.0); }") == 4.0
        assert evaluate("double main() { return Sys.pow(2.0, 10.0); }") == 1024.0
        assert abs(evaluate("double main() { return Sys.PI; }") - 3.14159265) < 1e-6

    def test_min_max_abs(self):
        assert evaluate("int main() { return Sys.min(3, 5) + Sys.max(3, 5); }") == 8
        assert evaluate("int main() { return Sys.abs(-7); }") == 7

    def test_print_collects_output(self):
        result, interp = run_main(
            'class Main { void main() { Sys.print("a"); Sys.print(1 + 2); } }'
        )
        assert interp.output == ["a", "3"]

    def test_fail_raises(self):
        with pytest.raises(JnsFailure):
            evaluate('void main() { Sys.fail("boom"); }')

    def test_int_of(self):
        assert evaluate("int main() { return Sys.intOf(3.9); }") == 3


class TestRecursion:
    def test_factorial(self):
        assert evaluate(
            """int main() { return fact(10); }
               int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }"""
        ) == 3628800

    def test_mutual_recursion(self):
        assert evaluate(
            """boolean main() { return even(10); }
               boolean even(int n) { if (n == 0) { return true; } return odd(n - 1); }
               boolean odd(int n) { if (n == 0) { return false; } return even(n - 1); }"""
        ) is True

    def test_deep_recursion(self):
        assert evaluate(
            """int main() { return count(2000); }
               int count(int n) { if (n == 0) { return 0; } return 1 + count(n - 1); }"""
        ) == 2000


class TestDispatchCaching:
    """Method invocation in cached-loader modes reads the dispatch table
    of the class's one runtime record and, once warm, never recomputes a
    lookup."""

    SRC = """
    class Counter {
      int n;
      void bump() { n = n + 1; }
      int get() { return n; }
    }
    class Main {
      int main() {
        Counter c = new Counter();
        for (int i = 0; i < 200; i++) { c.bump(); }
        return c.get();
      }
    }
    """

    def test_steady_state_dispatch_is_hit_only(self):
        program = compile_program(self.SRC)
        interp = program.interp()
        ref = interp.new_instance(("Main",), ())
        # Warm-up: synthesizes each class's record (its dispatch table).
        assert interp.call_method(ref, "main", []) == 200
        q = interp.loader.queries.queries["rtclass"]
        warm_misses = q.misses
        warm_hits = q.hits
        assert interp.call_method(ref, "main", []) == 200
        assert q.misses == warm_misses, "steady-state dispatch rebuilt a record"
        assert q.hits > warm_hits
        # and the per-run find_method walks collapsed into the vtable build:
        stats = interp.cache_stats()
        records = stats.query("rtclass", engine="loader")
        assert records is not None and records.hit_rate > 0.99

    def test_compiled_call_sites_go_monomorphic(self):
        # `m` is polymorphic for the receiver's static type A, so the
        # emitted site keeps a monomorphic inline cache instead of
        # devirtualizing
        program = compile_program(
            "class A { int m() { return 1; } } "
            "class B extends A { int m() { return 2; } } "
            "class Main { int main() { A a = new B(); int s = 0; "
            "for (int i = 0; i < 100; i++) { s = s + a.m(); } return s; } }"
        )
        interp = program.interp(backend="codegen")
        ref = interp.new_instance(("Main",), ())
        assert interp.call_method(ref, "main", []) == 200
        cg = interp._cg
        # one miss fills the site; the other 99 calls hit it
        assert cg.ic_misses == 1
        assert interp.call_method(ref, "main", []) == 200
        # second run: every call site has seen its receiver class already
        assert interp._cg is cg and cg.ic_misses == 1

    def test_jx_mode_stays_uncached(self):
        program = compile_program(self.SRC)
        interp = program.interp(mode="jx")
        ref = interp.new_instance(("Main",), ())
        assert interp.call_method(ref, "main", []) == 200
        q = interp.loader.queries.queries["rtclass"]
        assert q.hits == 0 and q.misses == 0 and len(q.table) == 0
