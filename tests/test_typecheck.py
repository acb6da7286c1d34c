"""Static checker tests: what is accepted, what is rejected, and why."""

import pytest

from repro import JnsError, TypeError_, compile_program
from repro.api import check_source

from conftest import FIG123_SOURCE, FIG5_SOURCE


def errors_of(src: str):
    try:
        program = compile_program(src)
    except JnsError as exc:
        return str(exc)
    return ""


def accepts(src: str):
    program = compile_program(src)
    assert program.report.ok
    return program


class TestBasicTyping:
    def test_figures_accept(self):
        accepts(FIG123_SOURCE)
        accepts(FIG5_SOURCE)

    def test_unknown_variable(self):
        assert "unknown name" in errors_of(
            "class A { int m() { return nope; } }"
        ) or "unbound" in errors_of("class A { int m() { return nope; } }")

    def test_unknown_method(self):
        assert "no method" in errors_of(
            "class A { void m() { this.nope(); } }"
        )

    def test_unknown_field(self):
        assert "no field" in errors_of("class A { int m() { return this.x; } }")

    def test_arity_mismatch(self):
        assert "arguments" in errors_of(
            "class A { int f(int x) { return x; } int m() { return f(1, 2); } }"
        )

    def test_return_type_mismatch(self):
        assert "return type" in errors_of(
            'class A { int m() { return "s"; } }'
        )

    def test_missing_return_value(self):
        assert "missing return" in errors_of("class A { int m() { return; } }")

    def test_condition_must_be_boolean(self):
        assert "condition" in errors_of("class A { void m() { if (1) { } } }")

    def test_assignment_type_mismatch(self):
        assert "cannot" in errors_of('class A { void m() { int x = "s"; } }')
        sink = check_source('class A { int x; void m() { this.x = "s"; } }')
        assert [(d.code, d.message) for d in sink.diagnostics] == [
            ("JNS-TYPE-008", "cannot assign String to field 'x': int")
        ]

    def test_duplicate_local(self):
        assert "duplicate local" in errors_of(
            "class A { void m() { int x = 1; int x = 2; } }"
        )

    def test_int_widening_accepted(self):
        accepts("class A { double m() { return 1; } }")

    def test_lossy_narrowing_rejected(self):
        assert errors_of("class A { int m() { return 1.5; } }")

    def test_string_concat(self):
        accepts('class A { String m() { return "a" + 1 + true; } }')

    def test_numeric_op_on_boolean_rejected(self):
        assert errors_of("class A { int m() { return true + 1; } }")

    def test_array_indexing(self):
        accepts("class A { int m() { int[] a = new int[3]; return a[0]; } }")

    def test_array_index_type(self):
        assert "index" in errors_of(
            "class A { int m() { int[] a = new int[3]; return a[true]; } }"
        )

    def test_array_length(self):
        accepts("class A { int m() { int[] a = new int[3]; return a.length; } }")

    def test_indexing_non_array(self):
        assert "non-array" in errors_of("class A { int m() { int x = 1; return x[0]; } }")

    def test_ternary_type(self):
        accepts("class A { int m(boolean b) { return b ? 1 : 2; } }")

    def test_instantiate_abstract_rejected(self):
        assert "abstract" in errors_of(
            "abstract class A { } class B { void m() { new A(); } }"
        )

    def test_abstract_method_needs_abstract_class_body(self):
        accepts("abstract class A { abstract int m(); }")

    def test_ctor_arity_checked(self):
        assert "constructor" in errors_of(
            "class A { A(int x) { } } class B { void m() { new A(1, 2); } }"
        )

    def test_override_arity_mismatch(self):
        assert "arity" in errors_of(
            """
            class A { int m(int x) { return x; } }
            class B extends A { int m(int x, int y) { return x; } }
            """
        )


class TestMaskFlow:
    """The flow-sensitive masked-type analysis (Sections 3, 6.1)."""

    SRC = FIG5_SOURCE + """
    class Main {
      METHOD
    }
    """

    def check(self, body: str):
        return errors_of(self.SRC.replace("METHOD", body))

    def test_masked_read_rejected(self):
        err = self.check(
            """int m() {
              A1!.B b1 = new A1.B();
              A2!.B\\f b2 = (view A2!.B\\f)b1;
              return b2.f;
            }"""
        )
        assert "masked" in err

    def test_assignment_grants_access(self):
        assert not self.check(
            """int m() {
              A1!.B b1 = new A1.B();
              A2!.B\\f b2 = (view A2!.B\\f)b1;
              b2.f = 1;
              return b2.f;
            }"""
        )

    def test_branching_keeps_mask_unless_both_assign(self):
        err = self.check(
            """int m(boolean c) {
              A1!.B b1 = new A1.B();
              A2!.B\\f b2 = (view A2!.B\\f)b1;
              if (c) { b2.f = 1; }
              return b2.f;
            }"""
        )
        assert "masked" in err

    def test_both_branches_assign_grants(self):
        assert not self.check(
            """int m(boolean c) {
              A1!.B b1 = new A1.B();
              A2!.B\\f b2 = (view A2!.B\\f)b1;
              if (c) { b2.f = 1; } else { b2.f = 2; }
              return b2.f;
            }"""
        )

    def test_loop_assignment_does_not_guarantee(self):
        err = self.check(
            """int m(int n) {
              A1!.B b1 = new A1.B();
              A2!.B\\f b2 = (view A2!.B\\f)b1;
              for (int i = 0; i < n; i++) { b2.f = 1; }
              return b2.f;
            }"""
        )
        assert "masked" in err

    def test_method_call_on_masked_value_rejected(self):
        src = """
        class A1 { class B { int go() { return 1; } } }
        class A2 extends A1 { class B shares A1.B { int f; } }
        class Main {
          int m() {
            A1!.B b1 = new A1.B();
            A2!.B\\f b2 = (view A2!.B\\f)b1;
            return b2.go();
          }
        }
        """
        assert "masked" in errors_of(src)

    def test_unmasked_view_change_rejected_when_mask_needed(self):
        err = self.check(
            """int m() {
              A1!.B b1 = new A1.B();
              A2!.B b2 = (view A2!.B)b1;
              return 0;
            }"""
        )
        assert "view change" in err


class TestSharingDeclarations:
    def test_share_target_must_be_ancestor(self):
        src = """
        class A { class C { } }
        class B { class C shares A.C { } }
        """
        assert "ancestor" in errors_of(src)

    def test_unshared_field_type_must_be_masked(self):
        src = """
        class A1 {
          class C { D g; }
          class D { }
        }
        class A2 extends A1 {
          class C shares A1.C { }
          class E extends D { }
        }
        """
        err = errors_of(src)
        assert "must be masked" in err

    def test_mask_on_final_field_rejected(self):
        src = """
        class A1 { class C { final int x = 1; } }
        class A2 extends A1 { class C shares A1.C\\x { } }
        """
        assert "final" in errors_of(src)

    def test_view_change_without_any_sharing_rejected(self):
        src = """
        class A { class C { } }
        class B extends A { class C { } }
        class Main {
          void m() {
            A!.C a = new A.C();
            B!.C b = (view B!.C)a;
          }
        }
        """
        assert "view change" in errors_of(src)

    def test_constraint_enables_view_change_without_warning(self):
        program = compile_program(FIG123_SOURCE)
        assert not [
            w for w in program.report.warnings if "closed world" in w.message
        ]

    def test_strict_sharing_rejects_global_justification(self):
        src = """
        class A { class C { } }
        class B extends A { class C shares A.C { } }
        class Main {
          void m() {
            A!.C a = new A.C();
            B!.C b = (view B!.C)a;
          }
        }
        """
        compile_program(src)  # fine by default (warned)
        with pytest.raises(TypeError_):
            compile_program(src, strict_sharing=True)

    def test_invalid_constraint_rejected(self):
        src = """
        class A { class C { } }
        class B extends A { class C { } }
        class Main {
          void m() sharing A!.C = B!.C { }
        }
        """
        assert "constraint" in errors_of(src)

    def test_inherited_constraint_rechecked_in_derived_family(self):
        # Section 2.5: a derived family that breaks the sharing must
        # override methods whose constraints relied on it.
        src = """
        class A { class C { } }
        class B extends A {
          class C shares A.C { }
          void m() sharing A!.C = C { }
        }
        class B2 extends B {
          class C { }   // overrides without sharing: constraint now fails
        }
        """
        err = errors_of(src)
        assert "must be overridden" in err

    def test_override_restores_validity(self):
        src = """
        class A { class C { } }
        class B extends A {
          class C shares A.C { }
          void m() sharing A!.C = C { }
        }
        class B2 extends B {
          class C { }
          void m() { }   // override without the broken constraint
        }
        """
        accepts(src)
