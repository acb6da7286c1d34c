"""Parser unit tests: declarations, J&s type forms, expressions."""

import pytest

from repro.source import ast
from repro.source.parser import ParseError, parse_program, parse_type_text


def parse_one(src: str) -> ast.ClassDecl:
    unit = parse_program(src)
    assert len(unit.classes) == 1
    return unit.classes[0]


class TestClassDeclarations:
    def test_empty_class(self):
        decl = parse_one("class A { }")
        assert decl.name == "A"
        assert not decl.abstract
        assert decl.extends == []

    def test_abstract_class(self):
        assert parse_one("abstract class A { }").abstract

    def test_extends_single(self):
        decl = parse_one("class B extends A { }")
        assert len(decl.extends) == 1

    def test_extends_intersection(self):
        decl = parse_one("class C extends A & B { }")
        assert len(decl.extends) == 2

    def test_shares_clause(self):
        decl = parse_one("class B { class C shares A.C { } }")
        inner = decl.nested_classes[0]
        assert isinstance(inner.shares, ast.TName)
        assert inner.shares.parts == ("A", "C")

    def test_shares_with_mask(self):
        decl = parse_one("class B { class C shares A.C\\g { } }")
        inner = decl.nested_classes[0]
        assert isinstance(inner.shares, ast.TMask)
        assert inner.shares.fields == ("g",)

    def test_adapts_clause(self):
        decl = parse_one("class B extends A adapts A { }")
        assert isinstance(decl.adapts, ast.TName)

    def test_nested_classes(self):
        decl = parse_one("class A { class B { class C { } } }")
        assert decl.nested_classes[0].nested_classes[0].name == "C"

    def test_field_declaration(self):
        decl = parse_one("class A { int x; final double y = 1.5; }")
        fields = decl.fields
        assert [f.name for f in fields] == ["x", "y"]
        assert fields[1].final
        assert isinstance(fields[1].init, ast.Lit)

    def test_method_declaration(self):
        decl = parse_one("class A { int m(int a, boolean b) { return a; } }")
        method = decl.methods[0]
        assert method.name == "m"
        assert len(method.params) == 2

    def test_abstract_method(self):
        decl = parse_one("abstract class A { abstract int m(); }")
        assert decl.methods[0].abstract
        assert decl.methods[0].body is None

    def test_method_without_body_rejected(self):
        with pytest.raises(ParseError):
            parse_program("class A { int m(); }")

    def test_sharing_constraints(self):
        decl = parse_one(
            "class A { void m() sharing A!.B = C, D = E { } }"
        )
        assert len(decl.methods[0].constraints) == 2

    def test_constructor(self):
        decl = parse_one("class A { A(int x) { } }")
        assert len(decl.ctors) == 1
        assert decl.ctors[0].params[0].name == "x"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_program("class A { } garbage")


class TestTypes:
    def test_simple_name(self):
        t = parse_type_text("Foo")
        assert isinstance(t, ast.TName)

    def test_dotted_name(self):
        t = parse_type_text("A.B.C")
        assert t.parts == ("A", "B", "C")

    def test_primitives(self):
        for name in ("int", "double", "boolean", "String", "void"):
            assert isinstance(parse_type_text(name), ast.TPrim)

    def test_exact_type(self):
        t = parse_type_text("A!")
        assert isinstance(t, ast.TExact)

    def test_exact_prefix_then_member(self):
        # A!.B : exactness applies to A
        t = parse_type_text("A!.B")
        assert isinstance(t, ast.TNested)
        assert isinstance(t.outer, ast.TExact)

    def test_masked_type(self):
        t = parse_type_text("A.B\\f\\g")
        assert isinstance(t, ast.TMask)
        assert t.fields == ("f", "g")

    def test_this_class(self):
        t = parse_type_text("this.class")
        assert isinstance(t, ast.TDep)
        assert t.path == ("this",)

    def test_field_path_dependent(self):
        t = parse_type_text("this.f.class")
        assert t.path == ("this", "f")

    def test_var_dependent(self):
        t = parse_type_text("x.class")
        assert isinstance(t, ast.TDep)
        assert t.path == ("x",)

    def test_prefix_type(self):
        t = parse_type_text("AST[this.class]")
        assert isinstance(t, ast.TPrefix)
        assert isinstance(t.index, ast.TDep)

    def test_prefix_member(self):
        t = parse_type_text("AST[this.class].Exp")
        assert isinstance(t, ast.TNested)
        assert t.name == "Exp"

    def test_array_type(self):
        t = parse_type_text("int[]")
        assert isinstance(t, ast.TArray)

    def test_array_of_arrays(self):
        t = parse_type_text("double[][]")
        assert isinstance(t.elem, ast.TArray)

    def test_intersection_type(self):
        t = parse_type_text("A & B & C")
        assert isinstance(t, ast.TIsect)
        assert len(t.parts) == 3

    def test_masked_exact(self):
        t = parse_type_text("base!.Abs\\e")
        assert isinstance(t, ast.TMask)
        assert isinstance(t.inner, ast.TNested)


def first_stmt(body: str):
    unit = parse_program("class A { void m() { " + body + " } }")
    return unit.classes[0].methods[0].body.stmts[0]


class TestStatements:
    def test_local_declaration(self):
        s = first_stmt("int x = 1;")
        assert isinstance(s, ast.LocalDecl)
        assert s.name == "x"

    def test_local_declaration_no_init(self):
        s = first_stmt("int x;")
        assert isinstance(s, ast.LocalDecl)
        assert s.init is None

    def test_expression_statement(self):
        s = first_stmt("x = 1 + 2;")
        assert isinstance(s, ast.ExprStmt)
        assert isinstance(s.expr, ast.Assign)

    def test_if_else(self):
        s = first_stmt("if (a) { } else { }")
        assert isinstance(s, ast.If)
        assert s.els is not None

    def test_while(self):
        assert isinstance(first_stmt("while (a) { }"), ast.While)

    def test_for(self):
        s = first_stmt("for (int i = 0; i < 10; i++) { }")
        assert isinstance(s, ast.For)
        assert isinstance(s.init, ast.LocalDecl)

    def test_for_empty_parts(self):
        s = first_stmt("for (;;) { break; }")
        assert s.init is None and s.cond is None and s.update is None

    def test_return_value(self):
        s = first_stmt("return 1;")
        assert isinstance(s, ast.Return)

    def test_break_continue(self):
        assert isinstance(first_stmt("break;"), ast.Break)
        assert isinstance(first_stmt("continue;"), ast.Continue)

    def test_local_decl_with_generic_type(self):
        s = first_stmt("A!.B\\f x = y;")
        assert isinstance(s, ast.LocalDecl)


def expr(text: str) -> ast.Expr:
    s = first_stmt("x = " + text + ";")
    return s.expr.value


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = expr("1 + 2 * 3")
        assert isinstance(e, ast.Binary) and e.op == "+"
        assert isinstance(e.right, ast.Binary) and e.right.op == "*"

    def test_parenthesized(self):
        e = expr("(1 + 2) * 3")
        assert e.op == "*"

    def test_comparison_chain(self):
        e = expr("a < b == c > d")
        assert e.op == "=="

    def test_logical_ops(self):
        e = expr("a && b || c")
        assert e.op == "||"

    def test_unary_not(self):
        assert isinstance(expr("!a"), ast.Unary)

    def test_negative_literal(self):
        e = expr("-5")
        assert isinstance(e, ast.Unary) and e.op == "-"

    def test_ternary(self):
        assert isinstance(expr("a ? 1 : 2"), ast.Cond)

    def test_field_access_chain(self):
        e = expr("a.b.c")
        assert isinstance(e, ast.FieldGet) and e.name == "c"

    def test_method_call(self):
        e = expr("a.m(1, 2)")
        assert isinstance(e, ast.Call) and len(e.args) == 2

    def test_implicit_this_call(self):
        e = expr("m(1)")
        assert isinstance(e, ast.Call) and e.obj is None

    def test_new_object(self):
        e = expr("new A.B(1)")
        assert isinstance(e, ast.NewObj)

    def test_new_object_of_exact_prefix(self):
        """Postfix ``!`` in a ``new`` type: ``A!.B`` is the member ``B``
        of the exact ``A``."""
        e = expr("new A!.B(1)")
        assert isinstance(e, ast.NewObj)
        assert isinstance(e.type, ast.TNested) and e.type.name == "B"
        assert isinstance(e.type.outer, ast.TExact)
        assert e.type.outer.inner.parts == ("A",)

    def test_new_array(self):
        e = expr("new int[10]")
        assert isinstance(e, ast.NewArray)

    def test_new_array_with_variable_length(self):
        e = expr("new Node[n]")
        assert isinstance(e, ast.NewArray)

    def test_index(self):
        assert isinstance(expr("a[i]"), ast.Index)

    def test_cast(self):
        e = expr("(A.B)c")
        assert isinstance(e, ast.Cast)

    def test_paren_not_cast(self):
        e = expr("(a) + b")
        assert isinstance(e, ast.Binary) and e.op == "+"

    @pytest.mark.parametrize("text", ["(double) -3", "(int) -x", "(boolean) -x"])
    def test_primitive_cast_of_negation(self, text):
        e = expr(text)
        assert isinstance(e, ast.Cast) and isinstance(e.type, ast.TPrim)
        assert isinstance(e.expr, ast.Unary) and e.expr.op == "-"

    def test_primitive_cast_of_unary_plus(self):
        e = expr("(int) +x")
        assert isinstance(e, ast.Cast) and isinstance(e.expr, ast.Var)

    def test_primitive_cast_binds_tighter_than_the_sum(self):
        e = expr("(int) -d + i")
        assert isinstance(e, ast.Binary) and e.op == "+"
        assert isinstance(e.left, ast.Cast)

    @pytest.mark.parametrize("text", ["(a) - b", "(A) -x", "(A.B) -x"])
    def test_sign_after_a_non_primitive_is_arithmetic(self, text):
        e = expr(text)
        assert isinstance(e, ast.Binary) and e.op == "-"

    def test_view_change(self):
        e = expr("(view A!.B)c")
        assert isinstance(e, ast.ViewChange)

    def test_view_change_with_mask(self):
        e = expr("(view A!.B\\f)c")
        assert isinstance(e, ast.ViewChange)
        assert isinstance(e.type, ast.TMask)

    def test_instanceof(self):
        e = expr("a instanceof A.B")
        assert isinstance(e, ast.InstanceOf)

    def test_string_concat(self):
        e = expr('"a" + 1')
        assert isinstance(e, ast.Binary)

    def test_compound_assignment(self):
        s = first_stmt("x += 2;")
        assert isinstance(s.expr, ast.Assign) and s.expr.op == "+="

    def test_nested_calls(self):
        e = expr("f(g(h(1)))")
        assert isinstance(e, ast.Call)

    def test_this_literal(self):
        assert isinstance(expr("this"), ast.This)

    def test_null_true_false(self):
        assert expr("null").kind == "null"
        assert expr("true").value is True
        assert expr("false").value is False
