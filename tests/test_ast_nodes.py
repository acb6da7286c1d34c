"""The AST node contract and golden digests over the bundled programs.

The node classes in :mod:`repro.source.ast` are built without
``dataclasses``; these tests pin the behaviour callers rely on: how
nodes are constructed, compared, hashed and printed, and the structural
signatures the incremental checker derives from them.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.lang.incremental import class_sigs
from repro.programs import jolden, lambdac, trees
from repro.programs.corona.source import SOURCE as CORONA_SOURCE
from repro.source import ast
from repro.source.parser import parse_program


def bundled_sources():
    for mod in jolden.ALL:
        yield "jolden:" + mod.NAME, mod.SOURCE
    yield "trees", trees.SOURCE
    yield "lambdac", lambdac.SOURCE
    yield "corona", CORONA_SOURCE


def walk(decl, prefix=()):
    path = prefix + (decl.name,)
    yield path, decl
    for nested in decl.nested_classes:
        yield from walk(nested, path)


class TestConstruction:
    def test_positional_and_keyword_agree(self):
        a = ast.Binary("+", ast.Var("x", (1, 2)), ast.Lit(1, "int"), (1, 4))
        b = ast.Binary(op="+", left=ast.Var(name="x", pos=(1, 2)),
                       right=ast.Lit(value=1, kind="int"), pos=(1, 4))
        assert a == b
        assert (a.op, a.left.name, a.right.value, a.pos) == ("+", "x", 1, (1, 4))

    def test_defaults(self):
        assert ast.Lit(1, "int").pos == (0, 0)
        assign = ast.Assign(ast.Var("x"), ast.Lit(2, "int"))
        assert (assign.op, assign.pos) == ("=", (0, 0))
        assert ast.Break().pos == (0, 0)

    def test_field_order(self):
        assert ast.Assign._fields == ("target", "value", "op", "pos")
        assert ast.ClassDecl._fields == (
            "name", "abstract", "extends", "shares", "adapts", "members", "pos",
        )
        assert ast.CompilationUnit._fields == ("classes",)
        # Base-class annotations are not fields.
        assert "rtype" not in ast.Call._fields

    def test_missing_and_unknown_arguments_raise(self):
        with pytest.raises(TypeError):
            ast.Lit(1)
        with pytest.raises(TypeError):
            ast.Var("x", (0, 0), "extra")
        with pytest.raises(TypeError):
            ast.Var(name="x", line=3)

    def test_fresh_members_list_per_class_decl(self):
        a = ast.ClassDecl("A", False, [], None, None)
        b = ast.ClassDecl("B", False, [], None, None)
        assert a.members == [] and a.members is not b.members
        a.members.append(ast.FieldDecl(False, ast.TPrim("int"), "x", None))
        assert b.members == []
        given = [ast.FieldDecl(False, ast.TPrim("int"), "y", None)]
        assert ast.ClassDecl("C", False, [], None, None, given).members is given
        assert ast.ClassDecl("D", False, [], None, None, members=None).members is None

    def test_every_node_has_fields(self):
        assert len(ast._NODES) == 42
        for cls in ast._NODES:
            assert cls._fields, cls.__name__
            assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


class TestEquality:
    def test_field_wise(self):
        assert ast.Var("x", (1, 1)) == ast.Var("x", (1, 1))
        assert ast.Var("x", (1, 1)) != ast.Var("x", (1, 2))
        assert ast.Block([ast.Empty()]) == ast.Block([ast.Empty()])

    def test_same_fields_different_class(self):
        assert ast.Break((1, 1)) != ast.Continue((1, 1))
        assert ast.Cast("T", ast.This()) != ast.ViewChange("T", ast.This())
        assert ast.Var("x") != ("x", (0, 0))

    def test_identity_shortcut_on_fields(self):
        nan = float("nan")
        assert ast.Lit(nan, "double") == ast.Lit(nan, "double")

    def test_unhashable(self):
        for node in (ast.Var("x"), ast.TName(("A",)), ast.ClassDecl("A", False, [], None, None)):
            with pytest.raises(TypeError):
                hash(node)
        for cls in ast._NODES:
            assert cls.__hash__ is None

    def test_parse_is_deterministic(self):
        for _, source in bundled_sources():
            assert parse_program(source) == parse_program(source)


class TestRepr:
    def test_type_nodes_keep_their_own_repr(self):
        name = ast.TName(("A", "B"))
        assert repr(name) == "A.B"
        assert repr(ast.TPrim("int")) == "int"
        assert repr(ast.TDep(("x", "f"))) == "x.f.class"
        assert repr(ast.TPrefix(name, ast.TDep(("this",)))) == "A.B[this.class]"
        assert repr(ast.TExact(name)) == "A.B!"
        assert repr(ast.TMask(name, ("f", "g"))) == "A.B\\f\\g"
        assert repr(ast.TNested(ast.TExact(name), "C")) == "A.B!.C"
        assert repr(ast.TIsect((name, ast.TPrim("int")))) == "A.B & int"
        assert repr(ast.TArray(ast.TPrim("int"))) == "int[]"

    def test_other_nodes_list_their_fields(self):
        assert repr(ast.Lit(1, "int")) == "Lit(value=1, kind='int', pos=(0, 0))"
        assert repr(ast.Assign(ast.Var("x"), ast.Lit(2, "int"))) == (
            "Assign(target=Var(name='x', pos=(0, 0)), "
            "value=Lit(value=2, kind='int', pos=(0, 0)), op='=', pos=(0, 0))"
        )
        assert repr(ast.ClassDecl("A", False, [ast.TName(("B",))], None, None)) == (
            "ClassDecl(name='A', abstract=False, extends=[B], shares=None, "
            "adapts=None, members=[], pos=(0, 0))"
        )


# Digests over every bundled program, taken before the node classes
# stopped being dataclasses.  A change to either means the parser output
# or the incremental checker's graft decisions changed.
REPR_DIGEST = "e73b05f5d4ce4585d8ed60019b7de43394f11dc84b8ccdf7e0389b9225f14dff"
SIGS_DIGEST = "77f15131babc1ee9157fd06d7d2e0ae50c0917da9a9f344abc49225c4ac69e52"


def test_parse_tree_repr_golden():
    h = hashlib.sha256()
    for _, source in bundled_sources():
        h.update(repr(parse_program(source)).encode())
    assert h.hexdigest() == REPR_DIGEST


def test_class_sigs_golden():
    h = hashlib.sha256()
    count = 0
    for name, source in bundled_sources():
        for top in parse_program(source).classes:
            for path, decl in walk(top):
                sig = class_sigs(decl)
                h.update(repr((name, path, sig.struct, sig.api, sig.body)).encode())
                count += 1
    assert count == 76
    assert h.hexdigest() == SIGS_DIGEST
