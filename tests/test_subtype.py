"""Subtyping tests, including the exactness discipline of Section 2.1."""

import pytest
from hypothesis import given, strategies as st

from repro import compile_program
from repro.lang import provenance, types as T
from repro.lang.provenance import PROVENANCE
from repro.lang.subtype import Env, substitute_this, subtype, type_equiv
from repro.lang.types import ClassType, exact_class

from conftest import FIG123_SOURCE


@pytest.fixture(scope="module")
def env():
    table = compile_program(FIG123_SOURCE).table
    return Env(table, ("ASTDisplay",))


def C(*parts, exact=()):
    return ClassType(tuple(parts), frozenset(exact))


class TestPrimitives:
    def test_reflexive(self, env):
        for t in (T.INT, T.DOUBLE, T.BOOLEAN, T.STRING, T.VOID):
            assert subtype(env, t, t)

    def test_int_widens_to_double(self, env):
        assert subtype(env, T.INT, T.DOUBLE)
        assert not subtype(env, T.DOUBLE, T.INT)

    def test_null_below_references(self, env):
        assert subtype(env, T.NULL, C("AST", "Exp"))
        assert subtype(env, T.NULL, T.STRING)
        assert subtype(env, T.NULL, T.ArrayType(T.INT))
        assert not subtype(env, T.NULL, T.INT)

    def test_prim_vs_class(self, env):
        assert not subtype(env, T.INT, C("AST"))
        assert not subtype(env, C("AST"), T.INT)

    def test_arrays_invariant(self, env):
        assert subtype(env, T.ArrayType(T.INT), T.ArrayType(T.INT))
        assert not subtype(env, T.ArrayType(T.INT), T.ArrayType(T.DOUBLE))


class TestClassSubtyping:
    def test_subclass(self, env):
        assert subtype(env, C("AST", "Value"), C("AST", "Exp"))

    def test_not_supertype(self, env):
        assert not subtype(env, C("AST", "Exp"), C("AST", "Value"))

    def test_further_binding_subtype(self, env):
        assert subtype(env, C("ASTDisplay", "Binary"), C("AST", "Binary"))

    def test_cross_family_parent(self, env):
        assert subtype(env, C("ASTDisplay", "Value"), C("TreeDisplay", "Leaf"))

    def test_unrelated(self, env):
        assert not subtype(env, C("AST", "Value"), C("TreeDisplay", "Leaf"))


class TestExactness:
    """The examples spelled out in Section 2.1."""

    def test_exact_below_inexact(self, env):
        assert subtype(env, C("AST", "Exp", exact=(2,)), C("AST", "Exp"))

    def test_subclass_not_below_exact(self, env):
        # neither Value nor Value! is a subtype of Exp!
        assert not subtype(env, C("AST", "Value"), C("AST", "Exp", exact=(2,)))
        assert not subtype(
            env, C("AST", "Value", exact=(2,)), C("AST", "Exp", exact=(2,))
        )

    def test_exactness_shifts_outward(self, env):
        # ASTDisplay.Exp! <= ASTDisplay!.Exp <= ASTDisplay.Exp
        assert subtype(
            env, C("ASTDisplay", "Exp", exact=(2,)), C("ASTDisplay", "Exp", exact=(1,))
        )
        assert subtype(env, C("ASTDisplay", "Exp", exact=(1,)), C("ASTDisplay", "Exp"))

    def test_exact_family_not_across_families(self, env):
        # ASTDisplay.Exp! is NOT a subtype of AST.Exp!
        assert not subtype(
            env, C("ASTDisplay", "Exp", exact=(2,)), C("AST", "Exp", exact=(2,))
        )

    def test_exact_prefix_marks_family_boundary(self, env):
        # ASTDisplay!.Binary is not a subtype of AST!.Binary ...
        assert not subtype(
            env, C("ASTDisplay", "Binary", exact=(1,)), C("AST", "Binary", exact=(1,))
        )
        # ... even though the inexact versions are subtypes
        assert subtype(env, C("ASTDisplay", "Binary"), C("AST", "Binary"))

    def test_subclassing_within_exact_family(self, env):
        # ASTDisplay!.Binary <= ASTDisplay!.Exp
        assert subtype(
            env, C("ASTDisplay", "Binary", exact=(1,)), C("ASTDisplay", "Exp", exact=(1,))
        )

    def test_fully_exact_below_family_exact(self, env):
        # ASTDisplay.Value! <= ASTDisplay!.Exp
        assert subtype(
            env, C("ASTDisplay", "Value", exact=(2,)), C("ASTDisplay", "Exp", exact=(1,))
        )

    @pytest.mark.parametrize(
        "sub,sup,holds",
        [
            # AST!.Exp! <= AST.Exp!: the run-time class is AST.Exp itself
            (C("AST", "Exp", exact=(1, 2)), C("AST", "Exp", exact=(2,)), True),
            # AST!.Exp is not below AST!: only AST itself is
            (C("AST", "Exp", exact=(1,)), C("AST", exact=(1,)), False),
        ],
    )
    def test_fully_exact_supertype_admits_only_its_own_class(self, sub, sup, holds):
        """S-EXACT against a fully exact supertype, with the ``exact``
        premise a recorded derivation cites for it."""
        table = compile_program(FIG123_SOURCE).table
        env = Env(table, ("ASTDisplay",))
        assert subtype(env, sub, sup) is holds
        table.queries.clear()
        provenance.enable()
        try:
            with PROVENANCE.capture() as cap:
                assert subtype(env, sub, sup) is holds
        finally:
            provenance.disable()
            PROVENANCE.clear()
        nodes, notes = [cap.derivation], []
        while nodes:
            node = nodes.pop()
            if node.judgment == "exact":
                notes.append(node.result)
            nodes.extend(node.premises)
        assert notes == [holds]

    def test_new_expression_type(self, env):
        # new AST.Value() : AST.Value! <= AST!.Exp
        assert subtype(
            env, C("AST", "Value", exact=(2,)), C("AST", "Exp", exact=(1,))
        )


class TestMasks:
    def test_adding_masks_goes_up(self, env):
        t = C("AST", "Binary")
        assert subtype(env, t, t.with_masks(frozenset({"l"})))

    def test_removing_masks_fails(self, env):
        t = C("AST", "Binary")
        assert not subtype(env, t.with_masks(frozenset({"l"})), t)

    def test_mask_subset(self, env):
        t = C("AST", "Binary")
        assert subtype(
            env,
            t.with_masks(frozenset({"l"})),
            t.with_masks(frozenset({"l", "r"})),
        )

    def test_masks_with_subclassing(self, env):
        assert subtype(
            env,
            C("AST", "Value").with_masks(frozenset({"v"})),
            C("AST", "Exp").with_masks(frozenset({"v"})),
        )


class TestIntersections:
    def test_isect_below_parts(self, env):
        t = T.IsectType((C("AST"), C("TreeDisplay")))
        assert subtype(env, t, C("AST"))
        assert subtype(env, t, C("TreeDisplay"))

    def test_below_isect_needs_all(self, env):
        t = T.IsectType((C("AST"), C("TreeDisplay")))
        assert subtype(env, C("ASTDisplay"), t)
        assert not subtype(env, C("AST"), t)


class TestDependent:
    def test_this_class_below_declared(self, env):
        local = env.copy()
        local.vars["this"] = C("ASTDisplay")
        assert subtype(local, T.DepType(("this",)), C("ASTDisplay"))
        assert subtype(local, T.DepType(("this",)), C("AST"))

    def test_dep_nominal_equality(self, env):
        d = T.DepType(("this",))
        local = env.copy()
        local.vars["this"] = C("ASTDisplay")
        assert subtype(local, d, d)

    def test_late_bound_member_of_this(self, env):
        local = env.copy()
        local.vars["this"] = C("ASTDisplay")
        exp = T.NestedType(T.PrefixType(("AST",), T.DepType(("this",))), "Exp")
        value = T.NestedType(T.PrefixType(("AST",), T.DepType(("this",))), "Value")
        assert subtype(local, value, exp)
        assert not subtype(local, exp, value)

    def test_exact_new_below_late_bound(self, env):
        local = env.copy()
        local.vars["this"] = C("ASTDisplay")
        exp = T.NestedType(T.PrefixType(("AST",), T.DepType(("this",))), "Exp")
        assert subtype(local, T.make_exact(exp), exp)

    def test_prefix_equivalence_related_families(self, env):
        local = env.copy()
        local.vars["this"] = C("ASTDisplay")
        via_ast = T.NestedType(T.PrefixType(("AST",), T.DepType(("this",))), "Exp")
        via_display = T.NestedType(
            T.PrefixType(("ASTDisplay",), T.DepType(("this",))), "Exp"
        )
        assert type_equiv(local, via_ast, via_display)


# -- property-based -----------------------------------------------------------

ALL_PATHS = [
    ("AST",),
    ("TreeDisplay",),
    ("ASTDisplay",),
    ("AST", "Exp"),
    ("AST", "Value"),
    ("AST", "Binary"),
    ("TreeDisplay", "Node"),
    ("TreeDisplay", "Leaf"),
    ("ASTDisplay", "Exp"),
    ("ASTDisplay", "Value"),
    ("ASTDisplay", "Binary"),
    ("ASTDisplay", "Node"),
]


@st.composite
def fig123_types(draw):
    path = draw(st.sampled_from(ALL_PATHS))
    exact = draw(st.sets(st.integers(1, len(path)), max_size=1))
    return ClassType(path, frozenset(exact))


@given(fig123_types())
def test_subtype_reflexive(t):
    table = compile_program(FIG123_SOURCE).table
    env = Env(table, ())
    assert subtype(env, t, t)


@given(fig123_types(), fig123_types(), fig123_types())
def test_subtype_transitive(a, b, c):
    table = compile_program(FIG123_SOURCE).table
    env = Env(table, ())
    if subtype(env, a, b) and subtype(env, b, c):
        assert subtype(env, a, c)


@given(fig123_types())
def test_exact_value_below_its_type(t):
    """A value created as `new P` (view P!) belongs to every supertype of P
    that does not cross a family boundary above it."""
    table = compile_program(FIG123_SOURCE).table
    env = Env(table, ())
    v = exact_class(t.path)
    if subtype(env, t, t):  # trivially true; keeps hypothesis happy
        assert subtype(env, v, ClassType(t.path))


class TestSubstitution:
    def test_exact_type_substitutes_under_the_bang(self, env):
        """``AST[this.class]!`` with receiver ``x`` (a final path) is
        ``AST[x.class]!``: the substitution reaches inside ``ExactType``
        and keeps it exact."""
        t = T.make_exact(T.PrefixType(("AST",), T.DepType(("this",))))
        assert isinstance(t, T.ExactType)
        out = substitute_this(t, T.DepType(("x",)), env)
        assert out == T.ExactType(T.PrefixType(("AST",), T.DepType(("x",))))
