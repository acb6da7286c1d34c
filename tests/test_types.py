"""Unit tests for resolved type representations (repro.lang.types)."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.lang import types as T
from repro.lang.types import ClassType, View, exact_class


class TestClassType:
    def test_repr_plain(self):
        assert repr(ClassType(("A", "B"))) == "A.B"

    def test_repr_exact_positions(self):
        assert repr(ClassType(("A", "B"), frozenset({1}))) == "A!.B"
        assert repr(ClassType(("A", "B"), frozenset({2}))) == "A.B!"

    def test_root(self):
        assert repr(ClassType(())) == "o"

    def test_is_exact(self):
        assert exact_class(("A",)).is_exact
        assert not ClassType(("A",)).is_exact
        assert not ClassType(("A", "B"), frozenset({1})).is_exact

    def test_member_preserves_exact_prefix(self):
        t = exact_class(("A",)).member("B")
        assert t.path == ("A", "B")
        assert t.exact == frozenset({1})

    def test_drop_exact(self):
        assert exact_class(("A",)).drop_exact() == ClassType(("A",))


class TestMasks:
    def test_with_masks(self):
        t = ClassType(("A",)).with_masks(frozenset({"f"}))
        assert t.masks == frozenset({"f"})
        assert t.pure() == ClassType(("A",))

    def test_mask_merging(self):
        t = ClassType(("A",)).with_masks(frozenset({"f"}))
        t2 = t.with_masks(frozenset({"g"}))
        assert t2.masks == frozenset({"f", "g"})

    def test_empty_masks_identity(self):
        t = ClassType(("A",))
        assert t.with_masks(frozenset()) is t

    def test_masked_helper(self):
        t = T.masked(ClassType(("A",)), "f", "g")
        assert t.masks == frozenset({"f", "g"})

    def test_repr_sorted(self):
        t = T.masked(ClassType(("A",)), "g", "f")
        assert repr(t) == "A\\f\\g"

    def test_member_of_masked_rejected(self):
        with pytest.raises(ValueError):
            T.make_member(T.masked(ClassType(("A",)), "f"), "B")


class TestMakers:
    def test_make_exact_on_class(self):
        t = T.make_exact(ClassType(("A", "B")))
        assert isinstance(t, ClassType) and t.is_exact

    def test_make_exact_on_dep_is_noop(self):
        d = T.DepType(("this",))
        assert T.make_exact(d) is d

    def test_make_exact_under_masks(self):
        t = T.make_exact(T.masked(ClassType(("A",)), "f"))
        assert t.masks == frozenset({"f"})
        assert t.pure().is_exact

    def test_make_member_class(self):
        assert T.make_member(ClassType(("A",)), "B") == ClassType(("A", "B"))

    def test_make_member_prefix(self):
        p = T.PrefixType(("AST",), T.DepType(("this",)))
        m = T.make_member(p, "Exp")
        assert isinstance(m, T.NestedType)

    def test_make_exact_on_prefix_wraps_and_prints(self):
        p = T.PrefixType(("AST",), T.DepType(("this",)))
        e = T.make_exact(p)
        assert isinstance(e, T.ExactType) and e.inner is p
        assert repr(e) == "AST[this.class]!"
        assert T.make_exact(e) is e

    def test_make_isect_flattens(self):
        t = T.make_isect(
            (T.make_isect((ClassType(("A",)), ClassType(("B",)))), ClassType(("C",)))
        )
        assert isinstance(t, T.IsectType)
        assert len(t.parts) == 3

    def test_make_isect_single_collapses(self):
        assert T.make_isect((ClassType(("A",)), ClassType(("A",)))) == ClassType(("A",))


class TestExactness:
    def test_prefix_exact_k_of_exact_class(self):
        t = exact_class(("A", "B"))
        assert T.prefix_exact_k(t, 0)
        assert T.prefix_exact_k(t, 1)  # monotone outward

    def test_prefix_exact_k_inner_position(self):
        t = ClassType(("A", "B", "C"), frozenset({2}))  # A.B!.C
        assert not T.prefix_exact_k(t, 0)
        assert T.prefix_exact_k(t, 1)
        assert T.prefix_exact_k(t, 2)

    def test_dep_type_exact(self):
        assert T.is_exact(T.DepType(("this",)))

    def test_nested_through_prefix(self):
        # AST[this.class].Exp — not exact itself, family-level exact
        t = T.NestedType(T.PrefixType(("AST",), T.DepType(("this",))), "Exp")
        assert not T.is_exact(t)
        assert T.prefix_exact_k(t, 1)

    def test_isect_exact_if_any(self):
        t = T.IsectType((ClassType(("A",)), exact_class(("B",))))
        assert T.is_exact(t)

    def test_plain_class_never_exact(self):
        assert not T.is_exact(ClassType(("A", "B", "C")))


class TestPaths:
    def test_paths_of_dep(self):
        assert T.paths_in(T.DepType(("x", "f"))) == frozenset({("x", "f")})

    def test_paths_through_structure(self):
        t = T.NestedType(T.PrefixType(("A",), T.DepType(("this",))), "C")
        assert T.paths_in(t) == frozenset({("this",)})

    def test_paths_of_class_empty(self):
        assert T.paths_in(ClassType(("A",))) == frozenset()

    def test_depends_on_this_only(self):
        t1 = T.PrefixType(("A",), T.DepType(("this", "f")))
        t2 = T.PrefixType(("A",), T.DepType(("x",)))
        assert T.depends_on_this_only(t1)
        assert not T.depends_on_this_only(t2)

    def test_is_reference_type(self):
        assert T.is_reference_type(ClassType(("A",)))
        assert T.is_reference_type(T.DepType(("this",)))
        assert not T.is_reference_type(T.INT)
        assert not T.is_reference_type(T.ArrayType(T.INT))


class TestView:
    def test_view_as_type(self):
        v = View(("A", "B"), frozenset({"f"}))
        t = v.as_type()
        assert t.masks == frozenset({"f"})
        assert t.pure().is_exact

    def test_without_masks(self):
        v = View(("A",), frozenset({"f"}))
        assert v.without_masks().masks == frozenset()

    def test_view_repr(self):
        assert repr(View(("A", "B"), frozenset({"f"}))) == "A.B!\\f"

    def test_view_hashable_equal(self):
        assert View(("A",)) == View(("A",))
        assert hash(View(("A",))) == hash(View(("A",)))


# -- the value contract of every type class and View ---------------------------

A = ClassType(("A",))


def _values():
    """Per class: a builder (called twice for two equal, distinct
    objects), its fields as the structural key, a same-class value that
    differs in one field, and the repr."""
    return [
        (lambda: T.PrimType("int"), ("int",), T.PrimType("double"), "int"),
        (lambda: T.ArrayType(ClassType(("A",))), (A,), T.ArrayType(T.INT), "A[]"),
        (lambda: ClassType(("A", "B"), frozenset({1})), (("A", "B"), frozenset({1})),
         ClassType(("A", "B")), "A!.B"),
        (lambda: T.DepType(("this", "f")), (("this", "f"),), T.DepType(("this",)),
         "this.f.class"),
        (lambda: T.PrefixType(("A",), T.DepType(("x",))), (("A",), T.DepType(("x",))),
         T.PrefixType(("B",), T.DepType(("x",))), "A[x.class]"),
        (lambda: T.NestedType(T.DepType(("x",)), "C"), (T.DepType(("x",)), "C"),
         T.NestedType(T.DepType(("x",)), "D"), "x.class.C"),
        (lambda: T.ExactType(T.PrefixType(("A",), A)), (T.PrefixType(("A",), A),),
         T.ExactType(T.PrefixType(("B",), A)), "A[A]!"),
        (lambda: T.IsectType((A, ClassType(("B",)))), ((A, ClassType(("B",))),),
         T.IsectType((ClassType(("B",)), A)), "A & B"),
        (lambda: T.MaskedType(A, {"g", "f"}), (A, frozenset({"f", "g"})),
         T.MaskedType(A, frozenset({"f"})), "A\\f\\g"),
        # last: views are not interned
        (lambda: View(("A", "B"), frozenset({"f"})), (("A", "B"), frozenset({"f"})),
         View(("A", "B")), "A.B!\\f"),
    ]


VALUES = _values()
IDS = [type(build()).__name__ for build, *_ in VALUES]


@pytest.mark.parametrize("build,fields,other,text", VALUES, ids=IDS)
class TestValueContract:
    def test_structural_equality_and_hash(self, build, fields, other, text):
        a, b = build(), build()
        assert a is not b
        assert a == b and not (a != b)
        assert hash(a) == hash(b)
        # the hash of the field tuple, as before the classes were
        # hand-written: iteration orders of sets of types stay the same
        assert hash(a) == hash(fields)

    def test_a_differing_field_is_unequal(self, build, fields, other, text):
        a = build()
        assert type(other) is type(a)
        assert a != other and not (a == other)

    def test_unequal_across_classes(self, build, fields, other, text):
        a = build()
        stranger = T.DepType(("A",)) if not isinstance(a, T.DepType) else ClassType(("this", "f"))
        assert a.__eq__(stranger) is NotImplemented
        assert a != stranger and stranger != a
        assert a.__eq__(fields) is NotImplemented and a != fields

    def test_repr(self, build, fields, other, text):
        assert repr(build()) == text

    def test_fields_cannot_be_assigned(self, build, fields, other, text):
        a = build()
        for name in type(a).__slots__:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a == build()

    def test_copy_and_pickle_rebuild_an_equal_value(self, build, fields, other, text):
        a = build()
        for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert clone == a and hash(clone) == hash(a) and repr(clone) == text


@pytest.mark.parametrize("build", [b for b, *_ in VALUES[:-1]], ids=IDS[:-1])
def test_intern_identity(build):
    a = build()
    assert T.intern_type(a) is T.intern_type(build())
    assert T.intern_type(a) == a


def test_masked_type_constructor_takes_base_and_masks():
    t = T.MaskedType(A, ["f", "f"])
    assert (t.base, t.masks, t.pure()) == (A, frozenset({"f"}), A)
    with pytest.raises(TypeError):
        T.MaskedType(A)


def test_defaults():
    assert ClassType(("A",)).exact == frozenset()
    assert View(("A",)).masks == frozenset()


# -- property-based tests ----------------------------------------------------

names = st.sampled_from(["A", "B", "C", "D"])
paths = st.lists(names, min_size=1, max_size=3).map(tuple)


@st.composite
def class_types(draw):
    path = draw(paths)
    positions = draw(
        st.sets(st.integers(min_value=1, max_value=len(path)), max_size=2)
    )
    return ClassType(path, frozenset(positions))


@given(class_types())
def test_prefix_exact_monotone(t):
    """If prefixExact_k then prefixExact_{k+1} (Figure 11)."""
    for k in range(0, len(t.path) + 1):
        if T.prefix_exact_k(t, k):
            assert T.prefix_exact_k(t, k + 1)


@given(class_types(), st.sets(st.sampled_from(["f", "g", "h"]), max_size=3))
def test_mask_roundtrip(t, masks):
    masked = t.with_masks(frozenset(masks))
    assert masked.pure() == t
    assert masked.masks == frozenset(masks)


@given(class_types())
def test_make_exact_idempotent_exactness(t):
    e = T.make_exact(t)
    assert T.is_exact(e)
    assert T.make_exact(e).pure() == e.pure()


@given(class_types())
def test_exactness_never_changes_path(t):
    assert T.make_exact(t).path == t.path
