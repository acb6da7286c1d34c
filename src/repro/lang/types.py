"""Resolved type representations for J&s.

These mirror the type grammar of Figure 8 in the paper:

    pure types  PT ::= o | PT.C | p.class | P[PT] | &PT | PT!
    types        T ::= PT | PT\\f

A *class path* is a tuple of names rooted at the outermost namespace ``o``
(written ``()`` here); e.g. ``("ASTDisplay", "Binary")``.

Exactness can apply at any depth of a path (``A.B!.C`` means exactness of
the prefix ``A.B``); we canonicalize path-shaped types into
:class:`ClassType` carrying the set of exact positions, so
``ASTDisplay.Exp!`` is ``ClassType(("ASTDisplay","Exp"), exact={2})`` and
``ASTDisplay!.Exp`` is ``ClassType(("ASTDisplay","Exp"), exact={1})``.
Non-path-shaped types (dependent classes, prefix types, intersections)
keep their structure.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from ..records import Frozen

Path = Tuple[str, ...]

#: Sets a field of a frozen value in ``__init__``.
_set = object.__setattr__


class Type(Frozen):
    """Base class of resolved J&s types.

    Every subclass is an immutable value compared and hashed over its
    fields, with ``__eq__`` returning ``NotImplemented`` across classes
    (types are query keys, so these methods are written out per class).
    A field holding a type is compared by identity first: children are
    usually interned, and ``==`` alone would recurse into them.
    """

    __slots__ = ()

    def with_masks(self, masks: FrozenSet[str]) -> "Type":
        if not masks:
            return self
        if isinstance(self, MaskedType):
            return MaskedType(self.base, self.masks | masks)
        return MaskedType(self, frozenset(masks))

    @property
    def masks(self) -> FrozenSet[str]:
        return frozenset()

    def pure(self) -> "Type":
        """Strip all masks (the ``pure`` function of the paper)."""
        return self


class PrimType(Type):
    """int, double, boolean, String, void, or the internal null type."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))

    def __repr__(self) -> str:
        return self.name


INT = PrimType("int")
DOUBLE = PrimType("double")
BOOLEAN = PrimType("boolean")
STRING = PrimType("String")
VOID = PrimType("void")
NULL = PrimType("null")


class ArrayType(Type):
    __slots__ = ("elem",)

    def __init__(self, elem: Type) -> None:
        _set(self, "elem", elem)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.elem is other.elem or self.elem == other.elem
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.elem,))

    def __repr__(self) -> str:
        return f"{self.elem!r}[]"


class ClassType(Type):
    """A pure non-dependent path type with exactness positions.

    ``exact`` holds 1-based prefix lengths whose prefix is exact;
    e.g. ``A.B!.C`` has ``exact == {2}`` and ``A.B.C!`` has ``exact == {3}``.
    The root namespace ``o`` is ``ClassType(())``.
    """

    __slots__ = ("path", "exact")

    def __init__(self, path: Path, exact: FrozenSet[int] = frozenset()) -> None:
        _set(self, "path", path)
        _set(self, "exact", exact)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.path == other.path and self.exact == other.exact
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.path, self.exact))

    def __repr__(self) -> str:
        if not self.path:
            return "o"
        out = []
        for i, name in enumerate(self.path, start=1):
            out.append(name)
            if i in self.exact:
                out.append("!")
            if i != len(self.path):
                out.append(".")
        return "".join(out)

    @property
    def is_exact(self) -> bool:
        """Whether the whole type is exact (its values all have the same
        run-time class)."""
        return len(self.path) in self.exact

    def member(self, name: str) -> "ClassType":
        return ClassType(self.path + (name,), self.exact)

    def exact_here(self) -> "ClassType":
        return ClassType(self.path, self.exact | {len(self.path)})

    def drop_exact(self) -> "ClassType":
        return ClassType(self.path)


def exact_class(path: Path) -> ClassType:
    """The type ``P!`` for a class path — the view of instances created as
    ``new P``."""
    return ClassType(tuple(path), frozenset({len(path)}))


class DepType(Type):
    """A dependent class ``p.class``; ``path`` is ("this",) or
    ("x", "f", ...).  Dependent classes are exact."""

    __slots__ = ("path",)

    def __init__(self, path: Path) -> None:
        _set(self, "path", path)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.path == other.path
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.path,))

    def __repr__(self) -> str:
        return ".".join(self.path) + ".class"


class PrefixType(Type):
    """A prefix type ``P[T]``: the enclosing family of ``T`` at the level
    of class ``P`` (``family`` is P's absolute path)."""

    __slots__ = ("family", "index")

    def __init__(self, family: Path, index: Type) -> None:
        _set(self, "family", family)
        _set(self, "index", index)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.family == other.family and (
                self.index is other.index or self.index == other.index
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.family, self.index))

    def __repr__(self) -> str:
        return ".".join(self.family) + f"[{self.index!r}]"

    def member(self, name: str) -> "NestedType":
        return NestedType(self, name)


class NestedType(Type):
    """Member access ``T.C`` on a non-path type (prefix, dependent,
    intersection, or exact-of-those)."""

    __slots__ = ("outer", "name")

    def __init__(self, outer: Type, name: str) -> None:
        _set(self, "outer", outer)
        _set(self, "name", name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.outer is other.outer or self.outer == other.outer
            ) and self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.outer, self.name))

    def __repr__(self) -> str:
        return f"{self.outer!r}.{self.name}"


class ExactType(Type):
    """``T!`` where T is not path-shaped (path-shaped exactness is folded
    into :class:`ClassType`)."""

    __slots__ = ("inner",)

    def __init__(self, inner: Type) -> None:
        _set(self, "inner", inner)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.inner is other.inner or self.inner == other.inner
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.inner,))

    def __repr__(self) -> str:
        return f"{self.inner!r}!"


class IsectType(Type):
    """Intersection ``T1 & T2``."""

    __slots__ = ("parts",)

    def __init__(self, parts: Tuple[Type, ...]) -> None:
        _set(self, "parts", parts)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))

    def __repr__(self) -> str:
        return " & ".join(repr(p) for p in self.parts)


class MaskedType(Type):
    """``T\\f``: T without read access to the masked fields."""

    __slots__ = ("base", "_masks")

    def __init__(self, base: Type, masks: FrozenSet[str]) -> None:
        _set(self, "base", base)
        _set(self, "_masks", frozenset(masks))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.base is other.base or self.base == other.base
            ) and self._masks == other._masks
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.base, self._masks))

    @property
    def masks(self) -> FrozenSet[str]:
        return self._masks

    def pure(self) -> Type:
        return self.base

    def __repr__(self) -> str:
        return repr(self.base) + "".join("\\" + f for f in sorted(self._masks))


def masked(base: Type, *fields_: str) -> Type:
    """Convenience constructor for masked types."""
    if not fields_:
        return base
    return MaskedType(base, frozenset(fields_))


def make_exact(t: Type) -> Type:
    """Apply ``!`` to a resolved type, folding into ClassType when
    possible."""
    if isinstance(t, ClassType):
        return t.exact_here()
    if isinstance(t, MaskedType):
        return MaskedType(make_exact(t.base), t.masks)
    if isinstance(t, (DepType, ExactType)):
        return t  # dependent classes are already exact
    return ExactType(t)


def make_member(t: Type, name: str) -> Type:
    """Apply ``.name`` to a resolved type."""
    if isinstance(t, ClassType):
        return t.member(name)
    if isinstance(t, MaskedType):
        raise ValueError("cannot select a member of a masked type")
    return NestedType(t, name)


def make_isect(parts: Tuple[Type, ...]) -> Type:
    flat = []
    for p in parts:
        if isinstance(p, IsectType):
            flat.extend(p.parts)
        else:
            flat.append(p)
    uniq = tuple(dict.fromkeys(flat))
    if len(uniq) == 1:
        return uniq[0]
    return IsectType(uniq)


def is_reference_type(t: Type) -> bool:
    """True for types whose values are object references (class-ish types)."""
    t = t.pure()
    return isinstance(
        t, (ClassType, DepType, PrefixType, NestedType, ExactType, IsectType)
    )


def prefix_exact_k(t: Type, k: int) -> bool:
    """``prefixExact_k`` of Figure 11: whether the k-th prefix of ``t`` is
    exact (k = 0 means the type itself)."""
    if isinstance(t, MaskedType):
        return prefix_exact_k(t.base, k)
    if isinstance(t, ClassType):
        if not t.path:
            return False
        # the k-th prefix of a path of length n is the prefix of length n-k;
        # Figure 11 makes prefixExact_k(T!) true for every k, so exactness
        # anywhere at or below that depth suffices
        target = len(t.path) - k
        if target <= 0:
            return bool(t.exact)
        return any(pos >= target for pos in t.exact)
    if isinstance(t, DepType):
        return True
    if isinstance(t, ExactType):
        return True
    if isinstance(t, NestedType):
        if k == 0:
            return False
        return prefix_exact_k(t.outer, k - 1)
    if isinstance(t, PrefixType):
        return prefix_exact_k(t.index, k + 1)
    if isinstance(t, IsectType):
        return any(prefix_exact_k(p, k) for p in t.parts)
    return False


def is_exact(t: Type) -> bool:
    """``exact(T)``: all values of T share one run-time class."""
    return prefix_exact_k(t, 0)


def paths_in(t: Type) -> FrozenSet[Path]:
    """``paths(T)``: final access paths appearing in the type (Fig. 11)."""
    if isinstance(t, MaskedType):
        return paths_in(t.base)
    if isinstance(t, DepType):
        return frozenset({t.path})
    if isinstance(t, (ExactType,)):
        return paths_in(t.inner)
    if isinstance(t, NestedType):
        return paths_in(t.outer)
    if isinstance(t, PrefixType):
        return paths_in(t.index)
    if isinstance(t, IsectType):
        out: FrozenSet[Path] = frozenset()
        for p in t.parts:
            out |= paths_in(p)
        return out
    return frozenset()


def depends_on_this_only(t: Type) -> bool:
    """True when every dependent path in ``t`` starts at ``this`` (needed by
    sharing-constraint well-formedness, Section 2.5)."""
    return all(p and p[0] == "this" for p in paths_in(t))


#: Hash-consing table: structural type -> canonical instance.  All the
#: types above hash/compare structurally, so one dict keyed on the
#: type itself suffices; rebuilding a node with interned children does not
#: change its equality class.  Cleared by ``queries.clear_caches()`` —
#: safe, because interning is self-repopulating.
_INTERN: Dict["Type", "Type"] = {}


def intern_type(t: Type) -> Type:
    """Return the canonical instance of ``t`` (hash-consing).

    After interning, structurally equal types are the *same object*, so
    ``==`` on them hits CPython's identity fast path and they are cheap
    dict keys for the memoized queries.  Children are interned
    recursively, so any subterm of an interned type is interned too.
    Idempotent; safe on any resolved type.
    """
    cached = _INTERN.get(t)
    if cached is not None:
        return cached
    if isinstance(t, ArrayType):
        t = ArrayType(intern_type(t.elem))
    elif isinstance(t, PrefixType):
        t = PrefixType(t.family, intern_type(t.index))
    elif isinstance(t, NestedType):
        t = NestedType(intern_type(t.outer), t.name)
    elif isinstance(t, ExactType):
        t = ExactType(intern_type(t.inner))
    elif isinstance(t, IsectType):
        t = IsectType(tuple(intern_type(p) for p in t.parts))
    elif isinstance(t, MaskedType):
        t = MaskedType(intern_type(t.base), t.masks)
    _INTERN[t] = t
    return t


for _prim in (INT, DOUBLE, BOOLEAN, STRING, VOID, NULL):
    _INTERN[_prim] = _prim
del _prim


class View(Frozen):
    """A run-time view: a non-dependent exact class (a path) plus masks.

    Object references in J&s are pairs of a heap location and a view
    (Section 2.3); the view determines behavior.
    """

    __slots__ = ("path", "masks")

    def __init__(self, path: Path, masks: FrozenSet[str] = frozenset()) -> None:
        _set(self, "path", path)
        _set(self, "masks", masks)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.path == other.path and self.masks == other.masks
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.path, self.masks))

    def __repr__(self) -> str:
        base = ".".join(self.path) + "!"
        return base + "".join("\\" + f for f in sorted(self.masks))

    def as_type(self) -> Type:
        t: Type = exact_class(self.path)
        if self.masks:
            t = t.with_masks(self.masks)
        return t

    def without_masks(self) -> "View":
        if not self.masks:
            return self
        return View(self.path)


#: One run-time view per ``(path, masks)``: every view a reference can
#: hold comes from :func:`intern_view`, so emitted code may key an inline
#: cache on the ``View`` object and test it with ``is``.  Not cleared by
#: ``queries.clear_caches()``: live references keep the views they hold,
#: and a fresh table would split them from the views made afterwards.
_VIEWS: Dict[Tuple[Path, FrozenSet[str]], View] = {}


def intern_view(path: Path, masks: FrozenSet[str] = frozenset()) -> View:
    """The one :class:`View` of ``path`` with ``masks`` (a frozenset).
    ``View(...)`` itself stays an ordinary constructor."""
    key = (path, masks)
    view = _VIEWS.get(key)
    if view is None:
        view = _VIEWS[key] = View(path, masks)
    return view
