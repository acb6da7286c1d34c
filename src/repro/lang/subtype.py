"""Subtyping and type bounds for J&s (Sections 4.9 and 4.13).

The practical checker canonicalizes path-shaped types into
:class:`~repro.lang.types.ClassType` values carrying exactness positions,
and decides subtyping with three ingredients:

* the inheritance graph (``@*`` closure from the class table);
* exactness discipline: ``T.C! <= T!.C`` (exactness shifts outward,
  S-EXACT) and exact prefixes mark family boundaries, so the exact prefix
  of the supertype must match syntactically (``ASTDisplay!.Binary`` is not
  a subtype of ``AST!.Binary`` even though the inexact versions are);
* bounds (``Gamma |- T <| PS``): dependent classes and prefix types are
  replaced by their most specific non-dependent bound (BD-FIN, BD-PRE).

Sharing never implies subtyping (Section 2.2): nothing here consults the
sharing relation.
"""

from __future__ import annotations

from typing import Dict, Optional

from . import types as T
from .classtable import ClassTable, ResolveError, TypeError_, path_str
from .provenance import PROVENANCE as _PROV
from .queries import MISS
from .types import ClassType, Path, Type

#: The only dependent path whose judgments are cacheable: results for
#: ``this``-rooted types are a function of (ctx, type) alone *provided*
#: the environment binds ``this`` the standard way (``this : ctx``, see
#: ``_standard_this``).  Types depending on other locals go through the
#: flow-sensitive ``env.vars`` and are never cached.
_THIS_PATH = ("this",)


def _standard_this(env: "Env") -> bool:
    tv = env.vars.get("this")
    return tv is not None and tv.pure() == ClassType(env.ctx)


class Env:
    """A typing environment: variable types plus the current class path.

    ``vars`` maps local variable names (including ``"this"``) to their
    current types, which may carry masks (the flow-sensitive analysis
    mutates copies of this).  ``constraints`` holds the method's sharing
    constraints as (left, right) resolved-type pairs.
    """

    def __init__(
        self,
        table: ClassTable,
        ctx: Path,
        vars: Optional[Dict[str, Type]] = None,
        constraints=(),
    ) -> None:
        self.table = table
        self.ctx = ctx
        self.vars: Dict[str, Type] = dict(vars or {})
        self.constraints = list(constraints)

    def copy(self) -> "Env":
        env = Env(self.table, self.ctx, self.vars, self.constraints)
        return env

    def lookup(self, name: str) -> Optional[Type]:
        return self.vars.get(name)

    # ------------------------------------------------------------------
    # bounds
    # ------------------------------------------------------------------

    def bound(self, t: Type) -> Type:
        """The most specific pure non-dependent bound of ``t``
        (``Gamma |- T <| PS``).

        Memoized per class table keyed on (ctx, type) when the type's
        dependent paths are all ``this``-rooted and ``this`` has its
        standard binding; other bounds read the flow-sensitive variable
        environment and recompute every time."""
        paths = T.paths_in(t)
        q = None
        if all(p == _THIS_PATH for p in paths) and (not paths or _standard_this(self)):
            q = self.table._q_bound
        key = (self.ctx, t)
        if _PROV.enabled:
            return _PROV.judge(
                "bound", f"{t!r} <|", q, key, self._bound_step, t, q, key,
                rule=_bound_rule(t),
            )
        if q is not None:
            cached = q.get(key)
            if cached is not MISS:
                return cached
        return self._bound_step(t, q, key)

    def _bound_step(self, t: Type, q, key) -> Type:
        """The bound of ``t``, cached in ``q`` when it is memoized."""
        b = self._bound_uncached(t)
        return b if q is None else q.put(key, b)

    def _bound_uncached(self, t: Type) -> Type:
        t = t.pure()
        if isinstance(t, (T.PrimType, ClassType)):
            return t
        if isinstance(t, T.ArrayType):
            return t
        if isinstance(t, T.DepType):
            return self._dep_bound(t.path)
        if isinstance(t, T.PrefixType):
            idx = self.bound(t.index)
            idx_pure = idx.pure()
            if isinstance(idx_pure, T.IsectType):
                idx_pure = idx_pure.parts[0]
            if not isinstance(idx_pure, ClassType):
                raise TypeError_(f"prefix index has no class bound: {t!r}")
            fam = self.table.prefix_of(t.family, idx_pure.path)
            # Exact when the index's exactness pins the family
            # (prefixExact_1).  A this-rooted dependent index (this.class)
            # is itself exact, so the family is pinned even though the
            # index's *bound* is not exact — this matches the ctx-level
            # evaluation policy used for this-only subtype comparisons.
            pinned = any(k >= len(fam) for k in idx_pure.exact) or (
                T.is_exact(t.index)
                and all(p and p[0] == "this" for p in T.paths_in(t.index))
            )
            if pinned:
                return T.exact_class(fam)
            return ClassType(fam)
        if isinstance(t, T.NestedType):
            outer = self.bound(t.outer).pure()
            if isinstance(outer, ClassType):
                return outer.member(t.name)
            if isinstance(outer, T.IsectType):
                parts = tuple(
                    p.member(t.name)
                    for p in outer.parts
                    if isinstance(p, ClassType)
                    and self.table.class_exists(p.path + (t.name,))
                )
                if parts:
                    return T.make_isect(parts)
            raise TypeError_(f"cannot bound member access {t!r}")
        if isinstance(t, T.ExactType):
            return T.make_exact(self.bound(t.inner))
        if isinstance(t, T.IsectType):
            return T.make_isect(tuple(self.bound(p) for p in t.parts))
        raise TypeError_(f"cannot bound type {t!r}")

    def _dep_bound(self, path: Path) -> Type:
        head = path[0]
        t = self.lookup(head)
        if t is None:
            raise TypeError_(f"unbound variable {head!r} in dependent type")
        current: Type = t
        for fname in path[1:]:
            current = self.field_type(current, fname)
        # p.class is bounded by pure(T); exactness is preserved only when the
        # declared type was already exact (S-FIN-EXACT).
        b = self.bound(current.pure())
        return b

    # ------------------------------------------------------------------
    # field types with receiver substitution
    # ------------------------------------------------------------------

    def field_type(self, receiver: Type, fname: str) -> Type:
        """``ftype``: the declared type of ``fname`` interpreted for a
        receiver of type ``receiver`` (substituting the receiver for
        ``this.class`` in the declared, possibly dependent, field type)."""
        if fname in receiver.masks:
            raise TypeError_(f"field {fname!r} is masked and cannot be read")
        recv_bound = self.bound(receiver).pure()
        owner_path = self._single_class(recv_bound)
        found = self.table.find_field(owner_path.path, fname)
        if found is None:
            raise TypeError_(
                f"no field {fname!r} in {recv_bound!r}"
            )
        _, decl = found
        return substitute_this(decl.type, receiver, self)

    def method_sig(self, receiver: Type, mname: str):
        """Parameter and return types of ``mname`` for the receiver, with
        ``this.class`` substituted (mtype of Fig. 9).  Returns
        (params, ret, decl, owner) or None."""
        recv_bound = self.bound(receiver).pure()
        owner_path = self._single_class(recv_bound)
        found = self.table.find_method(owner_path.path, mname)
        if found is None:
            return None
        owner, decl = found
        params = [substitute_this(p.type, receiver, self) for p in decl.params]
        ret = substitute_this(decl.ret_type, receiver, self)
        return params, ret, decl, owner

    def _single_class(self, t: Type) -> ClassType:
        t = t.pure()
        if isinstance(t, ClassType):
            return t
        if isinstance(t, T.IsectType):
            # most derived part wins for member lookup
            class_parts = [p for p in t.parts if isinstance(p, ClassType)]
            for p in class_parts:
                if all(
                    q is p or self.table.inherits(p.path, q.path) for q in class_parts
                ):
                    return p
            if class_parts:
                return class_parts[0]
        raise TypeError_(f"expected a class type, got {t!r}")


def _bound_rule(t: Type) -> str:
    """The Section 4.13 bound rule a type's shape selects (for proof
    trees; the dispatch itself lives in ``Env._bound_uncached``)."""
    t = t.pure()
    if isinstance(t, T.DepType):
        return "BD-FIN"
    if isinstance(t, T.PrefixType):
        return "BD-PRE"
    if isinstance(t, T.NestedType):
        return "BD-MEM"
    if isinstance(t, T.ExactType):
        return "BD-EXACT"
    if isinstance(t, T.IsectType):
        return "BD-ISECT"
    return "BD-ID"


def substitute_this(t: Type, receiver: Type, env: Env) -> Type:
    """Type substitution ``T{receiver/this}`` (Fig. 14): rewrite
    this-rooted dependent classes using the receiver's type.

    When the receiver is itself a final-path type (``p.class``-shaped),
    the substitution stays path-dependent; otherwise the prefix types are
    evaluated against the receiver's bound."""
    t_pure = t.pure()
    masks = t.masks
    out = _subst(t_pure, receiver, env)
    return out.with_masks(masks)


def _subst(t: Type, receiver: Type, env: Env) -> Type:
    if isinstance(t, (T.PrimType, ClassType)):
        return t
    if isinstance(t, T.ArrayType):
        return T.ArrayType(_subst(t.elem, receiver, env))
    if isinstance(t, T.DepType):
        if t.path[0] != "this":
            return t
        recv_pure = receiver.pure()
        if isinstance(recv_pure, T.DepType):
            return T.DepType(recv_pure.path + t.path[1:])
        if len(t.path) == 1:
            return env.bound(receiver).pure()
        # this.f.class with a non-path receiver: bound through field types
        current: Type = receiver
        for fname in t.path[1:]:
            current = env.field_type(current, fname)
        return env.bound(current).pure()
    if isinstance(t, T.PrefixType):
        return T.PrefixType(t.family, _subst(t.index, receiver, env))
    if isinstance(t, T.NestedType):
        return T.make_member(_subst(t.outer, receiver, env), t.name)
    if isinstance(t, T.ExactType):
        return T.make_exact(_subst(t.inner, receiver, env))
    if isinstance(t, T.IsectType):
        return T.make_isect(tuple(_subst(p, receiver, env) for p in t.parts))
    if isinstance(t, T.MaskedType):
        return _subst(t.base, receiver, env).with_masks(t.masks)
    return t


# ---------------------------------------------------------------------------
# subtyping
# ---------------------------------------------------------------------------


def subtype(env: Env, t1: Type, t2: Type) -> bool:
    """``Gamma |- T1 <= T2``.

    Memoized per class table keyed on (ctx, t1, t2) under the same
    eligibility rule as :meth:`Env.bound`: every dependent path in both
    types is ``this``-rooted and ``this`` has its standard binding.  The
    judgment never reads ``env.constraints`` (sharing never implies
    subtyping), so constraints don't enter the key.  ``T <= T`` (S-REFL)
    is never cached."""
    q = None
    if t1 != t2:
        paths = T.paths_in(t1) | T.paths_in(t2)
        if all(p == _THIS_PATH for p in paths) and (not paths or _standard_this(env)):
            q = env.table._q_subtype
    key = (env.ctx, t1, t2)
    if _PROV.enabled:
        return _PROV.judge(
            "subtype", f"{t1!r} <= {t2!r}", q, key, _subtype_step, env, t1, t2, q, key
        )
    if q is not None:
        cached = q.get(key)
        if cached is not MISS:
            return cached
    return _subtype_step(env, t1, t2, q, key)


def _subtype_step(env: Env, t1: Type, t2: Type, q, key) -> bool:
    """``t1 <= t2``, cached in ``q`` when it is memoized."""
    result = _subtype_uncached(env, t1, t2)
    return result if q is None else q.put(key, result)


def _subtype_uncached(env: Env, t1: Type, t2: Type) -> bool:
    if t1 == t2:
        if _PROV.enabled:
            _PROV.rule("S-REFL")
        return True
    # S-MASK: masks may only be added going up (T <= T\f).
    if not t1.masks <= t2.masks:
        if _PROV.enabled:
            _PROV.rule("S-MASK")
            _PROV.note(
                "masks",
                f"{{{', '.join(sorted(t1.masks - t2.masks))}}} present on the "
                "subtype but not the supertype",
                False,
            )
        return False
    p1, p2 = t1.pure(), t2.pure()
    if p1 == p2:
        if _PROV.enabled:
            _PROV.rule("S-MASK")
        return True
    if isinstance(p1, T.PrimType) and p1.name == "null":
        if _PROV.enabled:
            _PROV.rule("S-NULL")
        return (
            T.is_reference_type(p2)
            or isinstance(p2, T.ArrayType)
            or p2 == T.STRING
        )
    if isinstance(p1, T.PrimType) or isinstance(p2, T.PrimType):
        if _PROV.enabled:
            _PROV.rule("S-PRIM")
        if isinstance(p1, T.PrimType) and isinstance(p2, T.PrimType):
            if p1.name == p2.name:
                return True
            return p1.name == "int" and p2.name == "double"
        return False
    if isinstance(p1, T.ArrayType) or isinstance(p2, T.ArrayType):
        if _PROV.enabled:
            _PROV.rule("S-ARRAY")
        return (
            isinstance(p1, T.ArrayType)
            and isinstance(p2, T.ArrayType)
            and p1.elem == p2.elem
        )
    # intersections
    if isinstance(p2, T.IsectType):
        if _PROV.enabled:
            _PROV.rule("S-ISECT-R")
        return all(subtype(env, p1, part) for part in p2.parts)
    if isinstance(p1, T.IsectType):
        if _PROV.enabled:
            _PROV.rule("S-ISECT-L")
        return any(subtype(env, part, p2) for part in p1.parts)
    # A dependent-shaped type with no remaining access paths (after
    # substitution of a concrete receiver) evaluates exactly to its bound,
    # so normalize it before structural comparison.
    if _is_dependent_shaped(p1) and not T.paths_in(p1):
        try:
            p1 = env.bound(p1).pure()
        except TypeError_:
            pass
    if _is_dependent_shaped(p2) and not T.paths_in(p2):
        try:
            p2 = env.bound(p2).pure()
        except TypeError_:
            pass
    if p1 == p2:
        return True
    # When both sides depend only on ``this``, evaluate them at the current
    # class (this := ctx, exact) and compare the resulting class types.
    # Late binding reinterprets both sides consistently in derived families
    # (extends clauses are inherited and reinterpreted), so the relation
    # decided here is preserved; constraints are separately re-validated
    # per family by Q-OK.
    if (_is_dependent_shaped(p1) or _is_dependent_shaped(p2)) and _this_only(
        p1
    ) and _this_only(p2):
        try:
            e1 = env.table.eval_type_static(p1, this=env.ctx).pure()
            e2 = env.table.eval_type_static(p2, this=env.ctx).pure()
            if _PROV.enabled:
                _PROV.rule("S-EVAL")
                _PROV.note(
                    "eval",
                    f"at this := {path_str(env.ctx) or '<top>'}: "
                    f"{p1!r} evaluates to {e1!r}, {p2!r} to {e2!r}",
                )
            if isinstance(e1, ClassType):
                return _class_subtype(env.table, e1, e2)
            if isinstance(e1, T.IsectType):
                return any(
                    isinstance(part, ClassType)
                    and _class_subtype(env.table, part, e2)
                    for part in e1.parts
                )
        except (TypeError_, ResolveError):
            pass
    # dependent/nested/prefix forms: nominal equality already failed; compare
    # p1's bound against p2 (p2 dependent can only be reached nominally).
    if _is_dependent_shaped(p2):
        if _same_shape_equiv(env, p1, p2):
            if _PROV.enabled:
                _PROV.rule("S-PRE-2")
            return True
        # fall back: p2's bound as an upper approximation is unsound in
        # general, so only exact-bound replacement is used:
        return False
    if _PROV.enabled:
        _PROV.rule("S-FIN")
    c1 = env.bound(p1).pure()
    if _is_dependent_shaped(p1):
        # S-FIN: p.class <= its bound (exactness of the value itself is
        # additional information, which only helps, so keep c1's exactness
        # plus "value is exact").
        if isinstance(c1, ClassType):
            c1 = ClassType(c1.path, c1.exact | {len(c1.path)})
    c2 = env.bound(p2).pure()
    if isinstance(c1, T.IsectType):
        return any(
            isinstance(part, ClassType) and _class_subtype(env.table, part, c2)
            for part in c1.parts
        )
    if isinstance(c1, ClassType):
        return _class_subtype(env.table, c1, c2)
    return False


def _is_dependent_shaped(t: Type) -> bool:
    return isinstance(t, (T.DepType, T.PrefixType, T.NestedType, T.ExactType))


def _this_only(t: Type) -> bool:
    """All dependent paths in ``t`` are rooted at ``this``."""
    return all(p and p[0] == "this" for p in T.paths_in(t))


def _same_shape_equiv(env: Env, t1: Type, t2: Type) -> bool:
    """Nominal equivalence for dependent-shaped types (no alias tracking:
    identical structure only, with prefix families allowed to differ when
    one inherits the other, rule S-PRE-2)."""
    if t1 == t2:
        return True
    if isinstance(t1, T.PrefixType) and isinstance(t2, T.PrefixType):
        fams_related = (
            t1.family == t2.family
            or env.table.inherits(t1.family, t2.family)
            or env.table.inherits(t2.family, t1.family)
        )
        return fams_related and _same_shape_equiv(env, t1.index, t2.index)
    if isinstance(t1, T.NestedType) and isinstance(t2, T.NestedType):
        return t1.name == t2.name and _same_shape_equiv(env, t1.outer, t2.outer)
    if isinstance(t1, T.ExactType) and isinstance(t2, T.ExactType):
        return _same_shape_equiv(env, t1.inner, t2.inner)
    return False


def _class_subtype(table: ClassTable, c1: ClassType, c2) -> bool:
    """Subtyping between canonical path types with exactness positions.
    A pure function of the table; memoized unconditionally."""
    q = table._q_class_subtype
    key = (c1, c2)
    if _PROV.enabled:
        return _PROV.judge(
            "class_subtype", f"{c1!r} <= {c2!r}", q, key, _class_subtype_step,
            table, c1, c2, rule="S-EXACT",
        )
    cached = q.get(key)
    if cached is not MISS:
        return cached
    return _class_subtype_step(table, c1, c2)


def _class_subtype_step(table: ClassTable, c1: ClassType, c2) -> bool:
    return table._q_class_subtype.put((c1, c2), _class_subtype_uncached(table, c1, c2))


def _class_subtype_uncached(table: ClassTable, c1: ClassType, c2) -> bool:
    c2 = c2.pure() if isinstance(c2, T.MaskedType) else c2
    if isinstance(c2, T.IsectType):
        return all(
            isinstance(p, ClassType) and _class_subtype(table, c1, p) for p in c2.parts
        )
    if not isinstance(c2, ClassType):
        return False
    m = max(c2.exact, default=0)
    if m > 0:
        # the supertype's exact prefix marks a family boundary: the subtype
        # must realize exactness at that depth (some exact position >= m,
        # S-EXACT shifts it outward) and agree syntactically up to m.
        if len(c1.path) < m or c1.path[:m] != c2.path[:m]:
            if _PROV.enabled:
                _PROV.note(
                    "prefixExact_k",
                    f"exact family prefix {path_str(c2.path[:m])}! of the "
                    f"supertype is not a syntactic prefix of {path_str(c1.path)}",
                    False,
                    rule="prefixExact_k",
                )
            return False
        if not any(k >= m for k in c1.exact):
            if _PROV.enabled:
                _PROV.note(
                    "prefixExact_k",
                    f"{c1!r} has no exact position at depth >= {m} "
                    "(S-EXACT cannot shift exactness outward far enough)",
                    False,
                    rule="prefixExact_k",
                )
            return False
        if m == len(c2.path):
            # fully exact supertype: run-time class must be exactly c2
            if _PROV.enabled:
                _PROV.note(
                    "exact",
                    f"supertype is fully exact: run-time class must be "
                    f"{path_str(c2.path)} itself",
                    c1.path == c2.path,
                )
            return c1.path == c2.path
    ok = table.inherits(c1.path, c2.path)
    if _PROV.enabled:
        _PROV.note(
            "inherits", f"{path_str(c1.path)} @* {path_str(c2.path)}", ok
        )
    return ok


def type_equiv(env: Env, t1: Type, t2: Type) -> bool:
    return subtype(env, t1, t2) and subtype(env, t2, t1)
