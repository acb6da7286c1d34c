"""Sharing judgments (Sections 2.5, 3, 4.11).

The key judgment is directional sharing ``Gamma |- T1 ~> T2``: a value of
static type T1 may be view-changed to T2.  It is established by:

* SH-REFL: subtyping (a no-op view change);
* SH-ENV: a sharing constraint ``sharing L = R`` in scope;
* SH-DECL / SH-CLS: the closed-world check — every subclass of the source
  has a *unique* shared subclass of the target, with sufficient masks on
  the target to cover fields whose storage copy differs.

Masks required on a view-change target are computed semantically: a field
must be masked exactly when the two views would read *different heap
copies* (``fclass`` differs or the field is new) and the source copy's
content cannot itself be viewed into the target family (Section 3.3's
directional refinement: ``base.Abs! ~> pair.Abs!`` needs no mask on ``e``
because every ``base`` expression can be viewed as a ``pair`` expression,
whereas ``pair.Abs! ~> base.Abs!\\e`` must mask ``e`` since a ``Pair``
has no ``base`` view)."""

from __future__ import annotations

from operator import itemgetter
from typing import FrozenSet, Optional, Set, Tuple

from . import types as T
from .classtable import ClassTable, JnsError, ResolveError, path_str, sharing_engine
from .provenance import PROVENANCE as _PROV
from .queries import MISS, QueryEngine
from .subtype import Env, subtype
from .types import ClassType, Path, Type

class SharingChecker:
    """Computes directional sharing judgments over a class table.

    Results are memoized *per checker instance*: the auto-mask fixpoint in
    ``ClassTable._build_sharing`` spins up fresh checkers against mutating
    mask state, so the memo tables must not outlive the state they were
    computed against.  Cyclic field-type dependencies (a shared class
    whose field type mentions the same pair of families) are resolved
    coinductively by assuming the in-progress judgment holds; the
    ``_in_progress`` set is the cycle guard and works with caching
    disabled."""

    def __init__(self, table: ClassTable, queries: Optional[QueryEngine] = None) -> None:
        self.table = table
        # Attached to the table's version store: sharing judgments
        # revalidate per-class across incremental edits instead of being
        # discarded wholesale (the table-persistent checker relies on
        # this, and brings the engine the table made for it; the
        # auto-mask fixpoint's throwaway checkers are unharmed because
        # their entries die with the instance).
        self.queries = sharing_engine(table.versions) if queries is None else queries
        self._q_req_masks = self.queries.query("required_masks")
        self._q_type_shares = self.queries.query("type_shares")
        self._in_progress: Set[Tuple[Path, Path, bool]] = set()

    # ------------------------------------------------------------------
    # per-class-pair mask requirements
    # ------------------------------------------------------------------

    def required_masks(
        self, src: Path, dst: Path, lenient: bool = False
    ) -> FrozenSet[str]:
        """Fields that must be masked on the target of a view change from
        exact class ``src`` to exact class ``dst`` (both in one sharing
        group).

        ``lenient`` implements the *deferred-initialization* relaxation
        used when deciding whether two interpreted **field** types are
        shared: fields that are new in the target family are skipped there
        (the Section 7.4 evolution protocol initializes manager fields
        before use, and the runtime still guards uninitialized reads);
        explicit view changes stay strict, exactly as in Figure 5."""
        key = (src, dst, lenient)
        if _PROV.enabled:
            subject = f"{path_str(src)}! ~> {path_str(dst)}!"
            if lenient:
                subject += " (lenient)"
            return _PROV.judge(
                "required_masks", subject, self._q_req_masks, key,
                self._required_masks_compute, key,
                rule="masks (Fig. 5)", loc=self._decl_loc(dst),
            )
        cached = self._q_req_masks.get(key)
        if cached is not MISS:
            return cached
        return self._required_masks_compute(key)

    def _decl_loc(self, path: Path) -> Optional[str]:
        """Source location of a class declaration (proof-tree citations;
        only called while recording)."""
        info = self.table.explicit.get(path)
        pos = getattr(getattr(info, "decl", None), "pos", None)
        if not pos or pos == (0, 0):
            return None
        return f"line {pos[0]}, col {pos[1]}"

    def _required_masks_compute(self, key: Tuple[Path, Path, bool]) -> FrozenSet[str]:
        src, dst, lenient = key
        if key in self._in_progress:
            if _PROV.enabled:
                _PROV.note(
                    "coinduction",
                    f"judgment for {path_str(src)}! ~> {path_str(dst)}! is in "
                    "progress; assume no masks required (coinductive)",
                )
            return frozenset()  # coinductive assumption
        self._in_progress.add(key)
        try:
            table = self.table
            src_fields = {decl.name for _, decl in table.all_fields(src)}
            masks: Set[str] = set()
            for owner, decl in table.all_fields(dst):
                fname = decl.name
                if fname not in src_fields:
                    if not lenient:
                        masks.add(fname)  # new field, uninitialized in src view
                        if _PROV.enabled:
                            _PROV.note(
                                "new-field",
                                f"field {fname!r} is new in {path_str(dst)} "
                                f"(absent from {path_str(src)}): mask required",
                            )
                    elif _PROV.enabled:
                        _PROV.note(
                            "new-field",
                            f"field {fname!r} is new in {path_str(dst)}: "
                            "deferred initialization (lenient), no mask",
                        )
                    continue
                if table.fclass(src, fname) == table.fclass(dst, fname):
                    if _PROV.enabled:
                        _PROV.note(
                            "same-copy",
                            f"field {fname!r}: both views read the same heap "
                            "copy (fclass agrees), no mask",
                        )
                    continue  # same heap copy: always consistent
                # Different copies: safe only if the source copy's contents
                # can be implicitly viewed at the target's field type.
                t_src = self._field_type_at(src, fname)
                t_dst = self._field_type_at(dst, fname)
                if t_src is None or t_dst is None:
                    masks.add(fname)
                    if _PROV.enabled:
                        _PROV.note(
                            "field-type",
                            f"field {fname!r}: interpreted type unavailable, "
                            "mask required",
                        )
                elif not self.type_shares(t_src, t_dst, frozenset(), lenient):
                    masks.add(fname)
                    if _PROV.enabled:
                        _PROV.note(
                            "copy-differs",
                            f"field {fname!r}: distinct heap copies and the "
                            f"source copy's content ({t_src!r}) has no "
                            f"{t_dst!r} view, mask required",
                        )
            return self._q_req_masks.put(key, frozenset(masks))
        finally:
            self._in_progress.discard(key)

    def _field_type_at(self, cls: Path, fname: str) -> Optional[Type]:
        found = self.table.find_field(cls, fname)
        if found is None:
            return None
        _, decl = found
        try:
            return self.table.eval_type_static(decl.type, this=cls).pure()
        except (ResolveError, JnsError):
            return None

    # ------------------------------------------------------------------
    # directional sharing between (evaluated) types
    # ------------------------------------------------------------------

    def type_shares(
        self,
        src: Type,
        dst: Type,
        allowed_masks: FrozenSet[str],
        lenient: bool = False,
    ) -> bool:
        """SH-CLS: every subclass of ``src`` has a unique shared subclass
        of ``dst`` whose required masks are within ``allowed_masks``.

        Memoized only in the quiescent state: while a coinductive
        assumption is active (``_in_progress`` non-empty) the inner
        ``required_masks`` answers are provisional, so nothing computed
        then may be recorded."""
        key = (src, dst, allowed_masks, lenient)
        if _PROV.enabled:
            subject = f"{src!r} ~> {dst!r}"
            if allowed_masks:
                subject += " \\ {" + ", ".join(sorted(allowed_masks)) + "}"
            return _PROV.judge(
                "type_shares", subject, self._q_type_shares, key,
                self._type_shares_step, key, rule="SH-CLS",
            )
        cached = self._q_type_shares.get(key)
        if cached is not MISS:
            return cached
        return self._type_shares_step(key)

    def _type_shares_step(self, key: Tuple[Type, Type, FrozenSet[str], bool]) -> bool:
        result = self._type_shares_uncached(*key)
        if not self._in_progress:
            self._q_type_shares.put(key, result)
        return result

    def _type_shares_uncached(
        self,
        src: Type,
        dst: Type,
        allowed_masks: FrozenSet[str],
        lenient: bool,
    ) -> bool:
        src_p, dst_p = src.pure(), dst.pure()
        if src_p == dst_p:
            if _PROV.enabled:
                _PROV.rule("SH-REFL")
            return True
        if isinstance(src_p, T.PrimType) and isinstance(dst_p, T.PrimType):
            return src_p == dst_p
        if isinstance(src_p, T.ArrayType) or isinstance(dst_p, T.ArrayType):
            return src_p == dst_p
        if not isinstance(src_p, ClassType) or not isinstance(dst_p, ClassType):
            return False
        table = self.table
        src_subs = table.subclasses_of(src_p)
        if not src_subs:
            if _PROV.enabled:
                _PROV.note(
                    "closed-world",
                    f"{src_p!r} has no subclasses in the locally closed world",
                    False,
                )
            return False
        for p1 in src_subs:
            matches = [
                p2
                for p2 in table.subclasses_of(dst_p)
                if table.shared_with(p1, p2)
                and self.required_masks(p1, p2, lenient) <= allowed_masks
            ]
            if len(matches) != 1:
                if _PROV.enabled:
                    masks_text = (
                        "{" + ", ".join(sorted(allowed_masks)) + "}"
                        if allowed_masks
                        else "no masks"
                    )
                    _PROV.note(
                        "unique-shared-subclass",
                        f"subclass {path_str(p1)} of the source has "
                        f"{len(matches)} shared subclasses of {dst_p!r} "
                        f"reachable under {masks_text} (exactly 1 required)",
                        False,
                    )
                return False
            if _PROV.enabled:
                _PROV.note(
                    "unique-shared-subclass",
                    f"subclass {path_str(p1)} of the source shares uniquely "
                    f"with {path_str(matches[0])}",
                )
        return True

    # ------------------------------------------------------------------
    # the full judgment  Gamma |- T1 ~> T2
    # ------------------------------------------------------------------

    def sharing_judgment(
        self, env: Env, t_src: Type, t_dst: Type, allow_global: bool = True
    ) -> Tuple[bool, str]:
        """Decide ``Gamma |- t_src ~> t_dst``.

        Returns (holds, how) where how is "subtype", "constraint", or
        "global" (the latter means no enabling constraint was in scope and
        the judgment came from the closed-world check — legal in the
        calculus, flagged for modularity)."""
        if _PROV.enabled:
            return _PROV.judge(
                "shares", f"{t_src!r} ~> {t_dst!r}", None, None,
                self._sharing_judgment_inner, env, t_src, t_dst, allow_global,
                verdict=itemgetter(0),
            )
        return self._sharing_judgment_inner(env, t_src, t_dst, allow_global)

    def _sharing_judgment_inner(
        self, env: Env, t_src: Type, t_dst: Type, allow_global: bool
    ) -> Tuple[bool, str]:
        # SH-REFL (via subsumption): a no-op view change.
        if subtype(env, t_src, t_dst):
            if _PROV.enabled:
                _PROV.rule("SH-REFL")
            return True, "subtype"
        # The statically evaluated types (this := the current class), for
        # SH-CLS below.
        s = d = None
        try:
            s = self._eval_in_env(env, t_src)
            d = self._eval_in_env(env, t_dst)
        except (ResolveError, JnsError):
            pass
        # SH-ENV / SH-MASK: an enabling constraint in scope, matched by
        # subtyping.  No retry on the statically evaluated types is
        # needed: where every type involved depends on ``this`` only,
        # which is when they evaluate statically, ``subtype`` already
        # compares them evaluated so (S-EVAL).
        for left, right in env.constraints:
            for l, r in ((left, right), (right, left)):
                if subtype(env, t_src, l) and subtype(env, r, t_dst):
                    if _PROV.enabled:
                        _PROV.rule("SH-ENV")
                        _PROV.note(
                            "constraint",
                            f"enabled by the in-scope constraint "
                            f"sharing {l!r} = {r!r}",
                        )
                    return True, "constraint"
        if not allow_global:
            if _PROV.enabled:
                _PROV.note(
                    "strict",
                    "no enabling sharing constraint in scope and the global "
                    "closed-world rule is disallowed (strict mode)",
                    False,
                )
            return False, "none"
        # SH-DECL / SH-CLS on the evaluated types.
        if s is None or d is None:
            if _PROV.enabled:
                _PROV.note(
                    "eval",
                    "the types' dependent parts do not evaluate statically, "
                    "so the closed-world rule cannot apply",
                    False,
                )
            return False, "none"
        if self.type_shares(s.pure(), d.pure(), d.masks):
            if _PROV.enabled:
                _PROV.rule("SH-CLS")
            return True, "global"
        return False, "none"

    def _eval_in_env(self, env: Env, t: Type) -> Type:
        """Evaluate a type's dependent parts against the static context
        (this := the current class).  Sharing-constraint types must be
        non-dependent or depend only on ``this`` (Section 2.5), which is
        exactly what the class table's static evaluation supports; it also
        preserves family-level exactness of ``P[this.class]`` prefixes,
        which the closed-world enumeration relies on."""
        return self.table.eval_type_static(t, this=env.ctx)


def auto_masks(table: ClassTable, derived: Path, base: Path) -> FrozenSet[str]:
    """Fields of the shared base class whose types are not shared
    between the two families must be masked/duplicated (Section 3.1).
    Used by ``adapts`` where the programmer writes no explicit masks.
    Evaluated against the current mask state (called to fixpoint)."""
    checker = SharingChecker(table)
    masks: Set[str] = set()
    for owner, decl in table.all_fields(base):
        ftype = decl.type
        if isinstance(ftype, T.Type) and _field_type_unshared(
            table, ftype, derived, base, checker
        ):
            masks.add(decl.name)
    return frozenset(masks)


def _field_type_unshared(
    table: ClassTable, ftype: Type, derived: Path, base: Path, checker: SharingChecker
) -> bool:
    """Whether a field's declared type interprets to unshared types in
    the two families (the criterion for auto-masking under adapts)."""
    if not T.paths_in(ftype):
        return False  # non-dependent type: same in both families
    try:
        t_derived = table.eval_type_static(ftype, this=derived).pure()
        t_base = table.eval_type_static(ftype, this=base).pure()
    except (ResolveError, JnsError):
        return True
    if t_derived == t_base:
        return False
    if not isinstance(t_derived, ClassType) or not isinstance(t_base, ClassType):
        return True  # e.g. arrays of family types: never shared
    empty: FrozenSet[str] = frozenset()
    return not (
        checker.type_shares(t_derived, t_base, empty, lenient=True)
        and checker.type_shares(t_base, t_derived, empty, lenient=True)
    )
