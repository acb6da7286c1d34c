"""The J&s class table: families, further binding, implicit classes,
prefix types, and class sharing.

This module implements the semantic machinery of Section 4.3-4.5 of the
paper:

* ``CT`` / ``CT'`` — explicit class lookup and implicit (inherited but not
  overridden) classes, synthesized on demand (rule CT'-IMP);
* subclassing ``@sc`` and further binding ``@fb`` and their closure ``@``;
* ``mem`` and ordered ``supers`` linearization;
* prefix types ``P[T]`` (Section 4.5);
* sharing declarations, the sharing equivalence relation (union-find over
  class paths, Section 2.2), the ``adapts`` shorthand, and the ``fclass``
  function selecting which copy of a possibly-duplicated field a view uses
  (Section 4.15).

Late binding of type names: a name like ``Exp`` written inside family
``AST`` resolves to the sugar ``AST[this.class].Exp`` (Section 2.1); the
resolver produces such types and :meth:`ClassTable.eval_type` interprets
them against a concrete view.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import JnsError
from ..source import ast
from . import types as T
from .provenance import PROVENANCE as _PROV
from .queries import MISS, QueryEngine, VersionStore, read_input
from .types import ClassType, Path, Type, View, exact_class, intern_type, intern_view


class ResolveError(JnsError):
    """A name or type could not be resolved."""

    code = "JNS-RESOLVE-006"


class TypeError_(JnsError):
    """A static type error (named with a trailing underscore to avoid
    shadowing the builtin)."""

    code = "JNS-TYPE-001"


def sharing_engine(versions: VersionStore) -> QueryEngine:
    """A new query engine for a :class:`~repro.lang.sharing.SharingChecker`,
    with its memo tables made in report order."""
    engine = QueryEngine("sharing", versions=versions)
    for name in ("required_masks", "type_shares"):
        engine.query(name)
    return engine


def path_str(path: Path) -> str:
    return ".".join(path) if path else "o"


class ClassInfo:
    """Metadata for one explicit class declaration."""

    def __init__(self, path: Path, decl: ast.ClassDecl) -> None:
        self.path = path
        self.decl = decl
        # Filled in lazily by the table:
        self.super_types: Optional[List[Type]] = None  # resolved extends
        self.shares_type: Optional[Type] = None  # resolved shares clause
        self.adapts_path: Optional[Path] = None  # resolved adapts target

    @property
    def name(self) -> str:
        return self.path[-1]

    def __repr__(self) -> str:
        return f"ClassInfo({path_str(self.path)})"


class EditNotice:
    """What an incremental edit changed, for runtime-product eviction.

    ``dirty`` — class paths whose inputs were bumped; ``affected`` —
    ``dirty`` plus every class, explicit or implicit, inheriting from one
    (their synthesized runtime classes embed inherited members);
    ``retired_ids`` — ``id()`` of every member declaration object that
    was spliced out (body/init compilation caches key on member
    identity, and a stale entry under a recycled id must never
    survive); ``structural`` — True when the program was rebuilt
    wholesale; ``bodies_only`` — True when every
    splice was a graft: the member declarations survive with new method
    and constructor bodies, so the interface (layouts, dispatch, sharing)
    is unchanged and only products compiled from the retired bodies are
    stale."""

    __slots__ = ("dirty", "affected", "retired_ids", "structural", "bodies_only")

    def __init__(
        self,
        dirty: Sequence[Path],
        affected: Set[Path],
        retired_ids: Set[int],
        structural: bool = False,
        bodies_only: bool = False,
    ) -> None:
        self.dirty = tuple(dirty)
        self.affected = affected
        self.retired_ids = retired_ids
        self.structural = structural
        self.bodies_only = bodies_only


class ClassTable:
    """All family/sharing machinery for one program."""

    def __init__(self, unit: ast.CompilationUnit) -> None:
        self.unit = unit
        self.explicit: Dict[Path, ClassInfo] = {}
        self._register((), unit.classes)

        # Versioned base inputs (see queries.py): every engine attached
        # to this store — the table itself, its persistent sharing
        # checker — validates cached judgments against per-class decl
        # versions, so an edit invalidates only the affected slice.
        self.versions = VersionStore()

        # Memoized queries (see queries.py).  Cycle guards are explicit
        # sets — never the memo tables themselves — so the judgments stay
        # correct when caching is globally disabled.
        self.queries = QueryEngine("table", versions=self.versions)
        q = self.queries.query
        self._q_has_member = q("has_member")
        self._q_parents = q("parents")
        self._q_ancestors = q("ancestors")
        self._q_member_names = q("member_names")
        self._q_all_paths = q("all_paths")
        self._q_fields = q("all_fields")
        self._q_find_field = q("find_field")
        self._q_method = q("find_method")
        self._q_method_names = q("all_method_names")
        self._q_ctor = q("find_ctor")
        self._q_mem = q("mem")
        self._q_eval_static = q("eval_type_static")
        self._q_subclasses = q("subclasses_of")
        self._q_group = q("sharing_group")
        self._q_view_of = q("view_of")
        # used by subtype.py (keyed on this table's lifetime)
        self._q_subtype = q("subtype")
        self._q_bound = q("bound")
        self._q_class_subtype = q("class_subtype")
        # ahead-of-time specialization queries (the loader's layouts and
        # read plans, codegen's devirtualized call sites): sealed dispatch
        # targets, fclass slot universes, and closed-world conformance
        # sets.  They live on the table — not the interpreter —
        # so their cost amortizes across every interpreter sharing it.
        self._q_sealed = q("sealed_target")
        self._q_mono = q("monomorphic_target")
        self._q_slot_univ = q("slot_universe")
        self._q_conforming = q("conforming_paths")

        # cycle guards (explicit, cache-independent)
        self._parents_in_progress: Set[Path] = set()
        self._has_member_active: Set[Tuple[Path, str]] = set()

        # derived sharing relation (program state, rebuilt by invalidate())
        self._share_parent: Dict[Path, Path] = {}
        self._share_masks: Dict[Path, FrozenSet[str]] = {}
        self._groups_built = False
        self._group_find: Dict[Path, Path] = {}

        # Persistent sharing checker (lazy): shared across check runs so
        # its caches — and their hit/miss counters — survive edits.  Its
        # query engine comes first: a check report lists the engine's
        # (empty) tables even when no judgment needed the checker.
        self._sharing_checker = None
        self._sharing_queries: Optional[QueryEngine] = None

        # Runtime artifacts (loaders, interpreters) keyed
        # off this table register here to evict per-class products when
        # an incremental edit splices declarations (weakly — the table
        # must never keep an interpreter alive).
        self._edit_listeners: List[Any] = []

    def invalidate(self) -> None:
        """Drop every memoized result and derived sharing state.

        The global invalidation hammer: after this, all judgments
        recompute from ``self.explicit`` (and re-resolve extends/shares
        clauses) on next use.  Used when the program changes wholesale
        under the table and by the cache-disabled differential/benchmark
        modes; incremental edits go through
        :mod:`repro.lang.incremental` instead, which bumps only the
        affected input versions.  Hit/miss counters survive (``--stats``
        stays monotone across invalidation); recorded derivations are
        purged so a later ``explain`` can never splice a stale proof."""
        self.versions.invalidate_all()
        self.reset_sharing_state()
        self._parents_in_progress.clear()
        self._has_member_active.clear()
        _PROV.purge()

    def reset_sharing_state(self) -> None:
        """Drop the derived sharing relation (union-find, masks) and the
        cached extends resolutions so they rebuild from current decls."""
        self._share_parent.clear()
        self._share_masks.clear()
        self._group_find.clear()
        self._groups_built = False
        for info in self.explicit.values():
            info.super_types = None
            info.adapts_path = None

    def sharing_checker(self):
        """The table's persistent :class:`~repro.lang.sharing.SharingChecker`.

        One checker per table, attached to the same version store, so
        sharing-judgment caches revalidate across edits instead of being
        discarded with each throwaway checker."""
        if self._sharing_checker is None:
            from .sharing import SharingChecker  # local import to avoid cycle

            self._sharing_checker = SharingChecker(self, self.sharing_queries())
        return self._sharing_checker

    def sharing_queries(self) -> QueryEngine:
        """The query engine of the persistent sharing checker, made
        without loading :mod:`repro.lang.sharing`."""
        if self._sharing_queries is None:
            self._sharing_queries = sharing_engine(self.versions)
        return self._sharing_queries

    # ------------------------------------------------------------------
    # incremental edits (see lang/incremental.py)
    # ------------------------------------------------------------------

    def iface_info(self, path: Path) -> Optional[ClassInfo]:
        """Tracked read of a class declaration (``None`` when implicit):
        records an ``('iface', path)`` dependency so cached judgments
        that consulted this decl are invalidated when it changes."""
        read_input(("iface", path))
        return self.explicit.get(path)

    def replace_decl(self, path: Path, decl: ast.ClassDecl) -> None:
        """Splice an edited declaration for an existing class in place.

        Only the decl reference changes; callers are responsible for
        bumping the matching version-store keys (and for resetting the
        sharing state when the class's interface changed)."""
        info = self.explicit[path]
        info.decl = decl
        info.super_types = None
        info.shares_type = None
        info.adapts_path = None

    def add_edit_listener(self, method: Any) -> None:
        """Register a bound method called with an :class:`EditNotice`
        after every incremental splice.  Held weakly."""
        import weakref

        self._edit_listeners.append(weakref.WeakMethod(method))

    def notify_edit(self, notice: "EditNotice") -> None:
        live = []
        for ref in self._edit_listeners:
            cb = ref()
            if cb is not None:
                cb(notice)
                live.append(ref)
        self._edit_listeners[:] = live

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def _register(self, prefix: Path, decls: Sequence[ast.ClassDecl]) -> None:
        for decl in decls:
            path = prefix + (decl.name,)
            if path in self.explicit:
                raise ResolveError(
                    f"duplicate class {path_str(path)}", code="JNS-RESOLVE-005"
                )
            self.explicit[path] = ClassInfo(path, decl)
            self._register(path, decl.nested_classes)

    # ------------------------------------------------------------------
    # membership / existence (CT and CT')
    # ------------------------------------------------------------------

    def has_member(self, owner: Path, name: str) -> bool:
        """Whether class ``owner`` has a member class ``name`` (explicit or
        inherited), i.e. whether CT'(owner.name) is defined."""
        key = (owner, name)
        cached = self._q_has_member.get(key)
        if cached is not MISS:
            return cached
        if key in self._has_member_active:
            return False  # cycle: assume no (never cached)
        self._has_member_active.add(key)
        try:
            read_input(("iface", owner + (name,)))
            result = owner + (name,) in self.explicit
            if not result and owner not in self._parents_in_progress:
                # While a class's own extends clause is being resolved, only
                # its explicit members are visible (prevents the extends
                # clause from resolving through the inheritance it is
                # introducing).
                for parent in self.parents(owner):
                    if self.has_member(parent, name):
                        result = True
                        break
                self._q_has_member.put(key, result)
            elif result:
                self._q_has_member.put(key, result)
            # else: conservative negative during resolution — never cached
            return result
        finally:
            self._has_member_active.discard(key)

    def class_exists(self, path: Path) -> bool:
        """CT'(path) != bottom: the class exists explicitly or implicitly."""
        if not path:
            return True
        if path in self.explicit:
            return self.class_exists(path[:-1])
        return self.class_exists(path[:-1]) and self.has_member(path[:-1], path[-1])

    def is_explicit(self, path: Path) -> bool:
        return path in self.explicit

    def member_names(self, owner: Path) -> Tuple[str, ...]:
        """All member-class names of ``owner``, explicit and inherited."""
        cached = self._q_member_names.get(owner)
        if cached is not MISS:
            return cached
        names: List[str] = []
        seen: Set[str] = set()
        read_input(("classset",))
        for path, info in self.explicit.items():
            if len(path) == len(owner) + 1 and path[: len(owner)] == owner:
                if path[-1] not in seen:
                    seen.add(path[-1])
                    names.append(path[-1])
        for parent in self.parents(owner):
            for name in self.member_names(parent):
                if name not in seen:
                    seen.add(name)
                    names.append(name)
        return self._q_member_names.put(owner, tuple(names))

    def all_class_paths(self) -> Tuple[Path, ...]:
        """Every class path in the program, explicit and implicit.

        This is the 'locally closed world' enumeration that sharing checks
        (SH-CLS) rely on; the calculus assumes all classes are known."""
        cached = self._q_all_paths.get(())
        if cached is not MISS:
            return cached
        out: List[Path] = []

        def walk(owner: Path) -> None:
            for name in self.member_names(owner):
                path = owner + (name,)
                out.append(path)
                walk(path)

        walk(())
        return self._q_all_paths.put((), tuple(out))

    # ------------------------------------------------------------------
    # inheritance graph: @sc, @fb, parents, ancestors
    # ------------------------------------------------------------------

    def parents(self, path: Path) -> Tuple[Path, ...]:
        """Direct parents of a class: declared superclasses (``@sc``) then
        further-bound classes (``@fb``)."""
        if not path:
            return ()
        cached = self._q_parents.get(path)
        if cached is not MISS:
            return cached
        if path in self._parents_in_progress:
            raise ResolveError(
                f"cyclic inheritance involving {path_str(path)}",
                code="JNS-RESOLVE-004",
            )
        self._parents_in_progress.add(path)
        try:
            result: List[Path] = []
            # declared superclasses: interpret the extends descriptors of the
            # defining explicit class(es) in the context of `path`
            for desc in self._super_descriptors(path):
                evaled = self.eval_type_static(desc, this=path)
                for cls in self._mem(evaled):
                    if cls != path and cls not in result:
                        result.append(cls)
            # further-bound classes: path = Q + (C,), parents(Q) with member C
            owner, name = path[:-1], path[-1]
            if owner or name:
                for enc_parent in self.parents(owner):
                    if self.has_member(enc_parent, name):
                        fb = enc_parent + (name,)
                        if fb != path and fb not in result:
                            result.append(fb)
            return self._q_parents.put(path, tuple(result))
        finally:
            self._parents_in_progress.discard(path)

    def _super_descriptors(self, path: Path) -> List[Type]:
        """Resolved extends-clause types that apply to ``path``: its own
        declared ones (if explicit) *plus* those of the explicit classes it
        further binds, reinterpreted in its context (rule CT'-IMP, applied
        to explicit overriding classes as well: overriding refines the
        inherited supertype, it never removes it — otherwise late binding
        would be unsound, e.g. ``class B shares F0.B { }`` must still be a
        subtype of its family's ``A`` when the base ``B`` extends ``A``)."""
        descs: List[Type] = []
        info = self.iface_info(path)
        if info is not None:
            if info.super_types is None:
                from .resolve import resolve_type  # local import to avoid cycle

                info.super_types = [
                    resolve_type(t, self, path) for t in info.decl.extends
                ]
            descs.extend(info.super_types)
        # gather from the nearest explicit further-bound classes
        owner, name = path[:-1], path[-1]
        seen: Set[Path] = set()
        frontier = [
            enc + (name,)
            for enc in self.parents(owner)
            if self.has_member(enc, name)
        ]
        while frontier:
            fb = frontier.pop(0)
            if fb in seen:
                continue
            seen.add(fb)
            if fb in self.explicit:
                descs.extend(self._super_descriptors(fb))
            else:
                fb_owner, fb_name = fb[:-1], fb[-1]
                frontier.extend(
                    enc + (fb_name,)
                    for enc in self.parents(fb_owner)
                    if self.has_member(enc, fb_name)
                )
        return descs

    def ancestors(self, path: Path) -> Tuple[Path, ...]:
        """Reflexive-transitive closure of ``@`` as an ordered linearization
        (self first, then BFS over parents, first occurrence kept)."""
        cached = self._q_ancestors.get(path)
        if cached is not MISS:
            return cached
        order: List[Path] = []
        seen: Set[Path] = set()
        queue = [path]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            order.append(current)
            queue.extend(self.parents(current))
        return self._q_ancestors.put(path, tuple(order))

    def inherits(self, sub: Path, sup: Path) -> bool:
        """``sub @* sup`` (reflexive)."""
        return sup in self.ancestors(sub)

    def strictly_inherits(self, sub: Path, sup: Path) -> bool:
        return sub != sup and sup in self.ancestors(sub)

    # ------------------------------------------------------------------
    # mem / prefix (Sections 4.4-4.5)
    # ------------------------------------------------------------------

    def _mem(self, t: Type) -> Tuple[Path, ...]:
        """``mem(PS)``: the classes comprising a pure non-dependent type."""
        if _PROV.enabled:
            return _PROV.judge(
                "mem", f"mem({t!r})", self._q_mem, t, self._mem_uncached, t,
                rule="mem (Fig. 8)",
            )
        cached = self._q_mem.get(t)
        if cached is not MISS:
            return cached
        return self._mem_uncached(t)

    def _mem_uncached(self, t: Type) -> Tuple[Path, ...]:
        pure = t.pure()
        if isinstance(pure, ClassType):
            mem: Tuple[Path, ...] = (pure.path,)
        elif isinstance(pure, T.IsectType):
            out: List[Path] = []
            for part in pure.parts:
                for p in self._mem(part):
                    if p not in out:
                        out.append(p)
            mem = tuple(out)
        elif isinstance(pure, T.ExactType):
            mem = self._mem(pure.inner)
        else:
            raise ResolveError(f"cannot take mem of non-evaluated type {pure!r}")
        return self._q_mem.put(t, mem)

    def _inherits_safe(self, sub: Path, sup: Path) -> bool:
        """``sub @* sup`` but tolerant of in-progress resolution: answers
        False instead of raising while ``sub``'s own parents are being
        computed (prefix evaluation during extends-clause resolution)."""
        if sub in self._parents_in_progress:
            return False
        try:
            return self.inherits(sub, sup)
        except ResolveError:
            return False

    def prefix_of(self, family: Path, view_path: Path) -> Path:
        """``prefix(P, S)``: the enclosing namespace of ``view_path`` at the
        level of family ``P`` (Section 4.5).

        First walks the enclosing prefixes of the view's own class,
        innermost first (this covers every lexically-nested use, including
        the family object itself as in ``AST[this.class]`` with
        ``this : ASTDisplay``); if none matches, falls back to the
        prefixes of all superclasses and picks the most derived candidate."""
        for cut in range(len(view_path), 0, -1):
            enc = view_path[:cut]
            if enc == family or self._inherits_safe(enc, family):
                return enc
        candidates: List[Path] = []
        for sup in self.ancestors(view_path):
            for cut in range(len(sup), 0, -1):
                enc = sup[:cut]
                if enc == family or self._inherits_safe(enc, family):
                    if enc not in candidates:
                        candidates.append(enc)
        if not candidates:
            raise ResolveError(
                f"no prefix of {path_str(view_path)} is in family {path_str(family)}"
            )
        # most derived: a candidate that inherits all the others
        for cand in candidates:
            if all(other == cand or self.inherits(cand, other) for other in candidates):
                return cand
        raise ResolveError(
            f"ambiguous prefix {path_str(family)}[{path_str(view_path)}]: "
            + ", ".join(path_str(c) for c in candidates)
        )

    # ------------------------------------------------------------------
    # type evaluation (substitution of this.class + prefix evaluation)
    # ------------------------------------------------------------------

    def eval_type_static(self, t: Type, this: Path) -> Type:
        """Interpret a resolved type in the context of class ``this``
        (substituting ``this.class := this!`` and evaluating prefixes).
        Only ``this``-rooted dependent paths are allowed."""
        key = (t, this)
        if _PROV.enabled:
            return _PROV.judge(
                "eval", f"eval({t!r}) in {path_str(this)}", self._q_eval_static,
                key, self._eval_static_uncached, t, this, key,
                rule="type evaluation (Sec. 4.5)",
            )
        cached = self._q_eval_static.get(key)
        if cached is not MISS:
            return cached
        return self._eval_static_uncached(t, this, key)

    def _eval_static_uncached(self, t: Type, this: Path, key) -> Type:
        result = intern_type(
            self.eval_type(t, lambda p: self._static_path_view(p, this))
        )
        if not self._parents_in_progress:
            # During extends-clause resolution `_inherits_safe` answers
            # conservatively, so mid-resolution evaluations may differ from
            # the quiescent answer — never cache those.
            self._q_eval_static.put(key, result)
        return result

    def _static_path_view(self, dep_path: Path, this: Path) -> View:
        if dep_path == ("this",):
            return intern_view(this)
        raise ResolveError(
            f"dependent path {'.'.join(dep_path)} cannot be evaluated statically"
        )

    def eval_type(self, t: Type, view_of_path: Callable[[Path], View]) -> Type:
        """Evaluate a type to a non-dependent form given a function that
        yields the run-time view of each final access path."""
        if isinstance(t, T.MaskedType):
            inner = self.eval_type(t.base, view_of_path)
            return inner.with_masks(t.masks)
        if isinstance(t, (T.PrimType, ClassType)):
            return t
        if isinstance(t, T.ArrayType):
            return T.ArrayType(self.eval_type(t.elem, view_of_path))
        if isinstance(t, T.DepType):
            view = view_of_path(t.path)
            if _PROV.enabled:
                _PROV.note(
                    "subst",
                    f"{'.'.join(t.path)}.class := {path_str(view.path)}!",
                    rule="dependent-path substitution",
                )
            return exact_class(view.path)
        if isinstance(t, T.PrefixType):
            index = self.eval_type(t.index, view_of_path)
            index_pure = index.pure()
            if isinstance(index_pure, T.IsectType):
                index_pure = index_pure.parts[0]
            if not isinstance(index_pure, ClassType):
                raise ResolveError(f"prefix index did not evaluate: {t!r}")
            fam = self.prefix_of(t.family, index_pure.path)
            if _PROV.enabled:
                _PROV.note(
                    "prefix",
                    f"prefix({path_str(t.family)}, {path_str(index_pure.path)})"
                    f" = {path_str(fam)}",
                    result=fam,
                    rule="prefix (Sec. 4.5)",
                )
            # P[PS] is exact when the index's prefix at the family's depth
            # is exact (the paper's prefixExact_1 condition, generalized to
            # nested families): any exact position at or below the family
            # depth pins the family.
            if any(k >= len(fam) for k in index_pure.exact):
                if _PROV.enabled:
                    _PROV.note(
                        "prefixExact",
                        f"index exact at depth >= {len(fam)} pins the family",
                        rule="prefixExact_k",
                    )
                return exact_class(fam)
            return ClassType(fam)
        if isinstance(t, T.NestedType):
            outer = self.eval_type(t.outer, view_of_path)
            outer_pure = outer.pure()
            if isinstance(outer_pure, ClassType):
                member = outer_pure.member(t.name)
                if not self.class_exists(member.path):
                    raise ResolveError(f"no such class {member!r}")
                return member
            if isinstance(outer_pure, T.IsectType):
                parts = tuple(
                    T.make_member(p, t.name)
                    for p in outer_pure.parts
                    if isinstance(p, ClassType) and self.class_exists(p.path + (t.name,))
                )
                if not parts:
                    raise ResolveError(f"no such member {t.name} on {outer_pure!r}")
                return T.make_isect(parts)
            raise ResolveError(f"cannot select member on {outer!r}")
        if isinstance(t, T.ExactType):
            return T.make_exact(self.eval_type(t.inner, view_of_path))
        if isinstance(t, T.IsectType):
            parts = tuple(self.eval_type(p, view_of_path) for p in t.parts)
            # collapse when one part is most derived
            class_parts = [p for p in parts if isinstance(p, ClassType)]
            if len(class_parts) == len(parts):
                for p in class_parts:
                    if all(
                        q is p or self.inherits(p.path, q.path) for q in class_parts
                    ):
                        return p
            return T.make_isect(parts)
        raise ResolveError(f"cannot evaluate type {t!r}")

    # ------------------------------------------------------------------
    # members: fields, methods, constructors
    # ------------------------------------------------------------------

    def own_fields(self, path: Path) -> List[ast.FieldDecl]:
        info = self.iface_info(path)
        return list(info.decl.fields) if info is not None else []

    def all_fields(self, path: Path) -> Tuple[Tuple[Path, ast.FieldDecl], ...]:
        """``fields(S)``: (declaring class, decl) pairs over all supers.
        A field name appears once; the most derived declaration wins."""
        cached = self._q_fields.get(path)
        if cached is not MISS:
            return cached
        out: List[Tuple[Path, ast.FieldDecl]] = []
        seen: Set[str] = set()
        for sup in self.ancestors(path):
            for decl in self.own_fields(sup):
                if decl.name not in seen:
                    seen.add(decl.name)
                    out.append((sup, decl))
        return self._q_fields.put(path, tuple(out))

    def find_field(self, path: Path, name: str) -> Optional[Tuple[Path, ast.FieldDecl]]:
        key = (path, name)
        cached = self._q_find_field.get(key)
        if cached is not MISS:
            return cached
        result: Optional[Tuple[Path, ast.FieldDecl]] = None
        for owner, decl in self.all_fields(path):
            if decl.name == name:
                result = (owner, decl)
                break
        return self._q_find_field.put(key, result)

    def find_method(self, path: Path, name: str) -> Optional[Tuple[Path, ast.MethodDecl]]:
        """Most-specific method implementation for a receiver whose view is
        ``path``.

        Candidates from all ancestors are filtered by the override relation
        (a declaration in X overrides one in Y when X @+ Y); remaining ties
        are broken by preferring the declaring class sharing the longest
        path prefix with the view (the 'current family' wins, which is how
        family-wide updates propagate to implicit classes)."""
        key = (path, name)
        cached = self._q_method.get(key)
        if cached is not MISS:
            return cached
        candidates: List[Tuple[Path, ast.MethodDecl]] = []
        for sup in self.ancestors(path):
            info = self.iface_info(sup)
            if info is None:
                continue
            for decl in info.decl.methods:
                if decl.name == name:
                    candidates.append((sup, decl))
                    break
        result: Optional[Tuple[Path, ast.MethodDecl]] = None
        if candidates:
            filtered = [
                (owner, decl)
                for owner, decl in candidates
                if not any(
                    other != owner and self.strictly_inherits(other, owner)
                    for other, _ in candidates
                )
            ]
            if len(filtered) > 1:
                def common_prefix(owner: Path) -> int:
                    n = 0
                    for a, b in zip(owner, path):
                        if a != b:
                            break
                        n += 1
                    return n

                filtered.sort(key=lambda od: (-common_prefix(od[0]), -len(od[0])))
            result = filtered[0]
        return self._q_method.put(key, result)

    def all_method_names(self, path: Path) -> FrozenSet[str]:
        cached = self._q_method_names.get(path)
        if cached is not MISS:
            return cached
        names: Set[str] = set()
        for sup in self.ancestors(path):
            info = self.iface_info(sup)
            if info is not None:
                names.update(m.name for m in info.decl.methods)
        return self._q_method_names.put(path, frozenset(names))

    def find_ctor(self, path: Path, argc: int) -> Optional[Tuple[Path, ast.CtorDecl]]:
        """Nearest constructor with matching arity along the ancestors."""
        key = (path, argc)
        cached = self._q_ctor.get(key)
        if cached is not MISS:
            return cached
        result: Optional[Tuple[Path, ast.CtorDecl]] = None
        for sup in self.ancestors(path):
            info = self.iface_info(sup)
            if info is None:
                continue
            for ctor in info.decl.ctors:
                if len(ctor.params) == argc:
                    result = (sup, ctor)
                    break
            if result is not None:
                break
        return self._q_ctor.put(key, result)

    # ------------------------------------------------------------------
    # sharing (Section 2.2, 3.1): groups, share(), fclass()
    # ------------------------------------------------------------------

    def _build_sharing(self) -> None:
        """Two phases: first collect every sharing relationship (explicit
        ``shares`` clauses and ``adapts`` expansions) into the union-find,
        then compute the automatic masks for adapts-shared classes as a
        fixpoint.  Masks must come second because whether a field's
        interpreted types are shared depends on the complete sharing
        relation, and the mask sets themselves feed back into ``fclass``
        (masks only grow, so the iteration terminates)."""
        if self._groups_built:
            return
        self._groups_built = True
        from .resolve import resolve_type

        def union(a: Path, b: Path) -> None:
            ra, rb = self._find(a), self._find(b)
            if ra != rb:
                self._group_find[ra] = rb

        adapts_pairs: List[Tuple[Path, Path]] = []
        for path, info in self.explicit.items():
            decl = info.decl
            if decl.shares is not None:
                resolved = resolve_type(decl.shares, self, path)
                evaled = self.eval_type_static(resolved, this=path)
                target_pure = evaled.pure()
                if not isinstance(target_pure, ClassType):
                    raise ResolveError(
                        f"shares clause of {path_str(path)} is not a class: {evaled!r}"
                    )
                target = target_pure.path
                self._share_parent[path] = target
                self._share_masks[path] = evaled.masks
                if target != path:
                    union(path, target)
            if decl.adapts is not None:
                resolved = resolve_type(decl.adapts, self, path)
                evaled = self.eval_type_static(resolved, this=path).pure()
                if not isinstance(evaled, ClassType):
                    raise ResolveError(
                        f"adapts clause of {path_str(path)} is not a class"
                    )
                base = evaled.path
                info.adapts_path = base
                self._apply_adapts(path, base, union, adapts_pairs)
        # phase 2: automatic masks to fixpoint (only adapts needs them)
        changed = bool(adapts_pairs)
        if changed:
            from .sharing import auto_masks
        while changed:
            changed = False
            for derived, base in adapts_pairs:
                masks = auto_masks(self, derived, base)
                if masks - self._share_masks.get(derived, frozenset()):
                    self._share_masks[derived] = (
                        self._share_masks.get(derived, frozenset()) | masks
                    )
                    changed = True

    def _apply_adapts(
        self,
        family: Path,
        base: Path,
        union: Callable[[Path, Path], None],
        pairs: List[Tuple[Path, Path]],
    ) -> None:
        """``adapts A``: share every inherited member class with A's
        corresponding class (Section 2.2), transitively nested."""

        def walk(rel: Path) -> None:
            base_cls = base + rel
            fam_cls = family + rel
            for name in self.member_names(base_cls):
                child = rel + (name,)
                fam_child = family + child
                if self.class_exists(fam_child):
                    if fam_child not in self._share_parent:
                        self._share_parent[fam_child] = base + child
                        self._share_masks[fam_child] = frozenset()
                        pairs.append((fam_child, base + child))
                    union(fam_child, base + child)
                    walk(child)

        walk(())

    def _find(self, path: Path) -> Path:
        root = path
        while self._group_find.get(root, root) != root:
            root = self._group_find[root]
        # path compression
        while self._group_find.get(path, path) != root:
            nxt = self._group_find[path]
            self._group_find[path] = root
            path = nxt
        return root

    def shared_with(self, a: Path, b: Path) -> bool:
        """Whether classes a and b are in the same sharing equivalence
        class (``a! <-> b!``)."""
        self._build_sharing()
        read_input(("sharing",))
        return self._find(a) == self._find(b)

    def sharing_group(self, path: Path) -> Tuple[Path, ...]:
        """All classes sharing instances with ``path`` (including itself)."""
        self._build_sharing()
        if _PROV.enabled:
            return _PROV.judge(
                "sharing_group", f"group({path_str(path)})", self._q_group, path,
                self._sharing_group_uncached, path,
                rule="sharing equivalence (Sec. 2.2)",
            )
        cached = self._q_group.get(path)
        if cached is not MISS:
            return cached
        return self._sharing_group_uncached(path)

    def _sharing_group_uncached(self, path: Path) -> Tuple[Path, ...]:
        read_input(("sharing",))
        root = self._find(path)
        group = [p for p in self.all_class_paths() if self._find(p) == root]
        if path not in group:
            group.append(path)
        if _PROV.enabled:
            _PROV.note(
                "union-find",
                f"equivalence root of {path_str(path)} is {path_str(root)}",
            )
        return self._q_group.put(path, tuple(group))

    def share_target(self, path: Path) -> Path:
        """``share(P)``: the declared shared class of P (P itself if none)."""
        self._build_sharing()
        read_input(("sharing",))
        return self._share_parent.get(path, path)

    def share_masks(self, path: Path) -> FrozenSet[str]:
        self._build_sharing()
        read_input(("sharing",))
        return self._share_masks.get(path, frozenset())

    def fclass(self, path: Path, fname: str) -> Path:
        """Which class's copy of field ``fname`` a view of class ``path``
        accesses (the ``fclass`` function of Section 4.15).

        Returns ``path``'s own copy when the field is new in this family or
        duplicated (masked in the sharing declaration); otherwise follows
        the share target."""
        if _PROV.enabled:
            return _PROV.judge(
                "fclass", f"fclass({path_str(path)}, {fname!r})", None, None,
                self._fclass, path, fname, rule="fclass (Sec. 4.15)",
            )
        return self._fclass(path, fname)

    def _fclass(self, path: Path, fname: str) -> Path:
        target = self.share_target(path)
        if target == path:
            if _PROV.enabled:
                _PROV.note(
                    "share", f"{path_str(path)} declares no sharing: own copy"
                )
            return path
        if fname in self.share_masks(path):
            if _PROV.enabled:
                _PROV.note(
                    "duplicated",
                    f"field {fname!r} is masked in {path_str(path)}'s shares "
                    "clause: duplicated, own copy",
                )
            return path
        if fname not in {decl.name for _, decl in self.all_fields(target)}:
            if _PROV.enabled:
                _PROV.note(
                    "new-field",
                    f"field {fname!r} is new in {path_str(path)} (absent from "
                    f"{path_str(target)}): own copy",
                )
            return path
        if _PROV.enabled:
            _PROV.note(
                "share",
                f"{path_str(path)} shares {path_str(target)} and {fname!r} is "
                "not masked: follow the share target",
            )
        return self.fclass(target, fname)

    def subclasses_of(self, bound: ClassType) -> Tuple[Path, ...]:
        """All classes P with P! <= bound, enumerated in the locally closed
        world (bound should have an exact prefix for this to be modular,
        Section 2.1; we enumerate globally as the calculus does)."""
        cached = self._q_subclasses.get(bound)
        if cached is not MISS:
            return cached
        out = []
        for p in self.all_class_paths():
            if self.inherits(p, bound.path) and self._exact_prefix_matches(p, bound):
                out.append(p)
        return self._q_subclasses.put(bound, tuple(out))

    def _exact_prefix_matches(self, p: Path, bound: ClassType) -> bool:
        m = max(bound.exact, default=0)
        if m == 0:
            return True
        if m > len(p):
            return False
        if m == len(bound.path):
            # bound itself exact: p must be exactly bound
            return p == bound.path
        return p[:m] == bound.path[:m]

    def view_of(self, current: View, target: Type) -> View:
        """The run-time ``view`` function (Section 4.15): retarget a
        reference's view to be compatible with ``target``.

        If the current class already conforms, only the masks change;
        otherwise the unique shared class under the target is selected.
        Raises :class:`JnsError` when no shared view exists (statically
        prevented by sharing constraints)."""
        key = (current, target)
        cached = self._q_view_of.get(key)
        if cached is not MISS:
            return cached
        target_pure = target.pure()
        masks = target.masks
        if not isinstance(target_pure, ClassType):
            raise JnsError(f"view target did not evaluate to a class: {target!r}")
        if self.inherits(current.path, target_pure.path) and self._exact_prefix_matches(
            current.path, target_pure
        ):
            return self._q_view_of.put(key, intern_view(current.path, frozenset(masks)))
        self._build_sharing()
        matches = [
            p
            for p in self.sharing_group(current.path)
            if self.inherits(p, target_pure.path)
            and self._exact_prefix_matches(p, target_pure)
        ]
        if len(matches) == 1:
            return self._q_view_of.put(key, intern_view(matches[0], frozenset(masks)))
        if not matches:
            raise JnsError(
                f"no view of {path_str(current.path)} is compatible with {target!r}"
            )
        raise JnsError(
            f"ambiguous view change from {path_str(current.path)} to {target!r}: "
            + ", ".join(path_str(m) for m in matches)
        )

    # ------------------------------------------------------------------
    # ahead-of-time specialization queries (runtime/loader.py,
    # runtime/codegen.py)
    # ------------------------------------------------------------------

    def runtime_conforms(self, path: Path, t: Type) -> bool:
        """Whether a value whose view class is ``path`` belongs to the
        non-dependent type ``t`` — the runtime conformance relation used
        by casts, ``instanceof``, and view-change no-op detection."""
        if isinstance(t, ClassType):
            m = max(t.exact, default=0)
            if m > 0:
                if len(path) < m or path[:m] != t.path[:m]:
                    return False
                if m == len(t.path) and path != t.path:
                    return False
            return self.inherits(path, t.path)
        if isinstance(t, T.IsectType):
            return all(self.runtime_conforms(path, p) for p in t.parts)
        if isinstance(t, T.ExactType):
            inner = t.inner
            if isinstance(inner, ClassType):
                return path == inner.path
            return self.runtime_conforms(path, inner)
        return False

    def conforming_paths(self, t: Type) -> FrozenSet[Path]:
        """All class paths in the locally closed world conforming to the
        (pure, non-dependent) type ``t``.  Feeds the read plans' and
        static view changes' no-op sets: an adapt to ``t`` from any of these paths with
        equal masks is the identity."""
        t = intern_type(t.pure())
        cached = self._q_conforming.get(t)
        if cached is not MISS:
            return cached
        result = frozenset(
            p for p in self.all_class_paths() if self.runtime_conforms(p, t)
        )
        return self._q_conforming.put(t, result)

    def sealed_method_target(
        self, name: str
    ) -> Optional[Tuple[Path, ast.MethodDecl, FrozenSet[Path]]]:
        """Unique dispatch target for method ``name``, if the locally
        closed world (the SH-CLS enumeration) seals it: every class that
        understands ``name`` resolves it to the *same* declaration.  Then
        a call site needs no per-receiver dispatch — only the membership
        guard over the returned path set.  ``None`` when the name is
        polymorphic (call sites keep their inline caches)."""
        cached = self._q_sealed.get(name)
        if cached is not MISS:
            return cached
        target: Optional[Tuple[Path, ast.MethodDecl]] = None
        valid: List[Path] = []
        sealed = True
        for p in self.all_class_paths():
            found = self.find_method(p, name)
            if found is None:
                continue
            if target is None:
                target = found
            elif found[1] is not target[1] or found[0] != target[0]:
                sealed = False
                break
            valid.append(p)
        result = None
        if sealed and target is not None:
            result = (target[0], target[1], frozenset(valid))
        return self._q_sealed.put(name, result)

    def monomorphic_method_target(
        self, name: str, paths: FrozenSet[Path]
    ) -> Optional[Tuple[Path, ast.MethodDecl, FrozenSet[Path]]]:
        """Unique dispatch target for ``name`` across just ``paths`` (a
        receiver's conformance set): every member of ``paths`` that
        understands ``name`` resolves it to the same declaration.  The
        per-receiver-class relaxation of :meth:`sealed_method_target` —
        a name can be polymorphic globally yet monomorphic for one
        receiver type.  ``None`` when the restricted set still diverges."""
        key = (name, paths)
        cached = self._q_mono.get(key)
        if cached is not MISS:
            return cached
        target: Optional[Tuple[Path, ast.MethodDecl]] = None
        valid: List[Path] = []
        for p in sorted(paths):
            found = self.find_method(p, name)
            if found is None:
                continue
            if target is None:
                target = found
            elif found[1] is not target[1] or found[0] != target[0]:
                return self._q_mono.put(key, None)
            valid.append(p)
        result = None
        if target is not None:
            result = (target[0], target[1], frozenset(valid))
        return self._q_mono.put(key, result)

    def slot_universe(self, path: Path) -> Tuple[Tuple[Path, str], ...]:
        """The heap keys an instance created as ``path`` can ever hold
        under the J&s fclass discipline: for every member ``q`` of the
        sharing group and every field ``f`` of ``q``, the key
        ``(fclass(q, f), f)``.  Shared fields collapse onto one key;
        duplicated unshared/masked fields keep one key per family
        (Section 6.3).  Sorted, so every member of the group computes the
        identical slot numbering."""
        cached = self._q_slot_univ.get(path)
        if cached is not MISS:
            return cached
        keys: Set[Tuple[Path, str]] = set()
        for q in self.sharing_group(path):
            for _, decl in self.all_fields(q):
                keys.add((self.fclass(q, decl.name), decl.name))
        return self._q_slot_univ.put(path, tuple(sorted(keys)))
