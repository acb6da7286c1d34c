"""The run-time "classloader" (Section 6.2).

The paper's implementation synthesizes classes for implicit J&s classes
lazily at run time with a custom classloader, and this caching is what
separates the slow J& [31] implementation from the fast classloader-based
one in Table 1.  Here the loader lazily builds one :class:`RTClass`
record per class path (per *view* in J&s mode), the one runtime record
of a class: a resolved dispatch table, field layout with ``fclass``
storage keys, field initializer schedule, constructors, and each
view-dependent field's retarget type for lazy implicit view changes
(evaluated once when it depends on ``this`` alone).

The codegen backend's products are built into the same record on first
use (:meth:`Loader.specialized`), or for every class ahead of time
(:meth:`Loader.specialize_all`): the slotted object layout shared by a
sharing group, this view's field-to-slot map, the per-field read plans
and the slot-indexed initializer plan.  The loader keeps the counters of
that pass (``slots_built``, ``views_elided``, and the emitter's
``sites_devirtualized``).

``cached=False`` reproduces the J& [31] configuration: every dispatch and
field access recomputes its lookup from the class table, and no record
is stored.  Records are evicted per class by ``Interp._on_table_edit``
(:meth:`Loader.evict`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..lang import types as T
from ..lang.classtable import ClassTable, JnsError, ResolveError, path_str
from ..lang.queries import MISS, QueryEngine
from ..lang.types import Path, Type
from ..obs import TRACER
from ..source import ast
from .values import default_value

#: Read-plan tags (first element of the plan tuple).
PLAN_NOOP = 0  #: statically evaluated target; elide when view in noop set
PLAN_ADAPT = 1  #: statically evaluated target with masks; always adapt
PLAN_DYNAMIC = 2  #: target depends on runtime state; evaluate per read

_THIS = ("this",)


class Layout:
    """A fixed heap-key → slot-index numbering shared by every class in
    one sharing group (the keys are sorted, so all members compute the
    identical numbering independently)."""

    __slots__ = ("keys", "index", "nslots")

    def __init__(self, keys: Tuple[Any, ...]) -> None:
        self.keys = keys
        self.index: Dict[Any, int] = {k: i for i, k in enumerate(keys)}
        self.nslots = len(keys)

    def __repr__(self) -> str:
        return f"<Layout {self.nslots} slots>"


class RTClass:
    """Synthesized run-time information for one class (one view)."""

    __slots__ = (
        "path",
        "vtable",
        "field_slot",
        "field_decl",
        "init_schedule",
        "retarget",
        "retarget_eval",
        "ctors",
        "is_abstract",
        "layout",
        "slot_of",
        "read_plan",
        "init_plan",
    )

    def __init__(self, path: Path) -> None:
        self.path = path
        #: method name -> (owner path, MethodDecl)
        self.vtable: Dict[str, Tuple[Path, ast.MethodDecl]] = {}
        #: field name -> fclass owner path (heap key component)
        self.field_slot: Dict[str, Path] = {}
        #: field name -> (owner path, FieldDecl)
        self.field_decl: Dict[str, Tuple[Path, ast.FieldDecl]] = {}
        #: initializers, base classes first
        self.init_schedule: List[Tuple[Path, ast.FieldDecl]] = []
        #: field name -> declared type if reads may need a view retarget
        self.retarget: Dict[str, Type] = {}
        #: field name -> evaluated target type of a ``this``-only
        #: retarget type (``None`` when it does not evaluate)
        self.retarget_eval: Dict[str, Optional[Type]] = {}
        #: arity -> (owner, CtorDecl)
        self.ctors: Dict[int, Optional[Tuple[Path, ast.CtorDecl]]] = {}
        self.is_abstract = False
        #: the codegen products, ``None`` until :meth:`Loader.specialized`
        #: builds them: the group's layout, field name -> slot index,
        #: field name -> read plan, and (slot, initializer or ``None``,
        #: default) per field in schedule order
        self.layout: Optional[Layout] = None
        self.slot_of: Optional[Dict[str, int]] = None
        self.read_plan: Optional[Dict[str, Tuple]] = None
        self.init_plan: Optional[List[Tuple[int, Any, Any]]] = None


class Loader:
    def __init__(self, table: ClassTable, cached: bool = True, sharing: bool = True):
        self.table = table
        self.cached = cached
        self.sharing = sharing  # J&s mode: fclass keys + view retargeting
        self.queries = QueryEngine("loader")
        self._q_rtclass = self.queries.query("rtclass")
        self._q_layout = self.queries.query("layout")
        #: codegen product counters, kept unconditionally; the matching
        #: ``specialize.*`` tracer counters fire only while tracing is on
        #: (the emitter counts the call sites it binds statically)
        self.slots_built = 0
        self.views_elided = 0
        self.sites_devirtualized = 0

    def evict(self, affected) -> None:
        """Drop the record of each affected class (an interface edit): a
        synthesized runtime class embeds member declarations from every
        ancestor, so the affected set (edited classes plus their
        subclasses) is exactly what must re-synthesize.  Layouts derive
        from their key tuple alone, so they never go stale and stay."""
        cache = self._q_rtclass.table
        for path in affected:
            cache.pop(path, None)

    def rtclass(self, path: Path) -> RTClass:
        if not self.cached:
            # The J& [31] configuration: no classloader caching at all —
            # bypass the query layer entirely so the mode stays honest
            # (no hits, no stored classes) regardless of the global flag.
            return self._synthesize(path)
        rtc = self._q_rtclass.get(path)
        if rtc is not MISS:
            return rtc
        return self._q_rtclass.put(path, self._synthesize(path))

    def _synthesize(self, path: Path) -> RTClass:
        # jx mode re-synthesizes on every dispatch, so the tracing guard
        # must stay a single branch on the disabled path.
        if not TRACER.enabled:
            return self._synthesize_impl(path)
        with TRACER.span("load", unit=path_str(path)):
            return self._synthesize_impl(path)

    def _synthesize_impl(self, path: Path) -> RTClass:
        table = self.table
        rtc = RTClass(path)
        info = table.explicit.get(path)
        if info is not None:
            rtc.is_abstract = info.decl.abstract
        for name in table.all_method_names(path):
            found = table.find_method(path, name)
            if found is not None:
                rtc.vtable[name] = found
        fields = table.all_fields(path)
        for owner, decl in fields:
            slot = table.fclass(path, decl.name) if self.sharing else path[:0]
            rtc.field_slot[decl.name] = slot
            rtc.field_decl[decl.name] = (owner, decl)
            if self.sharing and isinstance(decl.type, T.Type):
                paths = T.is_reference_type(decl.type) and T.paths_in(decl.type)
                if paths:
                    # a view-dependent reference field: reads may require a
                    # lazy implicit view change (Section 6.3)
                    rtc.retarget[decl.name] = decl.type
                    if all(p == _THIS for p in paths):
                        rtc.retarget_eval[decl.name] = self._eval_this(
                            decl.type, path
                        )
        rtc.init_schedule = list(reversed(fields))
        return rtc

    def _eval_this(self, t: Type, path: Path) -> Optional[Type]:
        """``t``, whose only dependent path is ``this``, evaluated in
        class ``path`` (interned, so equal targets of different classes
        are one key object in ``Interp``'s ``view_change`` query); ``None``
        when it does not evaluate, and reads then never adapt."""
        try:
            return self.table.eval_type_static(t, path)
        except (ResolveError, JnsError):
            return None

    def find_ctor(self, rtc: RTClass, argc: int):
        if self.cached and argc in rtc.ctors:
            return rtc.ctors[argc]
        found = self.table.find_ctor(rtc.path, argc)
        if self.cached:
            rtc.ctors[argc] = found
        return found

    # ------------------------------------------------------------------
    # codegen products (runtime/codegen.py)
    # ------------------------------------------------------------------

    def specialize_all(self) -> None:
        """Build the codegen products of every class of the locally closed
        world.  Classes whose sharing state cannot be resolved are
        skipped: :meth:`specialized` re-raises the same error at the
        access point the walker would."""
        for path in self.table.all_class_paths():
            try:
                self.specialized(path)
            except JnsError:
                pass

    def specialized(self, path: Path) -> RTClass:
        """The record of class ``path`` with its codegen products built.
        Raises (and builds nothing) when the class's sharing state does
        not resolve."""
        rtc = self.rtclass(path)
        if rtc.layout is None:
            self._specialize(rtc)
        return rtc

    def _specialize(self, rtc: RTClass) -> None:
        if self.sharing:
            layout = self._layout(self.table.slot_universe(rtc.path))
            slot_of = {
                name: layout.index[(slot, name)]
                for name, slot in rtc.field_slot.items()
            }
        else:
            # Non-sharing modes key storage by plain field name; the
            # layout is just this class's own field list.
            layout = self._layout(tuple(rtc.field_slot))
            slot_of = {name: layout.index[name] for name in rtc.field_slot}
        read_plan = self._read_plans(rtc) if self.sharing else {}
        init_plan: List[Tuple[int, Any, Any]] = []
        for _, decl in rtc.init_schedule:
            idx = slot_of[decl.name]
            if decl.init is not None:
                init_plan.append((idx, decl, None))
            else:
                init_plan.append((idx, None, default_value(decl.type)))
        rtc.slot_of = slot_of
        rtc.read_plan = read_plan
        rtc.init_plan = init_plan
        rtc.layout = layout

    def _layout(self, keys: Tuple[Any, ...]) -> Layout:
        """One Layout object per distinct key tuple — every member of a
        sharing group shares the same object (the universes are sorted,
        hence equal)."""
        layout = self._q_layout.get(keys)
        if layout is not MISS:
            return layout
        layout = Layout(keys)
        self.slots_built += layout.nslots
        if TRACER.enabled:
            TRACER.count("specialize.slots_built", layout.nslots)
        return self._q_layout.put(keys, layout)

    def _read_plans(self, rtc: RTClass) -> Dict[str, Tuple]:
        """Each view-dependent reference field's read plan, from its
        retarget type: a ``this``-only type that evaluates is static
        (always adapted when masked, else elided from the views that
        conform to it, SH-REFL), one that does not has no plan (reads
        never adapt), and any other stays dynamic."""
        plans: Dict[str, Tuple] = {}
        for name in rtc.retarget:
            evaled = rtc.retarget_eval.get(name, MISS)
            if evaled is MISS:
                plans[name] = (PLAN_DYNAMIC,)
            elif evaled is None:
                continue
            elif evaled.masks:
                plans[name] = (PLAN_ADAPT, evaled)
            else:
                plans[name] = (
                    PLAN_NOOP, self.table.conforming_paths(evaled), evaled
                )
                self.views_elided += 1
                if TRACER.enabled:
                    TRACER.count("specialize.views_elided")
        return plans
