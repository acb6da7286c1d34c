"""Ahead-of-time runtime specialization (the translation-style backend).

The paper's implementation does not interpret J&s — it *translates* it to
Java bytecode (Section 6), with Section 6.3 describing an object layout
engineered so view changes are cheap and shared field access is direct.
This module is the analogous ahead-of-time pass for the Python substrate.
It runs after loading and before execution, and feeds three
specializations consumed by the codegen backend
(:mod:`repro.runtime.codegen`), which bakes them into the Python source
it emits per method body:

1. **Slotted object layouts** — for each runtime class, a fixed
   field→integer-slot table over the class's *sharing group*: one slot
   per ``fclass``-distinct field copy (shared fields collapse onto one
   slot; duplicated unshared/masked fields keep one slot per family,
   Section 6.3).  Instances become flat lists
   (:class:`~repro.runtime.values.SlottedInstance`) instead of
   tuple-keyed dicts.
2. **Read plans** — per view-dependent reference field, the statically
   evaluated retarget type plus the set of view classes for which the
   lazy implicit view change is provably a no-op (SH-REFL over the
   locally closed world), so those reads skip the runtime ``view`` call.
3. **Sealed-family devirtualization** — method names whose dispatch is
   sealed in the locally closed world (the same SH-CLS enumeration the
   sharing checker relies on) resolve to a single declaration; call
   sites bind it statically behind a membership guard and fall back to
   the generic path (and its inline caches) otherwise.

All whole-program analyses (slot universes, sealed targets, conformance
sets) live on the :class:`~repro.lang.classtable.ClassTable` query
engine, so they amortize across every interpreter sharing the table;
this class only assembles the per-interpreter :class:`ClassSpec` records
(which embed mode-dependent layouts and initializer schedules).

Escape hatch: ``repro run --backend walker`` (or
``Program.interp(backend="walker")``) skips this pass and tree-walks the
unspecialized program.  The walker-vs-codegen differential test locks
the semantics.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..lang import types as T
from ..lang.classtable import JnsError, ResolveError
from ..lang.queries import MISS, QueryEngine
from ..lang.types import Path, Type, intern_view
from ..obs import TRACER
from .loader import RTClass
from .values import default_value

#: Read-plan tags (first element of the plan tuple).
PLAN_NOOP = 0  #: statically evaluated target; elide when view in noop set
PLAN_ADAPT = 1  #: statically evaluated target with masks; always adapt
PLAN_DYNAMIC = 2  #: target depends on runtime state; evaluate per read


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


class ClassSpec:
    """Specialized per-class execution plan: the slot layout, this view's
    name→slot mapping, the field-read retarget plans, and the initializer
    schedule in slot form."""

    __slots__ = ("path", "layout", "slot_of", "read_plan", "init_plan")

    def __init__(
        self,
        path: Path,
        layout: Layout,
        slot_of: Dict[str, int],
        read_plan: Dict[str, Tuple],
        init_plan: List[Tuple[int, Any, Any]],
    ) -> None:
        self.path = path
        self.layout = layout
        self.slot_of = slot_of
        self.read_plan = read_plan
        self.init_plan = init_plan


class Specializer:
    """Assembles and caches :class:`ClassSpec` records for one
    interpreter, and answers the devirtualization query for its emitted
    call sites.  Counters (``slots_built`` / ``sites_devirtualized`` /
    ``views_elided``) are maintained unconditionally; the matching
    ``specialize.*`` tracer counters fire only while tracing is on."""

    def __init__(self, interp) -> None:
        self.interp = interp
        self.table = interp.table
        self.sharing = interp.sharing
        self.queries = QueryEngine("specialize")
        self._q_spec = self.queries.query("class_spec")
        self._q_layout = self.queries.query("layout")
        self._checker = None  # lazy SharingChecker for no-op view sets
        self.slots_built = 0
        self.sites_devirtualized = 0
        self.views_elided = 0

    def invalidate_classes(self, affected) -> None:
        """Drop the :class:`ClassSpec` of each affected class (called on
        an incremental splice via ``Interp._on_table_edit``).  Layouts
        are derived purely from their key tuple, so they can never go
        stale and stay cached."""
        cache = self._q_spec.table
        for path in affected:
            cache.pop(path, None)

    # ------------------------------------------------------------------
    # entry point: run after loading, before execution
    # ------------------------------------------------------------------

    def specialize_program(self) -> None:
        """Precompute every class spec (and thereby every layout and read
        plan) for the program's locally closed world.  Classes whose
        sharing state cannot be resolved are skipped — the lazy per-class
        path re-raises the same error at the access point the generic
        backend would."""
        if not TRACER.enabled:
            self._specialize_all()
            return
        with TRACER.span("specialize", mode=self.interp.mode):
            self._specialize_all()

    def _specialize_all(self) -> None:
        for path in self.table.all_class_paths():
            try:
                self.class_spec(path)
            except JnsError:
                pass

    # ------------------------------------------------------------------
    # per-class specs
    # ------------------------------------------------------------------

    def class_spec(self, path: Path) -> ClassSpec:
        spec = self._q_spec.get(path)
        if spec is not MISS:
            return spec
        return self._q_spec.put(path, self._build_spec(path))

    def _build_spec(self, path: Path) -> ClassSpec:
        rtc = self.interp.loader.rtclass(path)
        if self.sharing:
            keys = self.table.slot_universe(path)
        else:
            # Non-sharing modes key storage by plain field name; the
            # layout is just this class's own field list.
            keys = tuple(name for name in rtc.field_slot)
        layout = self._layout(keys)
        if self.sharing:
            slot_of = {
                name: layout.index[(slot, name)]
                for name, slot in rtc.field_slot.items()
            }
        else:
            slot_of = {name: layout.index[name] for name in rtc.field_slot}
        read_plan = self._read_plans(rtc) if self.sharing else {}
        init_plan: List[Tuple[int, Any, Any]] = []
        for _, decl in rtc.init_schedule:
            idx = slot_of[decl.name]
            if decl.init is not None:
                init_plan.append((idx, decl, None))
            else:
                init_plan.append((idx, None, default_value(decl.type)))
        return ClassSpec(path, layout, slot_of, read_plan, init_plan)

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
        """Static evaluation of each view-dependent reference field's
        retarget type, mirroring ``Interp._retarget_type``: this-only
        types evaluate against the view class; evaluation failure means
        no adapt is ever applied (the generic backend memoizes ``None``
        for exactly these); anything mentioning other paths stays
        dynamic."""
        plans: Dict[str, Tuple] = {}
        for name, decl_type in rtc.retarget.items():
            paths = T.paths_in(decl_type)
            if not all(p == ("this",) for p in paths):
                plans[name] = (PLAN_DYNAMIC,)
                continue
            this_view = intern_view(rtc.path)
            try:
                # interned, so equal targets of different classes are one
                # key object in Interp's view_change query
                evaled: Optional[Type] = T.intern_type(
                    self.table.eval_type(decl_type, lambda p: this_view)
                )
            except (ResolveError, JnsError):
                evaled = None
            if evaled is None:
                continue  # reads never adapt; omit the plan entirely
            if evaled.masks:
                plans[name] = (PLAN_ADAPT, evaled)
            else:
                noops = self._noop_paths(evaled)
                plans[name] = (PLAN_NOOP, noops, evaled)
                self.views_elided += 1
                if TRACER.enabled:
                    TRACER.count("specialize.views_elided")
        return plans

    def _noop_paths(self, target: Type):
        if self._checker is None:
            from ..lang.sharing import SharingChecker

            self._checker = SharingChecker(self.table)
        return self._checker.noop_view_paths(target)

    def noop_view_paths(self, target: Type):
        """Public wrapper over the sharing checker's no-op view set: the
        source view paths from which an unmasked adapt to ``target`` is
        provably the identity.  Used by the codegen backend to elide
        explicit view changes and call-receiver adapters per site."""
        return self._noop_paths(target)

    # ------------------------------------------------------------------
    # devirtualization
    # ------------------------------------------------------------------

    def static_target_for(self, name: str, rtype: Optional[Type]):
        """Unique dispatch target for ``name`` at a call site, or ``None``
        when the site stays polymorphic (it keeps its inline cache).
        Names sealed across the locally closed world resolve directly
        (the enumeration is memoized on the class table).  Names that are
        monomorphic *for this receiver's static type* devirtualize too,
        even when polymorphic globally: when the checker annotated the
        receiver expression with a non-dependent class type, every
        conforming path in the locally closed world resolving ``name`` to
        one declaration seals the site just as well (the same membership
        guard keeps it sound on unchecked receivers)."""
        target = self.table.sealed_method_target(name)
        if target is not None or rtype is None:
            return target
        if T.paths_in(rtype):
            return None  # dependent receiver type: no static path set
        pure = rtype.pure()
        if isinstance(pure, (T.PrimType, T.ArrayType)):
            return None
        try:
            paths = self.table.conforming_paths(rtype)
        except (ResolveError, JnsError):
            return None
        if not paths:
            return None
        return self.table.monomorphic_method_target(name, paths)

    def note_devirtualized(self) -> None:
        """Called by the emitter when it statically binds a call site."""
        self.sites_devirtualized += 1
        if TRACER.enabled:
            TRACER.count("specialize.sites_devirtualized")

    def stats(self) -> Dict[str, int]:
        return {
            "slots_built": self.slots_built,
            "sites_devirtualized": self.sites_devirtualized,
            "views_elided": self.views_elided,
        }
