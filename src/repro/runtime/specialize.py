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

The first two are products of a class's one runtime record, the
loader's :class:`~repro.runtime.loader.RTClass`, built into it on first
use (:meth:`~repro.runtime.loader.Loader.specialized`).  All
whole-program analyses (slot universes, sealed targets, conformance
sets) live on the :class:`~repro.lang.classtable.ClassTable` query
engine, so they amortize across every interpreter sharing the table.
This class runs the pass over the closed world and answers the
devirtualization query for emitted call sites.

Escape hatch: ``repro run --backend walker`` (or
``Program.interp(backend="walker")``) skips this pass and tree-walks the
unspecialized program.  The walker-vs-codegen differential test locks
the semantics.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..lang import types as T
from ..lang.classtable import JnsError, ResolveError
from ..lang.types import Type
from ..obs import TRACER


class Specializer:
    """The ahead-of-time pass of one interpreter and its
    devirtualization query.  Counters (``slots_built`` /
    ``sites_devirtualized`` / ``views_elided``) are maintained
    unconditionally; the matching ``specialize.*`` tracer counters fire
    only while tracing is on."""

    def __init__(self, interp) -> None:
        self.interp = interp
        self.table = interp.table
        self.sites_devirtualized = 0

    # ------------------------------------------------------------------
    # entry point: run after loading, before execution
    # ------------------------------------------------------------------

    def specialize_program(self) -> None:
        """Build the codegen products of every class record (and thereby
        every layout and read plan) for the program's locally closed
        world.  Classes whose sharing state cannot be resolved are
        skipped — the lazy per-class path re-raises the same error at
        the access point the generic backend would."""
        if not TRACER.enabled:
            self._specialize_all()
            return
        with TRACER.span("specialize", mode=self.interp.mode):
            self._specialize_all()

    def _specialize_all(self) -> None:
        specialized = self.interp.loader.specialized
        for path in self.table.all_class_paths():
            try:
                specialized(path)
            except JnsError:
                pass

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
        loader = self.interp.loader
        return {
            "slots_built": loader.slots_built,
            "sites_devirtualized": self.sites_devirtualized,
            "views_elided": loader.views_elided,
        }
