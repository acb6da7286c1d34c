"""The J&s interpreter.

One evaluator, four execution modes reproducing the four implementations
of Table 1 (Section 7.1):

* ``java``  — the flat-Java baseline: fields keyed by plain name, method
  dispatch through a prebuilt per-class vtable, no family or view
  machinery at run time.
* ``jx``    — J& as described in [31], *without* the classloader caches:
  dispatch tables, field layouts, and constructor lookups are re-derived
  from the class table on every use.
* ``jx_cl`` — J& with the custom classloader (Section 6.2): run-time
  class records are synthesized lazily and cached.
* ``jns``   — full J&s: reference objects carry views (Section 6.3);
  method dispatch and duplicated-field selection are view-dependent
  (``fclass`` heap keys); reads of view-dependent reference fields apply
  lazy, memoized implicit view changes; explicit ``(view T)e`` is
  supported.

Only ``jns`` permits sharing features; the other modes reject view
changes, matching the paper's setup where the jolden programs "do not use
the new extensibility features of J&s".
"""

from __future__ import annotations

import math
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import JnsResourceError
from ..lang import types as T
from ..obs import PROFILER, TRACER
from ..lang.classtable import ClassTable, JnsError, ResolveError, path_str
from ..lang.queries import MISS, CacheStats, Query, QueryEngine, collect_stats
from ..lang.types import Path, Type, View, intern_view
from .loader import Loader, RTClass
from .values import (
    ABSENT,
    ArityError,
    CastError,
    DivisionByZero,
    Instance,
    JnsFailure,
    JnsRuntimeError,
    NoSuchMethod,
    NoSuchName,
    NullDereference,
    Ref,
    SlottedInstance,
    UninitializedFieldError,
)

MODES = ("java", "jx", "jx_cl", "jns")

#: Execution backends.  ``walker`` tree-walks the AST (the reference
#: semantics); ``codegen`` runs the AOT specialization pass and emits and
#: ``compile()``s real Python source per specialized method body (the
#: default for ``repro run``).
BACKENDS = ("walker", "codegen")

#: "No value at this heap key" — shared with the slotted representation so
#: the generic accessors treat an ABSENT slot exactly like a missing dict
#: key.
_MISSING = ABSENT

#: Default J&s call-depth budget.  Deep enough for every jolden workload
#: (treeadd/bisort recurse to tree height; the deepest tier-1 program
#: recurses 2000 calls) while still catching runaway recursion long
#: before the Python stack would.
DEFAULT_MAX_DEPTH = 4000

#: Python frames consumed per J&s call in the tree-walking evaluator
#: (call_method -> exec_stmt -> eval chains), with slack for expression
#: nesting inside each body.  An emitted codegen call takes one frame, so
#: the walker's count sizes the recursion-limit raise for both backends.
_FRAMES_PER_CALL = 12

#: Ceiling for the *temporary* recursion-limit raise during ``run()``;
#: anything deeper trips the RecursionError safety net (JNS-RES-004).
#: That net holds only while no J&s call recurses in C: on CPython 3.11
#: a ``*args`` call (``CALL_FUNCTION_EX``) does, a plain call does not,
#: so no call path uses one per J&s call.  Measured: self, mutual,
#: constructor and inline-cache-miss recursion all still end in
#: JNS-RES-004 at twice this cap in an 8 MB stack, on both backends.
_MAX_PY_RECURSION = 100000


def _jdiv(a, b):
    """Java division: ints truncate toward zero."""
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise DivisionByZero("integer division by zero")
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    if b == 0:
        return math.inf if a > 0 else (-math.inf if a < 0 else math.nan)
    return a / b


def _jmod(a, b):
    """Java remainder: the sign of the dividend; a double remainder by
    zero or of an infinity is NaN (``math.fmod`` raises there)."""
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise DivisionByZero("integer modulo by zero")
        return a - _jdiv(a, b) * b
    if b == 0 or a == math.inf or a == -math.inf:
        return math.nan
    return math.fmod(a, b)


def _jint(v):
    """Java's ``(int)``: ``int()``, except that NaN gives 0 and an
    infinity the int bound of its sign (``int()`` raises on both)."""
    try:
        return int(v)
    except (ValueError, OverflowError):
        if not isinstance(v, float):
            raise
        if v != v:
            return 0
        return 2147483647 if v > 0 else -2147483648


def to_jstring(v: Any) -> str:
    """Java-flavored string conversion for Sys.print and ``+``."""
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        if v == int(v) and abs(v) < 1e15:
            return f"{v:.1f}"
        return repr(v)
    if isinstance(v, Ref):
        return f"{path_str(v.view.path)}@{id(v.inst) & 0xFFFFFF:x}"
    if isinstance(v, list):
        return "[" + ", ".join(to_jstring(x) for x in v) + "]"
    return str(v)


class Interp:
    """Evaluates a resolved J&s program."""

    def __init__(
        self,
        table: ClassTable,
        mode: str = "jns",
        echo: bool = False,
        memoize_views: bool = True,
        eager_views: bool = False,
        backend: str = "walker",
        max_steps: Optional[int] = None,
        max_depth: Optional[int] = None,
        line_profile: bool = False,
    ) -> None:
        """``memoize_views=False`` disables the per-instance reference-object
        memoization of Section 6.3 (ablation D1); ``eager_views=True``
        propagates an explicit view change through all reachable shared
        fields immediately instead of lazily at access time (ablation D3).

        ``backend`` is one of :data:`BACKENDS`.  ``walker`` tree-walks
        method bodies.  ``codegen`` (the Section 6 compilation strategy on
        the Python substrate) builds, ahead of time, every class record's
        codegen products (slotted object layouts, read plans, see
        :meth:`~repro.runtime.loader.Loader.specialize_all`) and emits and
        ``compile()``s real Python source per specialized method body,
        with sealed-family devirtualization (see
        :mod:`repro.runtime.codegen`).  ``jx`` mode always runs on
        ``walker``, because its point is the *absence* of run-time
        precomputation; :attr:`backend` then reports ``"walker"``.

        ``max_steps`` bounds the number of expression evaluations (fuel;
        ``None`` = unlimited); ``max_depth`` bounds the J&s call depth.
        Exhausting either raises :class:`JnsResourceError` carrying the
        J&s call stack, instead of hitting Python's recursion limit."""
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.table = table
        self.mode = mode
        self.sharing = mode == "jns"
        self.echo = echo
        self.memoize_views = memoize_views
        self.eager_views = eager_views
        self.codegen = backend == "codegen" and mode != "jx"
        #: the resolved backend name (jx mode runs on the walker)
        self.backend = "codegen" if self.codegen else "walker"
        #: deterministic per-jns-line profiling (see repro.profiler):
        #: codegen plants statement hooks, the walker swaps in a
        #: counting exec_stmt — unprofiled interpreters pay nothing
        self.line_profile = bool(line_profile)
        self._cg = None
        self.output: List[str] = []
        self.loader = Loader(table, cached=(mode != "jx"), sharing=self.sharing)
        # Run-time query caches (see lang/queries.py); the per-class
        # record (dispatch table, slots, retarget types) is the loader's.
        # jx mode (uncached loader) bypasses them to reproduce the J& [31]
        # row of Table 1.
        self.queries = QueryEngine("interp")
        q = self.queries.query
        # Both queries hold one table per (evaluated) target type, keyed by
        # the ``id`` of the interned source view and holding that view:
        # target -> {id(view): (view, result)}.  ``conforms``' result is
        # whether the view belongs to the target, ``view_change``'s the
        # view a lazy view change moves to (``None`` for "unchanged").
        # Unbounded: their keys are the program's evaluated target types
        # and the views that reach them, both finite, and LRU upkeep would
        # cost a dict pop per hit.
        self._q_conforms = q("conforms", maxsize=None, cls=_PerTargetQuery)
        self._q_view_change = q("view_change", maxsize=None, cls=_PerTargetQuery)
        table.add_edit_listener(self._on_table_edit)
        self._sys = self._build_sys()
        self._max_steps = max_steps
        self._max_depth = DEFAULT_MAX_DEPTH if max_depth is None else max_depth
        self._steps = 0
        self._depth = 0
        if not self.codegen:
            _walker().attach(self)

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def run(self, entry: str = "Main.main", args: Tuple = ()) -> Any:
        """Instantiate the entry class with a no-arg constructor and invoke
        the entry method (e.g. ``"Main.main"``).

        The Python recursion limit is raised only for the duration of the
        run (sized to ``max_depth``) and restored afterwards; a
        RecursionError that still escapes the depth guard is converted to
        a :class:`JnsResourceError` rather than leaking a Python-level
        crash."""
        *cls_parts, method = entry.split(".")
        path = tuple(cls_parts)
        if not self.table.class_exists(path):
            raise ResolveError(f"no entry class {'.'.join(cls_parts)}")
        self._steps = 0
        self._depth = 0
        if self.codegen:
            # Ahead of time: every class record's layout and read plans
            # for the locally closed world, before execution.
            if not TRACER.enabled:
                self.loader.specialize_all()
            else:
                with TRACER.span("specialize", mode=self.mode):
                    self.loader.specialize_all()
        if not TRACER.enabled:
            ref = self.new_instance(path, ())
            return self.call_method(ref, method, list(args))
        with TRACER.span("run", unit=entry, mode=self.mode):
            ref = self.new_instance(path, ())
            return self.call_method(ref, method, list(args))

    def reset_budget(self) -> None:
        """Re-arm the resource budget after a ``JnsResourceError`` so the
        interpreter (and its caches) can serve subsequent requests.

        The guard paths already restore the recursion limit and unwind
        ``_depth`` on their ``finally`` edges; what survives a trip is the
        cumulative step counter.  Callers that treat fuel exhaustion as a
        recoverable fault (the chaos driver, long-lived services) call
        this between requests."""
        if self._depth != 0:
            raise RuntimeError("reset_budget called while J&s code is running")
        self._steps = 0

    def _at_boundary(self, fn, *args) -> Any:
        """Run ``fn(*args)`` entering J&s code from the host (depth 0):
        temporarily raises the Python recursion limit so the J&s depth
        guard — not the host stack — is what bounds recursion, and turns
        a RecursionError that still escapes it into JNS-RES-004.  Every
        resource error unwinds through here, so this is where its J&s
        stack is labelled, from the traceback."""
        old_limit = sys.getrecursionlimit()
        needed = min(
            max(old_limit, self._max_depth * _FRAMES_PER_CALL + 2000),
            _MAX_PY_RECURSION,
        )
        if needed > old_limit:
            sys.setrecursionlimit(needed)
        try:
            return fn(*args)
        except JnsResourceError as exc:
            exc.set_stack(self._jns_stack(exc.__traceback__))
            raise
        except RecursionError as exc:
            raise JnsResourceError(
                "Python recursion limit exceeded; lower max_depth or rewrite "
                "the program iteratively",
                code="JNS-RES-004",
                jns_stack=self._jns_stack(exc.__traceback__),
            ) from None
        finally:
            sys.setrecursionlimit(old_limit)

    def _jns_stack(self, tb) -> List[str]:
        """J&s stack labels, outermost first, of the frames a traceback
        ``tb`` unwound: ``P.C.m`` per walker ``_guarded_call`` or emitted
        method body (its ``EmittedSource.stack_label``, found by
        ``co_filename``), ``new P`` per walker ``_guarded_new`` or codegen
        ``allocate``."""
        by_filename = self._cg.by_filename if self._cg is not None else {}
        labels = []
        while tb is not None:
            f = tb.tb_frame
            tb = tb.tb_next
            code = f.f_code
            if code is _GUARDED_CALL or code is _GUARDED_NEW:
                loc = f.f_locals
                if loc["self"] is not self:
                    continue
                if code is _GUARDED_NEW:
                    labels.append("new " + path_str(loc["path"]))
                else:
                    labels.append(f"{path_str(loc['owner'])}.{loc['name']}")
            elif code is _ALLOCATE:
                plan = f.f_locals["plan"]
                if plan.interp is self:
                    labels.append("new " + path_str(plan.path))
            elif f.f_globals.get("_I") is self:
                src = by_filename.get(code.co_filename)
                if src is not None and src.stack_label:
                    labels.append(src.stack_label)
        return labels

    def _depth_error(self) -> JnsResourceError:
        return JnsResourceError(
            f"J&s call depth limit exceeded ({self._max_depth})",
            code="JNS-RES-002",
        )

    def _fuel_error(self) -> JnsResourceError:
        return JnsResourceError(
            f"step budget exhausted ({self._max_steps} steps)",
            code="JNS-RES-001",
        )

    def new_instance(self, path: Path, args: Tuple) -> Ref:
        if self.codegen:
            # the allocator an emitted ``new`` site calls (its plan makes
            # the abstract-class check when it is built)
            plan = self._codegen().new_plans(path)[len(args)]
            if self._depth == 0:
                return self._at_boundary(allocate, args, plan)
            return allocate(args, plan)
        rtc = self.loader.rtclass(path)
        if rtc.is_abstract:
            raise JnsRuntimeError(f"cannot instantiate abstract class {path_str(path)}")
        if self._depth == 0:
            return self._at_boundary(self._guarded_new, rtc, path, args)
        return self._guarded_new(rtc, path, args)

    def call_method(self, ref: Ref, name: str, args: List[Any]) -> Any:
        found = self._lookup_method(ref.view.path, name)
        if found is None:
            raise NoSuchMethod(f"no method {name!r} on {path_str(ref.view.path)}")
        owner, decl = found
        return self._invoke(owner, decl, ref, name, args)

    def _invoke(self, owner: Path, decl, ref: Ref, name: str, args: List[Any]) -> Any:
        """Invoke an already-resolved method (lookup done by the caller).
        Under codegen the emitted body counts its own depth."""
        self._check_call(owner, decl, name, len(args))
        if self.codegen:
            fn = self._codegen().method_fn(decl, ref.view.path, owner)
            if self._depth == 0:
                return self._at_boundary(fn, ref, *args)
            return fn(ref, *args)
        if self._depth == 0:
            return self._at_boundary(
                self._guarded_call, owner, decl, ref, name, args
            )
        return self._guarded_call(owner, decl, ref, name, args)

    @staticmethod
    def _check_call(owner: Path, decl, name: str, nargs: int) -> None:
        if decl.body is None:
            raise JnsRuntimeError(
                f"abstract method {path_str(owner)}.{name} called"
            )
        if len(decl.params) != nargs:
            raise ArityError(
                f"{name!r} expects {len(decl.params)} arguments, got {nargs}"
            )

    def _codegen(self):
        """The codegen compiler.  Its bodies count trace events only if
        tracing was on when it was built, so a tracer toggle drops it
        (as an interface edit does, see :meth:`_on_table_edit`)."""
        cg = self._cg
        if cg is None or cg.traced != TRACER.enabled:
            from .codegen import CodegenCompiler

            cg = self._cg = CodegenCompiler(self)
        return cg

    def _on_table_edit(self, notice) -> None:
        """Eviction on an incremental splice, the runtime's one edit
        listener.  A body-only edit evicts just the codegen bodies
        compiled from the retired declarations, and keeps every class
        record and the ``conforms`` and ``view_change`` memos: a graft
        keeps the member declarations, so their vtable and constructor
        entries see the new bodies, and it changes no interface, so no
        conformance or view transition.  Any other edit drops the whole
        compiler, whose bodies bake in the old interface (slots, read
        plans, dispatch targets), and the records of the affected classes
        (edited classes plus their subclasses).  The two memos embed
        types from the edited classes transitively; they are cheap
        warm-up state, so they clear in place (counters survive).  Both
        empty each per-target table in place too, since kept emitted
        bodies hold them (:meth:`conforms_fn`, :meth:`adapt_fn`).
        Codegen's inline-cache sites live in its emitted bodies and go
        with them."""
        if self._cg is not None:
            if notice.bodies_only:
                self._cg.evict(notice.retired_ids)
            elif notice.retired_ids or notice.affected:
                self._cg = None
        if notice.affected and not notice.bodies_only:
            self.loader.evict(notice.affected)
            self._q_conforms.clear()
            self._q_view_change.clear()

    def _lookup_method(self, path: Path, name: str):
        # All modes dispatch through the loader's record; mode differences
        # live in the loader itself (jx re-synthesizes the table on every
        # call, the cached modes hit the record table).
        if PROFILER.enabled:
            PROFILER.dispatch_hit()
        if TRACER.enabled and not self.loader.cached:
            TRACER.count("dispatch.uncached")
        return self.loader.rtclass(path).vtable.get(name)

    def cache_stats(self) -> CacheStats:
        """Snapshot of this interpreter's query caches plus the loader's
        and the class table's (they all serve this run)."""
        return collect_stats(
            [self.queries, self.loader.queries, self.table.queries]
        )

    # ------------------------------------------------------------------
    # what the walker and emitted code both call
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        """Charge one step of fuel from emitted codegen bodies, which do
        not route through :meth:`eval`."""
        if self._max_steps is None:
            return
        self._steps += 1
        if self._steps > self._max_steps:
            raise self._fuel_error()

    # -- fields ---------------------------------------------------------

    def get_field(self, obj: Any, name: str) -> Any:
        if obj is None:
            raise NullDereference(f"null dereference reading field {name!r}")
        if isinstance(obj, list):
            if name == "length":
                return len(obj)
            raise NoSuchName(f"arrays have no field {name!r}")
        if not isinstance(obj, Ref):
            if isinstance(obj, str) and name == "length":
                return len(obj)
            raise JnsRuntimeError(f"cannot read field {name!r} of {obj!r}")
        view = obj.view
        inst = obj.inst
        if not self.sharing:
            if self.mode != "java":
                rtc = self.loader.rtclass(view.path)
                if name not in rtc.field_decl:
                    raise NoSuchName(
                        f"no field {name!r} on {path_str(view.path)}"
                    )
            # both representations answer load(); the dict fast path keeps
            # the walker free of an extra method call
            if type(inst) is Instance:
                v = inst.fields.get(name, _MISSING)
            else:
                v = inst.load(name)
            if v is _MISSING:
                raise NoSuchName(
                    f"no field {name!r} on {path_str(view.path)}"
                )
            return v
        # J&s mode: fclass-keyed storage + lazy implicit view change
        if TRACER.enabled:
            TRACER.count("mask.check")
        if PROFILER.enabled:
            PROFILER.mask_hit()
        if name in view.masks:
            if TRACER.enabled:
                TRACER.event(
                    "mask.blocked", field=name, view=path_str(view.path)
                )
            raise UninitializedFieldError(
                f"field {name!r} is masked in view {view!r}"
            )
        rtc = self.loader.rtclass(view.path)
        slot = rtc.field_slot.get(name)
        if slot is None:
            raise NoSuchName(f"no field {name!r} on {path_str(view.path)}")
        if type(inst) is Instance:
            v = inst.fields.get((slot, name), _MISSING)
        else:
            v = inst.load((slot, name))
        if v is _MISSING:
            v = self._fallback_read(obj, rtc, name, slot)
        elif isinstance(v, Ref):
            target = self._retarget_type(rtc, name, obj)
            if target is not None:
                v = self._adapt(v, target)
        return v

    def _fallback_read(self, obj: Ref, rtc: RTClass, name: str, slot: Path) -> Any:
        """The current view's copy of a duplicated field is uninitialized.
        Directional sharing (Section 3.3) lets a read fall back to another
        view's copy when its content can be viewed into this family;
        otherwise the read fails (statically prevented by masked types)."""
        inst = obj.inst
        if TRACER.enabled:
            TRACER.event(
                "sharing.group_lookup",
                field=name,
                view=path_str(obj.view.path),
                group=len(self.table.sharing_group(slot)),
            )
        for other in self.table.sharing_group(slot):
            if other == slot:
                continue
            v = inst.load((other, name))
            if v is _MISSING:
                continue
            if isinstance(v, Ref):
                target = self._retarget_type(rtc, name, obj)
                if target is not None:
                    v = self._adapt(v, target)  # raises if not shareable
            # memoize into this view's slot so later reads are direct
            if TRACER.enabled:
                TRACER.count("sharing.fallback_read")
            inst.store((slot, name), v)
            return v
        raise UninitializedFieldError(
            f"field {name!r} of an instance of {path_str(inst.created_as)} is "
            f"uninitialized in view {path_str(obj.view.path)} "
            f"(duplicated/unshared field)"
        )

    def _retarget_type(self, rtc: RTClass, name: str, obj: Ref) -> Optional[Type]:
        """Evaluated field target type for lazy implicit view changes: the
        record's, evaluated once, when it depends only on ``this``."""
        decl_type = rtc.retarget.get(name)
        if decl_type is None:
            return None
        evaled = rtc.retarget_eval.get(name, MISS)
        if evaled is not MISS:
            return evaled
        try:
            return self.table.eval_type(
                decl_type, lambda p: self._path_view(p, obj)
            )
        except (ResolveError, JnsError):
            return None

    def _path_view(self, path: Path, this: Ref) -> View:
        if path[0] == "this":
            current: Any = this
        else:
            raise ResolveError(f"cannot evaluate path {'.'.join(path)} here")
        for fname in path[1:]:
            current = self.get_field(current, fname)
        if not isinstance(current, Ref):
            raise ResolveError(f"path {'.'.join(path)} is not an object")
        return current.view

    def set_field(self, obj: Any, name: str, value: Any) -> None:
        if obj is None:
            raise NullDereference(f"null dereference writing field {name!r}")
        if not isinstance(obj, Ref):
            raise JnsRuntimeError(f"cannot write field {name!r} of {obj!r}")
        inst = obj.inst
        view = obj.view
        if not self.sharing:
            # a field that holds a value is declared, so only the first
            # write of a walker field pays the lookup (emitted code comes
            # here only for a name its layout lacks)
            if type(inst) is Instance:
                fields = inst.fields
                if name not in fields:
                    self._check_declared(view.path, name)
                fields[name] = value
            else:
                self._check_declared(view.path, name)
                inst.store(name, value)
            return
        rtc = self.loader.rtclass(view.path)
        slot = rtc.field_slot.get(name)
        if slot is None:
            raise NoSuchName(f"no field {name!r} on {path_str(view.path)}")
        if type(inst) is Instance:
            inst.fields[(slot, name)] = value
        else:
            inst.store((slot, name), value)
        if name in view.masks:
            # R-SET removes the mask; reference objects are immutable pairs,
            # so the unmasked view is what subsequent reads should use.
            if TRACER.enabled:
                TRACER.event(
                    "mask.removed", field=name, view=path_str(view.path)
                )
            obj.view = intern_view(view.path, view.masks - {name})

    def _check_declared(self, path: Path, name: str) -> None:
        """Raise JNS-RUN-003 unless class ``path`` declares field ``name``
        (the modes without views, whose heap keys are bare names)."""
        if name not in self.loader.rtclass(path).field_decl:
            raise NoSuchName(f"no field {name!r} on {path_str(path)}")

    @staticmethod
    def _equals(a, b) -> bool:
        if isinstance(a, Ref) and isinstance(b, Ref):
            return a.inst is b.inst  # view changes preserve object identity
        if isinstance(a, Ref) or isinstance(b, Ref):
            return False
        if isinstance(a, list) or isinstance(b, list):
            return a is b
        return a == b

    # -- casts, views, instanceof -------------------------------------------

    def _eval_type(self, t: Type, frame) -> Type:
        return self.table.eval_type(
            t, lambda p: self._frame_path_view(p, frame)
        )

    def _frame_path_view(self, path: Path, frame) -> View:
        head = path[0]
        current = frame.get(head, _MISSING)
        if current is _MISSING:
            raise ResolveError(f"unbound variable {head!r} in dependent type")
        for fname in path[1:]:
            current = self.get_field(current, fname)
        if not isinstance(current, Ref):
            raise ResolveError(f"path {'.'.join(path)} is not an object")
        return current.view

    def conforms(self, view: View, t: Type) -> bool:
        """Whether a value with this view belongs to type ``t`` (already
        evaluated to non-dependent form): the ``conforms`` query, looked
        up by target, then by the source view's ``id`` (the entry holds
        the view, and a hit tests it with ``is``, as in
        :meth:`_view_change`)."""
        t = t.pure()
        if TRACER.enabled:
            TRACER.count("conforms.check")
        q = self._q_conforms
        per_target = q.table.get(t)
        if per_target is not None:
            entry = per_target.get(id(view))
            if entry is not None and entry[0] is view:
                q.hits += 1
                return entry[1]
        q.misses += 1
        result = self._conforms(view.path, t)
        if per_target is None:
            # a no-op put when caches are off: the entry is then dropped
            per_target = q.put(t, {})
        per_target[id(view)] = (view, result)
        return result

    def conforms_fn(self, target: Type) -> Callable[[View], bool]:
        """``fn(view)``: :meth:`conforms` to ``target``, for the emitted
        cast and ``instanceof`` sites whose type is evaluated at emission.
        Like :meth:`adapt_fn`, it binds ``target``'s table of the query,
        so a warm test is one lookup by the view's ``id`` and hashes no
        type; a miss takes :meth:`conforms` and binds the table the query
        then holds (a clear empties the bound one in place).  Traced,
        profiled and cache-less interpreters get plain :meth:`conforms`,
        with its ``conforms.check`` count."""
        t = target.pure()
        conforms = self.conforms
        q = self._q_conforms
        if (
            TRACER.enabled
            or PROFILER.enabled
            or self.line_profile
            or not q._enabled
        ):
            return lambda view: conforms(view, t)
        tables = q.table
        per_target = tables.get(t)
        if per_target is None:
            per_target = {}  # private and empty: rebound on the first miss

        def conforms_to(view):
            nonlocal per_target
            entry = per_target.get(id(view))
            if entry is None or entry[0] is not view:
                result = conforms(view, t)
                per_target = tables.get(t) or per_target
                return result
            q.hits += 1
            return entry[1]

        return conforms_to

    def _conforms(self, path: Path, t: Type) -> bool:
        # Single source of truth on the class table (the conformance-set
        # queries behind read plans and devirtualization use the same
        # judgment).
        return self.table.runtime_conforms(path, t)

    def cast_value(self, v, t, frame, evaled=None):
        """``(t)v``.  ``evaled`` is ``t`` already evaluated (a codegen site
        whose type has no dependent path); otherwise ``t`` is evaluated in
        ``frame`` when ``v`` is an object."""
        t_pure = t.pure()
        if isinstance(t_pure, T.PrimType):
            if t_pure == T.INT:
                return _jint(v)
            if t_pure == T.DOUBLE:
                return float(v)
            if t_pure == T.BOOLEAN:
                return bool(v)
            return v
        if v is None:
            return None
        if isinstance(v, list):
            if isinstance(t_pure, T.ArrayType):
                return v
            raise CastError(f"cannot cast array to {t!r}")
        if not isinstance(v, Ref):
            if isinstance(v, str) and t_pure == T.STRING:
                return v
            raise CastError(f"cannot cast {v!r} to {t!r}")
        if evaled is None:
            evaled = self._eval_type(t, frame)
        if not self.conforms(v.view, evaled):
            raise cast_error(v, evaled)
        return v

    def _adapt(self, ref: Ref, target: Type) -> Ref:
        """The run-time ``view`` function with memoized reference objects
        (Section 6.3).

        The view to move to comes from :meth:`_view_change` (once warm,
        a lookup by target, then by the source view object); the
        reference object comes from the instance's ``view_refs`` memo,
        whose entry is reused when it holds that very (interned) view.
        Every call counts one profiler view hit, and when traced one
        ``conforms.check`` and one of ``view_change.noop``/
        ``memo_hit``/``new_ref``.  Emitted code calls the same step
        through :meth:`adapt_fn`."""
        if PROFILER.enabled:
            PROFILER.view_hit()
        if TRACER.enabled:
            TRACER.count("conforms.check")
        new_view = self._view_change(ref.view, target)
        if new_view is None:
            if TRACER.enabled:
                TRACER.count("view_change.noop")
            return ref
        inst = ref.inst
        if self.memoize_views:
            memo = inst.view_refs.get(new_view.path)
            if memo is not None and memo.view is new_view:
                if TRACER.enabled:
                    TRACER.count("view_change.memo_hit")
                return memo
        new_ref = Ref(inst, new_view)
        if self.memoize_views:
            inst.view_refs[new_view.path] = new_ref
        if TRACER.enabled:
            TRACER.count("view_change.new_ref")
        return new_ref

    def _view_change(self, current: View, target: Type) -> Optional[View]:
        """The view a reference viewed as ``current`` takes when adapted to
        ``target``, or ``None`` when it stays as it is: the ``view_change``
        query.  Entries live in one table per target, keyed by the
        ``id`` of the source view and holding that view, so a hit hashes
        the target once and no view, and a recycled ``id`` cannot alias
        (the entry keeps its view alive, and the hit tests it with
        ``is``; every run-time view is interned).  Raises, uncached,
        when no shared view exists."""
        q = self._q_view_change
        per_target = q.table.get(target)
        if per_target is not None:
            entry = per_target.get(id(current))
            if entry is not None and entry[0] is current:
                q.hits += 1
                return entry[1]
        q.misses += 1
        t_pure = target.pure()
        if self._conforms(current.path, t_pure):
            masks = target.masks
            if current.masks == masks:
                found = None
            else:
                found = intern_view(current.path, frozenset(masks))
        else:
            found = self.table.view_of(current, target)
        if per_target is None:
            # a no-op put when caches are off: the entry is then dropped
            per_target = q.put(target, {})
        per_target[id(current)] = (current, found)
        return found

    def adapt_fn(self, target: Type) -> Callable[..., Ref]:
        """``fn(ref, o=None)``: :meth:`_adapt` to ``target``, for the
        emitted sites whose target is fixed (``this.f`` and inline-cache
        reads, static ``(view T)e``; ``o``, the receiver, is unused).

        The function binds ``target``'s table of the ``view_change``
        query, so a warm adapt is one lookup by the source view's ``id``
        and one ``view_refs`` test: no type is hashed and no tuple
        built.  A hit counts one query hit, as :meth:`_adapt` does; a
        miss takes :meth:`_adapt` and binds the table the query then
        holds, which is the same one unless the query was cleared (an
        edit empties the bound table in place, so a cleared entry is
        never answered).  Traced, profiled, unmemoized and cache-less
        interpreters get plain :meth:`_adapt`, with all its counts."""
        adapt = self._adapt
        q = self._q_view_change
        if (
            TRACER.enabled
            or PROFILER.enabled
            or self.line_profile
            or not self.memoize_views
            or not q._enabled
        ):
            return lambda ref, o=None: adapt(ref, target)
        tables = q.table
        per_target = tables.get(target)
        if per_target is None:
            per_target = {}  # private and empty: rebound on the first miss

        def adapt_to(ref, o=None):
            nonlocal per_target
            view = ref.view
            entry = per_target.get(id(view))
            if entry is None or entry[0] is not view:
                adapted = adapt(ref, target)
                per_target = tables.get(target) or per_target
                return adapted
            q.hits += 1
            new_view = entry[1]
            if new_view is None:
                return ref
            inst = ref.inst
            refs = inst.view_refs
            memo = refs.get(new_view.path)
            if memo is None or memo.view is not new_view:
                memo = refs[new_view.path] = Ref(inst, new_view)
            return memo

        return adapt_to

    def propagate_views(self, ref: Ref) -> int:
        """Eagerly move every object transitively reachable from ``ref``
        through view-dependent reference fields into ``ref``'s family (the
        eager alternative to Section 6.3's lazy implicit view changes).
        Returns the number of objects visited."""
        seen = set()
        stack = [ref]
        visited = 0
        while stack:
            current = stack.pop()
            if id(current.inst) in seen:
                continue
            seen.add(id(current.inst))
            visited += 1
            rtc = self.loader.rtclass(current.view.path)
            for fname in rtc.retarget:
                try:
                    value = self.get_field(current, fname)
                except JnsError:
                    continue
                if isinstance(value, Ref):
                    stack.append(value)
        return visited

    def instanceof_value(self, v, t, frame, evaled=None):
        """``v instanceof t``; ``evaled`` as in :meth:`cast_value`."""
        if v is None:
            return False
        t_pure = t.pure()
        if isinstance(v, Ref):
            if isinstance(t_pure, T.PrimType):
                return False
            if evaled is None:
                evaled = self._eval_type(t, frame)
            return self.conforms(v.view, evaled)
        if isinstance(v, str):
            return t_pure == T.STRING
        if isinstance(v, bool):
            return t_pure == T.BOOLEAN
        if isinstance(v, int):
            return t_pure == T.INT
        if isinstance(v, float):
            return t_pure == T.DOUBLE
        if isinstance(v, list):
            return isinstance(t_pure, T.ArrayType)
        return False

    # -- natives ----------------------------------------------------------------

    def _build_sys(self) -> Dict[str, Callable]:
        def _print(v):
            text = to_jstring(v)
            self.output.append(text)
            if self.echo:
                print(text)

        def _fail(msg):
            raise JnsFailure(str(msg))

        return {
            "print": _print,
            "println": _print,
            "sqrt": lambda x: math.sqrt(x),
            "abs": lambda x: abs(x),
            "fabs": lambda x: abs(float(x)),
            "min": lambda a, b: min(a, b),
            "max": lambda a, b: max(a, b),
            "floor": lambda x: math.floor(x) * 1.0,
            "ceil": lambda x: math.ceil(x) * 1.0,
            "pow": lambda a, b: math.pow(a, b),
            "sin": math.sin,
            "cos": math.cos,
            "tan": math.tan,
            "asin": math.asin,
            "acos": math.acos,
            "atan": math.atan,
            "atan2": math.atan2,
            "log": math.log,
            "exp": math.exp,
            "intOf": _jint,
            "doubleOf": lambda x: float(x),
            "str": to_jstring,
            "strLen": len,
            "charAt": lambda s, i: s[i],
            "substring": lambda s, a, b: s[a:b],
            "parseInt": lambda s: int(s),
            "fail": _fail,
            "identityHash": lambda v: id(v.inst) if isinstance(v, Ref) else id(v),
            "viewName": lambda v: (
                path_str(v.view.path) if isinstance(v, Ref) else type(v).__name__
            ),
            "PI": lambda: math.pi,
            "E": lambda: math.e,
            "MAX_INT": lambda: 2147483647,
            "MIN_INT": lambda: -2147483648,
            "MAX_DOUBLE": lambda: sys.float_info.max,
        }


def cast_error(v: Ref, evaled: Type) -> CastError:
    """The JNS-RUN-005 a cast of object ``v`` to ``evaled`` raises when
    its view does not conform."""
    return CastError(
        f"ClassCastException: {path_str(v.view.path)} is not a {evaled!r}"
    )


class _PerTargetQuery(Query):
    """The ``conforms`` and ``view_change`` queries, whose per-target
    tables emitted code binds (:meth:`Interp.conforms_fn`,
    :meth:`Interp.adapt_fn`): clearing one (an edit, ``clear_caches``,
    turning caches off) empties each of them in place first, so no bound
    table keeps an entry the query dropped."""

    __slots__ = ()

    def clear(self) -> None:
        for per_target in self.table.values():
            per_target.clear()
        self.table.clear()


def allocate(args, plan):
    """``new P(args)`` under codegen, over a ``codegen._NewPlan``, in the
    walker's order: the depth guard, the ``alloc`` count, the layout,
    the initializer schedule, the constructor.  One function for every
    class, so ``Interp._jns_stack`` labels its frames ``new P`` by code
    object and no class pays a ``compile()``.  ``args`` comes first so
    that an emitted site builds it before it looks up the plan (walker
    order: arguments, then the class)."""
    interp = plan.interp
    depth = interp._depth + 1
    if depth > interp._max_depth:
        raise interp._depth_error()
    interp._depth = depth
    try:
        if plan.traced:
            TRACER.count("alloc")
        path = plan.path
        inst = SlottedInstance(path, plan.layout)
        ref = Ref(inst, plan.view)
        inst.view_refs[path] = ref
        slots = inst.slots
        for idx, fn, default in plan.steps:
            slots[idx] = default if fn is None else fn(ref)
        if plan.ctor is not None:
            plan.ctor(ref, args)
        return ref
    finally:
        interp._depth = depth - 1


#: the code objects of the frames ``Interp._jns_stack`` labels (the
#: walker's two stay ``None`` until the walker is loaded)
_GUARDED_CALL = _GUARDED_NEW = None
_ALLOCATE = allocate.__code__

_WALKER = None


def _walker():
    """The tree walker, ``runtime/walker.py``.  The first walker
    interpreter loads it, which adds the methods of ``walker.Walker`` to
    :class:`Interp` (a codegen-only process never compiles them)."""
    global _WALKER, _GUARDED_CALL, _GUARDED_NEW
    if _WALKER is None:
        from . import walker

        for name, fn in vars(walker.Walker).items():
            if not name.startswith("__"):
                setattr(Interp, name, fn)
        _GUARDED_CALL = Interp._guarded_call.__code__
        _GUARDED_NEW = Interp._guarded_new.__code__
        _WALKER = walker
    return _WALKER
