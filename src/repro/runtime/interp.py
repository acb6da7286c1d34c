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
from ..obs import TRACER
from ..obs import PROFILER
from ..lang.classtable import ClassTable, JnsError, ResolveError, path_str
from ..lang.queries import MISS, CacheStats, QueryEngine, collect_stats
from ..lang.types import ClassType, Path, Type, View
from ..source import ast
from .loader import Loader, RTClass
from .values import (
    ABSENT,
    Instance,
    JnsFailure,
    JnsRuntimeError,
    NullDereference,
    Ref,
    SlottedInstance,
    UninitializedFieldError,
    default_value,
)

MODES = ("java", "jx", "jx_cl", "jns")

#: Execution backends, slowest to fastest.  ``walker`` tree-walks,
#: ``compiled`` builds Python closure trees over dict frames,
#: ``specialized`` adds AOT specialization with register-list frames,
#: ``codegen`` emits and ``compile()``s real Python source per
#: specialized method body (the default for ``repro run``).
BACKENDS = ("walker", "compiled", "specialized", "codegen")

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
#: nesting inside each body.
_FRAMES_PER_CALL = 12

#: Ceiling for the *temporary* recursion-limit raise during ``run()``:
#: matches the old global limit; anything deeper trips the
#: RecursionError safety net (JNS-RES-004) instead of the C stack.
_MAX_PY_RECURSION = 100000


class _Return(Exception):
    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


def _jdiv(a, b):
    """Java division: ints truncate toward zero."""
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise JnsRuntimeError("integer division by zero")
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    if b == 0:
        return math.inf if a > 0 else (-math.inf if a < 0 else math.nan)
    return a / b


def _jmod(a, b):
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise JnsRuntimeError("integer modulo by zero")
        return a - _jdiv(a, b) * b
    return math.fmod(a, b)


def to_jstring(v: Any) -> str:
    """Java-flavored string conversion for Sys.print and ``+``."""
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, float):
        if v == int(v) and abs(v) < 1e15 and not math.isinf(v):
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
        compiled: bool = False,
        specialized: bool = False,
        backend: Optional[str] = None,
        max_steps: Optional[int] = None,
        max_depth: Optional[int] = None,
        line_profile: bool = False,
    ) -> None:
        """``memoize_views=False`` disables the per-instance reference-object
        memoization of Section 6.3 (ablation D1); ``eager_views=True``
        propagates an explicit view change through all reachable shared
        fields immediately instead of lazily at access time (ablation D3);
        ``compiled=True`` translates method bodies to Python closures once
        instead of tree-walking them (the Section 6 compilation strategy
        on the Python substrate).

        ``specialized=True`` additionally runs the ahead-of-time
        specialization pass of :mod:`repro.runtime.specialize` (slotted
        object layouts, register frames, sealed-family devirtualization)
        and implies ``compiled``.  It is ignored in ``jx`` mode, whose
        point is the *absence* of run-time precomputation.

        ``backend`` is the unified selector (one of :data:`BACKENDS`); it
        overrides the legacy ``compiled``/``specialized`` booleans when
        given.  ``codegen`` emits and ``compile()``s real Python source
        per specialized method body (see :mod:`repro.runtime.codegen`)
        and implies ``specialized``.

        ``max_steps`` bounds the number of expression evaluations (fuel;
        ``None`` = unlimited); ``max_depth`` bounds the J&s call depth.
        Exhausting either raises :class:`JnsResourceError` carrying the
        J&s call stack, instead of hitting Python's recursion limit."""
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        if backend is not None:
            if backend not in BACKENDS:
                raise ValueError(
                    f"unknown backend {backend!r}; expected one of {BACKENDS}"
                )
            compiled = backend in ("compiled", "specialized", "codegen")
            specialized = backend in ("specialized", "codegen")
        self.table = table
        self.mode = mode
        self.sharing = mode == "jns"
        self.echo = echo
        self.memoize_views = memoize_views
        self.eager_views = eager_views
        self.specialized = bool(specialized) and mode != "jx"
        self.codegen = backend == "codegen" and self.specialized
        self.compiled = bool(compiled) or self.specialized
        #: the resolved backend name (jx mode degrades codegen/specialized
        #: to compiled, mirroring the ``specialized`` docstring above)
        self.backend = (
            "codegen" if self.codegen
            else "specialized" if self.specialized
            else "compiled" if self.compiled
            else "walker"
        )
        #: deterministic per-jns-line profiling (see repro.profiler):
        #: compilers plant statement hooks, the walker swaps in a
        #: counting exec_stmt — unprofiled interpreters pay nothing
        self.line_profile = bool(line_profile)
        self.spec = None
        self._compiler = None
        self._cg = None
        self.output: List[str] = []
        self.loader = Loader(table, cached=(mode != "jx"), sharing=self.sharing)
        if self.specialized:
            from .specialize import Specializer

            self.spec = Specializer(self)
        # Run-time query caches (see lang/queries.py).  ``dispatch`` is
        # the (view path, method name) inline cache that makes steady-state
        # dispatch a single dict hit; ``call_site`` counts the compiler's
        # per-call-site monomorphic inline caches.  jx mode (uncached
        # loader) bypasses all of them to reproduce the J& [31] row of
        # Table 1.
        self.queries = QueryEngine("interp")
        q = self.queries.query
        self._q_dispatch = q("dispatch")
        self._q_body = q("body")
        self._q_init = q("init")
        self._q_retarget = q("retarget")
        self._q_conforms = q("conforms")
        self._q_site = q("call_site")
        # Legacy aliases: the underlying dicts of the queries (cleared in
        # place, never replaced), kept for introspection/tests.
        self._body_cache = self._q_body.table
        self._init_cache = self._q_init.table
        self._retarget_cache = self._q_retarget.table
        self._conforms_cache = self._q_conforms.table
        table.add_edit_listener(self._on_table_edit)
        self._sys = self._build_sys()
        self._max_steps = max_steps
        self._max_depth = DEFAULT_MAX_DEPTH if max_depth is None else max_depth
        self._steps = 0
        self._depth = 0
        #: J&s-level call stack ("A.B.m" frames, deepest last) — attached
        #: to JnsResourceError so resource diagnostics are actionable.
        self.call_stack: List[str] = []
        #: snapshot of the deepest call stack when a RecursionError is
        #: first seen (the stack has unwound by the time run() converts it)
        self._res_stack: Optional[List[str]] = None
        self._eval_dispatch: Dict[type, Callable] = {
            ast.Lit: self._eval_lit,
            ast.This: self._eval_this,
            ast.Var: self._eval_var,
            ast.FieldGet: self._eval_fieldget,
            ast.Call: self._eval_call,
            ast.SysCall: self._eval_sys,
            ast.NewObj: self._eval_new,
            ast.NewArray: self._eval_newarray,
            ast.Index: self._eval_index,
            ast.Unary: self._eval_unary,
            ast.Binary: self._eval_binary,
            ast.Cond: self._eval_cond,
            ast.Cast: self._eval_cast,
            ast.ViewChange: self._eval_view,
            ast.InstanceOf: self._eval_instanceof,
            ast.Assign: self._eval_assign,
        }
        if max_steps is not None:
            # Shadow the unlimited fast path with the counting evaluator
            # only when a budget is set, so fuel tracking costs nothing
            # on ordinary runs.
            self.eval = self._eval_counting  # type: ignore[method-assign]
        if self.line_profile:
            # Same zero-overhead trick for the walker tier's line
            # profiler: recursion goes through the bound attribute, so
            # every executed statement takes one hit.
            self.exec_stmt = self._exec_stmt_profiled  # type: ignore[method-assign]

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
        self.call_stack = []
        self._res_stack = None
        if self.specialized:
            # Ahead-of-time: precompute layouts, read plans, and sealed
            # targets for the locally closed world before execution.
            self.spec.specialize_program()
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
        cumulative step counter and the captured crash stack.  Callers
        that treat fuel exhaustion as a recoverable fault (the chaos
        driver, long-lived services) call this between requests."""
        if self._depth != 0:
            raise RuntimeError("reset_budget called while J&s code is running")
        self._steps = 0
        self.call_stack = []
        self._res_stack = None

    def _enter_boundary(self) -> int:
        """Called when execution enters J&s code from the host (depth 0):
        temporarily raises the Python recursion limit so the J&s depth
        guard — not the host stack — is what bounds recursion.  Returns
        the previous limit for the matching ``_exit_boundary``."""
        old_limit = sys.getrecursionlimit()
        needed = min(
            max(old_limit, self._max_depth * _FRAMES_PER_CALL + 2000),
            _MAX_PY_RECURSION,
        )
        self._res_stack = None
        if needed > old_limit:
            sys.setrecursionlimit(needed)
        return old_limit

    def _boundary_resource_error(self) -> JnsResourceError:
        return JnsResourceError(
            "Python recursion limit exceeded; lower max_depth or rewrite "
            "the program iteratively",
            code="JNS-RES-004",
            jns_stack=self._res_stack or [],
        )

    def new_instance(self, path: Path, args: Tuple) -> Ref:
        rtc = self.loader.rtclass(path)
        if rtc.is_abstract:
            raise JnsRuntimeError(f"cannot instantiate abstract class {path_str(path)}")
        if self._depth == 0:
            old_limit = self._enter_boundary()
            try:
                return self._guarded_new(rtc, path, args)
            except RecursionError:
                raise self._boundary_resource_error() from None
            finally:
                sys.setrecursionlimit(old_limit)
        return self._guarded_new(rtc, path, args)

    def _guarded_new(self, rtc: RTClass, path: Path, args: Tuple) -> Ref:
        self._depth += 1
        self.call_stack.append(f"new {path_str(path)}")
        try:
            if self._depth > self._max_depth:
                raise JnsResourceError(
                    f"J&s call depth limit exceeded ({self._max_depth})",
                    code="JNS-RES-002",
                    jns_stack=list(self.call_stack),
                )
            if self.codegen:
                return self._codegen().allocate(rtc, path, args)
            if self.specialized:
                return self._new_instance_spec(rtc, path, args)
            return self._new_instance(rtc, path, args)
        except RecursionError:
            if self._res_stack is None:
                self._res_stack = list(self.call_stack)
            raise
        finally:
            self._depth -= 1
            self.call_stack.pop()

    def _new_instance(self, rtc: RTClass, path: Path, args: Tuple) -> Ref:
        if TRACER.enabled:
            TRACER.count("alloc")
        inst = Instance(path)
        view = View(path)
        ref = Ref(inst, view)
        inst.view_refs[path] = ref
        frame = {"this": ref}
        for owner, decl in rtc.init_schedule:
            slot = rtc.field_slot[decl.name] if self.sharing else None
            key = (slot, decl.name) if self.sharing else decl.name
            if decl.init is not None:
                if self.compiled:
                    inst.fields[key] = self._compiled_init(decl)(frame)
                else:
                    inst.fields[key] = self.eval(decl.init, frame)
            else:
                inst.fields[key] = default_value(decl.type)
        found = self.loader.find_ctor(rtc, len(args))
        if found is None:
            if args:
                raise JnsRuntimeError(
                    f"no {len(args)}-argument constructor for {path_str(path)}"
                )
        else:
            _, ctor = found
            frame = {"this": ref}
            for param, arg in zip(ctor.params, args):
                frame[param.name] = arg
            if self.compiled:
                self._compiled_body(ctor)(frame)
            else:
                try:
                    self.exec_stmt(ctor.body, frame)
                except _Return:
                    pass
        return ref

    def _new_instance_spec(self, rtc: RTClass, path: Path, args: Tuple) -> Ref:
        """Specialized allocation: a :class:`SlottedInstance` over the
        precomputed layout, initializers written straight into their
        slots, constructor run over a register frame."""
        if TRACER.enabled:
            TRACER.count("alloc")
        cspec = self.spec.class_spec(path)
        inst = SlottedInstance(path, cspec.layout)
        view = View(path)
        ref = Ref(inst, view)
        inst.view_refs[path] = ref
        slots = inst.slots
        for idx, decl, default in cspec.init_plan:
            if decl is not None:
                cb = self._compiled_init(decl)
                frame = [ref]
                frame.extend(cb.pad)
                slots[idx] = cb.run(frame)
            else:
                slots[idx] = default
        found = self.loader.find_ctor(rtc, len(args))
        if found is None:
            if args:
                raise JnsRuntimeError(
                    f"no {len(args)}-argument constructor for {path_str(path)}"
                )
        else:
            _, ctor = found
            cb = self._compiled_body(ctor)
            frame = [ref]
            frame.extend(args)
            frame.extend(cb.pad)
            cb.run(frame)
        return ref

    def call_method(self, ref: Ref, name: str, args: List[Any]) -> Any:
        found = self._lookup_method(ref.view.path, name)
        if found is None:
            raise JnsRuntimeError(
                f"no method {name!r} on {path_str(ref.view.path)}"
            )
        owner, decl = found
        return self._invoke(owner, decl, ref, name, args)

    def _invoke(self, owner: Path, decl, ref: Ref, name: str, args: List[Any]) -> Any:
        """Invoke an already-resolved method (lookup done by the caller —
        ``call_method`` or a compiled call site's inline cache)."""
        if decl.body is None:
            raise JnsRuntimeError(
                f"abstract method {path_str(owner)}.{name} called"
            )
        if len(decl.params) != len(args):
            raise JnsRuntimeError(
                f"{name!r} expects {len(decl.params)} arguments, got {len(args)}"
            )
        if self._depth == 0:
            old_limit = self._enter_boundary()
            try:
                return self._guarded_call(owner, decl, ref, name, args)
            except RecursionError:
                raise self._boundary_resource_error() from None
            finally:
                sys.setrecursionlimit(old_limit)
        return self._guarded_call(owner, decl, ref, name, args)

    def _guarded_call(self, owner, decl, ref: Ref, name: str, args: List[Any]) -> Any:
        self._depth += 1
        self.call_stack.append(f"{path_str(owner)}.{name}")
        try:
            if self._depth > self._max_depth:
                raise JnsResourceError(
                    f"J&s call depth limit exceeded ({self._max_depth})",
                    code="JNS-RES-002",
                    jns_stack=list(self.call_stack),
                )
            if self.codegen:
                fn = self._codegen().method_fn(decl, ref.view.path)
                return fn(ref, *args)
            if self.specialized:
                cb = self._compiled_body(decl)
                rframe = [ref]
                rframe.extend(args)
                rframe.extend(cb.pad)
                return cb.run(rframe)
            frame = {"this": ref}
            for param, arg in zip(decl.params, args):
                frame[param.name] = arg
            if self.compiled:
                return self._compiled_body(decl)(frame)
            try:
                self.exec_stmt(decl.body, frame)
            except _Return as r:
                return r.value
            return None
        except RecursionError:
            if self._res_stack is None:
                self._res_stack = list(self.call_stack)
            raise
        finally:
            self._depth -= 1
            self.call_stack.pop()

    def _invoke_spec(
        self, owner: Path, decl, label: str, cbox: List[Any],
        ref: Ref, name: str, args: List[Any],
    ) -> Any:
        """Invoke a statically-bound (devirtualized) method: the call-site
        label and compiled body are precomputed, so a hot call is a guard,
        a frame build, and the closure."""
        if decl.body is None:
            raise JnsRuntimeError(
                f"abstract method {path_str(owner)}.{name} called"
            )
        if len(decl.params) != len(args):
            raise JnsRuntimeError(
                f"{name!r} expects {len(decl.params)} arguments, got {len(args)}"
            )
        cb = cbox[0]
        if cb is None:
            cb = cbox[0] = self._compiled_body(decl)
        if self._depth == 0:
            old_limit = self._enter_boundary()
            try:
                return self._guarded_call_spec(label, cb, ref, args)
            except RecursionError:
                raise self._boundary_resource_error() from None
            finally:
                sys.setrecursionlimit(old_limit)
        return self._guarded_call_spec(label, cb, ref, args)

    def _guarded_call_spec(self, label: str, cb, ref: Ref, args: List[Any]) -> Any:
        """Mirror of ``_guarded_call`` for devirtualized sites (identical
        depth accounting, stack labels, and resource diagnostics)."""
        self._depth += 1
        self.call_stack.append(label)
        try:
            if self._depth > self._max_depth:
                raise JnsResourceError(
                    f"J&s call depth limit exceeded ({self._max_depth})",
                    code="JNS-RES-002",
                    jns_stack=list(self.call_stack),
                )
            frame = [ref]
            frame.extend(args)
            frame.extend(cb.pad)
            return cb.run(frame)
        except RecursionError:
            if self._res_stack is None:
                self._res_stack = list(self.call_stack)
            raise
        finally:
            self._depth -= 1
            self.call_stack.pop()

    def _codegen_call(self, label: str, fn, ref: Ref, args) -> Any:
        """Mirror of ``_guarded_call_spec`` for emitted (codegen) bodies:
        identical depth accounting, stack labels, and resource
        diagnostics, with the frame build replaced by a plain Python
        call.  Only reachable from inside an already-guarded call, so the
        depth-0 boundary handling lives with the entry points."""
        self._depth += 1
        self.call_stack.append(label)
        try:
            if self._depth > self._max_depth:
                raise JnsResourceError(
                    f"J&s call depth limit exceeded ({self._max_depth})",
                    code="JNS-RES-002",
                    jns_stack=list(self.call_stack),
                )
            return fn(ref, *args)
        except RecursionError:
            if self._res_stack is None:
                self._res_stack = list(self.call_stack)
            raise
        finally:
            self._depth -= 1
            self.call_stack.pop()

    def _codegen(self):
        cg = self._cg
        if cg is None:
            from .codegen import CodegenCompiler

            cg = self._cg = CodegenCompiler(self)
        return cg

    def _make_compiler(self):
        if self.specialized:
            from .compiler import RegisterCompiler

            return RegisterCompiler(self)
        from .compiler import BodyCompiler

        return BodyCompiler(self)

    def _on_table_edit(self, notice) -> None:
        """Eviction on an incremental splice.  Compiled bodies and
        initializers key on member-declaration identity, so the retired
        ids are dropped explicitly — a recycled ``id()`` must never hit a
        stale closure.  The coarse-grained caches (dispatch, retargets,
        conformance, inline call sites) embed types and vtable entries
        from the edited classes transitively; they are cheap warm-up
        state, so they clear in place (counters survive)."""
        for i in notice.retired_ids:
            self._body_cache.pop(i, None)
            self._init_cache.pop(i, None)
        if notice.retired_ids or notice.affected:
            # Emitted codegen bodies capture lazily-resolved callee cells
            # from their compiler, so even a body-only graft drops the
            # whole unit (see runtime/codegen.py's eviction note).
            self._cg = None
        if notice.affected:
            self._q_dispatch.table.clear()
            self._retarget_cache.clear()
            self._conforms_cache.clear()
            self._q_site.table.clear()
            if self.spec is not None:
                self.spec.invalidate_classes(notice.affected)
            self._compiler = None

    def _compiled_body(self, decl):
        """Method/constructor body compiled once to Python closures (a
        :class:`~repro.runtime.compiler.CompiledBody` register unit when
        specialized)."""
        fn = self._q_body.get(id(decl))
        if fn is MISS:
            if self._compiler is None:
                self._compiler = self._make_compiler()
            if self.specialized:
                compiled = self._compiler.compile_method(decl)
            else:
                compiled = self._compiler.compile_body(decl.body)
            fn = self._q_body.put(id(decl), compiled)
        return fn

    def _compiled_init(self, decl):
        fn = self._q_init.get(id(decl))
        if fn is MISS:
            if self._compiler is None:
                self._compiler = self._make_compiler()
            if self.specialized:
                compiled = self._compiler.compile_init(decl.init)
            else:
                compiled = self._compiler.expr(decl.init)
            fn = self._q_init.put(id(decl), compiled)
        return fn

    def _lookup_method(self, path: Path, name: str):
        if PROFILER.enabled:
            PROFILER.dispatch_hit()
        # All modes dispatch through the loader; mode differences live in
        # the loader itself (jx re-synthesizes the table on every call).
        # In cached-loader modes the (view path, method name) dispatch
        # query reuses the precomputed vtable entry — steady-state
        # dispatch is one dict hit, no find_method walk.
        if self.loader.cached:
            key = (path, name)
            found = self._q_dispatch.get(key)
            if found is not MISS:
                if TRACER.enabled:
                    TRACER.count("dispatch.hit")
                return found
            if TRACER.enabled:
                TRACER.count("dispatch.miss")
            return self._q_dispatch.put(
                key, self.loader.rtclass(path).vtable.get(name)
            )
        if TRACER.enabled:
            TRACER.count("dispatch.uncached")
        return self.loader.rtclass(path).vtable.get(name)

    def cache_stats(self) -> CacheStats:
        """Snapshot of this interpreter's query caches plus the loader's
        and the class table's (they all serve this run), and the
        specializer's when the specialized backend is active."""
        engines = [self.queries, self.loader.queries, self.table.queries]
        if self.spec is not None:
            engines.append(self.spec.queries)
            if self.spec._checker is not None:
                engines.append(self.spec._checker.queries)
        return collect_stats(engines)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def exec_stmt(self, s: ast.Stmt, frame: Dict[str, Any]) -> None:
        cls = type(s)
        if cls is ast.Block:
            for inner in s.stmts:
                self.exec_stmt(inner, frame)
            return
        if cls is ast.LocalDecl:
            frame[s.name] = (
                self.eval(s.init, frame) if s.init is not None else default_value(s.type)
            )
            return
        if cls is ast.ExprStmt:
            self.eval(s.expr, frame)
            return
        if cls is ast.If:
            if self.eval(s.cond, frame):
                self.exec_stmt(s.then, frame)
            elif s.els is not None:
                self.exec_stmt(s.els, frame)
            return
        if cls is ast.While:
            while self.eval(s.cond, frame):
                try:
                    self.exec_stmt(s.body, frame)
                except _Break:
                    break
                except _Continue:
                    continue
            return
        if cls is ast.For:
            if s.init is not None:
                self.exec_stmt(s.init, frame)
            while s.cond is None or self.eval(s.cond, frame):
                try:
                    self.exec_stmt(s.body, frame)
                except _Break:
                    break
                except _Continue:
                    pass
                if s.update is not None:
                    self.eval(s.update, frame)
            return
        if cls is ast.Return:
            raise _Return(self.eval(s.value, frame) if s.value is not None else None)
        if cls is ast.Break:
            raise _Break()
        if cls is ast.Continue:
            raise _Continue()
        if cls is ast.Empty:
            return
        raise JnsRuntimeError(f"unknown statement {s!r}")

    def _exec_stmt_profiled(self, s: ast.Stmt, frame: Dict[str, Any]) -> None:
        """Installed over ``exec_stmt`` when ``line_profile`` is set:
        counts one statement entry per executed non-block statement,
        which also anchors anonymous profiler events to this line."""
        cls = type(s)
        if cls is not ast.Block and cls is not ast.Empty and s.pos[0]:
            PROFILER.stmt_hit(s.pos[0])
        Interp.exec_stmt(self, s, frame)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def eval(self, e: ast.Expr, frame: Dict[str, Any]) -> Any:
        return self._eval_dispatch[type(e)](e, frame)

    def _eval_counting(self, e: ast.Expr, frame: Dict[str, Any]) -> Any:
        """Fuel-metered evaluation: installed as ``self.eval`` when a step
        budget is configured."""
        self._steps += 1
        if self._steps > self._max_steps:
            raise JnsResourceError(
                f"step budget exhausted ({self._max_steps} steps)",
                code="JNS-RES-001",
                jns_stack=list(self.call_stack),
            )
        return self._eval_dispatch[type(e)](e, frame)

    def _tick(self, weight: int = 1) -> None:
        """Charge ``weight`` fuel from the compiled backend, whose loop
        bodies do not route through :meth:`eval`."""
        if self._max_steps is None:
            return
        self._steps += weight
        if self._steps > self._max_steps:
            raise JnsResourceError(
                f"step budget exhausted ({self._max_steps} steps)",
                code="JNS-RES-001",
                jns_stack=list(self.call_stack),
            )

    def _eval_lit(self, e: ast.Lit, frame):
        return e.value

    def _eval_this(self, e: ast.This, frame):
        return frame["this"]

    def _eval_var(self, e: ast.Var, frame):
        try:
            return frame[e.name]
        except KeyError:
            raise JnsRuntimeError(f"unbound variable {e.name!r}") from None

    # -- fields ---------------------------------------------------------

    def _eval_fieldget(self, e: ast.FieldGet, frame):
        obj = self.eval(e.obj, frame)
        return self.get_field(obj, e.name)

    def get_field(self, obj: Any, name: str) -> Any:
        if obj is None:
            raise NullDereference(f"null dereference reading field {name!r}")
        if isinstance(obj, list):
            if name == "length":
                return len(obj)
            raise JnsRuntimeError(f"arrays have no field {name!r}")
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
                    raise JnsRuntimeError(
                        f"no field {name!r} on {path_str(view.path)}"
                    )
            # both representations answer load(); the dict fast path keeps
            # the unspecialized backends free of an extra method call
            if type(inst) is Instance:
                v = inst.fields.get(name, _MISSING)
            else:
                v = inst.load(name)
            if v is _MISSING:
                raise JnsRuntimeError(
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
            raise JnsRuntimeError(f"no field {name!r} on {path_str(view.path)}")
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
            f"field {name!r} of {inst!r} is uninitialized in view "
            f"{path_str(obj.view.path)} (duplicated/unshared field)"
        )

    def _retarget_type(self, rtc: RTClass, name: str, obj: Ref) -> Optional[Type]:
        """Evaluated field target type for lazy implicit view changes,
        memoized per (view, field) when it depends only on ``this``."""
        decl_type = rtc.retarget.get(name)
        if decl_type is None:
            return None
        key = (rtc.path, name)
        cached = self._q_retarget.get(key)
        if cached is not MISS:
            return cached
        paths = T.paths_in(decl_type)
        this_only = all(p == ("this",) or p[0] == "this" for p in paths)
        try:
            evaled = self.table.eval_type(
                decl_type, lambda p: self._path_view(p, obj)
            )
        except (ResolveError, JnsError):
            evaled = None
        if this_only and all(p == ("this",) for p in paths):
            self._q_retarget.put(key, evaled)
        return evaled

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
        if not self.sharing:
            if type(inst) is Instance:
                inst.fields[name] = value
            else:
                inst.store(name, value)
            return
        view = obj.view
        rtc = self.loader.rtclass(view.path)
        slot = rtc.field_slot.get(name)
        if slot is None:
            raise JnsRuntimeError(f"no field {name!r} on {path_str(view.path)}")
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
            obj.view = View(view.path, view.masks - {name})

    # -- calls ------------------------------------------------------------

    def _eval_call(self, e: ast.Call, frame):
        obj = self.eval(e.obj, frame)
        if obj is None:
            raise NullDereference(f"null dereference calling {e.name!r}")
        if not isinstance(obj, Ref):
            raise JnsRuntimeError(f"cannot call {e.name!r} on {obj!r}")
        args = [self.eval(a, frame) for a in e.args]
        return self.call_method(obj, e.name, args)

    # -- allocation --------------------------------------------------------

    def _eval_new(self, e: ast.NewObj, frame):
        t = e.type
        if type(t) is ClassType:
            path = t.path
        else:
            evaled = self._eval_type(t, frame).pure()
            if isinstance(evaled, T.IsectType):
                evaled = evaled.parts[0]
            if not isinstance(evaled, ClassType):
                raise JnsRuntimeError(f"cannot instantiate {t!r}")
            path = evaled.path
        args = [self.eval(a, frame) for a in e.args]
        return self.new_instance(path, tuple(args))

    def _eval_newarray(self, e: ast.NewArray, frame):
        length = self.eval(e.length, frame)
        if not isinstance(length, int) or length < 0:
            raise JnsRuntimeError(f"bad array length {length!r}")
        return [default_value(e.elem_type)] * length

    def _eval_index(self, e: ast.Index, frame):
        arr = self.eval(e.arr, frame)
        idx = self.eval(e.idx, frame)
        if arr is None:
            raise NullDereference("null array")
        try:
            if idx < 0:
                raise IndexError
            return arr[idx]
        except IndexError:
            raise JnsRuntimeError(
                f"array index {idx} out of bounds (length {len(arr)})"
            ) from None

    # -- operators ----------------------------------------------------------

    def _eval_unary(self, e: ast.Unary, frame):
        v = self.eval(e.operand, frame)
        if e.op == "!":
            return not v
        return -v

    def _eval_binary(self, e: ast.Binary, frame):
        op = e.op
        if op == "&&":
            return bool(self.eval(e.left, frame)) and bool(self.eval(e.right, frame))
        if op == "||":
            return bool(self.eval(e.left, frame)) or bool(self.eval(e.right, frame))
        a = self.eval(e.left, frame)
        b = self.eval(e.right, frame)
        if op == "+":
            if isinstance(a, str) or isinstance(b, str):
                return to_jstring(a) + to_jstring(b) if not (
                    isinstance(a, str) and isinstance(b, str)
                ) else a + b
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return _jdiv(a, b)
        if op == "%":
            return _jmod(a, b)
        if op == "==":
            return self._equals(a, b)
        if op == "!=":
            return not self._equals(a, b)
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        raise JnsRuntimeError(f"unknown operator {op!r}")

    @staticmethod
    def _equals(a, b) -> bool:
        if isinstance(a, Ref) and isinstance(b, Ref):
            return a.inst is b.inst  # view changes preserve object identity
        if isinstance(a, Ref) or isinstance(b, Ref):
            return False
        if isinstance(a, list) or isinstance(b, list):
            return a is b
        return a == b

    def _eval_cond(self, e: ast.Cond, frame):
        return (
            self.eval(e.then, frame)
            if self.eval(e.cond, frame)
            else self.eval(e.els, frame)
        )

    # -- casts, views, instanceof -------------------------------------------

    def _eval_type(self, t: Type, frame) -> Type:
        this = frame.get("this")
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
        evaluated to non-dependent form)."""
        t = t.pure()
        if TRACER.enabled:
            TRACER.count("conforms.check")
        key = (view.path, t)
        cached = self._q_conforms.get(key)
        if cached is not MISS:
            return cached
        return self._q_conforms.put(key, self._conforms(view.path, t))

    def _conforms(self, path: Path, t: Type) -> bool:
        # Single source of truth on the class table (the specializer's
        # conformance-set queries use the same judgment).
        return self.table.runtime_conforms(path, t)

    def _eval_cast(self, e: ast.Cast, frame):
        v = self.eval(e.expr, frame)
        return self.cast_value(v, e.type, frame)

    def cast_value(self, v, t, frame):
        t_pure = t.pure()
        if isinstance(t_pure, T.PrimType):
            if t_pure == T.INT:
                return int(v)
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
            raise JnsRuntimeError(f"cannot cast array to {t!r}")
        if not isinstance(v, Ref):
            if isinstance(v, str) and t_pure == T.STRING:
                return v
            raise JnsRuntimeError(f"cannot cast {v!r} to {t!r}")
        evaled = self._eval_type(t, frame)
        if not self.conforms(v.view, evaled):
            raise JnsRuntimeError(
                f"ClassCastException: {path_str(v.view.path)} is not a {evaled!r}"
            )
        return v

    def _eval_view(self, e: ast.ViewChange, frame):
        if not self.sharing:
            raise JnsRuntimeError(
                f"view changes require the jns mode (running in {self.mode!r})"
            )
        v = self.eval(e.expr, frame)
        if v is None:
            return None
        if not isinstance(v, Ref):
            raise JnsRuntimeError(f"view change applied to non-object {v!r}")
        target = self._eval_type(e.type, frame)
        if TRACER.enabled:
            TRACER.event(
                "view_change.explicit",
                source=path_str(v.view.path),
                target=str(target),
            )
        adapted = self._adapt(v, target)
        if self.eager_views:
            self.propagate_views(adapted)
        return adapted

    def _adapt(self, ref: Ref, target: Type) -> Ref:
        """The run-time ``view`` function with memoized reference objects
        (Section 6.3)."""
        if PROFILER.enabled:
            PROFILER.view_hit()
        current = ref.view
        t_pure = target.pure()
        masks = target.masks
        if self.conforms(current, t_pure):
            if current.masks == masks:
                if TRACER.enabled:
                    TRACER.count("view_change.noop")
                return ref
            new_view = View(current.path, frozenset(masks))
        else:
            new_view = self.table.view_of(current, target)
        inst = ref.inst
        if self.memoize_views:
            memo = inst.view_refs.get(new_view.path)
            if memo is not None and memo.view.masks == new_view.masks:
                if TRACER.enabled:
                    TRACER.count("view_change.memo_hit")
                return memo
        new_ref = Ref(inst, new_view)
        if self.memoize_views:
            inst.view_refs[new_view.path] = new_ref
        if TRACER.enabled:
            TRACER.count("view_change.new_ref")
        return new_ref

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

    def _eval_instanceof(self, e: ast.InstanceOf, frame):
        v = self.eval(e.expr, frame)
        return self.instanceof_value(v, e.type, frame)

    def instanceof_value(self, v, t, frame):
        if v is None:
            return False
        t_pure = t.pure()
        if isinstance(v, Ref):
            if isinstance(t_pure, T.PrimType):
                return False
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

    # -- assignment -----------------------------------------------------------

    def _eval_assign(self, e: ast.Assign, frame):
        if e.op == "=":
            value = self.eval(e.value, frame)
        else:
            current = self.eval(e.target, frame)
            rhs = self.eval(e.value, frame)
            binop = e.op[0]
            if binop == "+":
                if isinstance(current, str) or isinstance(rhs, str):
                    value = to_jstring(current) + to_jstring(rhs) if not (
                        isinstance(current, str) and isinstance(rhs, str)
                    ) else current + rhs
                else:
                    value = current + rhs
            elif binop == "-":
                value = current - rhs
            elif binop == "*":
                value = current * rhs
            else:
                value = _jdiv(current, rhs)
            if isinstance(current, int) and isinstance(value, float):
                value = int(value)
        target = e.target
        cls = type(target)
        if cls is ast.Var:
            frame[target.name] = value
        elif cls is ast.FieldGet:
            obj = self.eval(target.obj, frame)
            self.set_field(obj, target.name, value)
        elif cls is ast.Index:
            arr = self.eval(target.arr, frame)
            idx = self.eval(target.idx, frame)
            if arr is None:
                raise NullDereference("null array")
            if not 0 <= idx < len(arr):
                raise JnsRuntimeError(
                    f"array index {idx} out of bounds (length {len(arr)})"
                )
            arr[idx] = value
        else:
            raise JnsRuntimeError("invalid assignment target")
        return value

    # -- natives ----------------------------------------------------------------

    def _eval_sys(self, e: ast.SysCall, frame):
        fn = self._sys[e.name]
        args = [self.eval(a, frame) for a in e.args]
        return fn(*args)

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
            "intOf": lambda x: int(x),
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
