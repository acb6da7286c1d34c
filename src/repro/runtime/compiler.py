"""Closure compilation of J&s method bodies.

The paper's implementation *translates* J&s (to Java bytecode via
Polyglot, Section 6) rather than interpreting it; this module is the
analogous backend for the Python substrate: each method body is compiled
once into a tree of Python closures (the standard closure-compilation
technique for fast interpreters), eliminating the per-node dispatch of
the tree walker.  Semantics are shared with the interpreter — field
access, dispatch, views, and the Sys natives all go through the same
:class:`~repro.runtime.interp.Interp` entry points — so the two
execution strategies agree by construction on everything but speed.

Enabled with ``Program.interp(compiled=True)`` (any mode).

:class:`RegisterCompiler` extends this with the ahead-of-time
specializations of :mod:`repro.runtime.specialize`: bodies run over
fixed-size *list* frames (locals and parameters get integer registers;
``this`` is register 0, parameters fill 1..n), field accesses go through
per-site inline caches over the slotted object layouts, and call sites
whose method name is sealed in the locally closed world are bound
statically.  Enabled with ``Program.interp(specialized=True)``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..lang import types as T
from ..lang.classtable import path_str
from ..lang.types import ClassType
from ..obs import TRACER
from ..obs import PROFILER
from ..source import ast
from .values import (
    ABSENT,
    JnsRuntimeError,
    NullDereference,
    Ref,
    UninitializedFieldError,
    default_value,
)

Frame = Dict[str, Any]
ExprFn = Callable[[Frame], Any]
StmtFn = Callable[[Frame], None]


class _Return(Exception):
    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class BodyCompiler:
    """Compiles statements/expressions of one program against a live
    interpreter (which supplies field/dispatch/view semantics)."""

    def __init__(self, interp) -> None:
        self.interp = interp

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def compile_body(self, body: ast.Block) -> Callable[[Frame], Any]:
        if TRACER.enabled:
            with TRACER.span("compile"):
                stmt = self.stmt(body)
        else:
            stmt = self.stmt(body)

        def run(frame: Frame) -> Any:
            try:
                stmt(frame)
            except _Return as r:
                return r.value
            return None

        return run

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def stmt(self, s: ast.Stmt) -> StmtFn:
        fn = self._compile_stmt(s)
        if (
            self.interp.line_profile
            and type(s) is not ast.Block
            and type(s) is not ast.Empty
            and s.pos[0]
        ):
            # Per-statement hit wrapper, bound at compile time: profiled
            # interpreters compile fresh bodies, so unprofiled runs never
            # see it (same discipline as the fuel tick).
            line = s.pos[0]
            hit = PROFILER.stmt_hit

            def run_profiled(frame: Frame) -> None:
                hit(line)
                fn(frame)

            return run_profiled
        return fn

    def _compile_stmt(self, s: ast.Stmt) -> StmtFn:
        cls = type(s)
        if cls is ast.Block:
            stmts = tuple(self.stmt(x) for x in s.stmts)
            if len(stmts) == 1:
                return stmts[0]

            def run_block(frame: Frame) -> None:
                for fn in stmts:
                    fn(frame)

            return run_block
        if cls is ast.LocalDecl:
            name = s.name
            if s.init is not None:
                init = self.expr(s.init)

                def run_decl(frame: Frame) -> None:
                    frame[name] = init(frame)

                return run_decl
            from .values import default_value

            default = default_value(s.type)

            def run_decl_default(frame: Frame) -> None:
                frame[name] = default

            return run_decl_default
        if cls is ast.ExprStmt:
            fn = self.expr(s.expr)

            def run_expr(frame: Frame) -> None:
                fn(frame)

            return run_expr
        if cls is ast.If:
            cond = self.expr(s.cond)
            then = self.stmt(s.then)
            els = self.stmt(s.els) if s.els is not None else None

            def run_if(frame: Frame) -> None:
                if cond(frame):
                    then(frame)
                elif els is not None:
                    els(frame)

            return run_if
        if cls is ast.While:
            cond = self.expr(s.cond)
            body = self.stmt(s.body)
            # Compiled closures bypass Interp.eval, so a finite step
            # budget is charged per loop iteration instead.  The hook is
            # bound at compile time: unmetered interpreters pay nothing.
            tick = self.interp._tick if self.interp._max_steps is not None else None

            def run_while(frame: Frame) -> None:
                while cond(frame):
                    if tick is not None:
                        tick()
                    try:
                        body(frame)
                    except _Break:
                        break
                    except _Continue:
                        continue

            return run_while
        if cls is ast.For:
            init = self.stmt(s.init) if s.init is not None else None
            cond = self.expr(s.cond) if s.cond is not None else None
            update = self.expr(s.update) if s.update is not None else None
            body = self.stmt(s.body)
            tick = self.interp._tick if self.interp._max_steps is not None else None

            def run_for(frame: Frame) -> None:
                if init is not None:
                    init(frame)
                while cond is None or cond(frame):
                    if tick is not None:
                        tick()
                    try:
                        body(frame)
                    except _Break:
                        break
                    except _Continue:
                        pass
                    if update is not None:
                        update(frame)

            return run_for
        if cls is ast.Return:
            if s.value is None:

                def run_return_void(frame: Frame) -> None:
                    raise _Return(None)

                return run_return_void
            value = self.expr(s.value)

            def run_return(frame: Frame) -> None:
                raise _Return(value(frame))

            return run_return
        if cls is ast.Break:

            def run_break(frame: Frame) -> None:
                raise _Break()

            return run_break
        if cls is ast.Continue:

            def run_continue(frame: Frame) -> None:
                raise _Continue()

            return run_continue
        if cls is ast.Empty:
            return lambda frame: None
        raise JnsRuntimeError(f"cannot compile statement {s!r}")

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def expr(self, e: ast.Expr) -> ExprFn:
        cls = type(e)
        interp = self.interp
        if cls is ast.Lit:
            value = e.value
            return lambda frame: value
        if cls is ast.This:
            return lambda frame: frame["this"]
        if cls is ast.Var:
            name = e.name
            return lambda frame: frame[name]
        if cls is ast.FieldGet:
            obj = self.expr(e.obj)
            name = e.name
            get_field = interp.get_field
            return lambda frame: get_field(obj(frame), name)
        if cls is ast.Call:
            obj = self.expr(e.obj)
            name = e.name
            args = tuple(self.expr(a) for a in e.args)
            call = interp.call_method
            if not interp.loader.cached:
                # jx mode: no run-time caching anywhere, including here.

                def run_call(frame: Frame):
                    receiver = obj(frame)
                    if receiver is None:
                        raise NullDereference(f"null dereference calling {name!r}")
                    if not isinstance(receiver, Ref):
                        raise JnsRuntimeError(
                            f"cannot call {name!r} on {receiver!r}"
                        )
                    return call(receiver, name, [a(frame) for a in args])

                return run_call
            # Monomorphic per-call-site inline cache: remember the last
            # (view path -> resolved method) so the common same-receiver-
            # class case skips even the dispatch query.  Compared with
            # ``==`` (not ``is``): equal-but-not-identical path tuples
            # occur.  ``site_q`` supplies hit/miss counters and the live
            # enabled flag (the cache degrades to plain dispatch when
            # caching is globally disabled).
            invoke = interp._invoke
            lookup = interp._lookup_method
            site_q = interp._q_site
            site: List[Any] = [None, None, None]  # view path, owner, decl

            def run_call_ic(frame: Frame):
                receiver = obj(frame)
                if receiver is None:
                    raise NullDereference(f"null dereference calling {name!r}")
                if not isinstance(receiver, Ref):
                    raise JnsRuntimeError(f"cannot call {name!r} on {receiver!r}")
                vp = receiver.view.path
                if site[0] == vp:
                    site_q.hits += 1
                    if TRACER.enabled:
                        TRACER.count("dispatch.ic_hit")
                    return invoke(
                        site[1], site[2], receiver, name, [a(frame) for a in args]
                    )
                site_q.misses += 1
                if TRACER.enabled:
                    TRACER.count("dispatch.ic_miss")
                found = lookup(vp, name)
                if found is None:
                    raise JnsRuntimeError(f"no method {name!r} on {path_str(vp)}")
                owner, decl = found
                if site_q._enabled:
                    site[0], site[1], site[2] = vp, owner, decl
                else:
                    site[0] = None
                return invoke(owner, decl, receiver, name, [a(frame) for a in args])

            return run_call_ic
        if cls is ast.SysCall:
            fn = interp._sys[e.name]
            args = tuple(self.expr(a) for a in e.args)
            if not args:
                return lambda frame: fn()
            if len(args) == 1:
                a0 = args[0]
                return lambda frame: fn(a0(frame))
            return lambda frame: fn(*[a(frame) for a in args])
        if cls is ast.NewObj:
            new_type = e.type
            args = tuple(self.expr(a) for a in e.args)
            new_instance = interp.new_instance
            if type(new_type) is ClassType:
                path = new_type.path

                def run_new_static(frame: Frame):
                    return new_instance(path, tuple(a(frame) for a in args))

                return run_new_static
            eval_type = interp._eval_type

            def run_new(frame: Frame):
                evaled = eval_type(new_type, frame).pure()
                if isinstance(evaled, T.IsectType):
                    evaled = evaled.parts[0]
                return new_instance(evaled.path, tuple(a(frame) for a in args))

            return run_new
        if cls is ast.NewArray:
            from .values import default_value

            default = default_value(e.elem_type)
            length = self.expr(e.length)

            def run_new_array(frame: Frame):
                n = length(frame)
                if not isinstance(n, int) or n < 0:
                    raise JnsRuntimeError(f"bad array length {n!r}")
                return [default] * n

            return run_new_array
        if cls is ast.Index:
            arr = self.expr(e.arr)
            idx = self.expr(e.idx)

            def run_index(frame: Frame):
                a = arr(frame)
                i = idx(frame)
                if a is None:
                    raise NullDereference("null array")
                if not 0 <= i < len(a):
                    raise JnsRuntimeError(
                        f"array index {i} out of bounds (length {len(a)})"
                    )
                return a[i]

            return run_index
        if cls is ast.Unary:
            operand = self.expr(e.operand)
            if e.op == "!":
                return lambda frame: not operand(frame)
            return lambda frame: -operand(frame)
        if cls is ast.Binary:
            return self._binary(e)
        if cls is ast.Cond:
            cond = self.expr(e.cond)
            then = self.expr(e.then)
            els = self.expr(e.els)
            return lambda frame: then(frame) if cond(frame) else els(frame)
        if cls is ast.Cast:
            return self._cast(e)
        if cls is ast.ViewChange:
            inner = self.expr(e.expr)
            target = e.type
            if not interp.sharing:
                mode = interp.mode

                def run_view_unsupported(frame: Frame):
                    raise JnsRuntimeError(
                        f"view changes require the jns mode (running in {mode!r})"
                    )

                return run_view_unsupported
            eval_type = interp._eval_type
            adapt = interp._adapt

            def run_view(frame: Frame):
                v = inner(frame)
                if v is None:
                    return None
                if not isinstance(v, Ref):
                    raise JnsRuntimeError(f"view change applied to non-object {v!r}")
                target_t = eval_type(target, frame)
                if TRACER.enabled:
                    TRACER.event(
                        "view_change.explicit",
                        source=path_str(v.view.path),
                        target=str(target_t),
                    )
                result = adapt(v, target_t)
                if interp.eager_views:
                    interp.propagate_views(result)
                return result

            return run_view
        if cls is ast.InstanceOf:
            inner = self.expr(e.expr)
            t = e.type
            instanceof_value = interp.instanceof_value
            return lambda frame: instanceof_value(inner(frame), t, frame)
        if cls is ast.Assign:
            return self._assign(e)
        raise JnsRuntimeError(f"cannot compile expression {e!r}")

    # ------------------------------------------------------------------

    def _binary(self, e: ast.Binary) -> ExprFn:
        from .interp import _jdiv, _jmod, to_jstring

        op = e.op
        left = self.expr(e.left)
        right = self.expr(e.right)
        if op == "&&":
            return lambda frame: bool(left(frame)) and bool(right(frame))
        if op == "||":
            return lambda frame: bool(left(frame)) or bool(right(frame))
        if op == "+":

            def run_add(frame: Frame):
                a = left(frame)
                b = right(frame)
                if isinstance(a, str) or isinstance(b, str):
                    if isinstance(a, str) and isinstance(b, str):
                        return a + b
                    return to_jstring(a) + to_jstring(b)
                return a + b

            return run_add
        if op == "-":
            return lambda frame: left(frame) - right(frame)
        if op == "*":
            return lambda frame: left(frame) * right(frame)
        if op == "/":
            return lambda frame: _jdiv(left(frame), right(frame))
        if op == "%":
            return lambda frame: _jmod(left(frame), right(frame))
        equals = self.interp._equals
        if op == "==":
            return lambda frame: equals(left(frame), right(frame))
        if op == "!=":
            return lambda frame: not equals(left(frame), right(frame))
        if op == "<":
            return lambda frame: left(frame) < right(frame)
        if op == "<=":
            return lambda frame: left(frame) <= right(frame)
        if op == ">":
            return lambda frame: left(frame) > right(frame)
        if op == ">=":
            return lambda frame: left(frame) >= right(frame)
        raise JnsRuntimeError(f"unknown operator {op!r}")

    def _cast(self, e: ast.Cast) -> ExprFn:
        interp = self.interp
        inner = self.expr(e.expr)
        t = e.type
        t_pure = t.pure()
        if isinstance(t_pure, T.PrimType):
            if t_pure == T.INT:
                return lambda frame: int(inner(frame))
            if t_pure == T.DOUBLE:
                return lambda frame: float(inner(frame))
            if t_pure == T.BOOLEAN:
                return lambda frame: bool(inner(frame))
            return inner
        cast_value = interp.cast_value
        return lambda frame: cast_value(inner(frame), t, frame)

    def _load(self, target: ast.Expr) -> ExprFn:
        return self.expr(target)

    def _store(self, target: ast.Expr) -> Callable[[Frame, Any], None]:
        interp = self.interp
        if type(target) is ast.Var:
            name = target.name

            def store_var(frame: Frame, v: Any) -> None:
                frame[name] = v

            return store_var
        if type(target) is ast.FieldGet:
            obj = self.expr(target.obj)
            name = target.name
            set_field = interp.set_field

            def store_field(frame: Frame, v: Any) -> None:
                set_field(obj(frame), name, v)

            return store_field
        if type(target) is ast.Index:
            arr = self.expr(target.arr)
            idx = self.expr(target.idx)

            def store_index(frame: Frame, v: Any) -> None:
                a = arr(frame)
                i = idx(frame)
                if a is None:
                    raise NullDereference("null array")
                if not 0 <= i < len(a):
                    raise JnsRuntimeError(
                        f"array index {i} out of bounds (length {len(a)})"
                    )
                a[i] = v

            return store_index
        raise JnsRuntimeError("invalid assignment target")

    def _assign(self, e: ast.Assign) -> ExprFn:
        store = self._store(e.target)
        if e.op == "=":
            value = self.expr(e.value)

            def run_assign(frame: Frame):
                v = value(frame)
                store(frame, v)
                return v

            return run_assign
        # compound: mirror the interpreter's semantics (incl. Java's
        # truncate-back-to-int on int /= and similar)
        from .interp import _jdiv, to_jstring

        load = self._load(e.target)
        rhs = self.expr(e.value)
        binop = e.op[0]

        def run_compound(frame: Frame):
            current = load(frame)
            r = rhs(frame)
            if binop == "+":
                if isinstance(current, str) or isinstance(r, str):
                    if isinstance(current, str) and isinstance(r, str):
                        v = current + r
                    else:
                        v = to_jstring(current) + to_jstring(r)
                else:
                    v = current + r
            elif binop == "-":
                v = current - r
            elif binop == "*":
                v = current * r
            else:
                v = _jdiv(current, r)
            if isinstance(current, int) and isinstance(v, float):
                v = int(v)
            store(frame, v)
            return v

        return run_compound


# ---------------------------------------------------------------------------
# register-frame compilation (ahead-of-time specialization)
# ---------------------------------------------------------------------------


class CompiledBody:
    """A register-compiled unit: the entry closure, the frame size, and
    the precomputed padding row appended after the positionally-seeded
    registers (``this`` + parameters) so frame construction is two list
    extends, no per-call arithmetic."""

    __slots__ = ("run", "nregs", "pad")

    def __init__(self, run: Callable, nregs: int, nseed: int) -> None:
        self.run = run
        self.nregs = nregs
        self.pad = (ABSENT,) * (nregs - nseed)


class _RegView:
    """Dict-like adapter over a register frame for the cold dependent-type
    paths (``eval_type`` / ``cast_value`` / ``instanceof_value``), which
    resolve frame variables by name via ``.get``.  An allocated but
    unassigned register reads as absent, matching the dict frames."""

    __slots__ = ("names", "regs")

    def __init__(self, names: Dict[str, int], regs: List[Any]) -> None:
        self.names = names
        self.regs = regs

    def get(self, name: str, default: Any = None) -> Any:
        i = self.names.get(name)
        if i is None:
            return default
        v = self.regs[i]
        return default if v is ABSENT else v


class RegisterCompiler(BodyCompiler):
    """Body compiler over fixed-size list frames, with specialized field
    and call sites.

    Register allocation is demand-driven during compilation (J&s locals
    are function-scoped with last-assignment-wins, and the resolver has
    already rewritten bare field names to ``this.f``, so every ``Var`` is
    a genuine local): ``this`` is register 0, parameters take 1..n in
    declaration order (a duplicated parameter name maps to its last
    occurrence, as in dict frames), and each further name gets the next
    free register on first mention.  Closures capture integer indices, so
    the frame is just ``[this, *args, ABSENT…]``.

    Everything frame-shape-agnostic (blocks, loops, operators, arrays,
    Sys natives, fuel ticks) is inherited from :class:`BodyCompiler`
    unchanged — the overrides below cover variable access, the slotted
    field accesses, devirtualized calls, and the dependent-type sites
    that need a by-name view of the frame."""

    def __init__(self, interp) -> None:
        super().__init__(interp)
        self.spec = interp.spec
        self.names: Dict[str, int] = {}
        self._next = 0

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def _reg(self, name: str) -> int:
        i = self.names.get(name)
        if i is None:
            i = self.names[name] = self._next
            self._next += 1
        return i

    def compile_method(self, decl) -> CompiledBody:
        """Compile a method or constructor declaration (anything with
        ``params`` and a ``body`` block) to a register-frame unit."""
        self.names = {"this": 0}
        self._next = 1 + len(decl.params)
        for i, p in enumerate(decl.params):
            self.names[p.name] = i + 1
        run = self.compile_body(decl.body)
        return CompiledBody(run, self._next, 1 + len(decl.params))

    def compile_init(self, expr: ast.Expr) -> CompiledBody:
        """Compile a field initializer expression (frame: ``this`` only)."""
        self.names = {"this": 0}
        self._next = 1
        if TRACER.enabled:
            with TRACER.span("compile"):
                fn = self.expr(expr)
        else:
            fn = self.expr(expr)
        return CompiledBody(fn, self._next, 1)

    # ------------------------------------------------------------------
    # statements / stores
    # ------------------------------------------------------------------

    def _compile_stmt(self, s: ast.Stmt) -> StmtFn:
        if type(s) is ast.LocalDecl:
            i = self._reg(s.name)
            if s.init is not None:
                init = self.expr(s.init)

                def run_decl(frame: List[Any]) -> None:
                    frame[i] = init(frame)

                return run_decl
            default = default_value(s.type)

            def run_decl_default(frame: List[Any]) -> None:
                frame[i] = default

            return run_decl_default
        return super()._compile_stmt(s)

    def _store(self, target: ast.Expr) -> Callable[[List[Any], Any], None]:
        if type(target) is ast.Var:
            i = self._reg(target.name)

            def store_var(frame: List[Any], v: Any) -> None:
                frame[i] = v

            return store_var
        if type(target) is ast.FieldGet:
            return self._field_store(target)
        return super()._store(target)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def expr(self, e: ast.Expr) -> ExprFn:
        cls = type(e)
        if cls is ast.This:
            i = self._reg("this")
            return lambda frame: frame[i]
        if cls is ast.Var:
            i = self._reg(e.name)
            name = e.name

            def run_var(frame: List[Any]) -> Any:
                v = frame[i]
                if v is ABSENT:
                    raise JnsRuntimeError(f"unbound variable {name!r}")
                return v

            return run_var
        if cls is ast.FieldGet:
            return self._field_read(e)
        if cls is ast.Call:
            devirt = self._devirt_call(e)
            if devirt is not None:
                return devirt
            return super().expr(e)
        if cls is ast.NewObj and type(e.type) is not ClassType:
            new_type = e.type
            args = tuple(self.expr(a) for a in e.args)
            interp = self.interp
            eval_type = interp._eval_type
            new_instance = interp.new_instance
            names = self.names

            def run_new_dep(frame: List[Any]):
                evaled = eval_type(new_type, _RegView(names, frame)).pure()
                if isinstance(evaled, T.IsectType):
                    evaled = evaled.parts[0]
                if not isinstance(evaled, ClassType):
                    raise JnsRuntimeError(f"cannot instantiate {new_type!r}")
                return new_instance(evaled.path, tuple(a(frame) for a in args))

            return run_new_dep
        if cls is ast.Cast and not isinstance(e.type.pure(), T.PrimType):
            inner = self.expr(e.expr)
            t = e.type
            cast_value = self.interp.cast_value
            names = self.names
            return lambda frame: cast_value(inner(frame), t, _RegView(names, frame))
        if cls is ast.ViewChange and self.interp.sharing:
            inner = self.expr(e.expr)
            target = e.type
            interp = self.interp
            eval_type = interp._eval_type
            adapt = interp._adapt
            names = self.names
            static = self._static_view_target(target)
            if static is not None:
                # Non-dependent target: the type evaluated once at
                # compile time and the no-op source set is proven, so a
                # hot view change (including call receivers like
                # ``((view T)e).m()``) skips the per-call ``_RegView``
                # adapter and, when the source view is in the set, the
                # whole runtime ``view`` call.
                evaled, noops = static

                def run_view_static(frame: List[Any]):
                    v = inner(frame)
                    if v is None:
                        return None
                    if not isinstance(v, Ref):
                        raise JnsRuntimeError(
                            f"view change applied to non-object {v!r}"
                        )
                    if TRACER.enabled:
                        TRACER.event(
                            "view_change.explicit",
                            source=path_str(v.view.path),
                            target=str(evaled),
                        )
                    w = v.view
                    if w.path in noops and not w.masks:
                        if TRACER.enabled:
                            TRACER.count("view_change.elided")
                        if PROFILER.enabled:
                            PROFILER.view_hit()
                        result = v
                    else:
                        result = adapt(v, evaled)
                    if interp.eager_views:
                        interp.propagate_views(result)
                    return result

                return run_view_static

            def run_view(frame: List[Any]):
                v = inner(frame)
                if v is None:
                    return None
                if not isinstance(v, Ref):
                    raise JnsRuntimeError(
                        f"view change applied to non-object {v!r}"
                    )
                target_t = eval_type(target, _RegView(names, frame))
                if TRACER.enabled:
                    TRACER.event(
                        "view_change.explicit",
                        source=path_str(v.view.path),
                        target=str(target_t),
                    )
                result = adapt(v, target_t)
                if interp.eager_views:
                    interp.propagate_views(result)
                return result

            return run_view
        if cls is ast.InstanceOf:
            inner = self.expr(e.expr)
            t = e.type
            instanceof_value = self.interp.instanceof_value
            names = self.names
            return lambda frame: instanceof_value(
                inner(frame), t, _RegView(names, frame)
            )
        return super().expr(e)

    # ------------------------------------------------------------------
    # specialized field access
    # ------------------------------------------------------------------

    def _field_read(self, e: ast.FieldGet) -> ExprFn:
        obj = self.expr(e.obj)
        name = e.name
        interp = self.interp
        spec = self.spec
        get_field = interp.get_field
        if not interp.sharing:
            # Non-sharing modes: a direct slot hit or the generic path
            # (which also owns the unknown-field diagnostics and the
            # spilled ``extra`` keys of unchecked java-mode programs).
            site: List[Any] = [None, None]  # view path, slot index

            def read_plain(frame: List[Any]):
                o = obj(frame)
                if o.__class__ is not Ref:
                    return get_field(o, name)
                vp = o.view.path
                if site[0] != vp:
                    cspec = spec.class_spec(vp)
                    site[0] = vp
                    site[1] = cspec.slot_of.get(name)
                i = site[1]
                if i is None:
                    return get_field(o, name)
                v = o.inst.slots[i]
                if v is ABSENT:
                    return get_field(o, name)
                return v

            return read_plain
        adapt = interp._adapt
        retarget_dyn = interp._retarget_type
        rtclass = interp.loader.rtclass
        # view path, slot index, read plan — monomorphic per-site cache
        site = [None, -1, None]

        def read_shared(frame: List[Any]):
            o = obj(frame)
            if o.__class__ is not Ref:
                return get_field(o, name)
            view = o.view
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
            vp = view.path
            if site[0] != vp:
                cspec = spec.class_spec(vp)
                i = cspec.slot_of.get(name)
                if i is None:
                    raise JnsRuntimeError(
                        f"no field {name!r} on {path_str(vp)}"
                    )
                site[0], site[1], site[2] = vp, i, cspec.read_plan.get(name)
            v = o.inst.slots[site[1]]
            if v is ABSENT:
                # uninitialized duplicated field: take the full generic
                # read (sharing-group fallback + its diagnostics)
                return get_field(o, name)
            plan = site[2]
            if plan is None or v.__class__ is not Ref:
                return v
            tag = plan[0]
            if tag == 0:  # PLAN_NOOP
                w = v.view
                if w.path in plan[1] and not w.masks:
                    if PROFILER.enabled:
                        PROFILER.view_hit()
                    return v
                return adapt(v, plan[2])
            if tag == 1:  # PLAN_ADAPT
                return adapt(v, plan[1])
            # PLAN_DYNAMIC: target depends on runtime state
            target = retarget_dyn(rtclass(vp), name, o)
            if target is not None:
                return adapt(v, target)
            return v

        return read_shared

    def _field_store(self, target: ast.FieldGet) -> Callable[[List[Any], Any], None]:
        obj = self.expr(target.obj)
        name = target.name
        interp = self.interp
        spec = self.spec
        set_field = interp.set_field
        if not interp.sharing:
            site: List[Any] = [None, None]

            def store_plain(frame: List[Any], value: Any) -> None:
                o = obj(frame)
                if o.__class__ is not Ref:
                    set_field(o, name, value)  # raises the generic errors
                    return
                vp = o.view.path
                if site[0] != vp:
                    cspec = spec.class_spec(vp)
                    site[0] = vp
                    site[1] = cspec.slot_of.get(name)
                i = site[1]
                if i is None:
                    set_field(o, name, value)  # unknown name: extra dict
                    return
                o.inst.slots[i] = value

            return store_plain
        from ..lang.types import View

        site = [None, -1]

        def store_shared(frame: List[Any], value: Any) -> None:
            o = obj(frame)
            if o.__class__ is not Ref:
                set_field(o, name, value)
                return
            view = o.view
            vp = view.path
            if site[0] != vp:
                cspec = spec.class_spec(vp)
                i = cspec.slot_of.get(name)
                if i is None:
                    raise JnsRuntimeError(
                        f"no field {name!r} on {path_str(vp)}"
                    )
                site[0], site[1] = vp, i
            o.inst.slots[site[1]] = value
            if name in view.masks:
                # R-SET removes the mask (see Interp.set_field)
                if TRACER.enabled:
                    TRACER.event(
                        "mask.removed", field=name, view=path_str(vp)
                    )
                o.view = View(vp, view.masks - {name})

        return store_shared

    # ------------------------------------------------------------------
    # devirtualized calls
    # ------------------------------------------------------------------

    def _static_view_target(self, target):
        """``(evaled type, no-op source path set)`` when the view-change
        target is non-dependent and statically evaluable, else ``None``
        (fall back to per-call evaluation over a ``_RegView``)."""
        if T.paths_in(target):
            return None
        from ..lang.classtable import JnsError, ResolveError

        def _no_paths(p):
            raise ResolveError(f"unexpected dependent path {'.'.join(p)}")

        try:
            evaled = self.interp.table.eval_type(target, _no_paths)
        except (ResolveError, JnsError):
            return None
        return evaled, self.spec.noop_view_paths(evaled)

    def _devirt_call(self, e: ast.Call) -> Optional[ExprFn]:
        """Statically bind the call when the method name is sealed in the
        locally closed world — or, failing that, monomorphic for the
        receiver's checker-annotated static type.  The receiver guard
        keeps the binding sound on unchecked programs: receivers outside
        the proven path set take the generic path (which raises the usual
        no-method error)."""
        target = self.spec.static_target_for(
            e.name, getattr(e.obj, "rtype", None)
        )
        if target is None:
            return None
        owner, decl, valid = target
        name = e.name
        obj = self.expr(e.obj)
        args = tuple(self.expr(a) for a in e.args)
        self.spec.note_devirtualized()
        interp = self.interp
        label = path_str(owner) + "." + name
        invoke = interp._invoke_spec
        call = interp.call_method
        cbox: List[Any] = [None]  # compiled body, resolved on first call

        def run_devirt(frame: List[Any]):
            receiver = obj(frame)
            if receiver is None:
                raise NullDereference(f"null dereference calling {name!r}")
            if receiver.__class__ is not Ref:
                raise JnsRuntimeError(f"cannot call {name!r} on {receiver!r}")
            if receiver.view.path in valid:
                if TRACER.enabled:
                    TRACER.count("dispatch.devirt_hit")
                return invoke(
                    owner, decl, label, cbox, receiver, name,
                    [a(frame) for a in args],
                )
            return call(receiver, name, [a(frame) for a in args])

        return run_devirt
