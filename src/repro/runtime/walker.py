"""The tree-walking evaluator: the reference semantics of J&s.

The walker backend (``backend="walker"``, and ``jx`` mode on any
backend) evaluates method bodies by walking the AST: one Python dispatch
per node, exceptions for ``return``, ``break`` and ``continue``, dict
frames for locals.  Its methods belong to :class:`~repro.runtime.interp.Interp`
but live here, because a ``codegen`` run never executes them: the first
walker interpreter loads this module, which adds every method of
:class:`Walker` to ``Interp`` (see ``interp._walker``).  A process that
only runs emitted code never compiles this file.

What the walker shares with emitted code stays in ``interp.py``: field
reads and writes (``get_field``/``set_field``), type evaluation, casts,
``instanceof``, view changes (``_adapt``) and the natives.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..lang import types as T
from ..lang.classtable import path_str
from ..lang.types import ClassType, Path, intern_view
from ..obs import PROFILER, TRACER
from ..source import ast
from .interp import _jdiv, _jmod, to_jstring
from .loader import RTClass
from .values import (
    ArityError,
    ArrayError,
    CastError,
    Instance,
    JnsRuntimeError,
    NoSuchName,
    NullDereference,
    Ref,
    default_value,
)


class _Return(Exception):
    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


def attach(interp) -> None:
    """Make a new walker interpreter ready to evaluate: its per-node
    dispatch table, and the fuel-metered ``eval`` or line-counting
    ``exec_stmt`` in place of the plain ones when a step budget or the
    line profiler asks for them (so neither costs anything otherwise)."""
    interp._eval_dispatch = {
        ast.Lit: interp._eval_lit,
        ast.This: interp._eval_this,
        ast.Var: interp._eval_var,
        ast.FieldGet: interp._eval_fieldget,
        ast.Call: interp._eval_call,
        ast.SysCall: interp._eval_sys,
        ast.NewObj: interp._eval_new,
        ast.NewArray: interp._eval_newarray,
        ast.Index: interp._eval_index,
        ast.Unary: interp._eval_unary,
        ast.Binary: interp._eval_binary,
        ast.Cond: interp._eval_cond,
        ast.Cast: interp._eval_cast,
        ast.ViewChange: interp._eval_view,
        ast.InstanceOf: interp._eval_instanceof,
        ast.Assign: interp._eval_assign,
    }
    if interp._max_steps is not None:
        interp.eval = interp._eval_counting
    if interp.line_profile:
        # recursion goes through the bound attribute, so every executed
        # statement takes one hit
        interp.exec_stmt = interp._exec_stmt_profiled


class Walker:
    """The walker's methods of :class:`~repro.runtime.interp.Interp`
    (``self`` is the interpreter); never instantiated."""

    def _guarded_new(self, rtc: RTClass, path: Path, args: Tuple) -> Ref:
        depth = self._depth + 1
        if depth > self._max_depth:
            raise self._depth_error()
        self._depth = depth
        try:
            return self._new_instance(rtc, path, args)
        finally:
            self._depth = depth - 1

    def _new_instance(self, rtc: RTClass, path: Path, args: Tuple) -> Ref:
        if TRACER.enabled:
            TRACER.count("alloc")
        inst = Instance(path)
        view = intern_view(path)
        ref = Ref(inst, view)
        inst.view_refs[path] = ref
        frame = {"this": ref}
        for owner, decl in rtc.init_schedule:
            slot = rtc.field_slot[decl.name] if self.sharing else None
            key = (slot, decl.name) if self.sharing else decl.name
            if decl.init is not None:
                inst.fields[key] = self.eval(decl.init, frame)
            else:
                inst.fields[key] = default_value(decl.type)
        found = self.loader.find_ctor(rtc, len(args))
        if found is None:
            if args:
                raise ArityError(
                    f"no {len(args)}-argument constructor for {path_str(path)}"
                )
        else:
            _, ctor = found
            frame = {"this": ref}
            for param, arg in zip(ctor.params, args):
                frame[param.name] = arg
            try:
                self.exec_stmt(ctor.body, frame)
            except _Return:
                pass
        return ref

    def _guarded_call(self, owner, decl, ref: Ref, name: str, args: List[Any]) -> Any:
        depth = self._depth + 1
        if depth > self._max_depth:
            raise self._depth_error()
        self._depth = depth
        try:
            frame = {"this": ref}
            for param, arg in zip(decl.params, args):
                frame[param.name] = arg
            try:
                self.exec_stmt(decl.body, frame)
            except _Return as r:
                return r.value
            return None
        finally:
            self._depth = depth - 1

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
        Walker.exec_stmt(self, s, frame)

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
            raise self._fuel_error()
        return self._eval_dispatch[type(e)](e, frame)

    def _eval_lit(self, e: ast.Lit, frame):
        return e.value

    def _eval_this(self, e: ast.This, frame):
        return frame["this"]

    def _eval_var(self, e: ast.Var, frame):
        try:
            return frame[e.name]
        except KeyError:
            raise NoSuchName(f"unbound variable {e.name!r}") from None

    def _eval_fieldget(self, e: ast.FieldGet, frame):
        obj = self.eval(e.obj, frame)
        return self.get_field(obj, e.name)

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
            raise ArrayError(f"bad array length {length!r}")
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
            raise ArrayError(
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

    def _eval_cond(self, e: ast.Cond, frame):
        return (
            self.eval(e.then, frame)
            if self.eval(e.cond, frame)
            else self.eval(e.els, frame)
        )

    def _eval_cast(self, e: ast.Cast, frame):
        v = self.eval(e.expr, frame)
        return self.cast_value(v, e.type, frame)

    def _eval_view(self, e: ast.ViewChange, frame):
        if not self.sharing:
            raise JnsRuntimeError(
                f"view changes require the jns mode (running in {self.mode!r})"
            )
        v = self.eval(e.expr, frame)
        if v is None:
            return None
        if not isinstance(v, Ref):
            raise CastError(f"view change applied to non-object {v!r}")
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

    def _eval_instanceof(self, e: ast.InstanceOf, frame):
        v = self.eval(e.expr, frame)
        return self.instanceof_value(v, e.type, frame)

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
            elif binop == "/":
                value = _jdiv(current, rhs)
            else:
                value = _jmod(current, rhs)
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
                raise ArrayError(
                    f"array index {idx} out of bounds (length {len(arr)})"
                )
            arr[idx] = value
        else:
            raise JnsRuntimeError("invalid assignment target")
        return value

    def _eval_sys(self, e: ast.SysCall, frame):
        fn = self._sys[e.name]
        args = [self.eval(a, frame) for a in e.args]
        return fn(*args)

