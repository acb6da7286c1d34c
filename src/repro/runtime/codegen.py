"""The ``jns -> Python`` source-level codegen backend (tier above the
register compiler).

The register backend (:class:`~repro.runtime.compiler.RegisterCompiler`)
still pays one Python closure call per expression node.  This module
removes that layer: each specialized method/constructor body is walked
once and *emitted* as real Python source — then ``compile()``d and
``exec``'d into a plain function cached per ``(declaration, view path)``.
The specialization products of :mod:`repro.runtime.specialize` are baked
directly into the emitted text:

* slot indices from the :class:`~repro.runtime.specialize.Layout` appear
  as literal ``inst.slots[i]`` accesses;
* sealed-family (and receiver-monomorphic) devirtualized targets become
  direct calls to the emitted callee, behind the usual view-path guard;
* ``PLAN_NOOP`` view retargets are erased to a two-comparison guard and
  ``PLAN_ADAPT`` retargets are inlined as a single ``_adapt`` call;
* constants are folded and J&s locals become real Python locals.

Semantics stay anchored to the interpreter: every slow path (generic
field access, dispatch misses, casts, dependent types, view changes)
calls straight back into the same :class:`~repro.runtime.interp.Interp`
entry points the other backends use, and every emitted call routes
through ``Interp._codegen_call`` so stack labels, ``JNS-RES-001``/
``JNS-RES-002`` budgets, and RecursionError snapshots are identical.
The step budget is charged per call and per loop iteration (never per
node), so unmetered runs pay nothing.

Emission is deliberately temp-heavy: any subexpression that can raise,
count, or touch the heap is assigned to a fresh single-assignment local
(``_tN``) in evaluation order, and earlier operands are spilled to temps
whenever a later operand has effects — reproducing the tree walker's
left-to-right evaluation order exactly.  Constants reach the emitted
code as keyword-only defaults (``def f(u_this, *, _k0=_k0): ...``),
which CPython binds at function-definition time and reads at LOAD_FAST
speed.

Eviction is all-or-nothing: emitted bodies capture lazily-resolved
callee cells from their compiler, so an incremental edit
(:class:`~repro.lang.incremental.EditNotice`) drops the whole
:class:`CodegenCompiler` (``Interp._on_table_edit``) rather than trying
to invalidate closures piecemeal.

Selected with ``repro run --backend codegen`` (the default); the
four-way differential in ``tests/test_specialize_differential.py`` locks
the semantics against the other three backends.
"""

from __future__ import annotations

import linecache
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..lang import types as T
from ..lang.classtable import JnsError, ResolveError, path_str
from ..lang.types import ClassType, View
from ..obs import PROFILER, TRACER
from ..source import ast
from .interp import _jdiv, _jmod, to_jstring
from .values import (
    ABSENT,
    JnsRuntimeError,
    NullDereference,
    Ref,
    SlottedInstance,
    UninitializedFieldError,
    default_value,
)


class EmittedSource(str):
    """The text of one emitted codegen body, plus its source map.

    Subclasses :class:`str` so existing consumers that treat
    ``CodegenCompiler.sources[label]`` as plain text (tests, docs
    tooling) keep working unchanged.

    ``linemap[i]`` is the originating jns ``(line, col)`` for emitted
    Python line ``i + 1`` (1-based, counting the ``def`` header), or
    ``None`` for scaffolding lines (the header, fuel/ABSENT prologue).
    ``filename`` is the pseudo-filename the body was compiled under
    (``<jns:P.C.m>``) — also registered in :mod:`linecache` so
    tracebacks and frame inspection resolve to real emitted text.
    """

    label: str
    filename: str
    linemap: Tuple[Optional[Tuple[int, int]], ...]

    def __new__(
        cls,
        text: str,
        label: str = "",
        filename: str = "",
        linemap: Sequence[Optional[Tuple[int, int]]] = (),
    ) -> "EmittedSource":
        self = super().__new__(cls, text)
        self.label = label
        self.filename = filename
        self.linemap = tuple(linemap)
        return self

    def resolve(self, py_line: int) -> Optional[Tuple[int, int]]:
        """jns ``(line, col)`` for 1-based emitted Python line, if any."""
        i = py_line - 1
        if 0 <= i < len(self.linemap):
            return self.linemap[i]
        return None


class _BreakEscape(Exception):
    """``break`` outside any loop in an (unchecked) program body."""


class _ContinueSignal(Exception):
    """Carries ``continue`` out of a for-body (Python ``continue`` would
    skip the update expression, J&s must not)."""


def _jadd(a, b):
    """Java ``+`` with string coercion (the walker's Binary ``+``)."""
    if isinstance(a, str) or isinstance(b, str):
        if isinstance(a, str) and isinstance(b, str):
            return a + b
        return to_jstring(a) + to_jstring(b)
    return a + b


_NUMERIC = (T.INT, T.DOUBLE)
_PRIMITIVE = (T.INT, T.DOUBLE, T.BOOLEAN, T.STRING)

_TEMP_RE = re.compile(r"_t\d+$")


class _FrameView:
    """Dict-like adapter over the emitted function's ``locals()`` for the
    cold dependent-type paths (``eval_type``/``cast_value``/
    ``instanceof_value``), which resolve frame variables by name.  User
    locals live under their mangled ``u_`` names; temps and constants are
    invisible to J&s paths by construction."""

    __slots__ = ("d",)

    def __init__(self, d: Dict[str, Any]) -> None:
        self.d = d

    def get(self, name: str, default: Any = None) -> Any:
        v = self.d.get("u_" + name, ABSENT)
        return default if v is ABSENT else v


class _Emitter:
    """Emits the Python source of one method/constructor/initializer
    body, specialized for one receiver view path."""

    def __init__(self, cg: "CodegenCompiler", path, label: str) -> None:
        self.cg = cg
        self.interp = cg.interp
        self.spec = cg.spec
        self.sharing = cg.sharing
        self.path = path
        self.label = label
        self.lines: List[str] = []
        #: jns ``(line, col)`` per emitted line — the source map, kept
        #: parallel to ``lines`` (``None`` for scaffolding)
        self.positions: List[Optional[Tuple[int, int]]] = []
        self.cur: Optional[Tuple[int, int]] = None
        #: line-profile mode: plant deterministic counting hooks in the
        #: emitted text (profiled interpreters compile fresh bodies)
        self.lp = bool(getattr(cg.interp, "line_profile", False))
        self.indent = 1
        self.consts: Dict[str, Any] = {}
        self._const_ids: Dict[int, str] = {}
        self._next_temp = 0
        self._next_const = 0
        self.bound: set = set()
        self._atoms: set = set()
        self._loop_stack: List[str] = []  # "while" | "for"
        self._needs_cont = False
        try:
            self.cspec = self.spec.class_spec(path)
        except JnsError:
            # Unresolvable sharing state: every ``this`` access falls back
            # to the generic accessors, which re-raise at the use site —
            # the same laziness the register backend gets per site.
            self.cspec = None

    # -- writer helpers -------------------------------------------------

    def w(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)
        self.positions.append(self.cur)

    def temp(self) -> str:
        name = f"_t{self._next_temp}"
        self._next_temp += 1
        self._atoms.add(name)
        return name

    def const(self, value: Any, name: Optional[str] = None) -> str:
        """Bind ``value`` as a keyword-only default of the emitted
        function.  Deduplicated by identity so repeated sites share one
        binding."""
        key = id(value)
        found = self._const_ids.get(key)
        if found is not None:
            return found
        if name is None:
            name = f"_k{self._next_const}"
            self._next_const += 1
        if name not in self.consts:
            self.consts[name] = value
            self._const_ids[key] = name
            self._atoms.add(name)
        return name

    def helper(self, name: str, value: Any) -> str:
        """A well-known helper bound under a fixed name."""
        if name not in self.consts:
            self.consts[name] = value
            self._atoms.add(name)
        return name

    def _lit(self, v: Any) -> str:
        if v is None or v is True or v is False:
            code = repr(v)
        elif isinstance(v, float):
            if v != v or v in (float("inf"), float("-inf")):
                return self.const(v)
            code = repr(v)
        elif isinstance(v, (int, str)):
            code = repr(v)
        else:
            return self.const(v)
        self._atoms.add(code)
        return code

    def spill(self, code: str) -> str:
        if code in self._atoms:
            return code
        t = self.temp()
        self.w(f"{t} = {code}")
        return t

    def _fv(self) -> str:
        """A ``_FrameView`` over the live locals, for cold dependent-type
        sites.  ``locals`` is bound as a constant (the emitted globals
        carry no builtins)."""
        fv = self.helper("_FV", _FrameView)
        loc = self.helper("_loc", locals)
        return f"{fv}({loc}())"

    # -- effect analysis ------------------------------------------------

    def _effectful(self, e: ast.Expr) -> bool:
        """Whether evaluating ``e`` may raise, allocate, call, or write —
        i.e. whether emitted lines will precede its value.  Earlier
        operands must be spilled to temps before such a node runs."""
        cls = type(e)
        if cls in (ast.Lit, ast.This, ast.Var):
            return False
        if cls is ast.Unary:
            return self._effectful(e.operand)
        if cls is ast.Binary:
            if e.op in ("/", "%"):
                return True
            return self._effectful(e.left) or self._effectful(e.right)
        if cls is ast.Cond:
            return (
                self._effectful(e.cond)
                or self._effectful(e.then)
                or self._effectful(e.els)
            )
        if cls is ast.Cast:
            if isinstance(e.type.pure(), T.PrimType):
                return self._effectful(e.expr)
            return True
        return True

    def emit_seq(self, exprs) -> List[str]:
        """Emit ``exprs`` left-to-right, spilling each result that is not
        an immutable atom whenever a later operand has effects (which
        would otherwise be hoisted past a mutation or a raise)."""
        exprs = list(exprs)
        flags = [self._effectful(e) for e in exprs]
        codes: List[str] = []
        for i, e in enumerate(exprs):
            code = self.emit(e)
            if any(flags[i + 1 :]) and code not in self._atoms:
                code = self.spill(code)
            codes.append(code)
        return codes

    # -- constant folding ------------------------------------------------

    def _fold(self, e: ast.Expr):
        """Fold a compile-time constant; returns (True, value) or
        (False, None).  Only closed int/float/str/bool arithmetic that
        cannot raise or lose Java semantics (``/`` and ``%`` stay
        runtime)."""
        cls = type(e)
        if cls is ast.Lit:
            return True, e.value
        if cls is ast.Unary:
            ok, v = self._fold(e.operand)
            if ok:
                if e.op == "!":
                    return True, (not v)
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    return True, -v
            return False, None
        if cls is ast.Binary and e.op in ("+", "-", "*"):
            ok_l, a = self._fold(e.left)
            if not ok_l:
                return False, None
            ok_r, b = self._fold(e.right)
            if not ok_r:
                return False, None
            num_l = isinstance(a, (int, float)) and not isinstance(a, bool)
            num_r = isinstance(b, (int, float)) and not isinstance(b, bool)
            if num_l and num_r:
                return True, (a + b if e.op == "+" else a - b if e.op == "-" else a * b)
            if e.op == "+" and isinstance(a, str) and isinstance(b, str):
                return True, a + b
        return False, None

    # -- expressions -----------------------------------------------------

    def emit(self, e: ast.Expr) -> str:
        if e.pos[0]:
            self.cur = e.pos
        ok, v = self._fold(e)
        if ok:
            return self._lit(v)
        cls = type(e)
        if cls is ast.Lit:
            return self._lit(e.value)
        if cls is ast.This:
            return "u_this"
        if cls is ast.Var:
            return self._var_read(e.name)
        if cls is ast.Unary:
            inner = self.emit(e.operand)
            return f"(not {inner})" if e.op == "!" else f"(- {inner})"
        if cls is ast.Binary:
            return self._binary(e)
        if cls is ast.Cond:
            return self._cond(e)
        if cls is ast.FieldGet:
            return self._field_read(e)
        if cls is ast.Call:
            return self._call(e)
        if cls is ast.SysCall:
            return self._syscall(e)
        if cls is ast.NewObj:
            return self._new(e)
        if cls is ast.NewArray:
            return self._newarray(e)
        if cls is ast.Index:
            return self._index_read(e)
        if cls is ast.Cast:
            return self._cast(e)
        if cls is ast.ViewChange:
            return self._view_change(e)
        if cls is ast.InstanceOf:
            inner = self.spill(self.emit(e.expr))
            k = self.const(self.cg.instanceof_fn(e.type))
            t = self.temp()
            self.w(f"{t} = {k}({inner}, {self._fv()})")
            return t
        if cls is ast.Assign:
            return self._assign(e)
        raise JnsRuntimeError(f"cannot emit expression {e!r}")

    def _var_read(self, name: str) -> str:
        py = "u_" + name
        if py not in self.bound:
            unb = self.const(self.cg.unbound_raiser(name))
            ab = self.helper("_ABSENT", ABSENT)
            self.w(f"if {py} is {ab}: {unb}()")
            self.bound.add(py)
        return py

    def _rt(self, e: ast.Expr):
        return getattr(e, "rtype", None)

    def _binary(self, e: ast.Binary) -> str:
        op = e.op
        if op in ("&&", "||"):
            left = self.emit(e.left)
            b = self.helper("_bool", bool)
            if not self._effectful(e.right):
                right = self.emit(e.right)
                word = "and" if op == "&&" else "or"
                return f"({b}({left}) {word} {b}({right}))"
            left = self.spill(left)
            t = self.temp()
            self.w(f"{t} = {b}({left})")
            self.w(f"if {'' if op == '&&' else 'not '}{t}:")
            self.indent += 1
            saved = set(self.bound)
            right = self.emit(e.right)
            self.w(f"{t} = {b}({right})")
            self.indent -= 1
            self.bound = saved
            return t
        left, right = self.emit_seq((e.left, e.right))
        if op == "+":
            lt, rt = self._rt(e.left), self._rt(e.right)
            if lt in _NUMERIC and rt in _NUMERIC:
                return f"({left} + {right})"
            return f"{self.helper('_jadd', _jadd)}({left}, {right})"
        if op == "-":
            return f"({left} - {right})"
        if op == "*":
            return f"({left} * {right})"
        if op == "/":
            t = self.temp()
            self.w(f"{t} = {self.helper('_jdiv', _jdiv)}({left}, {right})")
            return t
        if op == "%":
            t = self.temp()
            self.w(f"{t} = {self.helper('_jmod', _jmod)}({left}, {right})")
            return t
        if op in ("==", "!="):
            lt, rt = self._rt(e.left), self._rt(e.right)
            if lt in _PRIMITIVE and rt in _PRIMITIVE:
                return f"({left} {op} {right})"
            eq = self.helper("_eq", self.interp._equals)
            if op == "==":
                return f"{eq}({left}, {right})"
            return f"(not {eq}({left}, {right}))"
        if op in ("<", "<=", ">", ">="):
            return f"({left} {op} {right})"
        raise JnsRuntimeError(f"unknown operator {op!r}")

    def _cond(self, e: ast.Cond) -> str:
        if not (self._effectful(e.then) or self._effectful(e.els)):
            cond = self.emit(e.cond)
            then = self.emit(e.then)
            els = self.emit(e.els)
            return f"({then} if {cond} else {els})"
        cond = self.emit(e.cond)
        t = self.temp()
        self.w(f"if {cond}:")
        self.indent += 1
        saved = set(self.bound)
        then = self.emit(e.then)
        self.w(f"{t} = {then}")
        self.indent -= 1
        self.bound = saved
        self.w("else:")
        self.indent += 1
        saved = set(self.bound)
        els = self.emit(e.els)
        self.w(f"{t} = {els}")
        self.indent -= 1
        self.bound = saved
        return t

    def _syscall(self, e: ast.SysCall) -> str:
        fn = self.interp._sys[e.name]
        k = self.const(fn, None)
        args = self.emit_seq(e.args)
        t = self.temp()
        self.w(f"{t} = {k}({', '.join(args)})")
        return t

    def _new(self, e: ast.NewObj) -> str:
        new = self.helper("_new", self.interp.new_instance)
        if type(e.type) is ClassType:
            kp = self.const(e.type.path)
            args = self.emit_seq(e.args)
            t = self.temp()
            self.w(f"{t} = {new}({kp}, ({', '.join(args)}{',' if args else ''}))")
            return t
        # dependent target type: evaluate the type *before* the arguments
        # (walker order), against a by-name view of the live locals
        npk = self.const(self.cg.new_path_fn(e.type))
        tp = self.temp()
        self.w(f"{tp} = {npk}({self._fv()})")
        args = self.emit_seq(e.args)
        t = self.temp()
        self.w(f"{t} = {new}({tp}, ({', '.join(args)}{',' if args else ''}))")
        return t

    def _newarray(self, e: ast.NewArray) -> str:
        length = self.emit(e.length)
        k = self.const(self.cg.newarray_fn(e.elem_type))
        t = self.temp()
        self.w(f"{t} = {k}({length})")
        return t

    def _index_read(self, e: ast.Index) -> str:
        arr, idx = self.emit_seq((e.arr, e.idx))
        arr = self.spill(arr)
        idx = self.spill(idx)
        nular = self.helper("_nular", _raise_null_array)
        oob = self.helper("_oob", _raise_oob)
        self.w(f"if {arr} is None: {nular}()")
        ln = self.helper("_len", len)
        self.w(f"if {idx} < 0 or {idx} >= {ln}({arr}): {oob}({idx}, {arr})")
        t = self.temp()
        self.w(f"{t} = {arr}[{idx}]")
        return t

    def _cast(self, e: ast.Cast) -> str:
        t_pure = e.type.pure()
        if isinstance(t_pure, T.PrimType):
            inner = self.emit(e.expr)
            if t_pure == T.INT:
                return f"{self.helper('_int', int)}({inner})"
            if t_pure == T.DOUBLE:
                return f"{self.helper('_float', float)}({inner})"
            if t_pure == T.BOOLEAN:
                return f"{self.helper('_bool', bool)}({inner})"
            return inner
        inner = self.spill(self.emit(e.expr))
        k = self.const(self.cg.cast_fn(e.type))
        t = self.temp()
        self.w(f"{t} = {k}({inner}, {self._fv()})")
        return t

    def _view_change(self, e: ast.ViewChange) -> str:
        if not self.sharing:
            # walker parity: the mode error fires *before* the operand
            # is evaluated
            k = self.const(self.cg.view_unsupported_fn())
            t = self.temp()
            self.w(f"{t} = {k}()")
            return t
        inner = self.spill(self.emit(e.expr))
        fn = self.cg.view_change_fn(e.type)
        k = self.const(fn)
        t = self.temp()
        if getattr(fn, "_static", False):
            self.w(f"{t} = {k}({inner})")
        else:
            self.w(f"{t} = {k}({inner}, {self._fv()})")
        return t

    # -- specialized field access ----------------------------------------

    def _field_read(self, e: ast.FieldGet) -> str:
        name = e.name
        if type(e.obj) is ast.This:
            return self._this_read(name)
        o = self.spill(self.emit(e.obj))
        ref = self.helper("_Ref", Ref)
        gf = self.helper("_gf", self.interp.get_field)
        t = self.temp()
        if not self.sharing:
            fill = self.const(self.cg.fill_plain_fn(name))
            site = self.const([None, None])
            self.cg.note_site()
            self.w(f"if {o}.__class__ is {ref}:")
            self.w(f"    if {site}[0] != {o}.view.path: {fill}({site}, {o})")
            self.w(f"    if {site}[1] is None:")
            self.w(f"        {t} = {gf}({o}, {name!r})")
            self.w(f"    else:")
            self.w(f"        {t} = {o}.inst.slots[{site}[1]]")
            self.w(f"        if {t} is _ABSENT: {t} = {gf}({o}, {name!r})")
            self.w(f"else:")
            self.w(f"    {t} = {gf}({o}, {name!r})")
            self.helper("_ABSENT", ABSENT)
            self.helper("_TR", TRACER)
            return t
        fill = self.const(self.cg.fill_shared_fn(name))
        plan = self.const(self.cg.plan_apply_fn(name))
        mblk = self.helper("_mblk", _raise_masked)
        site = self.const([None, -1, None])
        self.cg.note_site()
        tr = self.helper("_TR", TRACER)
        ab = self.helper("_ABSENT", ABSENT)
        self.w(f"if {o}.__class__ is {ref}:")
        self.w(f"    if {tr}.enabled: {tr}.count('mask.check')")
        if self.lp:
            pfm = self.helper("_pfm", PROFILER.mask_hit)
            self.w(f"    {pfm}()")
        self.w(f"    if {name!r} in {o}.view.masks: {mblk}({name!r}, {o}.view)")
        self.w(f"    if {site}[0] != {o}.view.path: {fill}({site}, {o})")
        self.w(f"    {t} = {o}.inst.slots[{site}[1]]")
        self.w(f"    if {t} is {ab}:")
        self.w(f"        {t} = {gf}({o}, {name!r})")
        self.w(f"    elif {site}[2] is not None and {t}.__class__ is {ref}:")
        self.w(f"        {t} = {plan}({site}[2], {t}, {o})")
        self.w(f"else:")
        self.w(f"    {t} = {gf}({o}, {name!r})")
        return t

    def _this_read(self, name: str) -> str:
        """``this.f``: the slot index and read plan are known at emission
        time — this is where the Layout is baked into the text."""
        gf = self.helper("_gf", self.interp.get_field)
        t = self.temp()
        slot = self.cspec.slot_of.get(name) if self.cspec is not None else None
        if slot is None:
            self.w(f"{t} = {gf}(u_this, {name!r})")
            return t
        ab = self.helper("_ABSENT", ABSENT)
        self.cg.note_site()
        if not self.sharing:
            self.w(f"{t} = u_this.inst.slots[{slot}]")
            self.w(f"if {t} is {ab}: {t} = {gf}(u_this, {name!r})")
            return t
        tr = self.helper("_TR", TRACER)
        mblk = self.helper("_mblk", _raise_masked)
        self.w(f"if {tr}.enabled: {tr}.count('mask.check')")
        if self.lp:
            pfm = self.helper("_pfm", PROFILER.mask_hit)
            self.w(f"{pfm}()")
        self.w(f"if {name!r} in u_this.view.masks: {mblk}({name!r}, u_this.view)")
        self.w(f"{t} = u_this.inst.slots[{slot}]")
        rplan = self.cspec.read_plan.get(name)
        if rplan is None:
            self.w(f"if {t} is {ab}: {t} = {gf}(u_this, {name!r})")
            return t
        ref = self.helper("_Ref", Ref)
        self.w(f"if {t} is {ab}:")
        self.w(f"    {t} = {gf}(u_this, {name!r})")
        self.w(f"elif {t}.__class__ is {ref}:")
        tag = rplan[0]
        if tag == 0:  # PLAN_NOOP — erased to a two-comparison guard
            kn = self.const(rplan[1])
            kt = self.const(rplan[2])
            adapt = self.helper("_adapt", self.interp._adapt)
            wv = self.temp()
            self.w(f"    {wv} = {t}.view")
            self.w(f"    if {wv}.path not in {kn} or {wv}.masks:")
            self.w(f"        {t} = {adapt}({t}, {kt})")
            if self.lp:
                # the elided no-op still counts as one view adaptation,
                # keeping the view column a cross-backend invariant
                pfv = self.helper("_pfv", PROFILER.view_hit)
                self.w(f"    else: {pfv}()")
        elif tag == 1:  # PLAN_ADAPT — inlined adapt to the static target
            kt = self.const(rplan[1])
            adapt = self.helper("_adapt", self.interp._adapt)
            self.w(f"    {t} = {adapt}({t}, {kt})")
        else:  # PLAN_DYNAMIC
            dyn = self.const(self.cg.dyn_retarget_fn(name))
            self.w(f"    {t} = {dyn}({t}, u_this)")
        return t

    def _field_store(self, target: ast.FieldGet, v: str) -> None:
        name = target.name
        sf = self.helper("_sf", self.interp.set_field)
        if type(target.obj) is ast.This:
            slot = self.cspec.slot_of.get(name) if self.cspec is not None else None
            if slot is None:
                self.w(f"{sf}(u_this, {name!r}, {v})")
                return
            self.cg.note_site()
            self.w(f"u_this.inst.slots[{slot}] = {v}")
            if self.sharing:
                unmask = self.helper("_unmask", _remove_mask)
                self.w(f"if {name!r} in u_this.view.masks: {unmask}(u_this, {name!r})")
            return
        o = self.spill(self.emit(target.obj))
        ref = self.helper("_Ref", Ref)
        self.cg.note_site()
        if not self.sharing:
            fill = self.const(self.cg.fill_plain_fn(name))
            site = self.const([None, None])
            self.w(f"if {o}.__class__ is {ref}:")
            self.w(f"    if {site}[0] != {o}.view.path: {fill}({site}, {o})")
            self.w(f"    if {site}[1] is None:")
            self.w(f"        {sf}({o}, {name!r}, {v})")
            self.w(f"    else:")
            self.w(f"        {o}.inst.slots[{site}[1]] = {v}")
            self.w(f"else:")
            self.w(f"    {sf}({o}, {name!r}, {v})")
            return
        fill = self.const(self.cg.fill_store_fn(name))
        site = self.const([None, -1])
        unmask = self.helper("_unmask", _remove_mask)
        self.w(f"if {o}.__class__ is {ref}:")
        self.w(f"    if {site}[0] != {o}.view.path: {fill}({site}, {o})")
        self.w(f"    {o}.inst.slots[{site}[1]] = {v}")
        self.w(f"    if {name!r} in {o}.view.masks: {unmask}({o}, {name!r})")
        self.w(f"else:")
        self.w(f"    {sf}({o}, {name!r}, {v})")

    # -- calls -----------------------------------------------------------

    def _call(self, e: ast.Call) -> str:
        name = e.name
        tr = self.helper("_TR", TRACER)
        if type(e.obj) is ast.This:
            found = self.interp._lookup_method(self.path, name)
            if (
                found is not None
                and found[1].body is not None
                and len(found[1].params) == len(e.args)
            ):
                owner, decl = found
                direct = self.const(self.cg.direct_call_fn(owner, decl, name, self.path))
                args = self.emit_seq(e.args)
                self.cg.note_site()
                t = self.temp()
                self.w(f"if {tr}.enabled: {tr}.count('dispatch.codegen_hit')")
                self.w(f"{t} = {direct}(u_this{''.join(', ' + a for a in args)})")
                return t
            o = "u_this"
        else:
            o = self.spill(self.emit(e.obj))
        ref = self.helper("_Ref", Ref)
        nullc = self.helper("_nullc", _raise_null_call)
        nonref = self.helper("_nonref", _raise_non_ref_call)
        if o != "u_this":
            self.w(f"if {o} is None: {nullc}({name!r})")
            self.w(f"if {o}.__class__ is not {ref}: {nonref}({name!r}, {o})")
        target = self.spec.static_target_for(name, self._rt(e.obj))
        if (
            o != "u_this"
            and target is not None
            and target[1].body is not None
            and len(target[1].params) == len(e.args)
        ):
            owner, decl, valid = target
            self.spec.note_devirtualized()
            self.cg.note_site()
            kv = self.const(valid)
            dv = self.const(self.cg.devirt_call_fn(owner, decl, name))
            gen = self.const(self.cg.generic_call_fn(name))
            args = self.emit_seq(e.args)
            argstr = "".join(", " + a for a in args)
            t = self.temp()
            self.w(f"if {o}.view.path in {kv}:")
            self.w(f"    if {tr}.enabled: {tr}.count('dispatch.codegen_hit')")
            self.w(f"    {t} = {dv}({o}{argstr})")
            self.w(f"else:")
            self.w(f"    {t} = {gen}({o}{argstr})")
            return t
        # monomorphic inline cache over emitted bodies
        site = self.const([None, None])
        miss = self.const(self.cg.call_miss_fn(name))
        args = self.emit_seq(e.args)
        argstr = "".join(", " + a for a in args)
        t = self.temp()
        self.w(f"if {site}[0] == {o}.view.path:")
        self.w(f"    if {tr}.enabled: {tr}.count('dispatch.codegen_hit')")
        self.w(f"    {t} = {site}[1]({o}{argstr})")
        self.w(f"else:")
        self.w(f"    {t} = {miss}({site}, {o}{argstr})")
        return t

    # -- assignment ------------------------------------------------------

    def _assign(self, e: ast.Assign) -> str:
        target = e.target
        if e.op == "=":
            v = self.spill(self.emit(e.value))
            self._store(target, v)
            return v
        cur = self.spill(self.emit(target))
        r = self.emit(e.value)
        binop = e.op[0]
        t = self.temp()
        if (
            binop in "+-*"
            and self._rt(target) == T.INT
            and self._rt(e.value) == T.INT
        ):
            self.w(f"{t} = ({cur} {binop} {r})")
        else:
            h = self.helper(
                {"+": "_cadd", "-": "_csub", "*": "_cmul", "/": "_cdiv"}[binop],
                {"+": _compound_add, "-": _compound_sub,
                 "*": _compound_mul, "/": _compound_div}[binop],
            )
            self.w(f"{t} = {h}({cur}, {r})")
        self._store(target, t)
        return t

    def _store(self, target: ast.Expr, v: str) -> None:
        tcls = type(target)
        if tcls is ast.Var:
            self.w(f"u_{target.name} = {v}")
            self.bound.add("u_" + target.name)
            return
        if tcls is ast.FieldGet:
            self._field_store(target, v)
            return
        if tcls is ast.Index:
            arr, idx = self.emit_seq((target.arr, target.idx))
            arr = self.spill(arr)
            idx = self.spill(idx)
            nular = self.helper("_nular", _raise_null_array)
            oob = self.helper("_oob", _raise_oob)
            ln = self.helper("_len", len)
            self.w(f"if {arr} is None: {nular}()")
            self.w(f"if {idx} < 0 or {idx} >= {ln}({arr}): {oob}({idx}, {arr})")
            self.w(f"{arr}[{idx}] = {v}")
            return
        raise JnsRuntimeError("invalid assignment target")

    # -- statements ------------------------------------------------------

    def stmt(self, s: ast.Stmt) -> None:
        cls = type(s)
        if cls is ast.Block:
            for inner in s.stmts:
                self.stmt(inner)
            return
        if cls is not ast.Empty and s.pos[0]:
            self.cur = s.pos
            if self.lp:
                # one deterministic statement-entry hit per execution;
                # also re-anchors PROFILER.cur_line for event columns
                hit = self.helper("_pfh", PROFILER.stmt_hit)
                self.w(f"{hit}({s.pos[0]})")
        if cls is ast.LocalDecl:
            if s.init is not None:
                code = self.emit(s.init)
            else:
                code = self._lit(default_value(s.type))
            self.w(f"u_{s.name} = {code}")
            self.bound.add("u_" + s.name)
            return
        if cls is ast.ExprStmt:
            code = self.emit(s.expr)
            if code not in self._atoms:
                self.w(code)
            return
        if cls is ast.If:
            cond = self.emit(s.cond)
            self.w(f"if {cond}:")
            self._suite(s.then)
            if s.els is not None:
                self.w("else:")
                self._suite(s.els)
            return
        if cls is ast.While:
            self._while(s)
            return
        if cls is ast.For:
            self._for(s)
            return
        if cls is ast.Return:
            code = self.emit(s.value) if s.value is not None else "None"
            self.w(f"return {code}")
            return
        if cls is ast.Break:
            if self._loop_stack:
                self.w("break")
            else:
                brk = self.helper("_BRK", _BreakEscape)
                self.w(f"raise {brk}")
            return
        if cls is ast.Continue:
            if not self._loop_stack:
                cont = self.helper("_CONT", _ContinueSignal)
                self.w(f"raise {cont}")
            elif self._loop_stack[-1] == "while":
                self.w("continue")
            else:
                cont = self.helper("_CONT", _ContinueSignal)
                self.w(f"raise {cont}")
            return
        if cls is ast.Empty:
            return
        raise JnsRuntimeError(f"cannot emit statement {s!r}")

    def _suite(self, s: ast.Stmt) -> None:
        """Emit ``s`` as an indented suite with its own binding scope
        (a branch may not dominate code after it)."""
        self.indent += 1
        saved = set(self.bound)
        mark = len(self.lines)
        self.stmt(s)
        if len(self.lines) == mark:
            self.w("pass")
        self.indent -= 1
        self.bound = saved

    def _tick_line(self) -> None:
        if self.interp._max_steps is not None:
            self.w(f"{self.helper('_tick', self.interp._tick)}()")

    def _cond_buffer(self, cond: ast.Expr):
        """Emit ``cond`` into a side buffer; returns (lines, code).
        The buffer carries its slice of the source map so re-splicing
        keeps line attribution intact."""
        outer = self.lines
        outer_pos = self.positions
        self.lines = []
        self.positions = []
        base = self.indent
        self.indent = 0
        code = self.emit(cond)
        buf = (self.lines, self.positions)
        self.lines = outer
        self.positions = outer_pos
        self.indent = base
        return buf, code

    def _splice(self, buf) -> None:
        pad = "    " * self.indent
        lines, positions = buf
        for line, pos in zip(lines, positions):
            self.lines.append(pad + line)
            self.positions.append(pos)

    def _while(self, s: ast.While) -> None:
        buf, code = self._cond_buffer(s.cond)
        self._loop_stack.append("while")
        if not buf[0]:
            self.w(f"while {code}:")
            self.indent += 1
            saved = set(self.bound)
            self._tick_line()
            mark = len(self.lines)
            self.stmt(s.body)
            if len(self.lines) == mark and self.interp._max_steps is None:
                self.w("pass")
            self.indent -= 1
            self.bound = saved
        else:
            self.w("while True:")
            self.indent += 1
            self._splice(buf)
            self.w(f"if not ({code}): break")
            saved = set(self.bound)
            self._tick_line()
            self.stmt(s.body)
            self.indent -= 1
            self.bound = saved
        self._loop_stack.pop()

    def _for(self, s: ast.For) -> None:
        if s.init is not None:
            self.stmt(s.init)
        buf = None
        code = None
        if s.cond is not None:
            buf, code = self._cond_buffer(s.cond)
        self._loop_stack.append("for")
        self.w("while True:")
        self.indent += 1
        if code is not None:
            if buf[0]:
                self._splice(buf)
            self.w(f"if not ({code}): break")
        self._tick_line()
        saved = set(self.bound)
        wrap = _has_direct_continue(s.body)
        if wrap:
            cont = self.helper("_CONT", _ContinueSignal)
            self.w("try:")
            self.indent += 1
            mark = len(self.lines)
            self.stmt(s.body)
            if len(self.lines) == mark:
                self.w("pass")
            self.indent -= 1
            self.w(f"except {cont}:")
            self.w("    pass")
        else:
            mark = len(self.lines)
            self.stmt(s.body)
            if len(self.lines) == mark and code is None:
                self.w("pass")
        self.bound = saved
        if s.update is not None:
            upd = self.emit(s.update)
            if upd not in self._atoms:
                self.w(upd)
        self.indent -= 1
        self._loop_stack.pop()

    # -- assembly --------------------------------------------------------

    def finish(
        self, params, body_emit, entry_tick: bool = True, entry_pos=None,
    ) -> Tuple[Any, str]:
        """Assemble, ``compile()``, and ``exec`` the function.  ``params``
        are the J&s parameter declarations (``this`` is always register
        0 — here, always the first positional argument); ``body_emit``
        is a thunk that runs the emitter over the body.  ``entry_pos``
        (the declaration's span) attributes the scaffolding the function
        spends its entry in — the header and the fuel/ABSENT prologue —
        so samples landing there still resolve to a jns span."""
        names: List[str] = []
        seen: Dict[str, int] = {}
        for i, p in enumerate(params):
            names.append("u_" + p.name)
            seen["u_" + p.name] = i
        # a duplicated parameter name maps to its last occurrence, as in
        # the dict and register frames
        for i, n in enumerate(list(names)):
            if seen[n] != i:
                names[i] = f"_shadow{i}"
        self.bound.add("u_this")
        self.bound.update(names)
        prologue: List[str] = []
        if entry_tick and self.interp._max_steps is not None:
            prologue.append(
                "    " + self.helper("_tick", self.interp._tick) + "()"
            )
        body_emit()
        locals_needed = sorted(self._locals_to_seed(names))
        if locals_needed:
            ab = self.helper("_ABSENT", ABSENT)
            chain = " = ".join(locals_needed)
            prologue.append(f"    {chain} = {ab}")
        if entry_pos is not None and not entry_pos[0]:
            entry_pos = None
        lines = prologue + self.lines
        positions = [entry_pos] * len(prologue) + self.positions
        if not lines:
            lines = ["    pass"]
            positions = [entry_pos]
        sig = ["u_this"] + names
        if self.consts:
            sig.append("*")
            sig.extend(f"{k}={k}" for k in sorted(self.consts))
        text = f"def _cg_fn({', '.join(sig)}):\n" + "\n".join(lines) + "\n"
        # line 1 is the def header; body lines follow the source map
        filename = f"<jns:{self.label}>"
        src = EmittedSource(
            text, label=self.label, filename=filename,
            linemap=[entry_pos] + positions,
        )
        g: Dict[str, Any] = dict(self.consts)
        g["__builtins__"] = {}
        code = compile(text, filename, "exec")
        # registered so tracebacks and inspect/pdb resolve emitted frames
        # to real text (re-emission after an edit overwrites in place)
        linecache.cache[filename] = (
            len(text), None, text.splitlines(True), filename,
        )
        exec(code, g)
        return g["_cg_fn"], src

    def _locals_to_seed(self, param_names) -> set:
        taken = set(param_names) | {"u_this"}
        return {n for n in self._all_names if n not in taken}


# ---------------------------------------------------------------------------
# runtime helpers referenced from emitted code (bound as constants)
# ---------------------------------------------------------------------------


def _raise_null_array():
    raise NullDereference("null array")


def _raise_oob(idx, arr):
    raise JnsRuntimeError(f"array index {idx} out of bounds (length {len(arr)})")


def _raise_null_call(name):
    raise NullDereference(f"null dereference calling {name!r}")


def _raise_non_ref_call(name, receiver):
    raise JnsRuntimeError(f"cannot call {name!r} on {receiver!r}")


def _raise_masked(name, view):
    if TRACER.enabled:
        TRACER.event("mask.blocked", field=name, view=path_str(view.path))
    raise UninitializedFieldError(f"field {name!r} is masked in view {view!r}")


def _remove_mask(o, name):
    # R-SET removes the mask (see Interp.set_field)
    view = o.view
    if TRACER.enabled:
        TRACER.event("mask.removed", field=name, view=path_str(view.path))
    o.view = View(view.path, view.masks - {name})


def _compound_add(current, r):
    if isinstance(current, str) or isinstance(r, str):
        if isinstance(current, str) and isinstance(r, str):
            v = current + r
        else:
            v = to_jstring(current) + to_jstring(r)
    else:
        v = current + r
    if isinstance(current, int) and isinstance(v, float):
        v = int(v)
    return v


def _compound_sub(current, r):
    v = current - r
    if isinstance(current, int) and isinstance(v, float):
        v = int(v)
    return v


def _compound_mul(current, r):
    v = current * r
    if isinstance(current, int) and isinstance(v, float):
        v = int(v)
    return v


def _compound_div(current, r):
    v = _jdiv(current, r)
    if isinstance(current, int) and isinstance(v, float):
        v = int(v)
    return v


def _unreachable_resolver(p):
    raise ResolveError(f"unexpected dependent path {'.'.join(p)}")


def _collect_names(node, out) -> None:
    """Every variable name a body can mention (reads, writes, decls) —
    each becomes a real Python local, seeded to ABSENT unless it is a
    parameter."""
    if isinstance(node, ast.Var):
        out.add(node.name)
    elif isinstance(node, ast.LocalDecl):
        out.add(node.name)
    for v in vars(node).values():
        if isinstance(v, (ast.Expr, ast.Stmt)):
            _collect_names(v, out)
        elif isinstance(v, (list, tuple)):
            for x in v:
                if isinstance(x, (ast.Expr, ast.Stmt)):
                    _collect_names(x, out)


def _has_direct_continue(s: ast.Stmt) -> bool:
    """Whether ``s`` contains a ``continue`` belonging to the enclosing
    loop (not swallowed by a nested loop)."""
    cls = type(s)
    if cls is ast.Continue:
        return True
    if cls in (ast.While, ast.For):
        return False
    if cls is ast.Block:
        return any(_has_direct_continue(x) for x in s.stmts)
    if cls is ast.If:
        if _has_direct_continue(s.then):
            return True
        return s.els is not None and _has_direct_continue(s.els)
    return False


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------


class CodegenCompiler:
    """Emits, compiles, and caches Python functions for one interpreter.

    Functions are keyed per ``(declaration identity, receiver view
    path)`` — the slot indices and read plans baked into a body are only
    valid for receivers created as that exact path.  Counters
    (``bodies_emitted`` / ``sites_inlined``) are maintained
    unconditionally; the matching ``codegen.*`` tracer counters fire only
    while tracing is on.  ``sources`` retains the emitted text per key
    for tests, docs, and debugging.

    Eviction: ``Interp._on_table_edit`` drops the whole compiler on any
    affecting edit — emitted bodies hold lazily-resolved callee cells
    into these caches, so partial invalidation would leave live closures
    pointing at retired declarations."""

    def __init__(self, interp) -> None:
        self.interp = interp
        self.spec = interp.spec
        self.sharing = interp.sharing
        self.bodies_emitted = 0
        self.sites_inlined = 0
        self._fns: Dict[Tuple[int, Any], Any] = {}
        self._allocs: Dict[Any, Any] = {}
        #: emitted text per label; values are :class:`EmittedSource`
        #: (str subclasses carrying the per-line jns source map)
        self.sources: Dict[str, EmittedSource] = {}
        #: the same bodies keyed by compiled ``co_filename`` — how the
        #: sampling profiler resolves live frames back to jns lines
        self.by_filename: Dict[str, EmittedSource] = {}
        self._miss_fns: Dict[str, Any] = {}
        self._generic_fns: Dict[str, Any] = {}
        self._fill_plain: Dict[str, Any] = {}
        self._fill_shared: Dict[str, Any] = {}
        self._fill_store: Dict[str, Any] = {}
        self._plan_apply: Dict[str, Any] = {}
        self._dyn_retarget: Dict[str, Any] = {}
        self._unbound: Dict[str, Any] = {}

    # -- counters --------------------------------------------------------

    def note_site(self) -> None:
        self.sites_inlined += 1
        if TRACER.enabled:
            TRACER.count("codegen.sites_inlined")

    def _note_body(self) -> None:
        self.bodies_emitted += 1
        if TRACER.enabled:
            TRACER.count("codegen.bodies_emitted")

    def stats(self) -> Dict[str, int]:
        return {
            "bodies_emitted": self.bodies_emitted,
            "sites_inlined": self.sites_inlined,
        }

    # -- emitted units ---------------------------------------------------

    def method_fn(self, decl, path):
        """The compiled Python function for a method/constructor body,
        specialized for receivers viewed as ``path``."""
        key = (id(decl), path)
        fn = self._fns.get(key)
        if fn is None:
            fn = self._fns[key] = self._emit_method(decl, path)
        return fn

    def _emit_method(self, decl, path):
        label = f"{path_str(path)}.{decl.name}"
        em = _Emitter(self, path, label)
        em._all_names = set()
        _collect_names(decl.body, em._all_names)
        em._all_names = {"u_" + n for n in em._all_names}
        if TRACER.enabled:
            with TRACER.span("codegen", unit=label):
                fn, src = em.finish(
                    decl.params, lambda: em.stmt(decl.body),
                    entry_pos=decl.pos,
                )
        else:
            fn, src = em.finish(
                decl.params, lambda: em.stmt(decl.body), entry_pos=decl.pos,
            )
        self.sources[label] = src
        self.by_filename[src.filename] = src
        self._note_body()
        return fn

    def init_fn(self, decl, path):
        """The compiled function for a field initializer expression
        (receiver only: ``fn(ref)``)."""
        key = (id(decl), path)
        fn = self._fns.get(key)
        if fn is None:
            label = f"{path_str(path)}.{decl.name}=<init>"
            em = _Emitter(self, path, label)
            em._all_names = set()
            _collect_names(decl.init, em._all_names)
            em._all_names = {"u_" + n for n in em._all_names}

            def body():
                em.w(f"return {em.emit(decl.init)}")

            fn, src = em.finish((), body, entry_pos=decl.pos)
            self.sources[label] = src
            self.by_filename[src.filename] = src
            self._note_body()
            self._fns[key] = fn
        return fn

    # -- allocation ------------------------------------------------------

    def allocate(self, rtc, path, args):
        """Specialized allocation over emitted initializers — the codegen
        mirror of ``Interp._new_instance_spec`` (identical trace counts,
        schedule order, and constructor diagnostics)."""
        plan = self._allocs.get(path)
        if plan is None:
            cspec = self.spec.class_spec(path)
            steps = []
            for idx, decl, default in cspec.init_plan:
                if decl is not None:
                    steps.append((idx, self.init_fn(decl, path), None))
                else:
                    steps.append((idx, None, default))
            plan = self._allocs[path] = (cspec.layout, tuple(steps))
        layout, steps = plan
        if TRACER.enabled:
            TRACER.count("alloc")
        inst = SlottedInstance(path, layout)
        ref = Ref(inst, View(path))
        inst.view_refs[path] = ref
        slots = inst.slots
        for idx, fn, default in steps:
            slots[idx] = fn(ref) if fn is not None else default
        interp = self.interp
        found = interp.loader.find_ctor(rtc, len(args))
        if found is None:
            if args:
                raise JnsRuntimeError(
                    f"no {len(args)}-argument constructor for {path_str(path)}"
                )
        else:
            _, ctor = found
            self.method_fn(ctor, path)(ref, *args)
        return ref

    # -- per-name closures referenced from emitted code ------------------

    def unbound_raiser(self, name):
        fn = self._unbound.get(name)
        if fn is None:

            def raise_unbound():
                raise JnsRuntimeError(f"unbound variable {name!r}")

            fn = self._unbound[name] = raise_unbound
        return fn

    def fill_plain_fn(self, name):
        fn = self._fill_plain.get(name)
        if fn is None:
            spec = self.spec

            def fill(site, o):
                vp = o.view.path
                cspec = spec.class_spec(vp)
                site[0] = vp
                site[1] = cspec.slot_of.get(name)

            fn = self._fill_plain[name] = fill
        return fn

    def fill_shared_fn(self, name):
        fn = self._fill_shared.get(name)
        if fn is None:
            spec = self.spec

            def fill(site, o):
                vp = o.view.path
                cspec = spec.class_spec(vp)
                i = cspec.slot_of.get(name)
                if i is None:
                    raise JnsRuntimeError(f"no field {name!r} on {path_str(vp)}")
                site[0], site[1], site[2] = vp, i, cspec.read_plan.get(name)

            fn = self._fill_shared[name] = fill
        return fn

    def fill_store_fn(self, name):
        fn = self._fill_store.get(name)
        if fn is None:
            spec = self.spec

            def fill(site, o):
                vp = o.view.path
                cspec = spec.class_spec(vp)
                i = cspec.slot_of.get(name)
                if i is None:
                    raise JnsRuntimeError(f"no field {name!r} on {path_str(vp)}")
                site[0], site[1] = vp, i

            fn = self._fill_store[name] = fill
        return fn

    def plan_apply_fn(self, name):
        fn = self._plan_apply.get(name)
        if fn is None:
            interp = self.interp
            adapt = interp._adapt
            retarget_dyn = interp._retarget_type
            rtclass = interp.loader.rtclass

            def apply_plan(plan, v, o):
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
                target = retarget_dyn(rtclass(o.view.path), name, o)
                if target is not None:
                    return adapt(v, target)
                return v

            fn = self._plan_apply[name] = apply_plan
        return fn

    def dyn_retarget_fn(self, name):
        fn = self._dyn_retarget.get(name)
        if fn is None:
            interp = self.interp
            adapt = interp._adapt
            retarget_dyn = interp._retarget_type
            rtclass = interp.loader.rtclass

            def dyn(v, o):
                target = retarget_dyn(rtclass(o.view.path), name, o)
                if target is not None:
                    return adapt(v, target)
                return v

            fn = self._dyn_retarget[name] = dyn
        return fn

    # -- call targets ----------------------------------------------------

    def direct_call_fn(self, owner, decl, name, vp):
        """A statically-bound call to the emitted body for view path
        ``vp`` (this-calls: the receiver's path is the emitting path).
        The callee resolves lazily so recursive methods can emit."""
        interp = self.interp
        label = path_str(owner) + "." + name
        cell = [None]

        def call(receiver, *args):
            fn = cell[0]
            if fn is None:
                fn = cell[0] = self.method_fn(decl, vp)
            return interp._codegen_call(label, fn, receiver, args)

        return call

    def devirt_call_fn(self, owner, decl, name):
        """A devirtualized call over a *set* of receiver paths: one
        emitted body per path seen (slot indices differ across family
        members even when the declaration is shared)."""
        interp = self.interp
        label = path_str(owner) + "." + name
        fns: Dict[Any, Any] = {}

        def call(receiver, *args):
            vp = receiver.view.path
            fn = fns.get(vp)
            if fn is None:
                fn = fns[vp] = self.method_fn(decl, vp)
            return interp._codegen_call(label, fn, receiver, args)

        return call

    def generic_call_fn(self, name):
        fn = self._generic_fns.get(name)
        if fn is None:
            call = self.interp.call_method

            def generic(receiver, *args):
                return call(receiver, name, list(args))

            fn = self._generic_fns[name] = generic
        return fn

    def call_miss_fn(self, name):
        fn = self._miss_fns.get(name)
        if fn is None:
            interp = self.interp
            lookup = interp._lookup_method
            site_q = interp._q_site

            def miss(site, receiver, *args):
                site_q.misses += 1
                if TRACER.enabled:
                    TRACER.count("dispatch.ic_miss")
                vp = receiver.view.path
                found = lookup(vp, name)
                if found is None:
                    raise JnsRuntimeError(f"no method {name!r} on {path_str(vp)}")
                owner, decl = found
                if decl.body is None or len(decl.params) != len(args):
                    # abstract / arity errors: the shared invoke path owns
                    # the diagnostics
                    return interp._invoke(owner, decl, receiver, name, list(args))
                label = path_str(owner) + "." + name
                body = self.method_fn(decl, vp)
                if site_q._enabled:
                    site[0] = vp
                    site[1] = _make_hit(interp, label, body)
                else:
                    site[0] = None
                return interp._codegen_call(label, body, receiver, args)

            fn = self._miss_fns[name] = miss
        return fn

    # -- cold dependent-type sites ---------------------------------------

    def new_path_fn(self, t):
        interp = self.interp

        def resolve(fv):
            evaled = interp._eval_type(t, fv).pure()
            if isinstance(evaled, T.IsectType):
                evaled = evaled.parts[0]
            if not isinstance(evaled, ClassType):
                raise JnsRuntimeError(f"cannot instantiate {t!r}")
            return evaled.path

        return resolve

    def newarray_fn(self, elem_type):
        default = default_value(elem_type)

        def make(n):
            if not isinstance(n, int) or n < 0:
                raise JnsRuntimeError(f"bad array length {n!r}")
            return [default] * n

        return make

    def cast_fn(self, t):
        cast_value = self.interp.cast_value
        return lambda v, fv: cast_value(v, t, fv)

    def instanceof_fn(self, t):
        instanceof_value = self.interp.instanceof_value
        return lambda v, fv: instanceof_value(v, t, fv)

    def view_unsupported_fn(self):
        mode = self.interp.mode

        def raise_mode():
            raise JnsRuntimeError(
                f"view changes require the jns mode (running in {mode!r})"
            )

        return raise_mode

    def view_change_fn(self, target):
        """Explicit ``(view T)e``.  Non-dependent targets evaluate once
        at emission and elide the whole adapt when the source view is in
        the proven no-op set (``view_change.elided``); dependent targets
        keep the full dynamic path."""
        interp = self.interp
        if not T.paths_in(target):
            try:
                evaled = interp.table.eval_type(target, _unreachable_resolver)
            except (ResolveError, JnsError):
                evaled = None
            if evaled is not None:
                noops = self.spec.noop_view_paths(evaled)
                adapt = interp._adapt

                def static_view(v):
                    if v is None:
                        return None
                    if v.__class__ is not Ref:
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

                static_view._static = True
                return static_view
        eval_type = interp._eval_type
        adapt = interp._adapt

        def dyn_view(v, fv):
            if v is None:
                return None
            if not isinstance(v, Ref):
                raise JnsRuntimeError(f"view change applied to non-object {v!r}")
            target_t = eval_type(target, fv)
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

        return dyn_view


def _make_hit(interp, label, fn):
    def hit(receiver, *args):
        return interp._codegen_call(label, fn, receiver, args)

    return hit
