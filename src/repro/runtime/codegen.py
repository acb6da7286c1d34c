"""The ``jns -> Python`` source-level codegen backend.

The tree walker pays one Python dispatch per AST node.  This module
removes that layer: each specialized method/constructor body is walked
once and *emitted* as real Python source — then ``compile()``d and
``exec``'d into a plain function cached per ``(declaration, view path)``.
Whatever that receiver path decides is decided here, once, and baked
directly into the emitted text: each class record's codegen products
(:meth:`~repro.runtime.loader.Loader.specialized`) and the devirtualized
call targets (:meth:`CodegenCompiler.static_target_for`):

* slot indices from the :class:`~repro.runtime.loader.Layout` appear
  as literal ``inst.slots[i]`` accesses;
* every view guard is one identity test.  A field read or write through
  a receiver other than ``this`` caches the receiver's ``View`` (with
  its slot and read plan) and hits on ``o.view is site[0]``, in every
  mode; ``this.f`` tests the masks ``this`` had on entry (``_tm``), read
  once.  Both rest on two invariants: one interned ``View`` per ``(path,
  masks)`` (:func:`~repro.lang.types.intern_view`), and a reference's
  view only ever losing masks (R-SET's unmask is the only write of
  ``Ref.view``);
* sealed-family (and receiver-monomorphic) devirtualized targets become
  direct calls to the emitted callee: a this-call takes it from a cell
  filled once, any other call from a site keyed by the receiver's view;
* ``PLAN_NOOP`` view retargets are erased to an inline no-op-set test
  (at ``this.f`` reads and at inline-cache read sites alike),
  ``PLAN_ADAPT`` retargets are inlined as a single call, and a read of
  a primitive, ``String`` or array type has no retarget.  A view change
  to a fixed target calls ``Interp.adapt_fn(target)``, which binds that
  target's table of the ``view_change`` query: a warm adapt looks the
  source ``View`` up by ``id`` and hashes no type;
* a ``new``, cast, ``instanceof`` or view change whose type has no
  dependent path, or only ``this``, evaluates it once, at emission, in
  the body's receiver path (every ``this`` the body sees is viewed at
  that path, and evaluating ``this.class`` ignores masks); a type rooted
  at a local is evaluated per run against the live locals;
* constants are folded and J&s locals become real Python locals.

Semantics stay anchored to the interpreter: every slow path (generic
field access, dispatch misses, casts, dependent types, view changes)
calls straight back into the same :class:`~repro.runtime.interp.Interp`
entry points the walker uses.  An emitted call is a direct Python call
of the callee's body, which counts its own J&s depth (see
:class:`EmittedSource`); a resource diagnostic gets its stack labels
from the Python frames of its traceback (``Interp._jns_stack``), as the
walker's do.
The step budget is charged per call and per loop iteration (never per
node), so unmetered runs pay nothing.

Emission is deliberately temp-heavy: any subexpression that can raise,
count, or touch the heap is assigned to a fresh single-assignment local
(``_tN``) in evaluation order, and earlier operands are spilled to temps
whenever a later operand has effects — reproducing the tree walker's
left-to-right evaluation order exactly.  Constants live in the private
globals dict each body is ``exec``'d in, and nowhere else: the header
is ``def _cg_fn(u_this, <params>):``, so a call fills no defaults and
takes CPython's exact-arguments path, and a constant is one
(specialized) ``LOAD_GLOBAL``.

Eviction follows the edit (``Interp._on_table_edit``).  A body-only
edit (an :class:`~repro.lang.classtable.EditNotice` with
``bodies_only``: every splice a graft) keeps the compiler and evicts
only the bodies compiled from the retired declarations
(:meth:`CodegenCompiler.evict`); every other body stays warm, because
the interface it baked in (slots, read plans, sealed and monomorphic
targets) is unchanged.  An interface edit drops the whole
:class:`CodegenCompiler`, and so does turning tracing on or off: a
compiler plants trace counts in its bodies only if tracing was on when
it was built (``Interp._codegen``).

Selected with ``repro run --backend codegen`` (the default); the
differential in ``tests/test_specialize_differential.py`` locks the
semantics against the ``walker`` reference.
"""

from __future__ import annotations

import linecache
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..lang import types as T
from ..lang.classtable import JnsError, ResolveError, path_str
from ..lang.types import ClassType, Type, intern_view
from ..obs import PROFILER, TRACER
from ..source import ast
from .interp import _jdiv, _jint, _jmod, allocate, cast_error, to_jstring
from .values import (
    ABSENT,
    ArityError,
    ArrayError,
    CastError,
    DivisionByZero,
    JnsRuntimeError,
    NoSuchMethod,
    NoSuchName,
    NullDereference,
    Ref,
    UninitializedFieldError,
    default_value,
)


class EmittedSource(str):
    """The text of one emitted codegen body, plus its source map.

    Subclasses :class:`str` so existing consumers that treat
    ``CodegenCompiler.sources[label]`` as plain text (tests, docs
    tooling) keep working unchanged.

    ``linemap[i]`` is the originating jns ``(line, col)`` for emitted
    Python line ``i + 1`` (1-based, counting the ``def`` header);
    scaffolding lines map to the declaration's span.  ``filename`` is
    the pseudo-filename the body was compiled under (``<jns:P.C.m>``,
    constructors ``<jns:new P.C>``) — also registered in
    :mod:`linecache` so tracebacks resolve to real emitted text.

    A method body (not a constructor or initializer: ``_guarded_new``
    counts those) runs inside the walker's depth guard, then fuel::

        _dd = _I._depth + 1
        if _dd > MAX: raise _I._depth_error()
        _I._depth = _dd
        try:
            <fuel tick, ABSENT seeding, body>
        finally:
            _I._depth = _dd - 1

    and its ``stack_label`` is the declaring owner's ``P.C.m``.
    """

    label: str
    filename: str
    linemap: Tuple[Optional[Tuple[int, int]], ...]
    stack_label: Optional[str]

    def __new__(
        cls,
        text: str,
        label: str = "",
        filename: str = "",
        linemap: Sequence[Optional[Tuple[int, int]]] = (),
        stack_label: Optional[str] = None,
    ) -> "EmittedSource":
        self = super().__new__(cls, text)
        self.label = label
        self.filename = filename
        self.linemap = tuple(linemap)
        self.stack_label = stack_label
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
#: an inline-cache read site's no-op paths when its plan is not PLAN_NOOP
_NO_PATHS = frozenset()
_THIS = ("this",)


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
    body, specialized for one receiver view path: the body of compiler
    key ``(id(declaration), view path)``."""

    def __init__(self, cg: "CodegenCompiler", key, label: str, node) -> None:
        self.cg = cg
        self.interp = cg.interp
        self.sharing = cg.sharing
        self.key = key
        self.path = path = key[1]
        self.label = label
        self.lines: List[str] = []
        #: jns ``(line, col)`` per emitted line — the source map, kept
        #: parallel to ``lines`` (``None`` for scaffolding)
        self.positions: List[Optional[Tuple[int, int]]] = []
        self.cur: Optional[Tuple[int, int]] = None
        #: line-profile mode: plant deterministic counting hooks in the
        #: emitted text (profiled interpreters compile fresh bodies)
        self.lp = bool(getattr(cg.interp, "line_profile", False))
        #: trace counts are planted by the same rule, fixed when the
        #: compiler was built (``Interp._codegen`` rebuilds on a toggle)
        self.traced = cg.traced
        self.indent = 1
        self.consts: Dict[str, Any] = {}
        self._const_ids: Dict[int, str] = {}
        self._next_temp = 0
        self._next_const = 0
        self.bound: set = set()
        self._atoms: set = set()
        self._loop_stack: List[str] = []  # "while" | "for"
        #: whether the prologue reads ``this``'s masks (:meth:`_tm`)
        self.uses_tm = False
        #: the call sites of this body that hold a callee body: the
        #: inline caches ``[view path, body]``, the receiver-devirtualized
        #: sites ``[view, body]`` and the this-call cells ``[None, body]``
        #: (``CodegenCompiler.evict`` resets the stale ones)
        self.ic_sites: List[list] = []
        names: set = set()
        _collect_names(node, names)
        #: every J&s variable the body can mention, as its Python local
        self._all_names = {"u_" + n for n in names}
        try:
            #: the receiver class's record, with its codegen products
            self.rec = self.interp.loader.specialized(path)
        except JnsError:
            # Unresolvable sharing state: every ``this`` access falls back
            # to the generic accessors, which re-raise at the use site,
            # as the walker would.
            self.rec = None

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
        """Bind ``value`` as a global of the emitted function (its private
        globals dict, see :meth:`finish`).  Deduplicated by identity so
        repeated sites share one binding."""
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

    def _named(self, code: str) -> str:
        """``code`` as a name that can be read more than once and carry an
        attribute access: a local already is one, any other expression
        (a literal included: ``1.inst`` does not parse) goes to a temp."""
        if code.isidentifier():
            return code
        t = self.temp()
        self.w(f"{t} = {code}")
        return t

    def count(self, event: str, pad: str = "") -> None:
        """Plant ``_TR.count(event)`` — only in a traced compiler's
        bodies, and then with no ``enabled`` branch."""
        if self.traced:
            self.w(f"{pad}{self.helper('_TR', TRACER)}.count({event!r})")

    def _tm(self) -> str:
        """``_tm``: the masks ``this`` had on entry, read once by the body's
        prologue.  A reference's view only ever loses masks (R-SET), so
        an empty ``_tm`` proves every ``this`` field unmasked for the
        whole body; a non-empty one sends each test to the live view."""
        self.uses_tm = True
        return "_tm"

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
            test = self.cg.type_test_fn(False, e.type, self.path)
            return self._typed_site(test, inner)
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
        if op in ("/", "%"):
            return self._divmod(op, left, right, e.left, e.right)
        if op in ("==", "!="):
            lt, rt = self._rt(e.left), self._rt(e.right)
            if lt in _PRIMITIVE and rt in _PRIMITIVE:
                return f"({left} {op} {right})"
            neg = "not " if op == "!=" else ""
            if _is_null(e.left) or _is_null(e.right):
                return f"({left} is {neg}{right})"
            eq = self.helper("_eq", self.interp._equals)
            if lt in _PRIMITIVE or rt in _PRIMITIVE:
                # a primitive operand is never a Ref
                return f"({neg}{eq}({left}, {right}))"
            # two Refs compare by instance (view changes keep identity);
            # every other pair takes the walker's _equals
            a, b = self._named(left), self._named(right)
            ref = self.helper("_Ref", Ref)
            return (
                f"({neg}(({a}.inst is {b}.inst) if {a}.__class__ is {ref} "
                f"and {b}.__class__ is {ref} else {eq}({a}, {b})))"
            )
        if op in ("<", "<=", ">", ">="):
            return f"({left} {op} {right})"
        raise JnsRuntimeError(f"unknown operator {op!r}")

    def _divmod(self, op: str, left: str, right: str, lexpr, rexpr) -> str:
        """``/`` or ``%`` into a temp.  Two static ints lower inline: a
        zero test, then a truncating ``//`` or ``%`` whose operand signs
        pick the form (a folded divisor fixes the sign at emission).
        A static double may still hold a Python int (``double x = 3``
        divides as an int on both backends), so a double ``/`` is inline
        only behind a float test on the divisor; everything else calls
        the walker's ``_jdiv``/``_jmod``."""
        lt, rt = self._rt(lexpr), self._rt(rexpr)
        t = self.temp()
        if lt == T.INT and rt == T.INT:
            a = self._named(left)
            py = "//" if op == "/" else "%"
            ok, k = self._fold(rexpr)
            if ok and isinstance(k, int) and k != 0:
                cond = f"{a} >= 0" if k > 0 else f"{a} <= 0"
                self.w(f"{t} = ({a} {py} {k}) if {cond} else -(-{a} {py} {k})")
                return t
            b = self._named(right)
            zero = self.helper(
                "_div0" if op == "/" else "_mod0",
                _raise_div0 if op == "/" else _raise_mod0,
            )
            self.w(f"if {b} == 0: {zero}()")
            self.w(
                f"{t} = ({a} {py} {b}) if ({a} >= 0) == ({b} > 0) "
                f"else -(-{a} {py} {b})"
            )
            return t
        if op == "/":
            jdiv = self.helper("_jdiv", _jdiv)
            if lt in _NUMERIC and rt in _NUMERIC:
                b = self._named(right)
                fl = self.helper("_float", float)
                self.w(
                    f"{t} = ({left} / {b}) if {b}.__class__ is {fl} and {b} "
                    f"else {jdiv}({left}, {b})"
                )
            else:
                self.w(f"{t} = {jdiv}({left}, {right})")
            return t
        self.w(f"{t} = {self.helper('_jmod', _jmod)}({left}, {right})")
        return t

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
        alloc = self.helper("_alloc", allocate)
        if type(e.type) is ClassType:
            path = e.type.path
        else:
            path = self.cg.static_new_path(e.type, self.path)
        if path is not None:
            # one call: the shared allocator over this class's plan for
            # this arity, built when the site first runs
            plans = self.const(self.cg.new_plans(path))
            args = self.emit_seq(e.args)
            t = self.temp()
            self.w(
                f"{t} = {alloc}(({', '.join(args)}{',' if args else ''}), "
                f"{plans}[{len(args)}])"
            )
            return t
        # dependent target type: evaluate the type *before* the arguments
        # (walker order), against a by-name view of the live locals
        plans = self.const(self.cg.new_plans)
        npk = self.const(self.cg.new_path_fn(e.type))
        tp = self.temp()
        self.w(f"{tp} = {npk}({self._fv()})")
        args = self.emit_seq(e.args)
        t = self.temp()
        self.w(
            f"{t} = {alloc}(({', '.join(args)}{',' if args else ''}), "
            f"{plans}({tp})[{len(args)}])"
        )
        return t

    def _newarray(self, e: ast.NewArray) -> str:
        length = self.emit(e.length)
        k = self.const(self.cg.newarray_fn(e.elem_type))
        t = self.temp()
        self.w(f"{t} = {k}({length})")
        return t

    def _index(self, e: ast.Index) -> str:
        """``arr[idx]`` after the walker's null and bounds checks."""
        arr, idx = self.emit_seq((e.arr, e.idx))
        arr = self.spill(arr)
        idx = self.spill(idx)
        nular = self.helper("_nular", _raise_null_array)
        oob = self.helper("_oob", _raise_oob)
        self.w(f"if {arr} is None: {nular}()")
        ln = self.helper("_len", len)
        self.w(f"if {idx} < 0 or {idx} >= {ln}({arr}): {oob}({idx}, {arr})")
        return f"{arr}[{idx}]"

    def _index_read(self, e: ast.Index) -> str:
        t = self.temp()
        self.w(f"{t} = {self._index(e)}")
        return t

    def _cast(self, e: ast.Cast) -> str:
        t_pure = e.type.pure()
        if isinstance(t_pure, T.PrimType):
            inner = self.emit(e.expr)
            if t_pure == T.INT:
                if self._rt(e.expr) == T.INT:
                    return f"{self.helper('_int', int)}({inner})"
                return f"{self.helper('_jint', _jint)}({inner})"
            if t_pure == T.DOUBLE:
                return f"{self.helper('_float', float)}({inner})"
            if t_pure == T.BOOLEAN:
                return f"{self.helper('_bool', bool)}({inner})"
            return inner
        inner = self.spill(self.emit(e.expr))
        test = self.cg.type_test_fn(True, e.type, self.path)
        return self._typed_site(test, inner)

    def _typed_site(self, fn, inner: str) -> str:
        """Call a cast, ``instanceof`` or view-change closure on ``inner``:
        one whose type was evaluated at emission (``_static``) takes the
        value alone, a dependent one also a ``_FrameView`` of the live
        locals."""
        k = self.const(fn)
        t = self.temp()
        if getattr(fn, "_static", False):
            self.w(f"{t} = {k}({inner})")
        else:
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
        return self._typed_site(self.cg.view_change_fn(e.type, self.path), inner)

    # -- specialized field access ----------------------------------------

    def _field_read(self, e: ast.FieldGet) -> str:
        name = e.name
        if type(e.obj) is ast.This:
            return self._this_read(name, self._rt(e))
        code = self.emit(e.obj)
        gf = self.helper("_gf", self.interp.get_field)
        rt = self._rt(e.obj)
        if name == "length" and rt is not None and isinstance(rt.pure(), T.ArrayType):
            o = self._named(code)
            ln = self.helper("_len", len)
            t = self.temp()
            self.w(f"{t} = {ln}({o}) if {o} is not None else {gf}({o}, 'length')")
            return t
        o = self.spill(code)
        t = self.temp()
        ref = self.helper("_Ref", Ref)
        # the site [view, slot, read function, no-op paths] holds a view in
        # which the field is unmasked: one identity test covers the class
        # test, the mask test and the slot lookup (every other receiver
        # takes the cold path, which refills the site).  Without sharing
        # every view is interned and unmasked, and no read adapts.
        miss = self.const(self.cg.read_miss_fn(name))
        site = self.const([None, -1, None, None])
        self.cg.note_site()
        ab = self.helper("_ABSENT", ABSENT)
        self.w(f"if {o}.__class__ is {ref} and {o}.view is {site}[0]:")
        if self.sharing:
            self.count("mask.check", "    ")
            if self.lp:
                pfm = self.helper("_pfm", PROFILER.mask_hit)
                self.w(f"    {pfm}()")
        self.w(f"    {t} = {o}.inst.slots[{site}[1]]")
        if not self.sharing or _holds_no_ref(self._rt(e)):
            self.w(f"    if {t} is {ab}: {t} = {gf}({o}, {name!r})")
        else:
            wv = self.temp()
            self.w(f"    if {t} is {ab}:")
            self.w(f"        {t} = {gf}({o}, {name!r})")
            self.w(f"    elif {site}[2] is not None and {t}.__class__ is {ref}:")
            # the site's no-op paths (PLAN_NOOP) skip the call, as in
            # _this_read
            self.w(f"        {wv} = {t}.view")
            self.w(f"        if {wv}.path not in {site}[3] or {wv}.masks:")
            self.w(f"            {t} = {site}[2]({t}, {o})")
            if self.lp:
                pfv = self.helper("_pfv", PROFILER.view_hit)
                self.w(f"        else: {pfv}()")
        self.w(f"else:")
        self.w(f"    {t} = {miss}({site}, {o})")
        return t

    def _this_read(self, name: str, rtype) -> str:
        """``this.f``: the slot index and read plan are known at emission
        time — this is where the Layout is baked into the text.  The mask
        test reads the live masks only when ``this`` entered with some
        (:meth:`_tm`)."""
        gf = self.helper("_gf", self.interp.get_field)
        t = self.temp()
        slot = self.rec.slot_of.get(name) if self.rec is not None else None
        if slot is None:
            self.w(f"{t} = {gf}(u_this, {name!r})")
            return t
        ab = self.helper("_ABSENT", ABSENT)
        self.cg.note_site()
        if not self.sharing:
            self.w(f"{t} = u_this.inst.slots[{slot}]")
            self.w(f"if {t} is {ab}: {t} = {gf}(u_this, {name!r})")
            return t
        mblk = self.helper("_mblk", _raise_masked)
        self.count("mask.check")
        if self.lp:
            pfm = self.helper("_pfm", PROFILER.mask_hit)
            self.w(f"{pfm}()")
        self.w(f"if {self._tm()} and {name!r} in u_this.view.masks: "
               f"{mblk}({name!r}, u_this.view)")
        self.w(f"{t} = u_this.inst.slots[{slot}]")
        rplan = self.rec.read_plan.get(name)
        if rplan is None or _holds_no_ref(rtype):
            self.w(f"if {t} is {ab}: {t} = {gf}(u_this, {name!r})")
            return t
        ref = self.helper("_Ref", Ref)
        self.w(f"if {t} is {ab}:")
        self.w(f"    {t} = {gf}(u_this, {name!r})")
        self.w(f"elif {t}.__class__ is {ref}:")
        tag = rplan[0]
        # the read function of the plan: an adapt bound to the static
        # target's view-change table, or PLAN_DYNAMIC's evaluation
        read = self.const(self.cg.read_fn(name, rplan))
        if tag == 0:  # PLAN_NOOP — erased to an inline no-op test
            kn = self.const(rplan[1])
            wv = self.temp()
            self.w(f"    {wv} = {t}.view")
            self.w(f"    if {wv}.path not in {kn} or {wv}.masks:")
            self.w(f"        {t} = {read}({t})")
            if self.lp:
                # the elided no-op still counts as one view adaptation,
                # keeping the view column a cross-backend invariant
                pfv = self.helper("_pfv", PROFILER.view_hit)
                self.w(f"    else: {pfv}()")
        elif tag == 1:  # PLAN_ADAPT — inlined adapt to the static target
            self.w(f"    {t} = {read}({t})")
        else:  # PLAN_DYNAMIC
            self.w(f"    {t} = {read}({t}, u_this)")
        return t

    def _field_store(self, target: ast.FieldGet, v: str) -> None:
        name = target.name
        if type(target.obj) is ast.This:
            slot = self.rec.slot_of.get(name) if self.rec is not None else None
            if slot is None:
                sf = self.helper("_sf", self.interp.set_field)
                self.w(f"{sf}(u_this, {name!r}, {v})")
                return
            self.cg.note_site()
            self.w(f"u_this.inst.slots[{slot}] = {v}")
            if self.sharing:
                unmask = self.helper("_unmask", _remove_mask)
                self.w(f"if {self._tm()} and {name!r} in u_this.view.masks: "
                       f"{unmask}(u_this, {name!r})")
            return
        o = self.spill(self.emit(target.obj))
        ref = self.helper("_Ref", Ref)
        self.cg.note_site()
        # the read site's shape: a cached view has the field unmasked, so
        # a hit has no mask to remove
        miss = self.const(self.cg.store_miss_fn(name))
        site = self.const([None, -1, None, None])
        self.w(f"if {o}.__class__ is {ref} and {o}.view is {site}[0]:")
        self.w(f"    {o}.inst.slots[{site}[1]] = {v}")
        self.w(f"else:")
        self.w(f"    {miss}({site}, {o}, {v})")

    # -- calls -----------------------------------------------------------

    def _call(self, e: ast.Call) -> str:
        name = e.name
        if type(e.obj) is ast.This:
            found = self.interp._lookup_method(self.path, name)
            if (
                found is not None
                and found[1].body is not None
                and len(found[1].params) == len(e.args)
            ):
                owner, decl = found
                # the callee body for this body's own path, fixed once
                # known: a cell [None, body] filled on the first call
                cell: list = [None, None]
                self.ic_sites.append(cell)
                site = self.const(cell)
                fill = self.const(self.cg.this_call_fill_fn(owner, decl, self.path))
                args = self.emit_seq(e.args)
                self.cg.note_site()
                t = self.temp()
                self.count("dispatch.codegen_hit")
                self.w(
                    f"{t} = ({site}[1] or {fill}({site}))"
                    f"(u_this{''.join(', ' + a for a in args)})"
                )
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
        target = self.cg.static_target_for(name, self._rt(e.obj))
        if (
            o != "u_this"
            and target is not None
            and target[1].body is not None
            and len(target[1].params) == len(e.args)
        ):
            owner, decl, valid = target
            loader = self.interp.loader
            loader.sites_devirtualized += 1
            if TRACER.enabled:
                TRACER.count("specialize.sites_devirtualized")
            self.cg.note_site()
            # a site [view, body]: a receiver view whose path is valid
            # fills it, any other dispatches generically
            cell = [None, None]
            self.ic_sites.append(cell)
            site = self.const(cell)
            miss = self.const(self.cg.devirt_miss_fn(name, owner, decl, valid))
            args = self.emit_seq(e.args)
            argstr = "".join(", " + a for a in args)
            t = self.temp()
            self.w(f"if {o}.view is {site}[0]:")
            self.count("dispatch.codegen_hit", "    ")
            self.w(f"    {t} = {site}[1]({o}{argstr})")
            self.w(f"else:")
            self.w(f"    {t} = {miss}({site}, {o}, {len(args)})({o}{argstr})")
            return t
        # monomorphic inline cache over emitted bodies (a miss refills it)
        ic: list = [None, None]
        self.ic_sites.append(ic)
        site = self.const(ic)
        miss = self.const(self.cg.call_miss_fn(name))
        args = self.emit_seq(e.args)
        argstr = "".join(", " + a for a in args)
        t = self.temp()
        if self.traced:
            self.w(f"if {site}[0] == {o}.view.path:")
            self.count("dispatch.codegen_hit", "    ")
            self.w(f"else:")
            self.w(f"    {miss}({site}, {o}, {len(args)})")
        else:
            self.w(f"if {site}[0] != {o}.view.path: {miss}({site}, {o}, {len(args)})")
        self.w(f"{t} = {site}[1]({o}{argstr})")
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
        ints = self._rt(target) == T.INT and self._rt(e.value) == T.INT
        if ints and binop in "/%":
            # an int quotient or remainder stays an int: no coercion
            t = self._divmod(binop, cur, r, target, e.value)
        elif ints and binop in "+-*":
            t = self.temp()
            self.w(f"{t} = ({cur} {binop} {r})")
        else:
            t = self.temp()
            h = self.helper(
                {"+": "_cadd", "-": "_csub", "*": "_cmul", "/": "_cdiv",
                 "%": "_cmod"}[binop],
                {"+": _compound_add, "-": _compound_sub, "*": _compound_mul,
                 "/": _compound_div, "%": _compound_mod}[binop],
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
            self.w(f"{self._index(target)} = {v}")
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
        self, params, body_emit, entry_pos=None, stack_label=None, ctor=False,
    ) -> Any:
        """Assemble, ``compile()``, ``exec`` and register the function
        (``sources``/``by_filename``, its inline-cache sites, the body
        counter).  ``params`` are the J&s parameter declarations
        (``this`` is always register 0 — here, always the first
        positional argument); ``body_emit`` is a thunk that runs the
        emitter over the body.  ``entry_pos`` (the declaration's span)
        attributes the scaffolding the function spends its entry in —
        the header and the depth/fuel/ABSENT prologue — so frames
        stopped there still resolve to a jns span.
        A ``stack_label`` marks a method body (depth prologue).  A
        ``ctor`` body takes its arguments as one tuple, sparing
        ``allocate`` a ``*args`` call (one C-level recursion each)."""
        names: List[str] = []
        seen: Dict[str, int] = {}
        for i, p in enumerate(params):
            names.append("u_" + p.name)
            seen["u_" + p.name] = i
        # a duplicated parameter name maps to its last occurrence, as in
        # the walker's dict frames
        for i, n in enumerate(list(names)):
            if seen[n] != i:
                names[i] = f"_shadow{i}"
        self.bound.add("u_this")
        self.bound.update(names)
        if stack_label is not None:
            self.indent = 2  # the body runs inside the depth try/finally
        pad = "    " * self.indent
        head: List[str] = []
        if ctor and names:
            head.append(f"{pad}{', '.join(names)}, = _args")
        if self.interp._max_steps is not None:
            head.append(pad + self.helper("_tick", self.interp._tick) + "()")
        body_emit()
        locals_needed = sorted(self._locals_to_seed(names))
        if locals_needed:
            ab = self.helper("_ABSENT", ABSENT)
            head.append(f"{pad}{' = '.join(locals_needed)} = {ab}")
        if self.uses_tm:
            head.append(f"{pad}_tm = u_this.view.masks")
        if entry_pos is not None and not entry_pos[0]:
            entry_pos = None
        lines = head + self.lines
        positions = [entry_pos] * len(head) + self.positions
        if not lines:
            lines = [pad + "pass"]
            positions = [entry_pos]
        if stack_label is not None:
            i = self.helper("_I", self.interp)
            lines = [
                f"    _dd = {i}._depth + 1",
                f"    if _dd > {self.interp._max_depth}: raise {i}._depth_error()",
                f"    {i}._depth = _dd",
                "    try:",
            ] + lines + ["    finally:", f"        {i}._depth = _dd - 1"]
            positions = [entry_pos] * 4 + positions + [entry_pos] * 2
        sig = ["u_this"] + (["_args"] if ctor else names)
        text = f"def _cg_fn({', '.join(sig)}):\n" + "\n".join(lines) + "\n"
        # line 1 is the def header; body lines follow the source map
        filename = (
            f"<jns:new {path_str(self.path)}>" if ctor else f"<jns:{self.label}>"
        )
        src = EmittedSource(
            text, label=self.label, filename=filename,
            linemap=[entry_pos] + positions, stack_label=stack_label,
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
        cg = self.cg
        cg.sources[self.label] = src
        cg.by_filename[filename] = src
        cg._emitted[self.key] = (src, self.ic_sites)
        cg._note_body()
        return g["_cg_fn"]

    def _locals_to_seed(self, param_names) -> set:
        taken = set(param_names) | {"u_this"}
        return {n for n in self._all_names if n not in taken}


# ---------------------------------------------------------------------------
# runtime helpers referenced from emitted code (bound as constants)
# ---------------------------------------------------------------------------


def _raise_null_array():
    raise NullDereference("null array")


def _raise_oob(idx, arr):
    raise ArrayError(f"array index {idx} out of bounds (length {len(arr)})")


def _raise_div0():
    raise DivisionByZero("integer division by zero")


def _raise_mod0():
    raise DivisionByZero("integer modulo by zero")


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
    o.view = intern_view(view.path, view.masks - {name})


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


def _compound_mod(current, r):
    v = _jmod(current, r)
    if isinstance(current, int) and isinstance(v, float):
        v = int(v)
    return v


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


def _holds_no_ref(t) -> bool:
    """Whether a value of checker type ``t`` is never a reference: a
    primitive, ``String`` or an array (``None`` — unchecked — may be
    anything)."""
    return t is not None and isinstance(t.pure(), (T.PrimType, T.ArrayType))


def _is_null(e: ast.Expr) -> bool:
    return type(e) is ast.Lit and e.value is None


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

    Eviction: on a body-only edit ``Interp._on_table_edit`` calls
    :meth:`evict` with the retired declarations, and the bodies compiled
    from them are emitted again on their next call; on any other edit it
    drops the whole compiler."""

    def __init__(self, interp) -> None:
        self.interp = interp
        self.sharing = interp.sharing
        #: whether the bodies emitted here plant trace counts
        self.traced = TRACER.enabled
        self.bodies_emitted = 0
        self.sites_inlined = 0
        #: inline-cache call-site misses (each refills its site)
        self.ic_misses = 0
        self._fns: Dict[Tuple[int, Any], Any] = {}
        #: per key of ``_fns``: the body's :class:`EmittedSource` and its
        #: inline-cache sites, dropped with the body
        self._emitted: Dict[Tuple[int, Any], Tuple[EmittedSource, List[list]]] = {}
        self._plans: Dict[Any, _Lazy] = {}
        #: emitted text per label; values are :class:`EmittedSource`
        #: (str subclasses carrying the per-line jns source map)
        self.sources: Dict[str, EmittedSource] = {}
        #: the same bodies keyed by compiled ``co_filename`` — how a
        #: live frame resolves back to its jns line
        self.by_filename: Dict[str, EmittedSource] = {}
        self._devirt: Dict[int, _Lazy] = {}
        self._miss_fns: Dict[str, Any] = {}
        self._resolve_fns: Dict[str, Any] = {}
        self._read_miss: Dict[str, Any] = {}
        self._store_miss: Dict[str, Any] = {}
        self._read_dynamic: Dict[str, Any] = {}
        self._adapters: Dict[Any, Any] = {}
        self._unbound: Dict[str, Any] = {}
        #: :meth:`_shared_site`'s memo: field name -> {id(view): (view,
        #: site contents)}
        self._sites: Dict[str, Dict[int, Tuple[Any, list]]] = {}
        self._records = interp.loader._q_rtclass

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

    def method_fn(self, decl, path, owner=None):
        """The compiled Python function for a method body declared in
        ``owner`` (or, with no owner, a constructor body), specialized
        for receivers viewed as ``path``."""
        key = (id(decl), path)
        fn = self._fns.get(key)
        if fn is None:
            label = f"{path_str(path)}.{decl.name}"
            em = _Emitter(self, key, label, decl.body)
            with TRACER.span("codegen", unit=label):
                fn = self._fns[key] = em.finish(
                    decl.params, lambda: em.stmt(decl.body), decl.pos,
                    stack_label=(
                        None if owner is None else f"{path_str(owner)}.{decl.name}"
                    ),
                    ctor=owner is None,
                )
        return fn

    def init_fn(self, decl, path):
        """The compiled function for a field initializer expression
        (receiver only: ``fn(ref)``)."""
        key = (id(decl), path)
        fn = self._fns.get(key)
        if fn is None:
            em = _Emitter(self, key, f"{path_str(path)}.{decl.name}=<init>", decl.init)
            fn = self._fns[key] = em.finish(
                (), lambda: em.w(f"return {em.emit(decl.init)}"), decl.pos
            )
        return fn

    def evict(self, retired_ids) -> None:
        """Forget the bodies compiled from the member declarations whose
        ids are ``retired_ids`` (a body-only edit); they are emitted again
        on their next call.  A graft keeps the declaration objects, so no
        id is recycled, and every other body stays valid: the interface
        it baked in is unchanged.  Kept bodies reach a retired one only
        through containers they hold as constants, so those are emptied
        in place: the retired declarations' devirtualized-body tables, the
        allocation plans whose constructor is retired (field initializers
        are interface, never grafted) and the inline-cache sites bound to
        a retired body."""
        gone = set()
        for key in [k for k in self._fns if k[0] in retired_ids]:
            gone.add(self._fns.pop(key))
            src, _ = self._emitted.pop(key)
            if self.sources.get(src.label) is src:
                del self.sources[src.label]
            if self.by_filename.get(src.filename) is src:
                del self.by_filename[src.filename]
        for i in retired_ids:
            bodies = self._devirt.get(i)
            if bodies is not None:
                bodies.clear()
        if not gone:
            return
        for plans in self._plans.values():
            if any(plan.ctor in gone for plan in plans.values()):
                plans.clear()
        for _, sites in self._emitted.values():
            for site in sites:
                if site[1] in gone:
                    site[0] = site[1] = None

    # -- allocation ------------------------------------------------------

    def new_plans(self, path):
        """The :class:`_NewPlan` of each constructor arity of class
        ``path``, built on first lookup, so that its errors (an abstract
        class, a sharing state that does not resolve) surface when a
        ``new`` first runs."""
        plans = self._plans.get(path)
        if plans is None:
            plans = self._plans[path] = _Lazy(
                lambda nargs: self._new_plan(path, nargs)
            )
        return plans

    def _new_plan(self, path, nargs):
        interp = self.interp
        loader = interp.loader
        if loader.rtclass(path).is_abstract:
            raise JnsRuntimeError(f"cannot instantiate abstract class {path_str(path)}")
        rtc = loader.specialized(path)
        steps = tuple(
            (idx, None if decl is None else self.init_fn(decl, path), default)
            for idx, decl, default in rtc.init_plan
        )
        found = loader.find_ctor(rtc, nargs)
        if found is not None:
            ctor = self.method_fn(found[1], path)
        elif nargs:
            def ctor(ref, args):
                raise ArityError(
                    f"no {nargs}-argument constructor for {path_str(path)}"
                )
        else:
            ctor = None
        return _NewPlan(interp, path, rtc.layout, steps, ctor, self.traced)

    # -- per-name closures referenced from emitted code ------------------

    def unbound_raiser(self, name):
        fn = self._unbound.get(name)
        if fn is None:

            def raise_unbound():
                raise NoSuchName(f"unbound variable {name!r}")

            fn = self._unbound[name] = raise_unbound
        return fn

    def _shared_site(self, name, view):
        """The contents ``[view, slot, read function, no-op paths]`` of a
        read or store site of field ``name`` for receivers viewed as
        ``view``, which a missing site copies into itself.  Memoized per
        field name and ``id`` of the (interned) view, each entry holding
        ``(view, contents)`` and hit only on ``entry[0] is view``, so a
        polymorphic site's refill builds nothing once warm.  With the
        loader's ``rtclass`` query disabled every call builds again, as a
        call site then dispatches again (:meth:`call_miss_fn`)."""
        if not self._records._enabled:
            return self._build_site(name, view)
        by_view = self._sites.get(name)
        if by_view is None:
            by_view = self._sites[name] = {}
        entry = by_view.get(id(view))
        if entry is not None and entry[0] is view:
            return entry[1]
        contents = self._build_site(name, view)
        by_view[id(view)] = (view, contents)
        return contents

    def _build_site(self, name, view):
        """Build :meth:`_shared_site`'s contents: the slot and read plan of
        the view's class (the read function of the plan, see
        :meth:`read_fn`, or ``None`` for none, as always without
        sharing); raises JNS-RUN-003 when the class has no such field."""
        vp = view.path
        rec = self.interp.loader.specialized(vp)
        i = rec.slot_of.get(name)
        if i is None:
            raise NoSuchName(f"no field {name!r} on {path_str(vp)}")
        plan = rec.read_plan.get(name)
        if plan is None:
            return [view, i, None, _NO_PATHS]
        noops = plan[1] if plan[0] == 0 else _NO_PATHS
        return [view, i, self.read_fn(name, plan), noops]

    def read_miss_fn(self, name):
        """The cold path of the read sites of field ``name`` through a
        receiver other than ``this``: the full guard sequence of
        ``Interp.get_field`` (a null or non-object receiver, and in
        ``jns`` mode a masked field raising JNS-RUN-002), then the read,
        with the counts and profiler hooks a hit plants.  The site is
        refilled for the receiver's view, which has the field
        unmasked."""
        fn = self._read_miss.get(name)
        if fn is None:
            gf = self.interp.get_field
            sharing = self.sharing
            traced = self.traced
            lp = self.interp.line_profile

            def miss(site, o):
                if o.__class__ is not Ref:
                    return gf(o, name)
                view = o.view
                if sharing:
                    if traced:
                        TRACER.count("mask.check")
                    if lp:
                        PROFILER.mask_hit()
                    if name in view.masks:
                        _raise_masked(name, view)
                site[:] = self._shared_site(name, view)
                v = o.inst.slots[site[1]]
                if v is ABSENT:
                    return gf(o, name)
                if site[2] is not None and v.__class__ is Ref:
                    w = v.view
                    if w.path not in site[3] or w.masks:
                        return site[2](v, o)
                    if lp:
                        PROFILER.view_hit()
                return v

            fn = self._read_miss[name] = miss
        return fn

    def store_miss_fn(self, name):
        """The cold path of the store sites of field ``name`` (see
        :meth:`read_miss_fn`): ``Interp.set_field``'s guards, the store,
        and R-SET's unmask; the site is refilled for the view the
        receiver has after the store."""
        fn = self._store_miss.get(name)
        if fn is None:
            sf = self.interp.set_field

            def miss(site, o, v):
                if o.__class__ is not Ref:
                    sf(o, name, v)
                    return
                site[:] = self._shared_site(name, o.view)
                o.inst.slots[site[1]] = v
                if name in o.view.masks:
                    _remove_mask(o, name)
                    site[0] = o.view

            fn = self._store_miss[name] = miss
        return fn

    def read_fn(self, name, plan):
        """``fn(v, o)``: the value ``v`` read from field ``name`` of
        receiver ``o``, moved into the view read plan ``plan`` gives it.
        A PLAN_NOOP (whose site's no-op test failed) or PLAN_ADAPT plan
        adapts to its static target through :meth:`adapt_fn`; a
        PLAN_DYNAMIC one evaluates the receiver's target type per read."""
        if plan[0] == 0:
            return self.adapt_fn(plan[2])
        if plan[0] == 1:
            return self.adapt_fn(plan[1])
        fn = self._read_dynamic.get(name)
        if fn is None:
            interp = self.interp
            adapt = interp._adapt
            retarget_dyn = interp._retarget_type
            rtclass = interp.loader.rtclass

            def read_dynamic(v, o):
                target = retarget_dyn(rtclass(o.view.path), name, o)
                if target is not None:
                    return adapt(v, target)
                return v

            fn = self._read_dynamic[name] = read_dynamic
        return fn

    def adapt_fn(self, target):
        """``Interp.adapt_fn(target)``, one per target in this compiler."""
        fn = self._adapters.get(target)
        if fn is None:
            fn = self._adapters[target] = self.interp.adapt_fn(target)
        return fn

    # -- call targets ----------------------------------------------------

    def static_target_for(self, name: str, rtype: Optional[Type]):
        """Unique dispatch target ``(owner, decl, valid paths)`` for
        ``name`` at a call site, or ``None`` when the site stays
        polymorphic (it keeps its inline cache).  Names sealed across the
        locally closed world resolve directly.  Names that are monomorphic
        *for this receiver's static type* devirtualize too, even when
        polymorphic globally: when the checker annotated the receiver
        expression with a non-dependent class type, every conforming path
        in the locally closed world resolving ``name`` to one declaration
        seals the site just as well (the site's membership guard keeps it
        sound on unchecked receivers).  Both enumerations are memoized on
        the class table."""
        table = self.interp.table
        target = table.sealed_method_target(name)
        if target is not None or rtype is None:
            return target
        if T.paths_in(rtype):
            return None  # dependent receiver type: no static path set
        if isinstance(rtype.pure(), (T.PrimType, T.ArrayType)):
            return None
        try:
            paths = table.conforming_paths(rtype)
        except (ResolveError, JnsError):
            return None
        if not paths:
            return None
        return table.monomorphic_method_target(name, paths)

    def devirt_bodies(self, owner, decl):
        """The emitted bodies of ``decl`` keyed by receiver view path (slot
        indices differ across family members even when the declaration
        is shared), for devirtualized call sites; a new path emits."""
        bodies = self._devirt.get(id(decl))
        if bodies is None:
            bodies = self._devirt[id(decl)] = _Lazy(
                lambda vp: self.method_fn(decl, vp, owner)
            )
        return bodies

    def this_call_fill_fn(self, owner, decl, path):
        """Fill a devirtualized this-call's cell ``[None, body]`` with the
        body of ``decl`` for the caller's own ``path``, and return it."""
        bodies = self.devirt_bodies(owner, decl)

        def fill(cell):
            body = cell[1] = bodies[path]
            return body

        return fill

    def devirt_miss_fn(self, name, owner, decl, valid):
        """The cold path of a receiver-devirtualized call site ``[view,
        body]``: a receiver path in ``valid`` fills the site with the
        body of ``decl`` for that path (a hit, counted as one); any
        other receiver is dispatched generically and leaves the site as
        it is.  With caches off the site is never filled, as an inline
        cache keeps no path (:meth:`call_miss_fn`).  Returns the body to
        call."""
        bodies = self.devirt_bodies(owner, decl)
        resolve = self.resolve_fn(name)
        traced = self.traced
        records = self._records

        def miss(site, receiver, nargs):
            view = receiver.view
            if view.path not in valid:
                return resolve(receiver, nargs)
            if traced:
                TRACER.count("dispatch.codegen_hit")
            body = bodies[view.path]
            if records._enabled:
                site[0], site[1] = view, body
            return body

        return miss

    def resolve_fn(self, name):
        """Dispatch ``name`` for the sites that cannot bind statically
        (devirtualization fallbacks, inline-cache misses): ``fn(receiver,
        nargs)`` is the emitted body for the receiver's view path.  The
        site calls that body itself, with a plain call, so no resolver
        frame (nor a C-level ``*args`` call) sits between two J&s
        frames."""
        fn = self._resolve_fns.get(name)
        if fn is None:
            interp = self.interp
            lookup = interp._lookup_method

            def resolve(receiver, nargs):
                vp = receiver.view.path
                found = lookup(vp, name)
                if found is None:
                    raise NoSuchMethod(f"no method {name!r} on {path_str(vp)}")
                owner, decl = found
                interp._check_call(owner, decl, name, nargs)
                return self.method_fn(decl, vp, owner)

            fn = self._resolve_fns[name] = resolve
        return fn

    def call_miss_fn(self, name):
        """The cold path of a monomorphic inline-cache call site ``[view
        path, body]``: counts one miss (:attr:`ic_misses`) and refills
        the site for the receiver's view path.  With caches off the site
        keeps no path, so every call dispatches again."""
        fn = self._miss_fns.get(name)
        if fn is None:
            resolve = self.resolve_fn(name)
            records = self._records

            def miss(site, receiver, nargs):
                self.ic_misses += 1
                if TRACER.enabled:
                    TRACER.count("dispatch.ic_miss")
                site[1] = resolve(receiver, nargs)
                site[0] = receiver.view.path if records._enabled else None

            fn = self._miss_fns[name] = miss
        return fn

    # -- cold dependent-type sites ---------------------------------------

    def new_path_fn(self, t):
        """The class a dependent ``new t`` site instantiates: ``fn(frame
        view)``."""
        eval_type = self.interp._eval_type

        def resolve(fv):
            path = _class_path(eval_type(t, fv))
            if path is None:
                raise JnsRuntimeError(f"cannot instantiate {t!r}")
            return path

        return resolve

    def static_new_path(self, t, path):
        """The class ``new t`` instantiates in a body for receivers viewed
        as ``path``, when :meth:`_static_type` evaluates ``t`` to a class;
        else ``None`` (the site evaluates it, and raises, when it runs)."""
        evaled = self._static_type(t, path)
        return None if evaled is None else _class_path(evaled)

    def newarray_fn(self, elem_type):
        default = default_value(elem_type)

        def make(n):
            if not isinstance(n, int) or n < 0:
                raise ArrayError(f"bad array length {n!r}")
            return [default] * n

        return make

    def _static_type(self, t, path):
        """``t`` evaluated once, at emission, in class ``path``, the
        receiver path of the body that mentions it, when its only
        dependent path, if any, is ``this``: the body runs only for
        receivers viewed at ``path``, and evaluating ``this.class``
        ignores masks.  ``None`` for a type rooted at a local, or one
        whose evaluation fails (the site then evaluates it, and raises,
        when it runs)."""
        if any(p != _THIS for p in T.paths_in(t)):
            return None
        try:
            return self.interp.table.eval_type_static(t, path)
        except (ResolveError, JnsError):
            return None

    def type_test_fn(self, cast, t, path):
        """A cast (``cast`` true) or ``instanceof`` site of reference type
        ``t`` in a body for receivers viewed as ``path``: ``fn(v)`` when
        ``t`` is evaluated at emission, else ``fn(v, frame view)``, which
        takes ``Interp.cast_value``/``instanceof_value``.  An object
        tested against an evaluated type decides through
        ``Interp.conforms_fn``, bound here once, so a warm test hashes no
        type; any other value takes the interpreter's method."""
        interp = self.interp
        test = interp.cast_value if cast else interp.instanceof_value
        evaled = self._static_type(t, path)
        if evaled is None:
            return lambda v, fv: test(v, t, fv)
        if isinstance(t.pure(), T.PrimType):
            # ``o instanceof int`` is false with no conformance test

            def static_test(v):
                return test(v, t, None, evaled)

        elif cast:
            conforms_to = interp.conforms_fn(evaled)

            def static_test(v):
                if v.__class__ is Ref:
                    if conforms_to(v.view):
                        return v
                    raise cast_error(v, evaled)
                return test(v, t, None, evaled)

        else:
            conforms_to = interp.conforms_fn(evaled)

            def static_test(v):
                if v.__class__ is Ref:
                    return conforms_to(v.view)
                return test(v, t, None, evaled)

        static_test._static = True
        return static_test

    def view_unsupported_fn(self):
        mode = self.interp.mode

        def raise_mode():
            raise JnsRuntimeError(
                f"view changes require the jns mode (running in {mode!r})"
            )

        return raise_mode

    def view_change_fn(self, target, path):
        """Explicit ``(view T)e`` in a body for receivers viewed as
        ``path``.  A target evaluated at emission (:meth:`_static_type`)
        adapts through :meth:`adapt_fn`, and elides the whole adapt when
        the source view is in the proven no-op set
        (``view_change.elided``); any other target keeps the full dynamic
        path."""
        interp = self.interp
        evaled = self._static_type(target, path)
        if evaled is not None:
            noops = (
                _NO_PATHS if evaled.masks
                else interp.table.conforming_paths(evaled)
            )
            adapt_to = self.adapt_fn(evaled)

            def static_view(v):
                if v is None:
                    return None
                if v.__class__ is not Ref:
                    raise CastError(f"view change applied to non-object {v!r}")
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
                    result = adapt_to(v)
                if interp.eager_views:
                    interp.propagate_views(result)
                return result

            static_view._static = True
            return static_view
        eval_type = interp._eval_type
        adapt = interp._adapt

        def dyn_view(v, frame):
            if v is None:
                return None
            if not isinstance(v, Ref):
                raise CastError(f"view change applied to non-object {v!r}")
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

        return dyn_view


def _class_path(t):
    """The class path an evaluated ``new`` type instantiates (the first
    part of an intersection), or ``None`` when it is no class."""
    t = t.pure()
    if isinstance(t, T.IsectType):
        t = t.parts[0]
    return t.path if isinstance(t, ClassType) else None


class _Lazy(dict):
    """A dict that builds a missing value on first lookup: emitted bodies
    by view path, allocation plans by arity."""

    __slots__ = ("build",)

    def __init__(self, build) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class _NewPlan:
    """What ``interp.allocate`` needs for ``new P(...)`` with one arity: the
    layout, one shared no-mask view of ``P``, the initializer schedule
    (slot, emitted initializer or ``None``, default) and the emitted
    constructor (``None`` for none; a raiser if the arity has none)."""

    __slots__ = ("interp", "path", "layout", "view", "steps", "ctor", "traced")

    def __init__(self, interp, path, layout, steps, ctor, traced) -> None:
        self.interp = interp
        self.path = path
        self.layout = layout
        self.view = intern_view(path)
        self.steps = steps
        self.ctor = ctor
        self.traced = traced
