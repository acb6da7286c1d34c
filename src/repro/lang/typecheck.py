"""The J&s static checker.

Implements the practical analogue of the paper's static semantics:

* expression and statement typing (Fig. 10's T-rules) with the
  flow-sensitive masked-type analysis of Section 6.1 — each method is
  checked with a per-program-point environment where assignments to
  ``x.f`` remove the mask on ``f`` (the ``grant`` function);
* program typing (Fig. 15): field initializers, method bodies, overriding
  arity conformance, sharing-declaration legality (L-OK: the shares target
  must be a further-bound ancestor; unmasked fields of shared classes must
  have shared interpreted types);
* sharing-constraint well-formedness (Q-OK) at the declaring class *and*
  at every class that inherits the method, so that "base family methods
  whose sharing constraints do not hold must be overridden" (Section 2.5);
* view-change checking (T-VIEW): every ``(view T)e`` needs an enabling
  sharing judgment — a constraint in scope, or (flagged as a modularity
  warning, rejected under ``strict_sharing``) the global closed-world
  SH-CLS check.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..diagnostics import Diagnostic, Span
from ..obs import TRACER
from ..records import Record
from ..source import ast
from . import types as T
from .classtable import ClassTable, JnsError, ResolveError, TypeError_, path_str
from .provenance import PROVENANCE as _PROV
from .queries import MISS, CacheStats, collect_stats, read_input, reset_tracker
from .subtype import Env, substitute_this, subtype
from .types import ClassType, Path, Type

_NUMERIC = (T.INT, T.DOUBLE)

#: Native library signatures: name -> (param kinds, return type).
#: "num" accepts int or double and influences the return type of
#: numeric-polymorphic functions.
_SYS_SIGS: Dict[str, Tuple[Tuple[str, ...], object]] = {
    "print": (("any",), T.VOID),
    "println": (("any",), T.VOID),
    "sqrt": (("num",), T.DOUBLE),
    "abs": (("num",), "num"),
    "fabs": (("num",), T.DOUBLE),
    "min": (("num", "num"), "num"),
    "max": (("num", "num"), "num"),
    "floor": (("num",), T.DOUBLE),
    "ceil": (("num",), T.DOUBLE),
    "pow": (("num", "num"), T.DOUBLE),
    "sin": (("num",), T.DOUBLE),
    "cos": (("num",), T.DOUBLE),
    "tan": (("num",), T.DOUBLE),
    "asin": (("num",), T.DOUBLE),
    "acos": (("num",), T.DOUBLE),
    "atan": (("num",), T.DOUBLE),
    "atan2": (("num", "num"), T.DOUBLE),
    "log": (("num",), T.DOUBLE),
    "exp": (("num",), T.DOUBLE),
    "intOf": (("num",), T.INT),
    "doubleOf": (("num",), T.DOUBLE),
    "str": (("any",), T.STRING),
    "strLen": ((T.STRING,), T.INT),
    "charAt": ((T.STRING, T.INT), T.STRING),
    "substring": ((T.STRING, T.INT, T.INT), T.STRING),
    "parseInt": ((T.STRING,), T.INT),
    "fail": ((T.STRING,), T.VOID),
    "identityHash": (("any",), T.INT),
    "viewName": (("any",), T.STRING),
    "PI": ((), T.DOUBLE),
    "E": ((), T.DOUBLE),
    "MAX_INT": ((), T.INT),
    "MIN_INT": ((), T.INT),
    "MAX_DOUBLE": ((), T.DOUBLE),
}


class CheckReport(Record):
    """The diagnostics of one check.  ``cache_stats`` is the snapshot of
    the table/sharing query caches after checking (filled in by
    :func:`check_program`; None for hand-built reports)."""

    __slots__ = ("errors", "warnings", "cache_stats")

    def __init__(
        self,
        errors: Optional[List[Diagnostic]] = None,
        warnings: Optional[List[Diagnostic]] = None,
        cache_stats: Optional[CacheStats] = None,
    ) -> None:
        self.errors = [] if errors is None else errors
        self.warnings = [] if warnings is None else warnings
        self.cache_stats = cache_stats

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.errors == other.errors
                and self.warnings == other.warnings
                and self.cache_stats == other.cache_stats
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_on_error(self) -> None:
        if self.errors:
            lines = "\n".join(str(e) for e in self.errors)
            raise TypeError_(f"type checking failed:\n{lines}")


class _MethodCtx:
    """Per-method checking state: declared types of locals, return type."""

    def __init__(self, ret: Type) -> None:
        self.declared: Dict[str, Type] = {}
        self.ret = ret


class TypeChecker:
    def __init__(
        self,
        table: ClassTable,
        strict_sharing: bool = False,
        skip: Iterable[Path] = (),
    ) -> None:
        self.table = table
        self.strict_sharing = strict_sharing
        self.skip = frozenset(skip)
        self.report = CheckReport()

    @property
    def sharing(self):
        """The table-persistent sharing checker: its caches (and their
        stats) survive across checks and revalidate per class after
        edits.  Made on the first sharing judgment, so checking a
        share-free program never loads :mod:`repro.lang.sharing`."""
        return self.table.sharing_checker()

    # ------------------------------------------------------------------

    def error(
        self,
        where: str,
        message: str,
        code: str = "JNS-TYPE-001",
        pos=None,
        span: Optional[Span] = None,
        explain=None,
        notes: Iterable[str] = (),
    ) -> None:
        if span is None:
            span = Span.from_pos(pos)
        self.report.errors.append(
            Diagnostic(
                code,
                "error",
                message,
                span=span,
                where=where,
                notes=list(notes),
                explain=explain,
            )
        )

    def _refutation(self, cap) -> Tuple[Optional[dict], List[str]]:
        """Build the diagnostic payload from a provenance capture: the
        serialized refutation tree plus human-readable note lines (empty
        when recording was off or nothing failed)."""
        failed = cap.failed()
        if failed is None:
            return None, []
        ref = failed.refutation()
        if ref is None:
            return None, []
        lines = ref.format().splitlines()
        if len(lines) > 12:
            lines = lines[:12] + [f"... ({len(lines) - 12} more premise lines)"]
        return ref.to_dict(), ["refutation:"] + ["  " + l for l in lines]

    def warn(
        self,
        where: str,
        message: str,
        code: str = "JNS-TYPE-001",
        pos=None,
        span: Optional[Span] = None,
    ) -> None:
        if span is None:
            span = Span.from_pos(pos)
        self.report.warnings.append(
            Diagnostic(code, "warning", message, span=span, where=where)
        )

    def _error_exc(self, where: str, exc: Exception, pos=None) -> None:
        """Record a raised JnsError, preserving its code/span when present."""
        code = getattr(exc, "code", None) or "JNS-TYPE-001"
        span = getattr(exc, "span", None)
        if span is None:
            span = Span.from_pos(pos)
        self.error(where, str(exc), code=code, span=span)

    def check_program(self) -> CheckReport:
        reset_tracker()
        # P-OK: the inheritance relation must be acyclic
        for path in list(self.table.explicit):
            try:
                ancestors = self.table.ancestors(path)
            except (ResolveError, JnsError) as exc:
                self._error_exc(path_str(path), exc)
                return self.report
            for other in ancestors[1:]:
                if path in self.table.ancestors(other):
                    self.error(
                        path_str(path),
                        f"cyclic inheritance with {path_str(other)}",
                        code="JNS-TYPE-002",
                    )
                    return self.report
        with TRACER.span("build_sharing"):
            self.table._build_sharing()
        for path in self.table.explicit:
            if path in self.skip:
                continue
            errors, warnings = self.class_report(path)
            self.report.errors.extend(errors)
            self.report.warnings.extend(warnings)
        self._check_inherited_constraints()
        return self.report

    def _cacheable(self) -> bool:
        """Per-class results may come from (or go to) the memo table only
        when nothing run-specific can leak into them: no derivation
        recording (``--explain`` attaches refutation payloads built only
        while recording) and no skip set."""
        return not _PROV.enabled and not self.skip

    def class_report(
        self, path: Path
    ) -> Tuple[Tuple[Diagnostic, ...], Tuple[Diagnostic, ...]]:
        """L-OK for one class as an order-independent, memoizable unit
        (the co-contextual restructuring): returns the (errors, warnings)
        this class contributes.  Cached on the table's engine keyed by
        class path, with dependencies captured against the versioned
        inputs — an edit re-checks only classes whose inputs changed."""
        q = self.table.queries.query("check_class")
        key = (path, self.strict_sharing)
        cacheable = self._cacheable()
        if cacheable:
            cached = q.get(key)
            if cached is not MISS:
                return cached
        read_input(("iface", path))
        read_input(("body", path))
        saved = self.report
        self.report = CheckReport()
        try:
            info = self.table.explicit[path]
            try:
                if TRACER.enabled:
                    with TRACER.span("check_class", unit=path_str(path)):
                        self.check_class(path, info)
                else:
                    self.check_class(path, info)
            except (ResolveError, TypeError_, JnsError) as exc:
                self._error_exc(path_str(path), exc)
            result = (tuple(self.report.errors), tuple(self.report.warnings))
        finally:
            self.report = saved
        if cacheable:
            q.put(key, result)
        return result

    def inherited_report(self, path: Path) -> Tuple[Diagnostic, ...]:
        """Q-OK at one inheriting class (see
        :meth:`_check_inherited_constraints`), memoized like
        :meth:`class_report`."""
        q = self.table.queries.query("inherited_ok")
        key = (path, self.strict_sharing)
        cacheable = self._cacheable()
        if cacheable:
            cached = q.get(key)
            if cached is not MISS:
                return cached
        read_input(("iface", path))
        saved = self.report
        self.report = CheckReport()
        try:
            self._check_inherited_at(path)
            result = tuple(self.report.errors)
        finally:
            self.report = saved
        if cacheable:
            q.put(key, result)
        return result

    # ------------------------------------------------------------------
    # classes (L-OK)
    # ------------------------------------------------------------------

    def check_class(self, path: Path, info) -> None:
        where = path_str(path)
        decl = info.decl
        target = self.table.share_target(path)
        if target != path:
            # Only an overriding class may share the class it overrides
            # (Section 2.2): the target must be a further-bound ancestor.
            if not self.table.inherits(path, target):
                self.error(
                    where,
                    f"shares target {path_str(target)} is not an ancestor",
                    code="JNS-TYPE-013",
                )
            elif target[-1:] != path[-1:]:
                self.warn(
                    where,
                    f"shares target {path_str(target)} has a different member "
                    "name; sharing is intended for overriding classes",
                    code="JNS-TYPE-013",
                )
            self._check_share_masks(path, target)
        for member in decl.members:
            if getattr(member, "_resolve_failed", False):
                continue  # partially resolved; its error is already reported
            try:
                if isinstance(member, ast.FieldDecl):
                    self._check_field(path, member)
                elif isinstance(member, ast.MethodDecl):
                    self._check_method(path, member)
                elif isinstance(member, ast.CtorDecl):
                    self._check_ctor(path, member)
            except (ResolveError, TypeError_, JnsError) as exc:
                self._error_exc(where, exc, pos=getattr(member, "pos", None))
            except Exception as exc:  # internal guard: a partially resolved
                # sibling can leak surface TypeASTs into this member's
                # types; report instead of crashing the whole check.
                self.error(
                    where,
                    f"internal checker error: {type(exc).__name__}: {exc}",
                    code="JNS-GEN-000",
                    pos=getattr(member, "pos", None),
                )
        self._check_overrides(path, decl)

    def _check_share_masks(self, path: Path, target: Path) -> None:
        """L-OK: every unmasked field of the shared class must have shared
        interpreted types in both families; final fields cannot be
        masked."""
        where = path_str(path)
        masks = self.table.share_masks(path)
        for owner, fdecl in self.table.all_fields(target):
            if fdecl.final and fdecl.name in masks:
                self.error(
                    where,
                    f"final field {fdecl.name!r} may not be masked in shares",
                    code="JNS-TYPE-013",
                )
            if fdecl.name in masks:
                continue
            if not isinstance(fdecl.type, T.Type):
                continue  # unresolved (an error reported elsewhere)
            if not T.paths_in(fdecl.type):
                continue  # non-dependent: identical in both families
            try:
                t_here = self.table.eval_type_static(fdecl.type, this=path).pure()
                t_there = self.table.eval_type_static(fdecl.type, this=target).pure()
            except (ResolveError, JnsError):
                continue
            if not isinstance(t_here, ClassType) or not isinstance(t_there, ClassType):
                continue
            # lenient: new fields in the derived family are governed by the
            # deferred-initialization discipline (see SharingChecker)
            with _PROV.capture() as cap:
                ok = self.sharing.type_shares(
                    t_here, t_there, frozenset(), lenient=True
                ) and self.sharing.type_shares(
                    t_there, t_here, frozenset(), lenient=True
                )
            if not ok:
                explain, notes = self._refutation(cap)
                self.error(
                    where,
                    f"field {fdecl.name!r} has unshared interpreted types "
                    f"({t_here!r} vs {t_there!r}) and must be masked in the "
                    "shares clause (Section 3.1)",
                    code="JNS-TYPE-013",
                    pos=getattr(fdecl, "pos", None),
                    explain=explain,
                    notes=notes,
                )

    def _check_overrides(self, path: Path, decl: ast.ClassDecl) -> None:
        where = path_str(path)
        for method in decl.methods:
            for sup in self.table.ancestors(path)[1:]:
                sup_info = self.table.iface_info(sup)
                if sup_info is None:
                    continue
                for other in sup_info.decl.methods:
                    if other.name == method.name and len(other.params) != len(
                        method.params
                    ):
                        self.error(
                            where,
                            f"method {method.name!r} overrides "
                            f"{path_str(sup)}.{other.name} with different arity",
                            code="JNS-TYPE-016",
                            pos=getattr(method, "pos", None),
                        )

    def _check_inherited_constraints(self) -> None:
        """Q-OK at every inheriting class: the method implementation
        selected for each class must have constraints that hold there."""
        for path in self.table.all_class_paths():
            self.report.errors.extend(self.inherited_report(path))

    def _check_inherited_at(self, path: Path) -> None:
        for name in self.table.all_method_names(path):
            found = self.table.find_method(path, name)
            if found is None:
                continue
            owner, decl = found
            for constraint in decl.constraints:
                if not isinstance(constraint.left, T.Type):
                    continue
                with _PROV.capture() as cap:
                    holds = self._constraint_holds(path, constraint)
                if not holds:
                    explain, notes = self._refutation(cap)
                    self.error(
                        path_str(path),
                        f"sharing constraint of inherited method "
                        f"{path_str(owner)}.{name} does not hold in this "
                        "family; the method must be overridden "
                        "(Section 2.5)",
                        code="JNS-TYPE-012",
                        explain=explain,
                        notes=notes,
                    )

    def _constraint_holds(self, ctx: Path, constraint: ast.SharingConstraint) -> bool:
        try:
            left = self.table.eval_type_static(constraint.left, this=ctx)
            right = self.table.eval_type_static(constraint.right, this=ctx)
        except (ResolveError, JnsError):
            return False
        lp, rp = left.pure(), right.pure()
        if not isinstance(lp, ClassType) or not isinstance(rp, ClassType):
            return False
        return self.sharing.type_shares(
            lp, rp, right.masks
        ) and self.sharing.type_shares(rp, lp, left.masks)

    # ------------------------------------------------------------------
    # members
    # ------------------------------------------------------------------

    def _base_env(self, path: Path, constraints=()) -> Env:
        env = Env(self.table, path)
        env.vars["this"] = ClassType(path)
        env.constraints = [
            (c.left, c.right)
            for c in constraints
            if isinstance(c.left, T.Type) and isinstance(c.right, T.Type)
        ]
        return env

    def _check_field(self, path: Path, decl: ast.FieldDecl) -> None:
        where = f"{path_str(path)}.{decl.name}"
        if decl.init is None:
            return
        env = self._base_env(path)
        ctx = _MethodCtx(T.VOID)
        t = self.type_expr(decl.init, env, ctx, where)
        if t is not None and not subtype(env, t, decl.type):
            self.error(
                where,
                f"initializer type {t!r} is not a {decl.type!r}",
                code="JNS-TYPE-003",
                pos=getattr(decl, "pos", None),
            )

    def _check_ctor(self, path: Path, decl: ast.CtorDecl) -> None:
        where = f"{path_str(path)}.{decl.name}(ctor)"
        env = self._base_env(path)
        ctx = _MethodCtx(T.VOID)
        for param in decl.params:
            env.vars[param.name] = param.type
            ctx.declared[param.name] = param.type
        self.check_stmt(decl.body, env, ctx, where)

    def _check_method(self, path: Path, decl: ast.MethodDecl) -> None:
        where = f"{path_str(path)}.{decl.name}"
        # Q-OK at the declaring class
        for constraint in decl.constraints:
            if isinstance(constraint.left, T.Type):
                with _PROV.capture() as cap:
                    holds = self._constraint_holds(path, constraint)
                if not holds:
                    explain, notes = self._refutation(cap)
                    self.error(
                        where,
                        f"sharing constraint {constraint.left!r} = "
                        f"{constraint.right!r} does not hold",
                        code="JNS-TYPE-012",
                        pos=getattr(decl, "pos", None),
                        explain=explain,
                        notes=notes,
                    )
        if decl.body is None:
            if not decl.abstract:
                self.error(
                    where,
                    "non-abstract method has no body",
                    pos=getattr(decl, "pos", None),
                )
            return
        env = self._base_env(path, decl.constraints)
        ctx = _MethodCtx(decl.ret_type)
        for param in decl.params:
            env.vars[param.name] = param.type
            ctx.declared[param.name] = param.type
        self.check_stmt(decl.body, env, ctx, where)

    # ------------------------------------------------------------------
    # statements (flow-sensitive: env.vars is mutated; branches use copies)
    # ------------------------------------------------------------------

    def check_stmt(self, s: ast.Stmt, env: Env, ctx: _MethodCtx, where: str) -> None:
        if isinstance(s, ast.Block):
            for inner in s.stmts:
                self.check_stmt(inner, env, ctx, where)
            return
        if isinstance(s, ast.LocalDecl):
            if s.name in env.vars:
                self.error(
                    where,
                    f"duplicate local variable {s.name!r}",
                    code="JNS-TYPE-009",
                    pos=s.pos,
                )
            t = s.type
            if s.init is not None:
                t_init = self.type_expr(s.init, env, ctx, where)
                if t_init is not None and not subtype(env, t_init, t):
                    self.error(
                        where,
                        f"cannot initialize {s.name}: {t_init!r} is not a {t!r}",
                        code="JNS-TYPE-003",
                        pos=s.pos,
                    )
                if t_init is not None and t_init.masks and not t.masks:
                    # keep flow masks from the initializer (view targets)
                    t = t.with_masks(t_init.masks)
            env.vars[s.name] = t
            ctx.declared[s.name] = s.type
            return
        if isinstance(s, ast.ExprStmt):
            self.type_expr(s.expr, env, ctx, where)
            return
        if isinstance(s, ast.If):
            self._check_bool(s.cond, env, ctx, where)
            env_then = env.copy()
            env_else = env.copy()
            self.check_stmt(s.then, env_then, ctx, where)
            if s.els is not None:
                self.check_stmt(s.els, env_else, ctx, where)
            # join: a mask is removed only if removed on both paths
            for name in env.vars:
                t_then = env_then.vars.get(name, env.vars[name])
                t_else = env_else.vars.get(name, env.vars[name])
                joined_masks = t_then.masks | t_else.masks
                env.vars[name] = t_then.pure().with_masks(joined_masks)
            return
        if isinstance(s, ast.While):
            self._check_bool(s.cond, env, ctx, where)
            body_env = env.copy()
            self.check_stmt(s.body, body_env, ctx, where)
            return  # conservatively keep the pre-loop environment
        if isinstance(s, ast.For):
            loop_env = env.copy()
            if s.init is not None:
                self.check_stmt(s.init, loop_env, ctx, where)
            if s.cond is not None:
                self._check_bool(s.cond, loop_env, ctx, where)
            body_env = loop_env.copy()
            self.check_stmt(s.body, body_env, ctx, where)
            if s.update is not None:
                self.type_expr(s.update, body_env, ctx, where)
            return
        if isinstance(s, ast.Return):
            if s.value is None:
                if ctx.ret != T.VOID:
                    self.error(
                        where,
                        "missing return value",
                        code="JNS-TYPE-004",
                        pos=s.pos,
                    )
                return
            t = self.type_expr(s.value, env, ctx, where)
            if t is not None and not subtype(env, t, ctx.ret):
                self.error(
                    where,
                    f"return type {t!r} is not a {ctx.ret!r}",
                    code="JNS-TYPE-004",
                    pos=s.pos,
                )
            return
        if isinstance(s, (ast.Break, ast.Continue, ast.Empty)):
            return
        self.error(where, f"unknown statement {s!r}")

    def _check_bool(self, e: ast.Expr, env: Env, ctx: _MethodCtx, where: str) -> None:
        t = self.type_expr(e, env, ctx, where)
        if t is not None and t.pure() != T.BOOLEAN:
            self.error(
                where,
                f"condition has type {t!r}, expected boolean",
                code="JNS-TYPE-005",
                pos=getattr(e, "pos", None),
            )

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def type_expr(
        self, e: ast.Expr, env: Env, ctx: _MethodCtx, where: str
    ) -> Optional[Type]:
        try:
            t = self._type_expr(e, env, ctx, where)
        except (ResolveError, TypeError_, JnsError) as exc:
            self._error_exc(where, exc, pos=getattr(e, "pos", None))
            return None
        e.rtype = t
        return t

    def _type_expr(self, e: ast.Expr, env: Env, ctx: _MethodCtx, where: str):
        if isinstance(e, ast.Lit):
            return {
                "int": T.INT,
                "double": T.DOUBLE,
                "boolean": T.BOOLEAN,
                "String": T.STRING,
                "null": T.NULL,
            }[e.kind]
        if isinstance(e, ast.This):
            this_t = env.vars["this"]
            return T.DepType(("this",)).with_masks(this_t.masks)
        if isinstance(e, ast.Var):
            t = env.lookup(e.name)
            if t is None:
                raise TypeError_(
                    f"unbound variable {e.name!r}",
                    code="JNS-TYPE-007",
                    span=Span.from_pos(e.pos),
                )
            return t
        if isinstance(e, ast.FieldGet):
            t_obj = self.type_expr(e.obj, env, ctx, where)
            if t_obj is None:
                return None
            if isinstance(t_obj.pure(), T.ArrayType) and e.name == "length":
                return T.INT
            return env.field_type(t_obj, e.name)
        if isinstance(e, ast.SysCall):
            return self._type_sys(e, env, ctx, where)
        if isinstance(e, ast.Call):
            t_obj = self.type_expr(e.obj, env, ctx, where)
            if t_obj is None:
                return None
            if t_obj.masks:
                raise TypeError_(
                    f"cannot call {e.name!r} on a value with masked fields "
                    f"({sorted(t_obj.masks)}); initialize them first",
                    code="JNS-TYPE-011",
                    span=Span.from_pos(e.pos),
                )
            sig = env.method_sig(t_obj, e.name)
            if sig is None:
                raise TypeError_(
                    f"no method {e.name!r} on {t_obj!r}",
                    code="JNS-TYPE-007",
                    span=Span.from_pos(e.pos),
                )
            params, ret, decl, owner = sig
            if len(params) != len(e.args):
                raise TypeError_(
                    f"{e.name!r} expects {len(params)} arguments, got {len(e.args)}",
                    code="JNS-TYPE-006",
                    span=Span.from_pos(e.pos),
                )
            for i, (param_t, arg) in enumerate(zip(params, e.args)):
                t_arg = self.type_expr(arg, env, ctx, where)
                if t_arg is not None and not subtype(env, t_arg, param_t):
                    self.error(
                        where,
                        f"argument {i + 1} of {e.name!r}: {t_arg!r} is not a "
                        f"{param_t!r}",
                        code="JNS-TYPE-006",
                        pos=getattr(arg, "pos", None),
                    )
            return ret
        if isinstance(e, ast.NewObj):
            t = e.type
            bound = env.bound(t).pure()
            cls = env._single_class(bound)
            if not self.table.class_exists(cls.path):
                raise TypeError_(
                    f"no such class {cls!r}",
                    code="JNS-TYPE-010",
                    span=Span.from_pos(e.pos),
                )
            info = self.table.iface_info(cls.path)
            if info is not None and info.decl.abstract:
                self.error(
                    where,
                    f"cannot instantiate abstract class {cls!r}",
                    code="JNS-TYPE-010",
                    pos=e.pos,
                )
            ctor = self.table.find_ctor(cls.path, len(e.args))
            if ctor is None:
                if e.args:
                    self.error(
                        where,
                        f"no {len(e.args)}-argument constructor for {cls!r}",
                        code="JNS-TYPE-006",
                        pos=e.pos,
                    )
            else:
                _, ctor_decl = ctor
                for i, (param, arg) in enumerate(zip(ctor_decl.params, e.args)):
                    t_arg = self.type_expr(arg, env, ctx, where)
                    param_t = substitute_this(param.type, T.make_exact(t), env)
                    if t_arg is not None and not subtype(env, t_arg, param_t):
                        self.error(
                            where,
                            f"constructor argument {i + 1}: {t_arg!r} is not a "
                            f"{param_t!r}",
                            code="JNS-TYPE-006",
                            pos=getattr(arg, "pos", None),
                        )
            return T.make_exact(t)
        if isinstance(e, ast.NewArray):
            t_len = self.type_expr(e.length, env, ctx, where)
            if t_len is not None and t_len.pure() != T.INT:
                self.error(
                    where,
                    f"array length has type {t_len!r}",
                    code="JNS-TYPE-005",
                    pos=e.pos,
                )
            return T.ArrayType(e.elem_type)
        if isinstance(e, ast.Index):
            t_arr = self.type_expr(e.arr, env, ctx, where)
            t_idx = self.type_expr(e.idx, env, ctx, where)
            if t_idx is not None and t_idx.pure() != T.INT:
                self.error(
                    where,
                    f"array index has type {t_idx!r}",
                    code="JNS-TYPE-005",
                    pos=e.pos,
                )
            if t_arr is None:
                return None
            arr_pure = t_arr.pure()
            if not isinstance(arr_pure, T.ArrayType):
                raise TypeError_(
                    f"indexing non-array type {t_arr!r}",
                    code="JNS-TYPE-005",
                    span=Span.from_pos(e.pos),
                )
            return arr_pure.elem
        if isinstance(e, ast.Unary):
            t = self.type_expr(e.operand, env, ctx, where)
            if t is None:
                return None
            if e.op == "!":
                if t.pure() != T.BOOLEAN:
                    self.error(
                        where, f"! applied to {t!r}", code="JNS-TYPE-005", pos=e.pos
                    )
                return T.BOOLEAN
            if t.pure() not in _NUMERIC:
                self.error(
                    where, f"unary - applied to {t!r}", code="JNS-TYPE-005", pos=e.pos
                )
            return t.pure()
        if isinstance(e, ast.Binary):
            return self._type_binary(e, env, ctx, where)
        if isinstance(e, ast.Cond):
            self._check_bool(e.cond, env, ctx, where)
            t1 = self.type_expr(e.then, env, ctx, where)
            t2 = self.type_expr(e.els, env, ctx, where)
            if t1 is None or t2 is None:
                return t1 or t2
            if subtype(env, t1, t2):
                return t2
            if subtype(env, t2, t1):
                return t1
            if t1.pure() in _NUMERIC and t2.pure() in _NUMERIC:
                return T.DOUBLE
            self.error(
                where,
                f"incompatible ternary branches: {t1!r} vs {t2!r}",
                code="JNS-TYPE-005",
                pos=e.pos,
            )
            return t1
        if isinstance(e, ast.Cast):
            t_src = self.type_expr(e.expr, env, ctx, where)
            target = e.type
            if t_src is not None:
                src_pure = t_src.pure()
                tgt_pure = target.pure()
                if isinstance(src_pure, T.PrimType) and src_pure in _NUMERIC:
                    if tgt_pure not in _NUMERIC:
                        self.error(
                            where,
                            f"cannot cast {t_src!r} to {target!r}",
                            code="JNS-TYPE-015",
                            pos=e.pos,
                        )
            return target
        if isinstance(e, ast.ViewChange):
            t_src = self.type_expr(e.expr, env, ctx, where)
            target = e.type
            if t_src is not None:
                with _PROV.capture() as cap:
                    holds, how = self.sharing.sharing_judgment(
                        env, t_src, target, allow_global=not self.strict_sharing
                    )
                if not holds:
                    explain, notes = self._refutation(cap)
                    self.error(
                        where,
                        f"view change to {target!r} is not justified by any "
                        f"sharing relationship from {t_src!r} "
                        "(add a sharing constraint, Section 2.5)",
                        code="JNS-TYPE-014",
                        pos=e.pos,
                        explain=explain,
                        notes=notes,
                    )
                elif how == "global":
                    self.warn(
                        where,
                        f"view change to {target!r} relies on the global "
                        "closed world, not a constraint in scope",
                        code="JNS-TYPE-014",
                        pos=e.pos,
                    )
            return target
        if isinstance(e, ast.InstanceOf):
            self.type_expr(e.expr, env, ctx, where)
            return T.BOOLEAN
        if isinstance(e, ast.Assign):
            return self._type_assign(e, env, ctx, where)
        raise TypeError_(f"unknown expression {e!r}")

    def _type_binary(self, e: ast.Binary, env: Env, ctx: _MethodCtx, where: str):
        t1 = self.type_expr(e.left, env, ctx, where)
        t2 = self.type_expr(e.right, env, ctx, where)
        if t1 is None or t2 is None:
            return None
        p1, p2 = t1.pure(), t2.pure()
        op = e.op
        if op in ("&&", "||"):
            if p1 != T.BOOLEAN or p2 != T.BOOLEAN:
                self.error(
                    where,
                    f"{op} applied to {t1!r}, {t2!r}",
                    code="JNS-TYPE-005",
                    pos=e.pos,
                )
            return T.BOOLEAN
        if op in ("==", "!="):
            return T.BOOLEAN
        if op == "+" and (p1 == T.STRING or p2 == T.STRING):
            return T.STRING
        if op in ("+", "-", "*", "/", "%"):
            if p1 not in _NUMERIC or p2 not in _NUMERIC:
                self.error(
                    where,
                    f"{op} applied to {t1!r}, {t2!r}",
                    code="JNS-TYPE-005",
                    pos=e.pos,
                )
                return T.INT
            return T.DOUBLE if T.DOUBLE in (p1, p2) else T.INT
        if op in ("<", "<=", ">", ">="):
            if p1 not in _NUMERIC or p2 not in _NUMERIC:
                self.error(
                    where,
                    f"{op} applied to {t1!r}, {t2!r}",
                    code="JNS-TYPE-005",
                    pos=e.pos,
                )
            return T.BOOLEAN
        raise TypeError_(
            f"unknown operator {op!r}",
            code="JNS-TYPE-005",
            span=Span.from_pos(e.pos),
        )

    def _type_assign(self, e: ast.Assign, env: Env, ctx: _MethodCtx, where: str):
        t_val = self.type_expr(e.value, env, ctx, where)
        target = e.target
        if e.op != "=":
            # compound assignment: target must be numeric (or String +=)
            t_tgt = self.type_expr(target, env, ctx, where)
            if t_tgt is not None:
                p = t_tgt.pure()
                if e.op == "+=" and p == T.STRING:
                    return T.STRING
                if p not in _NUMERIC:
                    self.error(
                        where,
                        f"{e.op} applied to {t_tgt!r}",
                        code="JNS-TYPE-005",
                        pos=e.pos,
                    )
                if (
                    t_val is not None
                    and p == T.INT
                    and t_val.pure() == T.DOUBLE
                ):
                    self.error(
                        where,
                        "possible lossy double-to-int assignment",
                        code="JNS-TYPE-015",
                        pos=e.pos,
                    )
                return p
            return None
        if isinstance(target, ast.Var):
            declared = ctx.declared.get(target.name, env.lookup(target.name))
            if declared is None:
                raise TypeError_(
                    f"unbound variable {target.name!r}",
                    code="JNS-TYPE-007",
                    span=Span.from_pos(target.pos),
                )
            if t_val is not None:
                if not subtype(env, t_val, declared.pure().with_masks(t_val.masks)):
                    self.error(
                        where,
                        f"cannot assign {t_val!r} to {target.name}: {declared!r}",
                        code="JNS-TYPE-008",
                        pos=e.pos,
                    )
                env.vars[target.name] = declared.pure().with_masks(t_val.masks)
            return t_val
        if isinstance(target, ast.FieldGet):
            t_obj = self.type_expr(target.obj, env, ctx, where)
            if t_obj is None:
                return t_val
            obj_pure = t_obj.pure()
            if isinstance(obj_pure, T.ArrayType):
                raise TypeError_(
                    "array length is not assignable",
                    code="JNS-TYPE-008",
                    span=Span.from_pos(e.pos),
                )
            # field type for writing ignores the mask on the receiver
            ftype = env.field_type(obj_pure, target.name)
            if t_val is not None and not subtype(env, t_val, ftype):
                self.error(
                    where,
                    f"cannot assign {t_val!r} to field {target.name!r}: {ftype!r}",
                    code="JNS-TYPE-008",
                    pos=e.pos,
                )
            # grant: remove the mask (T-SET / R-SET)
            self._grant(target.obj, target.name, env)
            return t_val
        if isinstance(target, ast.Index):
            t_arr = self.type_expr(target.arr, env, ctx, where)
            self.type_expr(target.idx, env, ctx, where)
            if t_arr is not None:
                arr_pure = t_arr.pure()
                if not isinstance(arr_pure, T.ArrayType):
                    raise TypeError_(
                        f"indexing non-array type {t_arr!r}",
                        code="JNS-TYPE-005",
                        span=Span.from_pos(e.pos),
                    )
                if t_val is not None and not subtype(env, t_val, arr_pure.elem):
                    self.error(
                        where,
                        f"cannot store {t_val!r} into {arr_pure!r}",
                        code="JNS-TYPE-008",
                        pos=e.pos,
                    )
            return t_val
        raise TypeError_(
            "invalid assignment target",
            code="JNS-TYPE-008",
            span=Span.from_pos(e.pos),
        )

    def _grant(self, obj: ast.Expr, fname: str, env: Env) -> None:
        """Remove the mask on ``x.f`` / ``this.f`` after an assignment."""
        name: Optional[str] = None
        if isinstance(obj, ast.This):
            name = "this"
        elif isinstance(obj, ast.Var):
            name = obj.name
        if name is None:
            return
        t = env.lookup(name)
        if t is not None and fname in t.masks:
            env.vars[name] = t.pure().with_masks(t.masks - {fname})

    def _type_sys(self, e: ast.SysCall, env: Env, ctx: _MethodCtx, where: str):
        sig = _SYS_SIGS.get(e.name)
        if sig is None:
            raise TypeError_(
                f"unknown Sys function {e.name!r}",
                code="JNS-TYPE-007",
                span=Span.from_pos(e.pos),
            )
        param_kinds, ret = sig
        if len(param_kinds) != len(e.args):
            raise TypeError_(
                f"Sys.{e.name} expects {len(param_kinds)} arguments, got "
                f"{len(e.args)}",
                code="JNS-TYPE-006",
                span=Span.from_pos(e.pos),
            )
        numeric_widest: Type = T.INT
        for kind, arg in zip(param_kinds, e.args):
            t_arg = self.type_expr(arg, env, ctx, where)
            if t_arg is None:
                continue
            p = t_arg.pure()
            if kind == "num":
                if p not in _NUMERIC:
                    self.error(
                        where,
                        f"Sys.{e.name}: {t_arg!r} is not numeric",
                        code="JNS-TYPE-005",
                        pos=getattr(arg, "pos", None),
                    )
                elif p == T.DOUBLE:
                    numeric_widest = T.DOUBLE
            elif kind == "any":
                pass
            elif isinstance(kind, T.Type):
                if not subtype(env, t_arg, kind):
                    self.error(
                        where,
                        f"Sys.{e.name}: {t_arg!r} is not a {kind!r}",
                        code="JNS-TYPE-005",
                        pos=getattr(arg, "pos", None),
                    )
        if ret == "num":
            return numeric_widest
        return ret


def check_program(
    table: ClassTable,
    strict_sharing: bool = False,
    skip: Iterable[Path] = (),
    explain: bool = False,
) -> CheckReport:
    """Type-check a resolved program.

    ``skip`` names classes whose resolution failed; their (partially
    resolved) members are not checked, so one broken class does not
    drown the report in cascading errors.

    ``explain`` turns on the process-wide derivation recorder
    ``PROVENANCE`` for the duration of the check (see
    :mod:`repro.lang.provenance`); its ``enabled`` flag is the one switch
    the checker reads.  While it is on, per-class reports bypass their
    memo tables and failing sharing judgments (T-VIEW, Q-OK, L-OK) get
    their refutation trees attached to the resulting
    ``JNS-TYPE-012/013/014`` diagnostics.
    """
    checker = TypeChecker(table, strict_sharing=strict_sharing, skip=skip)
    was_recording = _PROV.enabled
    if explain and not was_recording:
        _PROV.enable()
    try:
        with TRACER.span("typecheck", classes=len(table.explicit)):
            report = checker.check_program()
    finally:
        if explain and not was_recording:
            _PROV.disable()
    report.cache_stats = collect_stats([table.queries, table.sharing_queries()])
    return report
