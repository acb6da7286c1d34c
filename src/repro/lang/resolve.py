"""Name resolution for J&s.

Implements the late binding of type names (Section 2.1): a type name that
is not fully qualified is sugar for a member of a prefix type that depends
on the current class.  ``Exp`` written inside family ``AST`` resolves to
``AST[this.class].Exp`` so that, inherited into ``ASTDisplay``, it denotes
``ASTDisplay``'s ``Exp``.

Also resolves expression-level names: locals vs. fields of ``this``,
implicit-receiver calls, and the ``Sys`` native library.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

from ..diagnostics import Span
from ..errors import JnsError
from ..obs import TRACER
from ..source import ast
from . import types as T
from .classtable import ClassTable, ResolveError, path_str
from .types import ClassType, Path, Type

if TYPE_CHECKING:
    from ..sink import DiagnosticSink

#: Names of native functions/constants available via ``Sys``.
SYS_FUNCTIONS = frozenset(
    {
        "print",
        "println",
        "sqrt",
        "abs",
        "fabs",
        "min",
        "max",
        "floor",
        "ceil",
        "pow",
        "sin",
        "cos",
        "tan",
        "asin",
        "acos",
        "atan",
        "atan2",
        "log",
        "exp",
        "intOf",
        "doubleOf",
        "str",
        "strLen",
        "charAt",
        "substring",
        "parseInt",
        "fail",
        "identityHash",
        "viewName",
    }
)
SYS_CONSTANTS = frozenset({"PI", "E", "MAX_INT", "MIN_INT", "MAX_DOUBLE"})


def resolve_type(t: ast.TypeAST, table: ClassTable, ctx: Path) -> Type:
    """Resolve a surface type written lexically inside class ``ctx``.

    Every resolved type is interned (:func:`repro.lang.types.intern_type`)
    so the memoized queries downstream get identity-cheap keys."""
    return T.intern_type(_resolve_type(t, table, ctx))


def _resolve_type(t: ast.TypeAST, table: ClassTable, ctx: Path) -> Type:
    if isinstance(t, T.Type):
        return t  # already resolved (idempotent for re-entrant passes)
    if isinstance(t, ast.TPrim):
        return {
            "int": T.INT,
            "double": T.DOUBLE,
            "boolean": T.BOOLEAN,
            "String": T.STRING,
            "void": T.VOID,
        }[t.name]
    if isinstance(t, ast.TName):
        return _resolve_name(t.parts, table, ctx, t.pos)
    if isinstance(t, ast.TDep):
        return T.DepType(tuple(t.path))
    if isinstance(t, ast.TExact):
        return T.make_exact(resolve_type(t.inner, table, ctx))
    if isinstance(t, ast.TMask):
        inner = resolve_type(t.inner, table, ctx)
        return inner.with_masks(frozenset(t.fields))
    if isinstance(t, ast.TPrefix):
        family = resolve_type(t.family, table, ctx)
        family_pure = family.pure()
        fam_path = _family_path(family_pure, table)
        index = resolve_type(t.index, table, ctx)
        return T.PrefixType(fam_path, index)
    if isinstance(t, ast.TNested):
        outer = resolve_type(t.outer, table, ctx)
        return T.make_member(outer, t.name)
    if isinstance(t, ast.TIsect):
        return T.make_isect(tuple(resolve_type(p, table, ctx) for p in t.parts))
    if isinstance(t, ast.TArray):
        return T.ArrayType(resolve_type(t.elem, table, ctx))
    raise ResolveError(f"unknown type form {t!r}")


def _family_path(t: Type, table: ClassTable) -> Path:
    """The family named by the P in P[T] must be a statically known class."""
    if isinstance(t, ClassType):
        return t.path
    if isinstance(t, T.NestedType):
        # A prefix family resolved late-bound; use its static path instead.
        # This occurs for P[..] where P itself is a nested family: we take the
        # lexical path, which is what the prefix evaluation needs.
        outer = t.outer
        if isinstance(outer, T.PrefixType):
            return outer.family + (t.name,)
    raise ResolveError(f"prefix family must be a statically known class, got {t!r}")


def _resolve_name(parts: tuple, table: ClassTable, ctx: Path, pos) -> Type:
    """Resolve a dotted name: find the innermost enclosing namespace that
    has a member named ``parts[0]`` (Section 2.1)."""
    head = parts[0]
    for cut in range(len(ctx), -1, -1):
        enclosing = ctx[:cut]
        if table.has_member(enclosing, head):
            if not enclosing:
                # top level: an absolute path
                full = tuple(parts)
                if not table.class_exists(full):
                    raise ResolveError(
                        f"no such class {'.'.join(parts)} at {pos[0]}:{pos[1]}",
                        code="JNS-RESOLVE-002",
                        span=Span.from_pos(pos),
                    )
                return ClassType(full)
            # late-bound: enclosing[this.class].head.rest...
            result: Type = T.NestedType(
                T.PrefixType(enclosing, T.DepType(("this",))), head
            )
            for name in parts[1:]:
                result = T.make_member(result, name)
            return result
    raise ResolveError(
        f"unknown type name {'.'.join(parts)} at {pos[0]}:{pos[1]}",
        code="JNS-RESOLVE-002",
        span=Span.from_pos(pos),
    )


class BodyResolver:
    """Resolves names inside method/constructor bodies and initializers of
    one class: types in declarations, locals vs fields, Sys natives."""

    def __init__(self, table: ClassTable, ctx: Path) -> None:
        self.table = table
        self.ctx = ctx
        self.scopes: List[Set[str]] = []

    # -- scope helpers -----------------------------------------------------

    def push(self) -> None:
        self.scopes.append(set())

    def pop(self) -> None:
        self.scopes.pop()

    def declare(self, name: str) -> None:
        self.scopes[-1].add(name)

    def in_scope(self, name: str) -> bool:
        return any(name in s for s in self.scopes)

    def is_field(self, name: str) -> bool:
        return self.table.find_field(self.ctx, name) is not None

    def rtype(self, t) -> Type:
        return resolve_type(t, self.table, self.ctx)

    # -- statements ----------------------------------------------------------

    def stmt(self, s: ast.Stmt) -> ast.Stmt:
        if isinstance(s, ast.Block):
            self.push()
            s.stmts = [self.stmt(x) for x in s.stmts]
            self.pop()
            return s
        if isinstance(s, ast.LocalDecl):
            s.type = self.rtype(s.type)
            if s.init is not None:
                s.init = self.expr(s.init)
            self.declare(s.name)
            return s
        if isinstance(s, ast.ExprStmt):
            s.expr = self.expr(s.expr)
            return s
        if isinstance(s, ast.If):
            s.cond = self.expr(s.cond)
            s.then = self.stmt(s.then)
            if s.els is not None:
                s.els = self.stmt(s.els)
            return s
        if isinstance(s, ast.While):
            s.cond = self.expr(s.cond)
            s.body = self.stmt(s.body)
            return s
        if isinstance(s, ast.For):
            self.push()
            if s.init is not None:
                s.init = self.stmt(s.init)
            if s.cond is not None:
                s.cond = self.expr(s.cond)
            if s.update is not None:
                s.update = self.expr(s.update)
            s.body = self.stmt(s.body)
            self.pop()
            return s
        if isinstance(s, ast.Return):
            if s.value is not None:
                s.value = self.expr(s.value)
            return s
        return s

    # -- expressions ---------------------------------------------------------

    def expr(self, e: ast.Expr) -> ast.Expr:
        if isinstance(e, ast.Lit):
            return e
        if isinstance(e, ast.This):
            return e
        if isinstance(e, ast.Var):
            if self.in_scope(e.name):
                return e
            if self.is_field(e.name):
                return ast.FieldGet(ast.This(e.pos), e.name, e.pos)
            raise ResolveError(
                f"unknown name {e.name!r} at {e.pos[0]}:{e.pos[1]} "
                f"in {'.'.join(self.ctx)}",
                code="JNS-RESOLVE-001",
                span=Span.from_pos(e.pos),
            )
        if isinstance(e, ast.FieldGet):
            if isinstance(e.obj, ast.Var) and e.obj.name == "Sys":
                if e.name in SYS_CONSTANTS:
                    return ast.SysCall(e.name, [], e.pos)
                raise ResolveError(
                    f"unknown Sys constant {e.name!r}",
                    code="JNS-RESOLVE-003",
                    span=Span.from_pos(e.pos),
                )
            e.obj = self.expr(e.obj)
            return e
        if isinstance(e, ast.Call):
            if e.obj is None:
                e.obj = ast.This(e.pos)
            elif isinstance(e.obj, ast.Var) and e.obj.name == "Sys":
                if e.name not in SYS_FUNCTIONS:
                    raise ResolveError(
                        f"unknown Sys function {e.name!r}",
                        code="JNS-RESOLVE-003",
                        span=Span.from_pos(e.pos),
                    )
                return ast.SysCall(e.name, [self.expr(a) for a in e.args], e.pos)
            else:
                e.obj = self.expr(e.obj)
            e.args = [self.expr(a) for a in e.args]
            return e
        if isinstance(e, ast.SysCall):
            e.args = [self.expr(a) for a in e.args]
            return e
        if isinstance(e, ast.NewObj):
            e.type = self.rtype(e.type)
            e.args = [self.expr(a) for a in e.args]
            return e
        if isinstance(e, ast.NewArray):
            e.elem_type = self.rtype(e.elem_type)
            e.length = self.expr(e.length)
            return e
        if isinstance(e, ast.Index):
            e.arr = self.expr(e.arr)
            e.idx = self.expr(e.idx)
            return e
        if isinstance(e, ast.Unary):
            e.operand = self.expr(e.operand)
            return e
        if isinstance(e, ast.Binary):
            e.left = self.expr(e.left)
            e.right = self.expr(e.right)
            return e
        if isinstance(e, ast.Cond):
            e.cond = self.expr(e.cond)
            e.then = self.expr(e.then)
            e.els = self.expr(e.els)
            return e
        if isinstance(e, ast.Cast):
            e.type = self.rtype(e.type)
            e.expr = self.expr(e.expr)
            return e
        if isinstance(e, ast.ViewChange):
            e.type = self.rtype(e.type)
            e.expr = self.expr(e.expr)
            return e
        if isinstance(e, ast.InstanceOf):
            e.expr = self.expr(e.expr)
            e.type = self.rtype(e.type)
            return e
        if isinstance(e, ast.Assign):
            e.target = self.expr(e.target)
            e.value = self.expr(e.value)
            return e
        raise ResolveError(f"unknown expression form {e!r}")


def _resolve_member(member, table: ClassTable, path: Path) -> None:
    if isinstance(member, ast.FieldDecl):
        member.type = resolve_type(member.type, table, path)
        if member.init is not None:
            resolver = BodyResolver(table, path)
            resolver.push()
            member.init = resolver.expr(member.init)
            resolver.pop()
    elif isinstance(member, ast.MethodDecl):
        member.ret_type = resolve_type(member.ret_type, table, path)
        resolver = BodyResolver(table, path)
        resolver.push()
        for param in member.params:
            param.type = resolve_type(param.type, table, path)
            resolver.declare(param.name)
        for constraint in member.constraints:
            constraint.left = resolve_type(constraint.left, table, path)
            constraint.right = resolve_type(constraint.right, table, path)
        if member.body is not None:
            member.body = resolver.stmt(member.body)
        resolver.pop()
    elif isinstance(member, ast.CtorDecl):
        resolver = BodyResolver(table, path)
        resolver.push()
        for param in member.params:
            param.type = resolve_type(param.type, table, path)
            resolver.declare(param.name)
        member.body = resolver.stmt(member.body)
        resolver.pop()


def resolve_program(
    table: ClassTable, sink: Optional[DiagnosticSink] = None
) -> Set[Path]:
    """Resolve every explicit class in the table: extends/shares clauses
    (done lazily by the table), member types, and bodies.

    Without a ``sink``, the first resolution error raises (historical
    behavior).  With one, errors are accumulated per *member* so a
    single pass reports every unresolved name, and the set of class
    paths that failed is returned so the type checker can skip them
    (their ASTs are only partially resolved).
    """
    if not TRACER.enabled:
        return _resolve_program(table, sink)
    with TRACER.span("resolve", classes=len(table.explicit)):
        return _resolve_program(table, sink)


def _resolve_program(
    table: ClassTable, sink: Optional[DiagnosticSink] = None
) -> Set[Path]:
    failed: Set[Path] = set()
    for path, info in list(table.explicit.items()):
        decl = info.decl
        for member in decl.members:
            if sink is None:
                _resolve_member(member, table, path)
                continue
            try:
                _resolve_member(member, table, path)
            except JnsError as exc:
                sink.add_exc(exc, where=path_str(path))
                # Mark the member so the type checker skips it (its AST
                # is only partially resolved); sibling members still get
                # checked, so independent errors all surface in one pass.
                member._resolve_failed = True
                failed.add(path)
    return failed
