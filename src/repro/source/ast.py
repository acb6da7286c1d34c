"""Abstract syntax for the J&s surface language.

Two layers use these nodes:

* the parser produces them with *surface* type annotations
  (:class:`TName` nodes whose meaning is not yet known), and
* the resolver (:mod:`repro.lang.resolve`) rewrites type annotations into
  resolved types (:mod:`repro.lang.types`) and rewrites ``Sys.*`` calls
  into :class:`SysCall` nodes, storing results in the same fields.

Positions are (line, col) pairs for error reporting.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

Pos = Tuple[int, int]

#: Every node class, in definition order; :func:`_build_nodes` gives them
#: their methods once the module has defined them all.
_NODES: List[type] = []


class Fresh:
    """Default of a field that gets a new ``factory()`` value per node."""

    __slots__ = ("factory",)

    def __init__(self, factory: Callable[[], Any]) -> None:
        self.factory = factory


def node(cls: type) -> type:
    """Declare an AST node class.

    Its annotated class attributes, in order, are its fields (listed in
    ``cls._fields``), and a field's class attribute is its default.  A
    node gets what ``@dataclass`` would give it: an ``__init__`` taking
    the fields positionally or by keyword, a field-wise ``__eq__``, no
    hash, and a field-listing ``__repr__`` unless it defines its own.
    """
    _NODES.append(cls)
    return cls


# ---------------------------------------------------------------------------
# Surface types (pre-resolution)
# ---------------------------------------------------------------------------


class TypeAST:
    """Base class for surface type annotations."""


@node
class TName(TypeAST):
    """A dotted name ``A.B.C``; resolution decides what it denotes."""

    parts: Tuple[str, ...]
    pos: Pos = (0, 0)

    def __repr__(self) -> str:
        return ".".join(self.parts)


@node
class TPrim(TypeAST):
    """A primitive type: int, double, boolean, String, void."""

    name: str
    pos: Pos = (0, 0)

    def __repr__(self) -> str:
        return self.name


@node
class TDep(TypeAST):
    """A dependent class ``p.class`` for a final access path ``p``.

    ``path`` is the sequence of names: ``("this",)`` for ``this.class`` or
    ``("x", "f")`` for ``x.f.class``.
    """

    path: Tuple[str, ...]
    pos: Pos = (0, 0)

    def __repr__(self) -> str:
        return ".".join(self.path) + ".class"


@node
class TPrefix(TypeAST):
    """A prefix type ``P[T]``: the enclosing family of ``T`` at level ``P``."""

    family: TypeAST
    index: TypeAST
    pos: Pos = (0, 0)

    def __repr__(self) -> str:
        return f"{self.family!r}[{self.index!r}]"


@node
class TExact(TypeAST):
    """An exact type ``T!``."""

    inner: TypeAST
    pos: Pos = (0, 0)

    def __repr__(self) -> str:
        return f"{self.inner!r}!"


@node
class TMask(TypeAST):
    """A masked type ``T\\f``: ``T`` without read access to field ``f``."""

    inner: TypeAST
    fields: Tuple[str, ...]
    pos: Pos = (0, 0)

    def __repr__(self) -> str:
        return repr(self.inner) + "".join("\\" + f for f in self.fields)


@node
class TNested(TypeAST):
    """A member access on a non-name type, e.g. ``AST[this.class].Exp``."""

    outer: TypeAST
    name: str
    pos: Pos = (0, 0)

    def __repr__(self) -> str:
        return f"{self.outer!r}.{self.name}"


@node
class TIsect(TypeAST):
    """An intersection type ``T1 & T2``."""

    parts: Tuple[TypeAST, ...]
    pos: Pos = (0, 0)

    def __repr__(self) -> str:
        return " & ".join(repr(p) for p in self.parts)


@node
class TArray(TypeAST):
    """An array type ``T[]``."""

    elem: TypeAST
    pos: Pos = (0, 0)

    def __repr__(self) -> str:
        return f"{self.elem!r}[]"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expressions.

    ``rtype`` is filled in by the type checker (a resolved type or None).
    """

    rtype: Any = None


@node
class Lit(Expr):
    value: Any
    kind: str  # "int" | "double" | "boolean" | "String" | "null"
    pos: Pos = (0, 0)


@node
class This(Expr):
    pos: Pos = (0, 0)


@node
class Var(Expr):
    name: str
    pos: Pos = (0, 0)


@node
class FieldGet(Expr):
    obj: Expr
    name: str
    pos: Pos = (0, 0)


@node
class Call(Expr):
    obj: Optional[Expr]  # None means a call on an implicit ``this``
    name: str
    args: List[Expr]
    pos: Pos = (0, 0)


@node
class SysCall(Expr):
    """A call into the native ``Sys`` library (created by the resolver)."""

    name: str
    args: List[Expr]
    pos: Pos = (0, 0)


@node
class NewObj(Expr):
    type: Any  # TypeAST, later resolved type
    args: List[Expr]
    pos: Pos = (0, 0)


@node
class NewArray(Expr):
    elem_type: Any
    length: Expr
    pos: Pos = (0, 0)


@node
class Index(Expr):
    arr: Expr
    idx: Expr
    pos: Pos = (0, 0)


@node
class Unary(Expr):
    op: str
    operand: Expr
    pos: Pos = (0, 0)


@node
class Binary(Expr):
    op: str
    left: Expr
    right: Expr
    pos: Pos = (0, 0)


@node
class Cond(Expr):
    """Ternary conditional ``c ? t : f``."""

    cond: Expr
    then: Expr
    els: Expr
    pos: Pos = (0, 0)


@node
class Cast(Expr):
    type: Any
    expr: Expr
    pos: Pos = (0, 0)


@node
class ViewChange(Expr):
    """The J&s view change ``(view T)e``."""

    type: Any
    expr: Expr
    pos: Pos = (0, 0)


@node
class InstanceOf(Expr):
    expr: Expr
    type: Any
    pos: Pos = (0, 0)


@node
class Assign(Expr):
    """Assignment; target is Var, FieldGet, or Index.  ``op`` is '=' or a
    compound operator like '+='."""

    target: Expr
    value: Expr
    op: str = "="
    pos: Pos = (0, 0)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class for statements."""


@node
class Block(Stmt):
    stmts: List[Stmt]
    pos: Pos = (0, 0)


@node
class LocalDecl(Stmt):
    final: bool
    type: Any
    name: str
    init: Optional[Expr]
    pos: Pos = (0, 0)


@node
class ExprStmt(Stmt):
    expr: Expr
    pos: Pos = (0, 0)


@node
class If(Stmt):
    cond: Expr
    then: Stmt
    els: Optional[Stmt]
    pos: Pos = (0, 0)


@node
class While(Stmt):
    cond: Expr
    body: Stmt
    pos: Pos = (0, 0)


@node
class For(Stmt):
    init: Optional[Stmt]
    cond: Optional[Expr]
    update: Optional[Expr]
    body: Stmt
    pos: Pos = (0, 0)


@node
class Return(Stmt):
    value: Optional[Expr]
    pos: Pos = (0, 0)


@node
class Break(Stmt):
    pos: Pos = (0, 0)


@node
class Continue(Stmt):
    pos: Pos = (0, 0)


@node
class Empty(Stmt):
    pos: Pos = (0, 0)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@node
class FieldDecl:
    final: bool
    type: Any
    name: str
    init: Optional[Expr]
    pos: Pos = (0, 0)


@node
class Param:
    type: Any
    name: str
    pos: Pos = (0, 0)


@node
class SharingConstraint:
    """A method-level sharing constraint ``sharing T1 = T2`` (bidirectional,
    as written in the paper's examples)."""

    left: Any
    right: Any
    pos: Pos = (0, 0)


@node
class MethodDecl:
    abstract: bool
    ret_type: Any
    name: str
    params: List[Param]
    constraints: List[SharingConstraint]
    body: Optional[Block]
    pos: Pos = (0, 0)


@node
class CtorDecl:
    name: str
    params: List[Param]
    body: Block
    pos: Pos = (0, 0)


@node
class ClassDecl:
    name: str
    abstract: bool
    extends: List[Any]
    shares: Optional[Any]  # TypeAST possibly with masks
    adapts: Optional[Any]
    members: List[Any] = Fresh(list)
    pos: Pos = (0, 0)

    @property
    def nested_classes(self) -> List["ClassDecl"]:
        return [m for m in self.members if isinstance(m, ClassDecl)]

    @property
    def fields(self) -> List[FieldDecl]:
        return [m for m in self.members if isinstance(m, FieldDecl)]

    @property
    def methods(self) -> List[MethodDecl]:
        return [m for m in self.members if isinstance(m, MethodDecl)]

    @property
    def ctors(self) -> List[CtorDecl]:
        return [m for m in self.members if isinstance(m, CtorDecl)]


@node
class CompilationUnit:
    classes: List[ClassDecl]


# ---------------------------------------------------------------------------
# Node methods
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _node_eq(self: Any, other: Any) -> Any:
    if other.__class__ is self.__class__:
        names = self._fields
        return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]
    return NotImplemented


def _node_repr(self: Any) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{self.__class__.__qualname__}({fields})"


def _build_nodes(classes: List[type]) -> None:
    """Make every node's ``__init__`` from one ``exec``; share ``__eq__``
    and ``__repr__``.

    ``@dataclass`` runs ``exec`` and ``inspect`` once per class, which
    costs every process that imports the front end about 20 ms for these
    42 classes.  Each ``__init__`` is the one ``@dataclass`` writes, so
    building nodes costs the parser what it did.
    """
    env: Dict[str, Any] = {"__name__": __name__}
    src: List[str] = []
    for i, cls in enumerate(classes):
        names = tuple(cls.__dict__.get("__annotations__", ()))
        params, body = [], []
        for name in names:
            default = cls.__dict__.get(name, _REQUIRED)
            value = name
            if default is _REQUIRED:
                params.append(name)
            else:
                env[f"_d{i}_{name}"] = default
                params.append(f"{name}=_d{i}_{name}")
            if isinstance(default, Fresh):
                env[f"_f{i}_{name}"] = default.factory
                value = f"_f{i}_{name}() if {name} is _d{i}_{name} else {name}"
                delattr(cls, name)
            body.append(f"    self.{name} = {value}")
        src += [f"def _init{i}(self, {', '.join(params)}):", *body]
        cls._fields = names
    exec("\n".join(src), env)
    for i, cls in enumerate(classes):
        init = env[f"_init{i}"]
        init.__name__ = "__init__"
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        cls.__eq__ = _node_eq
        cls.__hash__ = None
        if "__repr__" not in cls.__dict__:
            cls.__repr__ = _node_repr


_build_nodes(_NODES)
