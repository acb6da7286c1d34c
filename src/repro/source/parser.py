"""Recursive-descent parser for the J&s surface language.

The grammar covers the Java-like subset used by the paper's examples plus
what the evaluation programs need:

* class declarations with ``extends T1 & T2``, ``shares T`` (possibly with
  masks, e.g. ``shares base.Abs\\e``), and ``adapts T``;
* field, method, constructor, and nested class members;
* method-level sharing constraints ``sharing T1 = T2, ...``;
* the J&s type forms: exact types ``T!``, masked types ``T\\f``, prefix
  types ``P[T]``, dependent classes ``p.class``, intersections ``A & B``,
  arrays ``T[]``;
* expressions including casts ``(T)e``, view changes ``(view T)e``,
  ``instanceof``, ``new T(...)`` and ``new T[n]``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..diagnostics import Span
from ..errors import JnsError
from ..obs import TRACER
from . import ast
from .lexer import tokenize
from .tokens import (
    DOUBLE_LIT,
    EOF,
    IDENT,
    INT_LIT,
    KEYWORD,
    PUNCT,
    STRING_LIT,
    Token,
)

if TYPE_CHECKING:
    from ..sink import DiagnosticSink

PRIMITIVES = ("int", "double", "boolean", "String", "void")
#: the types Java calls primitive: ``(T) -x`` is a cast only for these
_SIGNED_CASTS = ("int", "double", "boolean")

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=")


class ParseError(JnsError):
    """Raised on a syntax error, with the offending token position."""

    code = "JNS-PARSE-001"

    def __init__(
        self, message: str, token: Token, code: Optional[str] = None
    ) -> None:
        super().__init__(
            f"{message} at {token.line}:{token.col} (got {token.value!r})",
            code=code,
            span=Span.from_token(token),
        )
        self.token = token


#: Maximum nesting of expressions/types.  Each level costs a bounded
#: number of Python frames (see :func:`parse_program`), so this keeps
#: adversarial inputs well inside the temporarily-raised stack limit.
MAX_NESTING = 1200


class Parser:
    def __init__(
        self,
        source: str,
        file: Optional[str] = None,
        sink: Optional[DiagnosticSink] = None,
        tokens: Optional[List[Token]] = None,
    ) -> None:
        self.file = file
        self.sink = sink
        # ``tokens`` lets the incremental front end parse a pre-lexed
        # chunk whose token positions were shifted to absolute lines.
        self.tokens = tokenize(source, sink=sink) if tokens is None else tokens
        self.pos = 0
        self._depth = 0  # current expression/type nesting

    # -- token helpers ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def at_punct(self, punct: str) -> bool:
        return self.peek().is_punct(punct)

    def at_keyword(self, word: str) -> bool:
        return self.peek().is_keyword(word)

    def accept_punct(self, punct: str) -> bool:
        if self.at_punct(punct):
            self.next()
            return True
        return False

    def accept_keyword(self, word: str) -> bool:
        if self.at_keyword(word):
            self.next()
            return True
        return False

    def expect_punct(self, punct: str) -> Token:
        if not self.at_punct(punct):
            raise ParseError(f"expected {punct!r}", self.peek())
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise ParseError(f"expected {word!r}", self.peek())
        return self.next()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != IDENT:
            raise ParseError("expected identifier", tok)
        return self.next()

    def _pos(self) -> ast.Pos:
        tok = self.peek()
        return (tok.line, tok.col)

    def _enter_nesting(self) -> None:
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise ParseError(
                f"nesting deeper than {MAX_NESTING} levels",
                self.peek(),
                code="JNS-PARSE-005",
            )

    # -- panic-mode recovery ----------------------------------------------

    def _sync_member(self) -> None:
        """After a syntax error in a member: skip to just past the next
        ``;`` at this brace depth, or stop at the ``}`` closing the class
        (or EOF), so the member loop can continue."""
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == EOF:
                return
            if tok.is_punct("{"):
                depth += 1
            elif tok.is_punct("}"):
                if depth == 0:
                    return  # class closer: leave it for the member loop
                depth -= 1
            elif tok.is_punct(";") and depth == 0:
                self.next()
                return
            self.next()

    def _sync_toplevel(self) -> None:
        """After a syntax error at class level: skip (balancing braces)
        until the next top-level ``class``/``abstract`` or EOF."""
        depth = 0
        while self.peek().kind != EOF:
            tok = self.peek()
            if tok.is_punct("{"):
                depth += 1
            elif tok.is_punct("}"):
                depth = max(0, depth - 1)
            elif depth == 0 and (
                tok.is_keyword("class") or tok.is_keyword("abstract")
            ):
                return
            self.next()

    # -- program ----------------------------------------------------------

    def parse_program(self) -> ast.CompilationUnit:
        classes: List[ast.ClassDecl] = []
        while self.peek().kind != EOF:
            if self.sink is None:
                classes.append(self.parse_class_decl())
                continue
            try:
                classes.append(self.parse_class_decl())
            except ParseError as exc:
                self.sink.add_exc(exc)
                self._sync_toplevel()
        return ast.CompilationUnit(classes)

    def parse_class_decl(self) -> ast.ClassDecl:
        pos = self._pos()
        abstract = self.accept_keyword("abstract")
        self.expect_keyword("class")
        name = self.expect_ident().value
        extends: List[ast.TypeAST] = []
        shares: Optional[ast.TypeAST] = None
        adapts: Optional[ast.TypeAST] = None
        while True:
            if self.accept_keyword("extends"):
                parsed = self.parse_type()
                if isinstance(parsed, ast.TIsect):
                    extends.extend(parsed.parts)
                else:
                    extends.append(parsed)
                while self.accept_punct("&"):
                    extends.append(self.parse_type_no_isect())
            elif self.accept_keyword("shares"):
                shares = self.parse_type()
            elif self.accept_keyword("adapts"):
                adapts = self.parse_type()
            else:
                break
        self.expect_punct("{")
        members: List[object] = []
        while not self.at_punct("}") and self.peek().kind != EOF:
            if self.sink is None:
                members.append(self.parse_member(name))
                continue
            try:
                members.append(self.parse_member(name))
            except ParseError as exc:
                self.sink.add_exc(exc)
                self._sync_member()
        self.expect_punct("}")
        return ast.ClassDecl(
            name=name,
            abstract=abstract,
            extends=extends,
            shares=shares,
            adapts=adapts,
            members=members,
            pos=pos,
        )

    def parse_member(self, class_name: str):
        pos = self._pos()
        if self.at_keyword("class") or (
            self.at_keyword("abstract") and self.peek(1).is_keyword("class")
        ):
            return self.parse_class_decl()
        # Constructor: <ClassName> ( ... )
        if (
            self.peek().kind == IDENT
            and self.peek().value == class_name
            and self.peek(1).is_punct("(")
        ):
            self.next()
            params = self.parse_params()
            body = self.parse_block()
            return ast.CtorDecl(class_name, params, body, pos)
        abstract = self.accept_keyword("abstract")
        final = self.accept_keyword("final")
        decl_type = self.parse_type()
        name = self.expect_ident().value
        if self.at_punct("("):
            params = self.parse_params()
            constraints: List[ast.SharingConstraint] = []
            if self.accept_keyword("sharing"):
                constraints.append(self.parse_sharing_constraint())
                while self.accept_punct(","):
                    constraints.append(self.parse_sharing_constraint())
            if self.accept_punct(";"):
                body: Optional[ast.Block] = None
                if not abstract:
                    raise ParseError(
                        "non-abstract method needs a body",
                        self.peek(),
                        code="JNS-PARSE-004",
                    )
            else:
                body = self.parse_block()
            return ast.MethodDecl(abstract, decl_type, name, params, constraints, body, pos)
        init: Optional[ast.Expr] = None
        if self.accept_punct("="):
            init = self.parse_expr()
        self.expect_punct(";")
        return ast.FieldDecl(final, decl_type, name, init, pos)

    def parse_params(self) -> List[ast.Param]:
        self.expect_punct("(")
        params: List[ast.Param] = []
        if not self.at_punct(")"):
            while True:
                pos = self._pos()
                self.accept_keyword("final")
                ptype = self.parse_type()
                pname = self.expect_ident().value
                params.append(ast.Param(ptype, pname, pos))
                if not self.accept_punct(","):
                    break
        self.expect_punct(")")
        return params

    def parse_sharing_constraint(self) -> ast.SharingConstraint:
        pos = self._pos()
        left = self.parse_type()
        self.expect_punct("=")
        right = self.parse_type()
        return ast.SharingConstraint(left, right, pos)

    # -- types ------------------------------------------------------------

    def parse_type(self) -> ast.TypeAST:
        self._enter_nesting()
        try:
            pos = self._pos()
            first = self.parse_type_no_isect()
            if self.at_punct("&"):
                parts = [first]
                while self.accept_punct("&"):
                    parts.append(self.parse_type_no_isect())
                return ast.TIsect(tuple(parts), pos)
            return first
        finally:
            self._depth -= 1

    def parse_type_no_isect(self) -> ast.TypeAST:
        pos = self._pos()
        t = self.parse_type_primary()
        # Suffixes: .Ident | .class | ! | [Type] (prefix) | [] (array) | \f
        name_path: Optional[List[str]] = None
        if isinstance(t, ast.TName):
            name_path = list(t.parts)
        elif isinstance(t, ast.TPrim) and t.name == "this":  # never happens
            name_path = None
        while True:
            if self.at_punct(".") and self.peek(1).is_keyword("class"):
                if name_path is None:
                    raise ParseError(".class requires a simple access path", self.peek())
                self.next()
                self.next()
                t = ast.TDep(tuple(name_path), pos)
                name_path = None
                continue
            if self.at_punct(".") and self.peek(1).kind == IDENT:
                self.next()
                name = self.expect_ident().value
                if name_path is not None:
                    name_path.append(name)
                    t = ast.TName(tuple(name_path), pos)
                else:
                    t = ast.TNested(t, name, pos)
                continue
            if self.at_punct("!"):
                self.next()
                t = ast.TExact(t, pos)
                name_path = None
                continue
            if self.at_punct("[") and self.peek(1).is_punct("]"):
                self.next()
                self.next()
                t = ast.TArray(t, pos)
                name_path = None
                continue
            if self.at_punct("["):
                self.next()
                index = self.parse_type()
                self.expect_punct("]")
                t = ast.TPrefix(t, index, pos)
                name_path = None
                continue
            if self.at_punct("\\"):
                masks: List[str] = []
                while self.accept_punct("\\"):
                    masks.append(self.expect_ident().value)
                t = ast.TMask(t, tuple(masks), pos)
                name_path = None
                continue
            break
        return t

    def parse_type_primary(self) -> ast.TypeAST:
        pos = self._pos()
        tok = self.peek()
        if tok.kind == KEYWORD and tok.value in PRIMITIVES:
            self.next()
            return ast.TPrim(tok.value, pos)
        if tok.is_keyword("this"):
            # Only valid as the head of a dependent class path: this.class
            # or this.f.class.
            self.next()
            path = ["this"]
            while self.at_punct(".") and self.peek(1).kind == IDENT:
                self.next()
                path.append(self.expect_ident().value)
            self.expect_punct(".")
            self.expect_keyword("class")
            return ast.TDep(tuple(path), pos)
        if tok.kind == IDENT:
            self.next()
            return ast.TName((tok.value,), pos)
        raise ParseError("expected type", tok, code="JNS-PARSE-002")

    # -- statements ---------------------------------------------------------

    def parse_block(self) -> ast.Block:
        pos = self._pos()
        self.expect_punct("{")
        stmts: List[ast.Stmt] = []
        while not self.at_punct("}"):
            stmts.append(self.parse_stmt())
        self.expect_punct("}")
        return ast.Block(stmts, pos)

    def parse_stmt(self) -> ast.Stmt:
        pos = self._pos()
        if self.at_punct("{"):
            return self.parse_block()
        if self.accept_punct(";"):
            return ast.Empty(pos)
        if self.accept_keyword("if"):
            self.expect_punct("(")
            cond = self.parse_expr()
            self.expect_punct(")")
            then = self.parse_stmt()
            els = self.parse_stmt() if self.accept_keyword("else") else None
            return ast.If(cond, then, els, pos)
        if self.accept_keyword("while"):
            self.expect_punct("(")
            cond = self.parse_expr()
            self.expect_punct(")")
            body = self.parse_stmt()
            return ast.While(cond, body, pos)
        if self.accept_keyword("for"):
            self.expect_punct("(")
            init: Optional[ast.Stmt] = None
            if not self.at_punct(";"):
                init = self.parse_simple_stmt()
            else:
                self.next()
            cond: Optional[ast.Expr] = None
            if not self.at_punct(";"):
                cond = self.parse_expr()
            self.expect_punct(";")
            update: Optional[ast.Expr] = None
            if not self.at_punct(")"):
                update = self.parse_expr()
            self.expect_punct(")")
            body = self.parse_stmt()
            return ast.For(init, cond, update, body, pos)
        if self.accept_keyword("return"):
            value: Optional[ast.Expr] = None
            if not self.at_punct(";"):
                value = self.parse_expr()
            self.expect_punct(";")
            return ast.Return(value, pos)
        if self.accept_keyword("break"):
            self.expect_punct(";")
            return ast.Break(pos)
        if self.accept_keyword("continue"):
            self.expect_punct(";")
            return ast.Continue(pos)
        return self.parse_simple_stmt()

    def parse_simple_stmt(self) -> ast.Stmt:
        """A local variable declaration or an expression statement, ending
        with ';'.  Disambiguated by backtracking until ``T x =`` or
        ``T x;`` has matched; from there on it is a declaration, so an
        error in its initializer is reported where it is."""
        pos = self._pos()
        final = False
        save = self.pos
        if self.accept_keyword("final"):
            final = True
        try:
            decl_type = self.parse_type()
            name_tok = self.peek()
            if name_tok.kind != IDENT or not (
                self.peek(1).is_punct("=") or self.peek(1).is_punct(";")
            ):
                raise ParseError("not a declaration", name_tok)
        except ParseError:
            if final:
                raise
            self.pos = save
            expr = self.parse_expr()
            self.expect_punct(";")
            return ast.ExprStmt(expr, pos)
        self.next()
        init: Optional[ast.Expr] = None
        if self.accept_punct("="):
            init = self.parse_expr()
        self.expect_punct(";")
        return ast.LocalDecl(final, decl_type, name_tok.value, init, pos)

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        self._enter_nesting()
        try:
            return self.parse_assign()
        finally:
            self._depth -= 1

    def parse_assign(self) -> ast.Expr:
        pos = self._pos()
        left = self.parse_cond()
        tok = self.peek()
        if tok.kind == PUNCT and tok.value in _ASSIGN_OPS:
            if not isinstance(left, (ast.Var, ast.FieldGet, ast.Index)):
                raise ParseError(
                    "invalid assignment target", tok, code="JNS-PARSE-003"
                )
            self.next()
            value = self.parse_assign()
            return ast.Assign(left, value, tok.value, pos)
        return left

    def parse_cond(self) -> ast.Expr:
        pos = self._pos()
        cond = self.parse_or()
        if self.accept_punct("?"):
            then = self.parse_expr()
            self.expect_punct(":")
            els = self.parse_cond()
            return ast.Cond(cond, then, els, pos)
        return cond

    def parse_or(self) -> ast.Expr:
        left = self.parse_and()
        while self.at_punct("||"):
            pos = self._pos()
            self.next()
            right = self.parse_and()
            left = ast.Binary("||", left, right, pos)
        return left

    def parse_and(self) -> ast.Expr:
        left = self.parse_equality()
        while self.at_punct("&&"):
            pos = self._pos()
            self.next()
            right = self.parse_equality()
            left = ast.Binary("&&", left, right, pos)
        return left

    def parse_equality(self) -> ast.Expr:
        left = self.parse_relational()
        while self.at_punct("==") or self.at_punct("!="):
            pos = self._pos()
            op = self.next().value
            right = self.parse_relational()
            left = ast.Binary(op, left, right, pos)
        return left

    def parse_relational(self) -> ast.Expr:
        left = self.parse_additive()
        while True:
            tok = self.peek()
            if tok.kind == PUNCT and tok.value in ("<", "<=", ">", ">="):
                pos = self._pos()
                self.next()
                right = self.parse_additive()
                left = ast.Binary(tok.value, left, right, pos)
            elif tok.is_keyword("instanceof"):
                pos = self._pos()
                self.next()
                ref_type = self.parse_type()
                left = ast.InstanceOf(left, ref_type, pos)
            else:
                return left

    def parse_additive(self) -> ast.Expr:
        left = self.parse_multiplicative()
        while self.at_punct("+") or self.at_punct("-"):
            pos = self._pos()
            op = self.next().value
            right = self.parse_multiplicative()
            left = ast.Binary(op, left, right, pos)
        return left

    def parse_multiplicative(self) -> ast.Expr:
        left = self.parse_unary()
        while self.at_punct("*") or self.at_punct("/") or self.at_punct("%"):
            pos = self._pos()
            op = self.next().value
            right = self.parse_unary()
            left = ast.Binary(op, left, right, pos)
        return left

    def parse_unary(self) -> ast.Expr:
        self._enter_nesting()
        try:
            pos = self._pos()
            if self.at_punct("!"):
                self.next()
                return ast.Unary("!", self.parse_unary(), pos)
            if self.at_punct("-"):
                self.next()
                return ast.Unary("-", self.parse_unary(), pos)
            if self.at_punct("+"):
                self.next()
                return self.parse_unary()
            cast = self.try_parse_cast()
            if cast is not None:
                return cast
            return self.parse_postfix()
        finally:
            self._depth -= 1

    def try_parse_cast(self) -> Optional[ast.Expr]:
        """Parse ``(T)e`` or ``(view T)e``, backtracking if the parenthesized
        text is not a type or is not followed by an expression start."""
        if not self.at_punct("("):
            return None
        pos = self._pos()
        save = self.pos
        self.next()
        is_view = self.accept_keyword("view")
        try:
            cast_type = self.parse_type()
            self.expect_punct(")")
        except ParseError:
            if is_view:
                raise
            self.pos = save
            return None
        if is_view:
            return ast.ViewChange(cast_type, self.parse_unary(), pos)
        # Heuristic: (T)e is a cast only if what follows can start an
        # expression, and T is not a bare name followed by an operator
        # (e.g. ``(a) + b`` must stay a parenthesized expression).  As in
        # Java, a sign starts the operand only after a primitive type:
        # ``(int) -x`` is a cast, ``(A) -x`` a subtraction.
        tok = self.peek()
        starts_expr = (
            tok.kind in (IDENT, INT_LIT, DOUBLE_LIT, STRING_LIT)
            or tok.is_punct("(")
            or tok.is_keyword("new")
            or tok.is_keyword("this")
            or tok.is_keyword("null")
            or tok.is_keyword("true")
            or tok.is_keyword("false")
            or tok.is_punct("!")
            or (
                (tok.is_punct("-") or tok.is_punct("+"))
                and isinstance(cast_type, ast.TPrim)
                and cast_type.name in _SIGNED_CASTS
            )
        )
        if isinstance(cast_type, ast.TName) and len(cast_type.parts) == 1:
            # A single identifier could be a variable; only treat as a cast
            # when followed by something that cannot continue an expression.
            if not starts_expr:
                self.pos = save
                return None
        elif not starts_expr:
            self.pos = save
            return None
        return ast.Cast(cast_type, self.parse_unary(), pos)

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            pos = self._pos()
            if self.at_punct(".") and self.peek(1).kind == IDENT:
                self.next()
                name = self.expect_ident().value
                if self.at_punct("("):
                    args = self.parse_args()
                    expr = ast.Call(expr, name, args, pos)
                else:
                    expr = ast.FieldGet(expr, name, pos)
                continue
            if self.at_punct("["):
                self.next()
                idx = self.parse_expr()
                self.expect_punct("]")
                expr = ast.Index(expr, idx, pos)
                continue
            if self.at_punct("++") or self.at_punct("--"):
                op = self.next().value
                if not isinstance(expr, (ast.Var, ast.FieldGet, ast.Index)):
                    raise ParseError(
                        "invalid increment target", self.peek(), code="JNS-PARSE-003"
                    )
                one = ast.Lit(1, "int", pos)
                expr = ast.Assign(expr, one, "+=" if op == "++" else "-=", pos)
                continue
            return expr

    def parse_args(self) -> List[ast.Expr]:
        self.expect_punct("(")
        args: List[ast.Expr] = []
        if not self.at_punct(")"):
            while True:
                args.append(self.parse_expr())
                if not self.accept_punct(","):
                    break
        self.expect_punct(")")
        return args

    def parse_primary(self) -> ast.Expr:
        pos = self._pos()
        tok = self.peek()
        if tok.kind == INT_LIT:
            self.next()
            return ast.Lit(int(tok.value), "int", pos)
        if tok.kind == DOUBLE_LIT:
            self.next()
            return ast.Lit(float(tok.value), "double", pos)
        if tok.kind == STRING_LIT:
            self.next()
            return ast.Lit(tok.value, "String", pos)
        if tok.is_keyword("true"):
            self.next()
            return ast.Lit(True, "boolean", pos)
        if tok.is_keyword("false"):
            self.next()
            return ast.Lit(False, "boolean", pos)
        if tok.is_keyword("null"):
            self.next()
            return ast.Lit(None, "null", pos)
        if tok.is_keyword("this"):
            self.next()
            return ast.This(pos)
        if tok.is_keyword("new"):
            self.next()
            return self.parse_new(pos)
        if tok.is_punct("("):
            self.next()
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if tok.kind == IDENT:
            self.next()
            if self.at_punct("("):
                args = self.parse_args()
                return ast.Call(None, tok.value, args, pos)
            return ast.Var(tok.value, pos)
        raise ParseError("expected expression", tok)

    def parse_new(self, pos: ast.Pos) -> ast.Expr:
        """Parse the type and arguments of a ``new`` expression."""
        new_type = self.parse_new_type()
        if self.at_punct("("):
            args = self.parse_args()
            return ast.NewObj(new_type, args, pos)
        if self.at_punct("["):
            self.next()
            length = self.parse_expr()
            self.expect_punct("]")
            elem: ast.TypeAST = new_type
            while self.at_punct("[") and self.peek(1).is_punct("]"):
                self.next()
                self.next()
                elem = ast.TArray(elem, pos)
            return ast.NewArray(elem, length, pos)
        raise ParseError("expected '(' or '[' after new T", self.peek())

    def parse_new_type(self) -> ast.TypeAST:
        """A type usable in ``new``: names, nested names, prefix types,
        exactness -- but array suffixes are handled by parse_new."""
        pos = self._pos()
        t = self.parse_type_primary()
        name_path: Optional[List[str]] = (
            list(t.parts) if isinstance(t, ast.TName) else None
        )
        while True:
            if self.at_punct(".") and self.peek(1).is_keyword("class"):
                if name_path is None:
                    raise ParseError(".class requires a simple path", self.peek())
                self.next()
                self.next()
                t = ast.TDep(tuple(name_path), pos)
                name_path = None
                continue
            if self.at_punct(".") and self.peek(1).kind == IDENT:
                self.next()
                name = self.expect_ident().value
                if name_path is not None:
                    name_path.append(name)
                    t = ast.TName(tuple(name_path), pos)
                else:
                    t = ast.TNested(t, name, pos)
                continue
            if self.at_punct("!"):
                self.next()
                t = ast.TExact(t, pos)
                name_path = None
                continue
            if self.at_punct("[") and not self.peek(1).is_punct("]"):
                # Could be a prefix type P[T] or the array length bracket.
                save = self.pos
                self.next()
                try:
                    index = self.parse_type()
                    if not self.at_punct("]"):
                        raise ParseError("expected ']'", self.peek())
                    # An index that parses as a type but is followed by ']('
                    # could still be an array length expression like
                    # ``new Node[n]`` (n parses as TName).  Prefix-type
                    # indices are always dependent or exact; plain variable
                    # names are lengths.
                    if isinstance(index, ast.TName) and len(index.parts) == 1:
                        raise ParseError("ambiguous: treat as array length", self.peek())
                    self.next()
                    t = ast.TPrefix(t, index, pos)
                    name_path = None
                    continue
                except ParseError:
                    self.pos = save
                    break
            break
        return t


def parse_program(
    source: str,
    file: Optional[str] = None,
    sink: Optional[DiagnosticSink] = None,
) -> ast.CompilationUnit:
    """Parse a full J&s compilation unit from source text.

    Without a ``sink``, the first syntax error raises :class:`ParseError`
    (the historical behavior).  With a sink, the parser runs in
    panic-mode-recovery: lexical and syntax errors are recorded as
    diagnostics, the parser re-synchronizes on ``;``/``}`` boundaries,
    and a (possibly partial) compilation unit is still returned so later
    phases can report additional, independent errors.
    """
    import sys

    # The expression grammar costs ~13 Python frames per nesting level.
    # Raise the interpreter stack limit for the duration of the parse
    # only, and restore it afterwards — the process-wide limit must be
    # left untouched (MAX_NESTING bounds how much of it we can use).
    old_limit = sys.getrecursionlimit()
    try:
        if old_limit < 20000:
            sys.setrecursionlimit(20000)
        if not TRACER.enabled:
            return Parser(source, file=file, sink=sink).parse_program()
        with TRACER.span("parse", chars=len(source)):
            unit = Parser(source, file=file, sink=sink).parse_program()
            TRACER.count("parse.classes", len(unit.classes))
            return unit
    finally:
        sys.setrecursionlimit(old_limit)


def parse_decls(tokens: List[Token], file: Optional[str] = None) -> List[ast.ClassDecl]:
    """Parse a run of top-level class declarations from pre-made tokens
    (the list must end with an EOF token).

    Raises :class:`ParseError` on the first syntax error — the incremental
    front end (:mod:`repro.lang.incremental`) uses this for per-chunk
    reparsing and falls back to a full :func:`parse_program` whenever a
    chunk fails, so panic-mode recovery is never needed here.
    """
    import sys

    old_limit = sys.getrecursionlimit()
    try:
        if old_limit < 20000:
            sys.setrecursionlimit(20000)
        return Parser("", file=file, tokens=tokens).parse_program().classes
    finally:
        sys.setrecursionlimit(old_limit)


def parse_type_text(source: str) -> ast.TypeAST:
    """Parse a single type, for tests and the API."""
    parser = Parser(source)
    result = parser.parse_type()
    if parser.peek().kind != EOF:
        raise ParseError("trailing input after type", parser.peek())
    return result
