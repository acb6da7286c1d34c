"""Structured diagnostics for the J&s pipeline.

Every layer of the compiler and runtime reports failures through the
same vocabulary:

* :class:`Span` — a source region (1-based line/col, optional file);
* :class:`Diagnostic` — a stable error code (``JNS-PARSE-001``, …), a
  severity, a message, an optional span, and optional notes;
* :class:`DiagnosticSink` — an accumulator so that one ``check``
  invocation can report *all* errors in a file instead of aborting on
  the first;
* :func:`render` — a human renderer that prints the offending source
  line with a caret under the span.

The last two live in :mod:`repro.sink`, which loads on first use (a
clean ``repro run`` never needs them); both stay importable from here.

The module is dependency-free (even :mod:`repro.errors` imports from
here) so that the front end, the semantic layers, and the runtime can
all share it without cycles.

Error-code registry
-------------------

Codes are grouped by pipeline stage; the numeric suffix is stable and
may be relied upon by tooling (see ``--json`` on ``python -m repro
check``).  Add new codes at the end of a group — never renumber.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .records import Frozen, Record

_set = object.__setattr__

#: Severities, most severe first.
ERROR = "error"
WARNING = "warning"
NOTE = "note"
SEVERITIES = (ERROR, WARNING, NOTE)

#: The registry of stable diagnostic codes.  The CLI and the docs
#: (docs/IMPLEMENTATION.md) render this table; tests assert membership.
CODES: Dict[str, str] = {
    # -- lexer ---------------------------------------------------------
    "JNS-LEX-001": "unexpected character",
    "JNS-LEX-002": "unterminated string literal",
    "JNS-LEX-003": "unterminated block comment",
    "JNS-LEX-004": "newline in string literal",
    # -- parser --------------------------------------------------------
    "JNS-PARSE-001": "unexpected token",
    "JNS-PARSE-002": "expected a type or declaration",
    "JNS-PARSE-003": "invalid assignment or increment target",
    "JNS-PARSE-004": "method body missing or misplaced",
    "JNS-PARSE-005": "expression or type nesting too deep",
    # -- name resolution ----------------------------------------------
    "JNS-RESOLVE-001": "unknown name",
    "JNS-RESOLVE-002": "unknown type name or class",
    "JNS-RESOLVE-003": "unknown Sys native",
    "JNS-RESOLVE-004": "cyclic inheritance",
    "JNS-RESOLVE-005": "duplicate class declaration",
    "JNS-RESOLVE-006": "unresolvable construct",
    # -- static semantics ---------------------------------------------
    "JNS-TYPE-001": "type error",
    "JNS-TYPE-002": "cyclic inheritance (checker)",
    "JNS-TYPE-003": "incompatible initializer type",
    "JNS-TYPE-004": "incompatible return",
    "JNS-TYPE-005": "operand type mismatch",
    "JNS-TYPE-006": "bad call arguments",
    "JNS-TYPE-007": "unknown member",
    "JNS-TYPE-008": "invalid assignment",
    "JNS-TYPE-009": "duplicate local variable",
    "JNS-TYPE-010": "bad instantiation",
    "JNS-TYPE-011": "use of masked fields",
    "JNS-TYPE-012": "sharing constraint does not hold",
    "JNS-TYPE-013": "illegal shares clause",
    "JNS-TYPE-014": "unjustified view change",
    "JNS-TYPE-015": "bad cast",
    "JNS-TYPE-016": "overriding arity mismatch",
    # -- runtime -------------------------------------------------------
    "JNS-RUN-000": "runtime error",
    "JNS-RUN-001": "null dereference",
    "JNS-RUN-002": "uninitialized or masked field",
    "JNS-RUN-003": "unknown field, method, or variable",
    "JNS-RUN-004": "arity mismatch",
    "JNS-RUN-005": "failed cast or view change",
    "JNS-RUN-006": "array error",
    "JNS-RUN-007": "arithmetic error",
    "JNS-RUN-008": "Sys.fail",
    "JNS-RUN-009": "calculus machine stuck",
    # -- resource guards ----------------------------------------------
    "JNS-RES-001": "step budget exhausted",
    "JNS-RES-002": "call depth limit exceeded",
    "JNS-RES-003": "calculus fuel exhausted",
    "JNS-RES-004": "host stack exhausted",
    # -- catch-all -----------------------------------------------------
    "JNS-GEN-000": "unclassified error",
}


class Span(Frozen):
    """A source region.  Lines and columns are 1-based; ``end_*`` default
    to the start so a bare position renders as a single caret."""

    __slots__ = ("line", "col", "end_line", "end_col", "file")

    def __init__(
        self,
        line: int,
        col: int,
        end_line: Optional[int] = None,
        end_col: Optional[int] = None,
        file: Optional[str] = None,
    ) -> None:
        _set(self, "line", line)
        _set(self, "col", col)
        _set(self, "end_line", end_line)
        _set(self, "end_col", end_col)
        _set(self, "file", file)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.line == other.line
                and self.col == other.col
                and self.end_line == other.end_line
                and self.end_col == other.end_col
                and self.file == other.file
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.line, self.col, self.end_line, self.end_col, self.file))

    @classmethod
    def from_pos(cls, pos: Optional[Tuple[int, int]], file: Optional[str] = None):
        """Build from an AST ``pos`` tuple ``(line, col)``; None-safe."""
        if pos is None:
            return None
        return cls(line=pos[0], col=pos[1], file=file)

    @classmethod
    def from_token(cls, token, file: Optional[str] = None) -> "Span":
        """Build from a lexer token, spanning its text."""
        width = max(len(getattr(token, "value", "") or ""), 1)
        return cls(
            line=token.line,
            col=token.col,
            end_line=token.line,
            end_col=token.col + width - 1,
            file=file,
        )

    def with_file(self, file: Optional[str]) -> "Span":
        if file is None or self.file is not None:
            return self
        return Span(self.line, self.col, self.end_line, self.end_col, file)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "line": self.line,
            "col": self.col,
            "end_line": self.end_line if self.end_line is not None else self.line,
            "end_col": self.end_col if self.end_col is not None else self.col,
        }

    def __str__(self) -> str:
        prefix = f"{self.file}:" if self.file else ""
        return f"{prefix}{self.line}:{self.col}"


class Diagnostic(Record):
    """One reportable condition with a stable code.

    ``where`` is the semantic context (e.g. ``"Main.main"``).  ``explain``
    is an optional refutation tree (a serialized
    :class:`repro.lang.provenance.Derivation`) explaining *why* the
    judgment behind this diagnostic failed; the type checker fills it
    under ``check --json --explain``.
    """

    __slots__ = ("code", "severity", "message", "span", "where", "notes", "explain")

    def __init__(
        self,
        code: str,
        severity: str,
        message: str,
        span: Optional[Span] = None,
        where: Optional[str] = None,
        notes: Optional[List[str]] = None,
        explain: Optional[Dict[str, Any]] = None,
    ) -> None:
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        self.code = code
        self.severity = severity
        self.message = message
        self.span = span
        self.where = where
        self.notes = [] if notes is None else notes
        self.explain = explain

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.code == other.code
                and self.severity == other.severity
                and self.message == other.message
                and self.span == other.span
                and self.where == other.where
                and self.notes == other.notes
                and self.explain == other.explain
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        # Keep the historical "<where>: <message>" shape so existing
        # callers (and raise_on_error aggregates) stay readable.
        if self.where:
            return f"{self.where}: {self.message}"
        if self.span is not None:
            return f"{self.span}: {self.message}"
        return self.message

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.span is not None:
            payload["span"] = self.span.to_dict()
            if self.span.file:
                payload["file"] = self.span.file
        if self.where:
            payload["where"] = self.where
        if self.notes:
            payload["notes"] = list(self.notes)
        if self.explain is not None:
            payload["explain"] = self.explain
        return payload


def __getattr__(name: str):
    # The sink and the renderer (repro/sink.py) load on first use: only
    # a check or a failing run needs them.
    if name in ("DiagnosticSink", "render"):
        from . import sink

        return getattr(sink, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
