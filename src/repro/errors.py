"""The root of the J&s error hierarchy.

Lives in its own nearly dependency-free module (it imports only
:mod:`repro.diagnostics`, which imports nothing) so both the front end
(lexer/parser) and the semantic layers can share one base class:
catching :class:`JnsError` covers every compilation and runtime failure.

Every J&s error carries the structured-diagnostic vocabulary of
:mod:`repro.diagnostics`: a stable ``code`` (class-level default,
overridable per raise site), an optional source :class:`~repro.diagnostics.Span`,
and optional notes.  :meth:`JnsError.to_diagnostic` converts any error
into a renderable :class:`~repro.diagnostics.Diagnostic`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from .diagnostics import Diagnostic, Span


class JnsError(Exception):
    """Base class for all J&s compilation and runtime errors."""

    #: Stable diagnostic code; subclasses override, raise sites may pass
    #: a more specific one via ``code=``.
    code: str = "JNS-GEN-000"
    severity: str = "error"

    def __init__(
        self,
        message: str,
        *,
        code: Optional[str] = None,
        span: Optional[Span] = None,
        notes: Optional[Iterable[str]] = None,
    ) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code
        self.span = span
        self.notes: List[str] = list(notes) if notes else []

    def to_diagnostic(self, where: Optional[str] = None) -> Diagnostic:
        return Diagnostic(
            code=self.code,
            severity=self.severity,
            message=str(self),
            span=self.span,
            where=where,
            notes=list(self.notes),
        )


class JnsResourceError(JnsError):
    """A resource guard tripped: a step/fuel budget ran out, a call-depth
    limit was exceeded, or the host stack was exhausted.  Carries the
    J&s-level call stack active when the guard fired so runaway programs
    produce an actionable report instead of a hard crash."""

    code = "JNS-RES-001"

    def __init__(
        self,
        message: str,
        *,
        code: Optional[str] = None,
        span: Optional[Span] = None,
        notes: Optional[Iterable[str]] = None,
        jns_stack: Optional[Iterable[str]] = None,
    ) -> None:
        super().__init__(message, code=code, span=span, notes=notes)
        self.jns_stack: List[str] = []
        if jns_stack:
            self.set_stack(jns_stack)

    def set_stack(self, jns_stack: Iterable[str]) -> None:
        """Attach the J&s call stack (outermost first) and its notes.  The
        runtime's guards raise without one; it is filled in from the
        traceback once the error reaches the host boundary."""
        self.jns_stack = list(jns_stack)
        if self.jns_stack:
            shown = self.jns_stack[-20:]
            if len(self.jns_stack) > len(shown):
                self.notes.append(
                    f"J&s call stack (deepest {len(shown)} of "
                    f"{len(self.jns_stack)} frames):"
                )
            else:
                self.notes.append("J&s call stack (deepest last):")
            self.notes.extend(f"  at {frame}" for frame in shown)
