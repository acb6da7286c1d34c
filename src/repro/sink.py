"""Collecting and rendering diagnostics: :class:`DiagnosticSink` and the
caret renderer :func:`render`.

Split from :mod:`repro.diagnostics` (which keeps the vocabulary: codes,
:class:`~repro.diagnostics.Span`, :class:`~repro.diagnostics.Diagnostic`)
because only a check or a failing run needs them; both names stay
importable from :mod:`repro.diagnostics`.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional

from .diagnostics import ERROR, WARNING, Diagnostic, Span


class DiagnosticSink:
    """Accumulates diagnostics across pipeline stages.

    A sink optionally carries a default ``file`` that is stamped onto
    spans that do not name one, so layers below the CLI never need to
    know which file they are compiling.
    """

    def __init__(self, file: Optional[str] = None) -> None:
        self.file = file
        self.diagnostics: List[Diagnostic] = []

    # -- recording ------------------------------------------------------

    def add(self, diag: Diagnostic) -> Diagnostic:
        if diag.span is not None:
            diag.span = diag.span.with_file(self.file)
        self.diagnostics.append(diag)
        return diag

    def emit(
        self,
        code: str,
        severity: str,
        message: str,
        span: Optional[Span] = None,
        where: Optional[str] = None,
        notes: Iterable[str] = (),
    ) -> Diagnostic:
        return self.add(
            Diagnostic(code, severity, message, span=span, where=where, notes=list(notes))
        )

    def error(self, code: str, message: str, **kw) -> Diagnostic:
        return self.emit(code, ERROR, message, **kw)

    def warning(self, code: str, message: str, **kw) -> Diagnostic:
        return self.emit(code, WARNING, message, **kw)

    def add_exc(self, exc: BaseException, where: Optional[str] = None) -> Diagnostic:
        """Record a :class:`repro.errors.JnsError` (or anything carrying
        ``code``/``span``/``notes`` attributes) as a diagnostic."""
        return self.add(
            Diagnostic(
                code=getattr(exc, "code", "JNS-GEN-000"),
                severity=getattr(exc, "severity", ERROR),
                message=str(exc),
                span=getattr(exc, "span", None),
                where=where,
                notes=list(getattr(exc, "notes", ()) or ()),
            )
        )

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        for d in diags:
            self.add(d)

    # -- inspection -----------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity == ERROR for d in self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    # -- output ---------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "ok": not self.has_errors,
                "diagnostics": [d.to_dict() for d in self.diagnostics],
            },
            indent=2,
        )

    def render(self, source: Optional[str] = None) -> str:
        return "\n".join(render(d, source) for d in self.diagnostics)


def render(diag: Diagnostic, source: Optional[str] = None) -> str:
    """Render one diagnostic, caret-pointing into ``source`` when the
    diagnostic has a span and the source text is available::

        demo.jns:3:11: error: expected ';' [JNS-PARSE-001]
            int x = 1
                     ^
          note: ...
    """
    lines: List[str] = []
    location = f"{diag.span}: " if diag.span is not None else ""
    context = f" (in {diag.where})" if diag.where and diag.span is not None else ""
    head = f"{location}{diag.severity}: {diag.message}{context} [{diag.code}]"
    if diag.span is None and diag.where:
        head = f"{diag.where}: {diag.severity}: {diag.message} [{diag.code}]"
    lines.append(head)
    if diag.span is not None and source is not None:
        src_lines = source.splitlines()
        if 1 <= diag.span.line <= len(src_lines):
            text = src_lines[diag.span.line - 1]
            lines.append(f"    {text}")
            start = max(diag.span.col, 1)
            end = diag.span.end_col if (
                diag.span.end_col is not None
                and (diag.span.end_line is None or diag.span.end_line == diag.span.line)
                and diag.span.end_col >= start
            ) else start
            end = min(end, max(len(text), start))
            lines.append("    " + " " * (start - 1) + "^" * (end - start + 1))
    for note in diag.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)
