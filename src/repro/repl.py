"""An interactive J&s read-eval-print loop.

Class declarations accumulate into the session's program; any other
input is parsed as statements (or a single expression, which is printed)
and executed against the current program.  State does not persist
between statement inputs — families and sharing live in the declared
classes, which is where J&s programs keep their structure anyway.

Used by ``python -m repro repl``; the :class:`ReplSession` object is the
programmatic/testable interface.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import obs
from .api import cache_stats, compile_program
from .lang.classtable import JnsError
from .source.lexer import tokenize
from .source.parser import ParseError, Parser

_BANNER = (
    "J&s repl — class declarations accumulate; other input runs as "
    "statements.\nCommands: :load FILE  :check  :classes  :reset  "
    ":stats  :backend [NAME]  :trace on|off  :profile  :lines [on|off]  "
    ":flame FILE  :quit"
)


class ReplSession:
    """Holds the accumulated class declarations of one session."""

    def __init__(self) -> None:
        self.decls: List[str] = []
        #: execution backend for statement inputs (`:backend NAME`)
        self.backend: str = "codegen"
        #: `:lines on` — annotate each statement run with the per-line
        #: profile table; the last table is kept for a bare `:lines`
        self.line_profile: bool = False
        self._last_lines: List[str] = []
        # Persistent incremental session behind :load / :check — kept
        # across reloads so re-:load after an edit re-checks only the
        # changed classes (see repro.lang.incremental).
        self._inc = None
        self._inc_file: Optional[str] = None

    # ------------------------------------------------------------------

    def feed(self, text: str) -> List[str]:
        """Process one input; returns the lines to display."""
        stripped = text.strip()
        if not stripped:
            return []
        if stripped == ":classes":
            return self.decls or ["(no classes declared)"]
        if stripped == ":reset":
            self.decls = []
            self._inc = None
            self._inc_file = None
            return ["(cleared)"]
        if stripped.startswith(":load"):
            parts = stripped.split(None, 1)
            if len(parts) != 2:
                return ["usage: :load FILE"]
            return self._load(parts[1])
        if stripped == ":check":
            if self._inc is None:
                return ["(no file loaded — use :load FILE first)"]
            return self._report_check()
        if stripped == ":stats":
            # Process-wide query-cache counters (the REPL compiles a fresh
            # program per input, so the global snapshot is the session's).
            return cache_stats().format().splitlines()
        if stripped.startswith(":backend"):
            from .runtime.interp import BACKENDS

            parts = stripped.split(None, 1)
            if len(parts) == 1:
                return [f"backend: {self.backend} (choices: "
                        f"{', '.join(BACKENDS)})"]
            if parts[1] not in BACKENDS:
                return [f"unknown backend {parts[1]!r} (choices: "
                        f"{', '.join(BACKENDS)})"]
            self.backend = parts[1]
            return [f"(backend set to {self.backend})"]
        if stripped in (":trace on", ":trace off"):
            if stripped.endswith("on"):
                obs.enable()
                return ["(tracing on — run some input, then :profile)"]
            obs.disable()
            return ["(tracing off)"]
        if stripped == ":profile":
            # Same unified report formatter as `repro run --profile`.
            if not obs.enabled() and not obs.TRACER.observations:
                return ["(no trace data — enable collection with :trace on)"]
            return obs.format_report(cache_stats=cache_stats()).splitlines()
        if stripped in (":lines", ":lines on", ":lines off"):
            if stripped.endswith(" on"):
                self.line_profile = True
                return ["(line profiling on — statement runs are annotated;"
                        " bare :lines re-shows the last table)"]
            if stripped.endswith(" off"):
                self.line_profile = False
                return ["(line profiling off)"]
            if not self._last_lines:
                return ["(no line profile yet — :lines on, then run input)"]
            return list(self._last_lines)
        if stripped.startswith(":flame"):
            parts = stripped.split(None, 1)
            if len(parts) != 2:
                return ["usage: :flame FILE"]
            if not obs.TRACER.observations:
                return ["(no trace data — enable collection with :trace on)"]
            try:
                obs.TRACER.write_collapsed(parts[1])
            except OSError as exc:
                return [f"error: cannot write {parts[1]}: {exc.strerror}"]
            return [f"(collapsed stacks written to {parts[1]} — feed to "
                    "flamegraph.pl or speedscope)"]
        if stripped.startswith(":"):
            return [f"unknown command {stripped.split()[0]!r} (try :load "
                    ":check :classes :reset :stats :backend :trace "
                    ":profile :lines :flame :quit)"]
        if self._is_declaration(stripped):
            return self._add_declaration(stripped)
        return self._run_statements(stripped)

    def _load(self, path: str) -> List[str]:
        """Load (or re-load) a source file into the persistent
        incremental session; the file's classes become the session
        program.  A re-:load of an edited file goes through
        ``apply_edit``, so only the changed slice is re-checked."""
        from .lang.incremental import IncrementalChecker

        try:
            with open(path) as f:
                source = f.read()
        except OSError as exc:
            return [f"error: cannot read {path}: {exc.strerror}"]
        if self._inc is None or self._inc_file != path:
            self._inc = IncrementalChecker(source, file=path)
            self._inc_file = path
            stats = self._inc.last_stats
        else:
            stats = self._inc.apply_edit(source)
        head = f"loaded {path} [{stats['strategy']}"
        if stats.get("dirty"):
            head += f", dirty: {', '.join(stats['dirty'])}"
        head += f", {stats['edit_ms']:.1f}ms]"
        lines = [head]
        lines.extend(self._report_check())
        if not self._inc.check().has_errors:
            self.decls = [source.rstrip()]
        return lines

    def _report_check(self) -> List[str]:
        assert self._inc is not None
        sink = self._inc.check()
        lines: List[str] = []
        if len(sink):
            lines.extend(sink.render(self._inc.source).splitlines())
        acct = self._inc.last_stats.get("check")
        tail = "ok" if not sink.has_errors else f"{len(sink.errors)} error(s)"
        if acct:
            tail += (
                f"  (recomputed {acct['recomputed']}, revalidated "
                f"{acct['revalidated']}, reused {acct['reused']})"
            )
        lines.append(tail)
        return lines

    @staticmethod
    def _is_declaration(text: str) -> bool:
        return text.startswith("class ") or text.startswith("abstract class ")

    @staticmethod
    def needs_more(text: str) -> bool:
        """Whether the input has unbalanced braces (multi-line entry)."""
        try:
            tokens = tokenize(text)
        except JnsError:
            return False
        depth = 0
        for tok in tokens:
            if tok.is_punct("{"):
                depth += 1
            elif tok.is_punct("}"):
                depth -= 1
        return depth > 0

    # ------------------------------------------------------------------

    def _program_source(self, extra: str = "") -> str:
        return "\n".join(self.decls) + "\n" + extra

    def _add_declaration(self, text: str) -> List[str]:
        candidate = self.decls + [text]
        try:
            program = compile_program("\n".join(candidate))
        except JnsError as exc:
            return [f"error: {exc}"]
        self.decls = candidate
        names = [d.name for d in program.table.unit.classes]
        return [f"ok ({len(names)} top-level classes: {', '.join(names)})"]

    def _run_statements(self, text: str) -> List[str]:
        body = self._as_statements(text)
        source = self._program_source(
            "class _Repl { void _run() { " + body + " } }"
        )
        try:
            program = compile_program(source)
        except JnsError as exc:
            return [f"error: {exc}"]
        # The codegen backend is what `repro run` defaults to; the REPL
        # matches it so :profile and :stats report the same pipeline
        # users measure elsewhere (switch with :backend NAME).
        if self.line_profile:
            return self._run_profiled(program, source)
        interp = program.interp(mode="jns", backend=self.backend)
        try:
            ref = interp.new_instance(("_Repl",), ())
            interp.call_method(ref, "_run", [])
        except JnsError as exc:
            return interp.output + [f"runtime error: {exc}"]
        return interp.output

    def _run_profiled(self, program, source: str) -> List[str]:
        """`:lines on` path: run under the deterministic line profiler
        and append the annotated heatmap (kept for a bare `:lines`)."""
        from .profiler import PROFILE_LOCK, PROFILER, ProfileReport

        with PROFILE_LOCK:
            interp = program.interp(
                mode="jns", backend=self.backend, line_profile=True
            )
            PROFILER.start()
            try:
                ref = interp.new_instance(("_Repl",), ())
                interp.call_method(ref, "_run", [])
            except JnsError as exc:
                return interp.output + [f"runtime error: {exc}"]
            finally:
                PROFILER.stop()
            snap = PROFILER.snapshot()
        report = ProfileReport(
            source, "<repl>", det=snap, backend_det=self.backend
        )
        self._last_lines = report.render_text(context=1).splitlines()
        return interp.output + self._last_lines

    @staticmethod
    def _as_statements(text: str) -> str:
        """A bare expression (no trailing ';') becomes ``Sys.print(expr);``
        so its value is displayed; anything else runs as statements.  End
        an expression with ';' to suppress printing."""
        from .source.tokens import EOF

        expr_parser = Parser(text)
        try:
            expr_parser.parse_expr()
            if expr_parser.peek().kind == EOF:
                return f"Sys.print({text});"
        except (ParseError, JnsError):
            pass
        return text if text.endswith((";", "}")) else text + ";"


def main() -> int:
    session = ReplSession()
    print(_BANNER)
    buffer = ""
    while True:
        prompt = "....> " if buffer else "jns> "
        try:
            line = input(prompt)
        except EOFError:
            print()
            return 0
        if not buffer and line.strip() == ":quit":
            return 0
        buffer = (buffer + "\n" + line) if buffer else line
        if ReplSession.needs_more(buffer):
            continue
        for out in session.feed(buffer):
            print(out)
        buffer = ""


if __name__ == "__main__":
    raise SystemExit(main())
