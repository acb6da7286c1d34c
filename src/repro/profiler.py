"""Source-level profiling: jns line attribution across every backend.

:class:`LineProfiler` is the deterministic event-cost profiler.  The
walker swaps in a counting ``exec_stmt`` and the codegen emitter plants
explicit hit calls — both only when the interpreter was built with
``line_profile=True``, so unprofiled runs pay nothing (same
zero-overhead discipline as the fuel counter).  A handful of shared
runtime hot sites (mask checks in ``get_field``, view adaptation in
``_adapt``, dispatch lookups in ``_lookup_method``) carry one
``if PROFILER.enabled:`` guard each, mirroring ``obs.TRACER``'s
enabled-guard budget, and attribute their events to the current
statement line.

A :class:`ProfileReport` holds its per-line table, rendered as an
annotated-source terminal heatmap, a self-contained HTML report, or
JSON (``repro profile --json`` and the ``profile`` op of
``repro serve``).  Where wall-clock time went is answered by the
tracer's span self times (``repro run --profile``/``--flame``), not here.

The deterministic event columns are cross-backend invariants: the
``steps`` column (statement entries) agrees exactly between walker and
codegen runs of the same program, as do the
``mask`` and ``view`` columns (the codegen tier plants explicit events
on its elided fast paths so optimized-away work is still attributed).
The ``dispatch`` column deliberately is *not* invariant — it counts
dynamic dispatch lookups, which codegen's devirtualization exists to
elide, so comparing it across tiers shows exactly what devirtualization
removed.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

# The hot-path collector lives next to ``obs.TRACER`` and the source-map
# type next to the emitter that builds it, so a plain ``repro run`` never
# imports this module; they are re-exported here unchanged.
from .obs import PROFILER, LineProfiler
from .runtime.codegen import EmittedSource

__all__ = [
    "PROFILER",
    "LineProfiler",
    "EmittedSource",
    "ProfileReport",
    "profile_source",
]


#: serializes whole profile runs (the collector is process-global)
PROFILE_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


class ProfileReport:
    """Per-jns-line attribution table over one source file."""

    def __init__(
        self,
        source: str,
        file: str = "<input>",
        det: Optional[Dict[str, Dict[int, int]]] = None,
        backend_det: str = "",
    ) -> None:
        self.source = source
        self.file = file
        self.det = det or {}
        self.backend_det = backend_det

    # -- accessors -------------------------------------------------------

    def hot_lines(self) -> List[int]:
        lines = set()
        for col in ("steps", "mask", "view", "dispatch"):
            lines.update(self.det.get(col, ()))
        return sorted(lines)

    def row(self, line: int) -> Dict[str, Any]:
        det = self.det
        return {
            "line": line,
            "steps": det.get("steps", {}).get(line, 0),
            "mask": det.get("mask", {}).get(line, 0),
            "view": det.get("view", {}).get(line, 0),
            "dispatch": det.get("dispatch", {}).get(line, 0),
        }

    def to_dict(self) -> Dict[str, Any]:
        src_lines = self.source.splitlines()
        rows = []
        for line in self.hot_lines():
            r = self.row(line)
            r["text"] = (
                src_lines[line - 1] if 0 < line <= len(src_lines) else ""
            )
            rows.append(r)
        return {
            "file": self.file,
            "backend_det": self.backend_det,
            "lines": rows,
        }

    # -- terminal heatmap ------------------------------------------------

    _HEAT = " ▁▂▃▄▅▆▇█"

    def _heat_char(self, value: float, peak: float) -> str:
        if peak <= 0 or value <= 0:
            return self._HEAT[0]
        idx = 1 + int((len(self._HEAT) - 2) * min(1.0, value / peak))
        return self._HEAT[idx]

    def render_text(self, context: int = 0, color: bool = False) -> str:
        """Annotated-source heatmap.  ``context=0`` prints the whole
        file; a positive value keeps only that many lines around each
        attributed line."""
        src_lines = self.source.splitlines()
        hot = set(self.hot_lines())
        keep: set = set(range(1, len(src_lines) + 1))
        if context > 0 and hot:
            keep = set()
            for h in hot:
                keep.update(range(max(1, h - context), h + context + 1))
        steps = self.det.get("steps", {})
        peak_steps = max(steps.values(), default=0)
        out = [
            f"profile: {self.file}"
            + (f"  [events: {self.backend_det}]" if self.backend_det else ""),
            "  heat   steps   disp  view  mask  source",
        ]
        for i, text in enumerate(src_lines, start=1):
            if i not in keep:
                # collapse skipped runs into one ellipsis marker
                if out[-1] != "  ...":
                    out.append("  ...")
                continue
            r = self.row(i)
            heat = self._heat_char(r["steps"], peak_steps)
            cells = (
                f"{r['steps'] or '':>8}  "
                f"{r['dispatch'] or '':>5} "
                f"{r['view'] or '':>5} "
                f"{r['mask'] or '':>5}"
            )
            if color and r["steps"]:
                heat = f"\x1b[31m{heat}\x1b[0m"
            out.append(f"  {heat}   {cells}  {i:>4}| {text}")
        return "\n".join(out) + "\n"

    # -- HTML report -----------------------------------------------------

    def render_html(self) -> str:
        """Self-contained, script-free HTML report (same ``<details>``
        style as ``repro explain --html``)."""
        import html as _html

        src_lines = self.source.splitlines()
        steps = self.det.get("steps", {})
        peak_steps = max(steps.values(), default=1)
        body: List[str] = []
        body.append("<table class='prof'>")
        body.append(
            "<tr><th>line</th><th>steps</th>"
            "<th>disp</th><th>view</th><th>mask</th><th>source</th></tr>"
        )
        for i, text in enumerate(src_lines, start=1):
            r = self.row(i)
            shade = int(255 - 110 * r["steps"] / peak_steps)
            style = (
                f" style='background:rgb(255,{shade},{shade})'"
                if r["steps"]
                else ""
            )
            cells = "".join(
                f"<td>{v or ''}</td>"
                for v in (r["steps"], r["dispatch"], r["view"], r["mask"])
            )
            body.append(
                f"<tr{style}><td class='n'>{i}</td>{cells}"
                f"<td><code>{_html.escape(text)}</code></td></tr>"
            )
        body.append("</table>")
        meta = (
            f"<p>file <code>{_html.escape(self.file)}</code>"
            + (f" · events from <b>{self.backend_det}</b>" if self.backend_det else "")
            + "</p>"
        )
        legend = (
            "<details><summary>what the columns mean</summary><ul>"
            "<li><b>steps</b> — statement entries on the deterministic"
            " tier (a backend invariant)</li>"
            "<li><b>disp</b> — megamorphic method lookups (tier-dependent:"
            " the optimizing tiers elide them)</li>"
            "<li><b>view</b> — view-change applications</li>"
            "<li><b>mask</b> — sharing-mask checks on field reads</li>"
            "</ul></details>"
        )
        return (
            "<!doctype html><html><head><meta charset='utf-8'>"
            "<title>jns line profile</title><style>"
            "body{font-family:system-ui,sans-serif;margin:1.5rem;}"
            "table.prof{border-collapse:collapse;font-size:13px;}"
            "table.prof td,table.prof th{padding:1px 8px;text-align:right;"
            "border-bottom:1px solid #eee;}"
            "table.prof td:last-child{text-align:left;}"
            "td.n{color:#999;}code{font-family:ui-monospace,monospace;"
            "white-space:pre;}details{margin-top:1rem;}"
            "summary{cursor:pointer;font-weight:600;}"
            "</style></head><body>"
            "<h1>jns line profile</h1>"
            f"{meta}{legend}{''.join(body)}"
            "</body></html>"
        )


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def run_deterministic(
    program,
    entry: str = "Main.main",
    args: Tuple = (),
    backend: str = "codegen",
    mode: str = "jns",
) -> Tuple[Dict[str, Dict[int, int]], Any]:
    """One profiled run on a deterministic tier; returns (snapshot,
    entry result).  Serialized on :data:`PROFILE_LOCK` because the
    counters are process-global."""
    with PROFILE_LOCK:
        interp = program.interp(mode=mode, backend=backend, line_profile=True)
        PROFILER.start()
        try:
            result = interp.run(entry, args)
        finally:
            PROFILER.stop()
        return PROFILER.snapshot(), result


def profile_source(
    source: str,
    file: str = "<input>",
    entry: str = "Main.main",
    args: Tuple = (),
    mode: str = "jns",
    det_backend: str = "codegen",
) -> ProfileReport:
    """Compile ``source`` and profile ``entry`` once: deterministic event
    counts on ``det_backend``."""
    from .api import compile_program

    program = compile_program(source)
    det, _ = run_deterministic(
        program, entry=entry, args=args, backend=det_backend, mode=mode
    )
    return ProfileReport(source, file=file, det=det, backend_det=det_backend)
