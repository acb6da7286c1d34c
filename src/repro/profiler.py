"""Source-level profiling: jns line attribution across every backend.

Two collectors feed one per-line table:

* :class:`LineProfiler` — the deterministic event-cost profiler.  The
  walker swaps in a counting ``exec_stmt``, the closure/register
  compilers wrap each compiled statement, and the codegen emitter plants
  explicit hit calls — all only when the interpreter was built with
  ``line_profile=True``, so unprofiled runs pay nothing (same
  zero-overhead discipline as the fuel counter).  A handful of shared
  runtime hot sites (mask checks in ``get_field``, view adaptation in
  ``_adapt``, dispatch lookups in ``_lookup_method``) carry one
  ``if PROFILER.enabled:`` guard each, mirroring ``obs.TRACER``'s
  enabled-guard budget, and attribute their events to the current
  statement line.

* :class:`SamplingProfiler` — a wall-clock sampler for the codegen
  tier.  A daemon thread periodically reads ``sys._current_frames()``
  for the workload thread and resolves any frame whose code object
  lives in a ``<jns:P.C.m>`` file back through the emitted source map
  (:class:`EmittedSource.linemap`) to the originating jns line.  Sampled
  frames also yield collapsed-stack folds keyed by jns frames rather
  than obs span paths.

``merge_reports`` joins both into a :class:`ProfileReport` rendered as
an annotated-source terminal heatmap, a self-contained HTML report, or
JSON (the ``profile`` op of ``repro serve``).

The deterministic event columns are cross-backend invariants: the
``steps`` column (statement entries) agrees exactly between walker,
compiled, specialized, and codegen runs of the same program, as do the
``mask`` and ``view`` columns (the codegen tier plants explicit events
on its elided fast paths so optimized-away work is still attributed).
The ``dispatch`` column deliberately is *not* invariant — it counts
dynamic dispatch lookups, which specialization and codegen exist to
elide, so comparing it across tiers shows exactly what devirtualization
removed.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

# The hot-path collector lives next to ``obs.TRACER`` and the source-map
# type next to the emitter that builds it, so a plain ``repro run`` never
# imports this module; they are re-exported here unchanged.
from .obs import PROFILER, LineProfiler, fold_label
from .runtime.codegen import EmittedSource

__all__ = [
    "PROFILER",
    "LineProfiler",
    "SamplingProfiler",
    "EmittedSource",
    "ProfileReport",
    "fold_label",
    "merge_reports",
    "profile_source",
]


#: serializes whole profile runs (the collectors are process-global)
PROFILE_LOCK = threading.Lock()


class SamplingProfiler:
    """Wall-clock sampler for the codegen tier.

    ``start()`` records the calling thread as the workload thread and
    spawns a daemon sampler; the caller then runs the workload and calls
    ``stop()``.  Each sample walks the workload thread's Python stack;
    frames compiled from emitted jns bodies (``co_filename`` starting
    with ``<jns:``) resolve through the interpreter's live source maps.

    Per jns line: ``self_samples`` (innermost jns frame) and
    ``total_samples`` (anywhere on the stack).  Stacks of jns frames
    also accumulate as collapsed folds (outermost first) keyed by
    ``P.C.m:line`` labels.  ``jns_samples``/``resolved_samples`` track
    the attribution rate the acceptance gate asserts on.
    """

    def __init__(self, interp, interval: float = 0.001) -> None:
        self.interp = interp
        self.interval = interval
        self.samples_total = 0      # all samples of the workload thread
        self.jns_samples = 0        # samples with >= 1 codegen frame
        self.resolved_samples = 0   # ... whose innermost frame resolved
        self.self_samples: Dict[int, int] = {}
        self.total_samples: Dict[int, int] = {}
        self.folds: Dict[Tuple[str, ...], int] = {}
        self.wall_seconds = 0.0
        self._target_tid: Optional[int] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._t0 = 0.0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        self._target_tid = threading.get_ident()
        self._stop.clear()
        self._t0 = time.perf_counter()
        self._thread = threading.Thread(
            target=self._loop, name="jns-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.wall_seconds = time.perf_counter() - self._t0

    # -- sampling --------------------------------------------------------

    def _source_for(self, filename: str) -> Optional[EmittedSource]:
        cg = getattr(self.interp, "_cg", None)
        if cg is None:
            return None
        return cg.by_filename.get(filename)

    def _loop(self) -> None:
        import sys

        interval = self.interval
        tid = self._target_tid
        while not self._stop.is_set():
            time.sleep(interval)
            frame = sys._current_frames().get(tid)
            if frame is None:
                continue
            self._take(frame)

    def _take(self, frame) -> None:
        self.samples_total += 1
        # bottom of the walk is the *innermost* frame; collect jns
        # frames innermost-first, then reverse for fold order
        jns_stack: List[Tuple[str, Optional[Tuple[int, int]]]] = []
        f = frame
        while f is not None:
            co = f.f_code
            fname = co.co_filename
            if fname.startswith("<jns:"):
                es = self._source_for(fname)
                pos = es.resolve(f.f_lineno) if es is not None else None
                label = fname[5:-1] if fname.endswith(">") else fname[5:]
                jns_stack.append((label, pos))
            f = f.f_back
        if not jns_stack:
            return
        self.jns_samples += 1
        inner_label, inner_pos = jns_stack[0]
        if inner_pos is not None:
            self.resolved_samples += 1
            d = self.self_samples
            d[inner_pos[0]] = d.get(inner_pos[0], 0) + 1
        seen_lines = set()
        for _label, pos in jns_stack:
            if pos is not None:
                seen_lines.add(pos[0])
        for line in seen_lines:
            d = self.total_samples
            d[line] = d.get(line, 0) + 1
        key = tuple(
            fold_label(f"{label}:{pos[0]}" if pos else label)
            for label, pos in reversed(jns_stack)
        )
        self.folds[key] = self.folds.get(key, 0) + 1

    # -- derived ---------------------------------------------------------

    @property
    def resolution(self) -> float:
        """Fraction of codegen-tier samples attributed to a valid jns
        span — the acceptance gate asserts this stays >= 0.95."""
        if not self.jns_samples:
            return 1.0
        return self.resolved_samples / self.jns_samples

    def seconds_per_sample(self) -> float:
        if not self.samples_total:
            return 0.0
        return self.wall_seconds / self.samples_total

    def to_collapsed(self) -> str:
        """Collapsed folds keyed by jns frames (``P.C.m:line``), one
        fold per line, for flamegraph.pl / speedscope."""
        lines = [
            ";".join(key) + f" {n}"
            for key, n in sorted(self.folds.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path: str) -> int:
        text = self.to_collapsed()
        with open(path, "w") as fh:
            fh.write(text)
        return len(self.folds)


# ---------------------------------------------------------------------------
# merged report
# ---------------------------------------------------------------------------


class ProfileReport:
    """Per-jns-line attribution table over one source file."""

    def __init__(
        self,
        source: str,
        file: str = "<input>",
        det: Optional[Dict[str, Dict[int, int]]] = None,
        sampler: Optional[SamplingProfiler] = None,
        backend_det: str = "",
        backend_sampled: str = "",
    ) -> None:
        self.source = source
        self.file = file
        self.det = det or {}
        self.backend_det = backend_det
        self.backend_sampled = backend_sampled
        self.self_samples: Dict[int, int] = {}
        self.total_samples: Dict[int, int] = {}
        self.sample_seconds = 0.0
        self.samples_total = 0
        self.jns_samples = 0
        self.resolved_samples = 0
        self.folds: Dict[Tuple[str, ...], int] = {}
        if sampler is not None:
            self.self_samples = dict(sampler.self_samples)
            self.total_samples = dict(sampler.total_samples)
            self.sample_seconds = sampler.seconds_per_sample()
            self.samples_total = sampler.samples_total
            self.jns_samples = sampler.jns_samples
            self.resolved_samples = sampler.resolved_samples
            self.folds = dict(sampler.folds)

    # -- accessors -------------------------------------------------------

    @property
    def resolution(self) -> float:
        if not self.jns_samples:
            return 1.0
        return self.resolved_samples / self.jns_samples

    def hot_lines(self) -> List[int]:
        lines = set()
        for col in ("steps", "mask", "view", "dispatch"):
            lines.update(self.det.get(col, ()))
        lines.update(self.self_samples)
        lines.update(self.total_samples)
        return sorted(lines)

    def row(self, line: int) -> Dict[str, Any]:
        det = self.det
        sps = self.sample_seconds
        return {
            "line": line,
            "steps": det.get("steps", {}).get(line, 0),
            "mask": det.get("mask", {}).get(line, 0),
            "view": det.get("view", {}).get(line, 0),
            "dispatch": det.get("dispatch", {}).get(line, 0),
            "self_s": self.self_samples.get(line, 0) * sps,
            "total_s": self.total_samples.get(line, 0) * sps,
            "self_samples": self.self_samples.get(line, 0),
            "total_samples": self.total_samples.get(line, 0),
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
            "backend_sampled": self.backend_sampled,
            "samples_total": self.samples_total,
            "jns_samples": self.jns_samples,
            "resolved_samples": self.resolved_samples,
            "resolution": self.resolution,
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
        peak_self = max(self.self_samples.values(), default=0)
        out = [
            f"profile: {self.file}"
            + (f"  [events: {self.backend_det}]" if self.backend_det else "")
            + (
                f"  [time: {self.backend_sampled}, "
                f"{self.samples_total} samples, "
                f"{self.resolution:.1%} attributed]"
                if self.samples_total
                else ""
            ),
            "  heat     steps  self(ms)   disp  view  mask  source",
        ]
        for i, text in enumerate(src_lines, start=1):
            if i not in keep:
                # collapse skipped runs into one ellipsis marker
                if out[-1] != "  ...":
                    out.append("  ...")
                continue
            r = self.row(i)
            h1 = self._heat_char(r["steps"], peak_steps)
            h2 = self._heat_char(r["self_samples"], peak_self)
            cells = (
                f"{r['steps'] or '':>8}  "
                f"{(format(r['self_s'] * 1e3, '.1f') if r['self_samples'] else ''):>8}  "
                f"{r['dispatch'] or '':>5} "
                f"{r['view'] or '':>5} "
                f"{r['mask'] or '':>5}"
            )
            heat = h1 + h2
            if color and (r["steps"] or r["self_samples"]):
                heat = f"\x1b[31m{heat}\x1b[0m"
            out.append(f"  {heat}  {cells}  {i:>4}| {text}")
        return "\n".join(out) + "\n"

    # -- HTML report -----------------------------------------------------

    def render_html(self) -> str:
        """Self-contained, script-free HTML report (same ``<details>``
        style as ``repro explain --html``)."""
        import html as _html

        src_lines = self.source.splitlines()
        steps = self.det.get("steps", {})
        peak_steps = max(steps.values(), default=1)
        peak_self = max(self.self_samples.values(), default=1)
        body: List[str] = []
        body.append("<table class='prof'>")
        body.append(
            "<tr><th>line</th><th>steps</th><th>self&nbsp;ms</th>"
            "<th>disp</th><th>view</th><th>mask</th><th>source</th></tr>"
        )
        for i, text in enumerate(src_lines, start=1):
            r = self.row(i)
            pct = r["steps"] / peak_steps if peak_steps else 0.0
            spct = r["self_samples"] / peak_self if peak_self else 0.0
            shade = int(255 - 110 * max(pct, spct))
            style = (
                f" style='background:rgb(255,{shade},{shade})'"
                if (r["steps"] or r["self_samples"])
                else ""
            )
            cells = "".join(
                f"<td>{v or ''}</td>"
                for v in (
                    r["steps"],
                    format(r["self_s"] * 1e3, ".1f")
                    if r["self_samples"]
                    else "",
                    r["dispatch"],
                    r["view"],
                    r["mask"],
                )
            )
            body.append(
                f"<tr{style}><td class='n'>{i}</td>{cells}"
                f"<td><code>{_html.escape(text)}</code></td></tr>"
            )
        body.append("</table>")
        folds = ""
        if self.folds:
            rows = "".join(
                f"<tr><td>{_html.escape(';'.join(k))}</td><td>{n}</td></tr>"
                for k, n in sorted(
                    self.folds.items(), key=lambda kv: -kv[1]
                )[:40]
            )
            folds = (
                "<details><summary>jns-frame folds (top 40)</summary>"
                f"<table class='prof'><tr><th>stack</th><th>samples</th></tr>"
                f"{rows}</table></details>"
            )
        meta = (
            f"<p>file <code>{_html.escape(self.file)}</code>"
            + (f" · events from <b>{self.backend_det}</b>" if self.backend_det else "")
            + (
                f" · wall-clock from <b>{self.backend_sampled}</b>: "
                f"{self.samples_total} samples, "
                f"{self.resolution:.1%} attributed to jns spans"
                if self.samples_total
                else ""
            )
            + "</p>"
        )
        legend = (
            "<details><summary>what the columns mean</summary><ul>"
            "<li><b>steps</b> — statement entries on the deterministic"
            " tier (a backend invariant)</li>"
            "<li><b>self&nbsp;ms</b> — wall-clock sampled in the codegen"
            " tier, resolved through the emitted-source line map</li>"
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
            f"{meta}{legend}{''.join(body)}{folds}"
            "</body></html>"
        )


def merge_reports(
    source: str,
    file: str,
    det: Optional[Dict[str, Dict[int, int]]],
    sampler: Optional[SamplingProfiler],
    backend_det: str = "",
    backend_sampled: str = "",
) -> ProfileReport:
    return ProfileReport(
        source,
        file=file,
        det=det,
        sampler=sampler,
        backend_det=backend_det,
        backend_sampled=backend_sampled,
    )


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def run_deterministic(
    program,
    entry: str = "Main.main",
    args: Tuple = (),
    backend: str = "specialized",
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


def run_sampled(
    program,
    entry: str = "Main.main",
    args: Tuple = (),
    mode: str = "jns",
    interval: float = 0.001,
    min_samples: int = 0,
    max_seconds: float = 5.0,
) -> SamplingProfiler:
    """One wall-clock-sampled run on the codegen tier.  With
    ``min_samples`` the workload repeats (fresh entry call, same warm
    interpreter) until enough samples landed or ``max_seconds`` passed —
    short workloads would otherwise yield statistically empty profiles.
    """
    interp = program.interp(mode=mode, backend="codegen")
    sampler = SamplingProfiler(interp, interval=interval)
    sampler.start()
    t0 = time.perf_counter()
    try:
        interp.run(entry, args)
        while (
            sampler.samples_total < min_samples
            and time.perf_counter() - t0 < max_seconds
        ):
            interp.run(entry, args)
    finally:
        sampler.stop()
    return sampler


def profile_source(
    source: str,
    file: str = "<input>",
    entry: str = "Main.main",
    args: Tuple = (),
    mode: str = "jns",
    det_backend: str = "specialized",
    sample: bool = True,
    interval: float = 0.001,
    min_samples: int = 0,
) -> ProfileReport:
    """Compile ``source`` and profile ``entry`` twice: deterministic
    event counts on ``det_backend``, wall-clock samples on codegen."""
    from .api import compile_program

    program = compile_program(source)
    det, _ = run_deterministic(
        program, entry=entry, args=args, backend=det_backend, mode=mode
    )
    sampler = None
    if sample:
        sampler = run_sampled(
            program,
            entry=entry,
            args=args,
            mode=mode,
            interval=interval,
            min_samples=min_samples,
        )
    return merge_reports(
        source,
        file,
        det,
        sampler,
        backend_det=det_backend,
        backend_sampled="codegen" if sample else "",
    )
