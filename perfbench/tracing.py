"""Benchmark-side spans for the traced run.

A :class:`Recorder` keeps spans in memory as ``[name, start_ns, end_ns,
parent, op, attrs]`` rows (``parent`` is a row index or -1; ``op`` is the
id of the benchmark op the span belongs to, inherited from the parent)
and writes them out when the process ends.  :func:`install` wraps the
public functions of each layer of ``repro`` so every call into a layer
opens a span named after the layer; nothing under ``src/`` is changed.
Python's collector is recorded too, as ``py.gc`` spans from
``gc.callbacks``, so collection pauses become their own layer.

Timestamps are ``time.perf_counter_ns()``, which on Linux reads
``CLOCK_MONOTONIC``: spans written by a child process (a cold ``repro
run``, the ``repro serve`` server) line up with the parent's op spans.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional

#: Span name of a benchmark op; every other span is a layer.
OP = "op"


class Recorder:
    """In-memory span store with a per-thread span stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._tls = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def begin(self, name: str, op: Any = None, attrs: Optional[dict] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            if op is None and parent >= 0:
                op = self.spans[parent][4]
            idx = len(self.spans)
            self.spans.append([name, perf_counter_ns(), 0, parent, op, attrs])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, op: Any = None, attrs: Optional[dict] = None):
        idx = self.begin(name, op, attrs)
        try:
            yield idx
        finally:
            self.end(idx)

    def wrap(self, owner: Any, attr: str, name: str,
             label: Optional[Callable[..., Optional[dict]]] = None) -> None:
        """Replace ``owner.attr`` by a wrapper that runs it in a span;
        ``label(*args, **kwargs)`` may return the span's attributes."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name, attrs=label(*args, **kwargs) if label else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        setattr(owner, attr, wrapper)

    def watch_gc(self) -> None:
        """Record every collection as a ``py.gc`` span under the span that
        was open when it started."""

        def on_gc(phase: str, info: Dict[str, Any]) -> None:
            if phase == "start":
                self._tls.gc_start = perf_counter_ns()
                return
            stack = self._stack()
            parent = stack[-1] if stack else -1
            with self._lock:
                op = self.spans[parent][4] if parent >= 0 else None
                self.spans.append(
                    ["py.gc", getattr(self._tls, "gc_start", perf_counter_ns()),
                     perf_counter_ns(), parent, op,
                     {"gen": info.get("generation")}]
                )

        gc.callbacks.append(on_gc)

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, **(extra or {})}, f)


def install(rec: Recorder) -> None:
    """Wrap the public entry points of each layer of ``repro`` in ``rec``
    spans.  Only modules the process has already imported are wrapped, so
    tracing imports nothing the untraced process would not.  Names are
    patched where callers look them up (``from x import f`` binds ``f``
    in the caller's module)."""
    import repro.api as api
    from repro.runtime.interp import Interp

    rec.wrap(api, "parse_program", "source.parse")
    rec.wrap(api, "check_program", "lang.check")
    rec.wrap(api, "ClassTable", "lang.classtable")
    rec.wrap(api, "resolve_program", "lang.resolve")
    incremental = sys.modules.get("repro.lang.incremental")
    if incremental is not None:
        rec.wrap(incremental, "parse_program", "source.parse")
        rec.wrap(incremental, "check_program", "lang.check")
        rec.wrap(incremental.IncrementalChecker, "apply_edit", "lang.incremental.edit")
        rec.wrap(incremental.IncrementalChecker, "check", "lang.incremental.check")

    seen: Dict[str, set] = {"new": set(), "call": set()}

    def first(kind: str) -> Callable[..., Optional[dict]]:
        def label(interp, *args, **kwargs):
            if id(interp) in seen[kind]:
                return None
            seen[kind].add(id(interp))
            return {"first": 1}
        return label

    rec.wrap(Interp, "new_instance", "runtime.new", first("new"))
    rec.wrap(Interp, "call_method", "runtime.call", first("call"))
    rec.wrap(Interp, "run", "runtime.run")
    corona = sys.modules.get("repro.programs.corona.system")
    if corona is not None:
        system = corona.CoronaSystem
        rec.wrap(system, "fetch", "corona.fetch",
                 lambda s, *a, **k: {"family": a[2] if len(a) > 2 else k.get("family", "corona")})
        rec.wrap(system, "publish", "corona.publish")
        rec.wrap(system, "evolve", "corona.evolve",
                 lambda s, *a, **k: {"family": a[0] if a else k.get("family")})
    cli = sys.modules.get("repro.cli")
    if cli is not None:
        rec.wrap(cli, "main", "cli")
    serve = sys.modules.get("repro.serve")
    if serve is not None:
        # A serve request belongs to the client's op: its id is the op id.
        handle = serve.CheckService.handle

        @functools.wraps(handle)
        def traced_handle(service, req):
            with rec.span("serve.handle", op=req.get("id"), attrs={"op": req.get("op")}):
                return handle(service, req)

        serve.CheckService.handle = traced_handle
    rec.watch_gc()


# ---------------------------------------------------------------------------
# analysis

def self_ns(spans: List[list]) -> List[int]:
    """Self time of every span: its duration minus its direct children's."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def op_layers(spans: List[list]) -> Dict[Any, Dict[str, Any]]:
    """Per op: its latency (the ``op`` span), the self time of every layer
    below it, and the share of the latency no layer accounts for."""
    selfs = self_ns(spans)
    ops: Dict[Any, Dict[str, Any]] = {}
    for s in spans:
        if s[0] == OP:
            ops[s[4]] = {"latency_ns": s[2] - s[1], "layers": {}}
    for s, own in zip(spans, selfs):
        if s[0] == OP or s[4] not in ops:
            continue
        layers = ops[s[4]]["layers"]
        layers[s[0]] = layers.get(s[0], 0) + own
    for entry in ops.values():
        covered = sum(entry["layers"].values())
        entry["unattributed"] = 1.0 - covered / entry["latency_ns"] if entry["latency_ns"] else 0.0
    return ops


def graft(spans: List[list], child: List[list], parent_of: Callable[[list], int],
          op_of: Callable[[list], Any]) -> None:
    """Append a child process's spans to ``spans``: its top-level spans
    hang under ``parent_of(span)`` and every span gets ``op_of(span)``."""
    base = len(spans)
    for s in child:
        row = list(s)
        row[3] = parent_of(s) if s[3] < 0 else s[3] + base
        row[4] = op_of(s)
        spans.append(row)
