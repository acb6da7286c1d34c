"""``repro serve`` — a long-lived check service over a local socket.

The batch pipeline re-parses, re-resolves, and re-checks the whole
program on every invocation; an editor or test harness that checks after
each keystroke pays the cold cost every time.  This module keeps the
warm state alive instead: one :class:`~repro.lang.incremental.IncrementalChecker`
per *session*, held in a long-lived process, so an edit re-checks only
the classes whose interface or bodies actually changed (the red/green
engine under ``lang/queries.py`` revalidates the rest).

Wire protocol — JSON Lines over a local TCP socket
--------------------------------------------------

One JSON object per line in each direction; every request gets exactly
one response line.  Requests carry ``op`` plus op-specific fields, and
an optional ``id`` that is echoed verbatim in the response (clients
pipelining requests over one connection match responses by it).

========  =============================  =====================================
op        request fields                 response fields (beyond ``ok``/``id``)
========  =============================  =====================================
ping      —                              ``pong: true``
open      ``session, source,             ``session``, ``stats`` (build stats)
          file?, strict?``
edit      ``session, source``            ``stats`` (strategy/reason/dirty/ms)
check     ``session``                    ``diagnostics`` (list of diagnostic
                                         dicts), ``stats`` (incremental
                                         accounting), ``ok`` = no errors
run       ``session, entry?,             ``result``, ``output`` (printed
          backend?``                     lines), ``backend`` (resolved name)
profile   ``session, entry?,             ``profile`` (the per-line attribution
          backend?, args?``              table, ``repro profile --json``
                                         shape), ``backend``
explain   ``session, query``             ``explain`` (the ``repro explain
                                         --json`` payload)
stats     ``session?``                   per-session or service-wide stats
metrics   ``exposition?``                cumulative labeled-metrics snapshot
                                         (+ Prometheus text when requested)
close     ``session``                    —
shutdown  —                              stops the server after responding
========  =============================  =====================================

Every response additionally carries ``trace``: the request's W3C-style
``traceparent`` (deterministic per server seed, or a child of the
client's inbound ``traceparent`` field when one was supplied).

Error responses are ``{"ok": false, "error": "..."}`` with the request
``id`` echoed; a malformed line (bad JSON, no ``op``) or an ill-typed
field (``file`` not a string, ``strict`` or ``exposition`` not a
boolean) also gets an error response rather than dropping the
connection.

Sessions are created by ``open``, keyed by a client-chosen name, and
serialized per-session by a lock (two clients editing one session
interleave whole operations, never partial state).  A reaper thread
evicts sessions idle longer than ``--idle-timeout`` seconds.  The
``explain`` op deliberately runs on a *fresh* table built from the
session's current source (see :mod:`repro.lang.explain`) so the
provenance capture never wipes the session's warm incremental state.

Observability (request-scoped — see :mod:`repro.telemetry`): every
request gets a deterministic :class:`~repro.telemetry.TraceContext`
(drawn from a seeded ``Rng``, or adopted from a well-formed inbound
``traceparent`` field; a malformed one gets a fresh root) whose
W3C-style rendering is echoed as ``trace`` in the response.  When
tracing is enabled each request runs under a ``serve.request`` span
tagged with the op / session / trace ids.  Request counts and latencies
are recorded once, in a labeled :class:`~repro.telemetry.MetricsRegistry`
that is always on: ``serve_requests_total`` and ``serve_request_seconds``
by op and outcome (``run`` and ``profile`` requests are additionally
labeled with the resolved ``backend=``, so per-backend rates and
latencies stay separable), session gauges, and per-session query-cache
gauges (hits / misses / green revalidations) refreshed after every
``check``.  The ``metrics`` op returns the cumulative snapshot (scrapes
never reset state) and, with ``exposition: true``, the same registry in
Prometheus text format.
"""

from __future__ import annotations

import json
import socket
import socketserver
import sys
import threading
import time
from typing import Any, Dict, Optional

from .chaos import Rng
from .lang.incremental import IncrementalChecker
from .obs import TRACER
from .telemetry import MetricsRegistry, TraceContext


class _Session:
    """One named editing session: the warm incremental checker plus the
    lock that serializes operations against it."""

    __slots__ = ("name", "checker", "lock", "last_used", "interps")

    def __init__(self, name: str, checker: IncrementalChecker) -> None:
        self.name = name
        self.checker = checker
        self.lock = threading.Lock()
        self.last_used = time.monotonic()
        #: per-backend interpreters for the ``run`` op, kept warm across
        #: edits — they subscribe to the session table's EditNotices: a
        #: body-only edit evicts just the codegen bodies of the grafted
        #: classes, an interface edit the whole codegen compiler
        self.interps: Dict[str, Any] = {}


class CheckService:
    """The op dispatcher: session table, lifecycle, and one
    ``handle(request) -> response`` entry point shared by every client
    connection.  Transport-free, so tests can drive it directly."""

    def __init__(self, idle_timeout: float = 300.0, seed: int = 0) -> None:
        self.idle_timeout = idle_timeout
        self.sessions: Dict[str, _Session] = {}
        self._sessions_lock = threading.Lock()
        self.requests = 0
        self.started = time.monotonic()
        self.shutdown_requested = threading.Event()
        #: always-on labeled metrics (cumulative; scraped, never reset)
        self.metrics = MetricsRegistry()
        #: deterministic per-request trace ids — a seeded stream, so a
        #: given (seed, request ordinal) always names the same trace
        self._trace_rng = Rng(seed).fork("serve.trace")
        self._trace_lock = threading.Lock()

    def _next_trace(self, req: Dict[str, Any]) -> TraceContext:
        """The request's trace context: adopt the client's inbound
        ``traceparent`` (propagation) or draw a fresh deterministic root
        from the service's seeded stream."""
        parent = req.get("traceparent")
        if isinstance(parent, str):
            try:
                return TraceContext.parse(parent).child("serve")
            except ValueError:
                pass  # malformed inbound context: fall through to a root
        with self._trace_lock:
            return TraceContext.from_rng(self._trace_rng)

    # ------------------------------------------------------------------
    # session table
    # ------------------------------------------------------------------

    def _get(self, name: Any) -> _Session:
        if not isinstance(name, str) or not name:
            raise KeyError("missing session name")
        with self._sessions_lock:
            sess = self.sessions.get(name)
        if sess is None:
            raise KeyError(f"no such session {name!r} (open it first)")
        sess.last_used = time.monotonic()
        return sess

    def reap_idle(self, now: Optional[float] = None) -> int:
        """Evict sessions idle longer than the timeout; returns how many
        were dropped (the reaper thread calls this periodically)."""
        if now is None:
            now = time.monotonic()
        dropped = 0
        with self._sessions_lock:
            for name in [
                n for n, s in self.sessions.items()
                if now - s.last_used > self.idle_timeout
            ]:
                del self.sessions[name]
                dropped += 1
            count = len(self.sessions)
        if dropped:
            self.metrics.inc("serve_sessions_reaped_total", dropped,
                             help="sessions evicted by the idle reaper")
            self.metrics.set_gauge("serve_sessions", count,
                                   help="live sessions")
        return dropped

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------

    def handle(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one request object to its op handler; every failure
        mode becomes an error *response* (the connection survives).

        Every request gets a trace context (echoed as ``trace`` in the
        response), and one ``serve_requests_total`` count and one
        ``serve_request_seconds`` observation; when tracing is enabled the dispatch runs under a
        ``serve.request`` span carrying the trace identity."""
        self.requests += 1
        rid = req.get("id")
        op = req.get("op")
        opname = op if isinstance(op, str) else "invalid"
        ctx = self._next_trace(req)
        session = req.get("session")
        span = (
            TRACER.span(
                "serve.request",
                op=opname,
                session=session if isinstance(session, str) else "",
                request=ctx.hex_span,
                trace_id=ctx.hex_trace,
                span_id=ctx.hex_span,
            )
            if TRACER.enabled
            else None
        )
        start = time.perf_counter()
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        try:
            if span is not None:
                span.__enter__()
            if handler is None:
                resp = {"ok": False, "error": f"unknown op {op!r}"}
            else:
                try:
                    resp = handler(req)
                except KeyError as exc:
                    resp = {"ok": False, "error": str(exc.args[0])}
                except Exception as exc:  # never kill the connection
                    resp = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        elapsed = time.perf_counter() - start
        # `check` answers ok=False for mere diagnostics; only a missing
        # handler or a raised error counts as a failed *request*.
        outcome = "error" if "error" in resp else "ok"
        labels: Dict[str, str] = {"op": opname, "outcome": outcome}
        if isinstance(resp.get("backend"), str):
            # `run` and `profile` answer with the resolved backend name;
            # labeling the request metrics by it keeps per-backend request
            # rates and latency separable (2 backends x 2 outcomes stays
            # far inside the per-family series cap)
            labels["backend"] = resp["backend"]
        self.metrics.inc("serve_requests_total",
                         help="serve requests by op and outcome", **labels)
        self.metrics.observe("serve_request_seconds", elapsed,
                             help="serve request latency by op", **labels)
        resp["trace"] = ctx.traceparent
        if rid is not None:
            resp["id"] = rid
        return resp

    def _op_ping(self, req: Dict[str, Any]) -> Dict[str, Any]:
        return {"ok": True, "pong": True}

    def _op_open(self, req: Dict[str, Any]) -> Dict[str, Any]:
        name = req.get("session")
        if not isinstance(name, str) or not name:
            raise KeyError("open requires a non-empty 'session' name")
        source = req.get("source")
        if not isinstance(source, str):
            raise KeyError("open requires 'source' (the program text)")
        file = req.get("file", "")
        if not isinstance(file, str):
            raise KeyError("open 'file' must be a string")
        strict = req.get("strict", False)
        if not isinstance(strict, bool):
            raise KeyError("open 'strict' must be a boolean")
        checker = IncrementalChecker(
            source,
            file=file or f"<{name}>",
            strict_sharing=strict,
        )
        sess = _Session(name, checker)
        with self._sessions_lock:
            self.sessions[name] = sess  # re-open replaces
            count = len(self.sessions)
        self.metrics.inc("serve_sessions_opened_total",
                         help="sessions opened since start")
        self.metrics.set_gauge("serve_sessions", count,
                               help="live sessions")
        return {"ok": True, "session": name, "stats": checker.last_stats}

    def _op_edit(self, req: Dict[str, Any]) -> Dict[str, Any]:
        sess = self._get(req.get("session"))
        source = req.get("source")
        if not isinstance(source, str):
            raise KeyError("edit requires 'source' (the full new text)")
        with sess.lock:
            stats = sess.checker.apply_edit(source)
        return {"ok": True, "stats": stats}

    def _op_check(self, req: Dict[str, Any]) -> Dict[str, Any]:
        sess = self._get(req.get("session"))
        with sess.lock:
            sink = sess.checker.check()
            stats = sess.checker.last_stats
            self._refresh_session_gauges(sess)
        return {
            "ok": not sink.has_errors,
            "diagnostics": [d.to_dict() for d in sink.diagnostics],
            "stats": stats,
        }

    def _op_run(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Execute an entry point against the session's *current* program
        under a kept-warm interpreter.  The interpreter (and with it the
        codegen backend's emitted-closure cache) survives across ``run``
        calls; ``edit`` notices evict its per-table caches, so a run after
        an edit re-specializes against the new bodies — never stale ones."""
        from .errors import JnsError
        from .runtime.interp import BACKENDS, Interp

        sess = self._get(req.get("session"))
        entry = req.get("entry", "Main.main")
        if not isinstance(entry, str) or "." not in entry:
            raise KeyError("run requires 'entry' of the form Class.method")
        backend = req.get("backend", "codegen")
        if backend not in BACKENDS:
            raise KeyError(
                f"unknown backend {backend!r} (choices: {', '.join(BACKENDS)})"
            )
        with sess.lock:
            sink = sess.checker.check()
            if sink.has_errors:
                return {
                    "ok": False,
                    "error": f"program has {len(sink.errors)} check error(s)",
                }
            table = sess.checker.table
            interp = sess.interps.get(backend)
            if interp is None or interp.table is not table:
                # first run, or a from-scratch rebuild replaced the table
                interp = Interp(table, mode="jns", backend=backend)
                sess.interps[backend] = interp
            printed_before = len(interp.output)
            try:
                result = interp.run(entry)
            except JnsError as exc:
                return {
                    "ok": False,
                    "error": str(exc),
                    "output": interp.output[printed_before:],
                    "backend": interp.backend,
                }
            return {
                "ok": True,
                "result": result
                if isinstance(result, (int, float, bool, str, type(None)))
                else repr(result),
                "output": interp.output[printed_before:],
                "backend": interp.backend,
            }

    def _op_profile(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Line-level profile of an entry point against the session's
        *current* source: the deterministic per-line event counters
        (statement hits, dispatches, view changes, mask checks) on the
        requested tier.  The profiler's counters are process-global, so
        :data:`repro.profiler.PROFILE_LOCK` serializes concurrent
        profile requests across sessions — they queue, never blend."""
        from . import profiler
        from .errors import JnsError
        from .runtime.interp import BACKENDS

        sess = self._get(req.get("session"))
        entry = req.get("entry", "Main.main")
        if not isinstance(entry, str) or "." not in entry:
            raise KeyError("profile requires 'entry' of the form Class.method")
        backend = req.get("backend", "codegen")
        if backend not in BACKENDS:
            raise KeyError(
                f"unknown backend {backend!r} (choices: {', '.join(BACKENDS)})"
            )
        pargs = req.get("args", [])
        if not isinstance(pargs, list) or not all(
            isinstance(a, int) and not isinstance(a, bool) for a in pargs
        ):
            raise KeyError("profile 'args' must be a list of integers")
        with sess.lock:
            sink = sess.checker.check()
            if sink.has_errors:
                return {
                    "ok": False,
                    "error": f"program has {len(sink.errors)} check error(s)",
                }
            source = sess.checker.source
            file = sess.checker.file
        try:
            report = profiler.profile_source(
                source,
                file=file,
                entry=entry,
                args=tuple(pargs),
                det_backend=backend,
            )
        except JnsError as exc:
            return {"ok": False, "error": str(exc)}
        return {"ok": True, "backend": backend, "profile": report.to_dict()}

    def _refresh_session_gauges(self, sess: _Session) -> None:
        """Publish the session's query-cache and incremental-accounting
        levels as labeled gauges (caller holds the session lock)."""
        m = self.metrics
        table = sess.checker.table
        if table is not None:
            cs = table.queries.stats()
            m.set_gauge("repro_query_cache_hits", cs.hits, session=sess.name,
                        help="query-cache hits per session")
            m.set_gauge("repro_query_cache_misses", cs.misses,
                        session=sess.name,
                        help="query-cache misses per session")
            m.set_gauge("repro_query_cache_revalidations", cs.revalidations,
                        session=sess.name,
                        help="green revalidations per session")
        acct = sess.checker.last_stats.get("check")
        if isinstance(acct, dict):
            for kind in ("recomputed", "revalidated", "reused"):
                if kind in acct:
                    m.set_gauge("repro_incr_check_classes", acct[kind],
                                session=sess.name, kind=kind,
                                help="incremental check accounting")

    def _op_explain(self, req: Dict[str, Any]) -> Dict[str, Any]:
        from .lang.classtable import JnsError
        from .lang.explain import ExplainError, run_explain

        sess = self._get(req.get("session"))
        query = req.get("query")
        if not isinstance(query, str):
            raise KeyError("explain requires 'query'")
        with sess.lock:
            source = sess.checker.source
            file = sess.checker.file
        try:
            result = run_explain(source, file, query)
        except (ExplainError, JnsError) as exc:
            return {"ok": False, "error": str(exc)}
        return {"ok": True, "explain": result.payload}

    def _op_stats(self, req: Dict[str, Any]) -> Dict[str, Any]:
        name = req.get("session")
        if name is not None:
            sess = self._get(name)
            with sess.lock:
                return {
                    "ok": True,
                    "session": sess.name,
                    "stats": sess.checker.last_stats,
                }
        with self._sessions_lock:
            names = sorted(self.sessions)
        return {
            "ok": True,
            "sessions": names,
            "requests": self.requests,
            "uptime_s": time.monotonic() - self.started,
        }

    def _op_close(self, req: Dict[str, Any]) -> Dict[str, Any]:
        name = req.get("session")
        with self._sessions_lock:
            existed = self.sessions.pop(name, None) is not None
            count = len(self.sessions)
        if not existed:
            raise KeyError(f"no such session {name!r} (open it first)")
        self.metrics.set_gauge("serve_sessions", count, help="live sessions")
        return {"ok": True, "session": name}

    def _op_metrics(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Cumulative telemetry snapshot for scrapers; pass
        ``"exposition": true`` to also get the Prometheus text."""
        exposition = req.get("exposition", False)
        if not isinstance(exposition, bool):
            raise KeyError("metrics 'exposition' must be a boolean")
        with self._sessions_lock:
            names = sorted(self.sessions)
        resp = {
            "ok": True,
            "uptime_s": time.monotonic() - self.started,
            "requests": self.requests,
            "sessions": names,
            "metrics": self.metrics.snapshot(),
        }
        if exposition:
            resp["exposition"] = self.metrics.exposition()
        return resp

    def _op_shutdown(self, req: Dict[str, Any]) -> Dict[str, Any]:
        self.shutdown_requested.set()
        return {"ok": True, "shutdown": True}


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        service: CheckService = self.server.service  # type: ignore[attr-defined]
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                req = json.loads(line)
                if not isinstance(req, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                resp = {"ok": False, "error": f"bad request line: {exc}"}
            else:
                resp = service.handle(req)
            try:
                self.wfile.write(
                    (json.dumps(resp, sort_keys=True) + "\n").encode("utf-8")
                )
                self.wfile.flush()
            except OSError:
                return  # client went away mid-response
            if service.shutdown_requested.is_set():
                threading.Thread(
                    target=self.server.shutdown, daemon=True
                ).start()
                return


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ServeHandle:
    """A running service bound to a socket — tests start one in-process
    via :func:`start_server` and tear it down with :meth:`stop`."""

    def __init__(self, server: _Server, service: CheckService,
                 thread: threading.Thread, reaper: threading.Thread) -> None:
        self.server = server
        self.service = service
        self.thread = thread
        self.reaper = reaper
        self.host, self.port = server.server_address[:2]

    def stop(self) -> None:
        self.service.shutdown_requested.set()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


def start_server(
    host: str = "127.0.0.1",
    port: int = 0,
    idle_timeout: float = 300.0,
    seed: int = 0,
) -> ServeHandle:
    """Bind, start the accept loop and the idle reaper (both daemon
    threads), and return a handle exposing the chosen port (``port=0``
    binds an ephemeral one)."""
    service = CheckService(idle_timeout=idle_timeout, seed=seed)
    server = _Server((host, port), _Handler)
    server.service = service  # type: ignore[attr-defined]
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()

    def _reap() -> None:
        interval = max(0.05, min(idle_timeout / 4.0, 30.0))
        while not service.shutdown_requested.wait(interval):
            service.reap_idle()

    reaper = threading.Thread(target=_reap, name="repro-serve-reaper",
                              daemon=True)
    reaper.start()
    return ServeHandle(server, service, thread, reaper)


class ServeClient:
    """A minimal synchronous JSONL client (used by the smoke script and
    the tests; editor integrations speak the same five-line protocol)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self.sock.makefile("rb")
        self._next_id = 0
        self._lock = threading.Lock()

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one op and block for its response; ids are checked so a
        protocol desync fails loudly instead of mismatching results."""
        with self._lock:
            self._next_id += 1
            rid = self._next_id
            req = {"id": rid, "op": op}
            req.update(fields)
            self.sock.sendall((json.dumps(req) + "\n").encode("utf-8"))
            raw = self._rfile.readline()
            if not raw:
                raise ConnectionError("server closed the connection")
            resp = json.loads(raw.decode("utf-8"))
            if resp.get("id") != rid:
                raise ConnectionError(
                    f"response id {resp.get('id')!r} != request id {rid!r}"
                )
            return resp

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self.sock.close()


def main(args) -> int:
    """``repro serve`` entry point: bind, print the ready line (JSON, so
    wrappers can scrape the ephemeral port), serve until a ``shutdown``
    op or Ctrl-C."""
    handle = start_server(
        host=args.host, port=args.port, idle_timeout=args.idle_timeout,
        seed=getattr(args, "seed", 0),
    )
    ready = {"event": "ready", "host": handle.host, "port": handle.port}
    print(json.dumps(ready), flush=True)
    try:
        while not handle.service.shutdown_requested.wait(0.2):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        handle.stop()
        print(
            json.dumps(
                {
                    "event": "stopped",
                    "requests": handle.service.requests,
                }
            ),
            file=sys.stderr,
        )
    return 0
