"""The check service (``repro serve``): protocol, session lifecycle,
concurrency, idle reaping, and the incremental path behind ``edit``.

The in-process handles (:class:`CheckService` directly for protocol
edge cases, :func:`start_server` + :class:`ServeClient` for the socket
path) keep these tests free of subprocess management; the CI smoke job
(``scripts/serve_smoke.py``) exercises the real ``python -m repro
serve`` process.
"""

from __future__ import annotations

import threading

import pytest

from repro.serve import CheckService, ServeClient, start_server

SRC = """\
class app {
  class A {
    int x;
    int get() { return x; }
  }
  class B extends A {
    int twice() { return get() + get(); }
  }
}
"""


@pytest.fixture()
def server():
    handle = start_server(idle_timeout=300)
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    c = ServeClient(server.host, server.port)
    yield c
    c.close()


# ----------------------------------------------------------------------
# dispatcher-level protocol behavior
# ----------------------------------------------------------------------


def test_unknown_op_is_error_response():
    svc = CheckService()
    resp = svc.handle({"op": "frobnicate", "id": 9})
    trace = resp.pop("trace")
    assert trace.startswith("00-") and trace.endswith("-01")
    assert resp == {"ok": False, "error": "unknown op 'frobnicate'", "id": 9}


def test_missing_session_is_error_response():
    svc = CheckService()
    resp = svc.handle({"op": "check", "session": "ghost"})
    assert not resp["ok"]
    assert "ghost" in resp["error"]


def test_open_requires_source():
    svc = CheckService()
    resp = svc.handle({"op": "open", "session": "s"})
    assert not resp["ok"]
    assert "source" in resp["error"]


def test_reopen_replaces_session():
    svc = CheckService()
    svc.handle({"op": "open", "session": "s", "source": SRC})
    bad = SRC.replace("return x;", "return nosuch;")
    svc.handle({"op": "open", "session": "s", "source": bad})
    resp = svc.handle({"op": "check", "session": "s"})
    assert not resp["ok"]
    assert resp["diagnostics"][0]["code"] == "JNS-RESOLVE-001"


def test_idle_reaping():
    svc = CheckService(idle_timeout=10.0)
    svc.handle({"op": "open", "session": "s", "source": SRC})
    now = svc.sessions["s"].last_used
    assert svc.reap_idle(now + 5.0) == 0
    assert svc.reap_idle(now + 11.0) == 1
    assert svc.sessions == {}


def test_close_then_close_again():
    svc = CheckService()
    svc.handle({"op": "open", "session": "s", "source": SRC})
    assert svc.handle({"op": "close", "session": "s"})["ok"]
    assert not svc.handle({"op": "close", "session": "s"})["ok"]


# ----------------------------------------------------------------------
# socket path
# ----------------------------------------------------------------------


def test_ping_and_service_stats(client):
    assert client.request("ping")["pong"] is True
    stats = client.request("stats")
    assert stats["ok"] and stats["sessions"] == []
    assert stats["requests"] >= 1


def test_open_edit_check_cycle(client):
    r = client.request("open", session="s1", source=SRC, file="app.jns")
    assert r["ok"] and r["stats"]["strategy"] == "scratch"
    r = client.request("check", session="s1")
    assert r["ok"] and r["diagnostics"] == []
    r = client.request(
        "edit", session="s1", source=SRC.replace("return x;", "return x + 1;")
    )
    assert r["ok"]
    assert r["stats"]["strategy"] == "incremental"
    assert r["stats"]["dirty"] == ["app.A"]
    r = client.request("check", session="s1")
    assert r["ok"]
    acct = r["stats"]["check"]
    assert acct["recomputed"] == 1 and acct["revalidated"] >= 1


def test_check_reports_errors_with_spans(client):
    client.request("open", session="s", source=SRC, file="app.jns")
    client.request(
        "edit", session="s", source=SRC.replace("return x;", "return nosuch;")
    )
    r = client.request("check", session="s")
    assert not r["ok"]
    (diag,) = [d for d in r["diagnostics"] if d["severity"] == "error"]
    assert diag["code"] == "JNS-RESOLVE-001"
    assert diag["file"] == "app.jns"
    assert diag["span"]["line"] >= 1


def test_explain_op_payload(client):
    client.request("open", session="s", source=SRC)
    r = client.request("explain", session="s", query="subtype app.B app.A")
    assert r["ok"]
    assert r["explain"]["holds"] is True
    assert r["explain"]["derivations"]
    r = client.request("explain", session="s", query="gibberish")
    assert not r["ok"]


def test_malformed_line_keeps_connection(client):
    client.sock.sendall(b"this is not json\n")
    raw = client._rfile.readline()
    import json

    resp = json.loads(raw)
    assert not resp["ok"] and "bad request line" in resp["error"]
    # the connection is still usable
    assert client.request("ping")["pong"] is True


def test_three_concurrent_sessions(server):
    """Three clients, three sessions, interleaved edits — each session's
    diagnostics stay isolated and every edit goes incremental."""
    errors = []

    def drive(name, marker):
        c = ServeClient(server.host, server.port)
        try:
            src = SRC.replace("class app {", f"class app{marker} {{")
            r = c.request("open", session=name, source=src)
            assert r["ok"], r
            for i in range(1, 4):
                edited = src.replace("return x;", f"return x + {i};")
                r = c.request("edit", session=name, source=edited)
                assert r["stats"]["strategy"] == "incremental", r
                assert r["stats"]["dirty"] == [f"app{marker}.A"], r
                r = c.request("check", session=name)
                assert r["ok"], r
            # break it, confirm the error stays in this session
            r = c.request(
                "edit", session=name,
                source=src.replace("return x;", "return nosuch;"),
            )
            r = c.request("check", session=name)
            assert not r["ok"], r
        except Exception as exc:  # surfaced after join
            errors.append((name, exc))
        finally:
            c.close()

    threads = [
        threading.Thread(target=drive, args=(f"sess{i}", i))
        for i in range(3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors, errors
    assert all(not t.is_alive() for t in threads)


def test_shutdown_op_stops_server(server):
    c = ServeClient(server.host, server.port)
    r = c.request("shutdown")
    assert r["ok"] and r["shutdown"] is True
    c.close()
    server.thread.join(timeout=5)
    assert not server.thread.is_alive()


# ----------------------------------------------------------------------
# metrics + tracing
# ----------------------------------------------------------------------


def test_metrics_op_counts_requests_and_latency():
    svc = CheckService()
    svc.handle({"op": "open", "session": "s", "source": SRC})
    svc.handle({"op": "check", "session": "s"})
    svc.handle({"op": "frobnicate"})  # -> error outcome
    resp = svc.handle({"op": "metrics"})
    assert resp["ok"]
    snap = resp["metrics"]
    counters = {
        (c["labels"].get("op"), c["labels"].get("outcome")): c["value"]
        for c in snap["counters"]
        if c["name"] == "serve_requests_total"
    }
    assert counters[("open", "ok")] == 1
    assert counters[("check", "ok")] == 1
    assert counters[("frobnicate", "error")] == 1
    hists = {
        h["labels"]["op"]: h
        for h in snap["histograms"]
        if h["name"] == "serve_request_seconds"
    }
    assert hists["open"]["count"] == 1
    assert hists["check"]["count"] == 1
    # cumulative +Inf bucket equals the observation count
    assert hists["open"]["buckets"][-1][1] == 1


def test_metrics_op_session_gauges_after_check():
    svc = CheckService()
    svc.handle({"op": "open", "session": "s", "source": SRC})
    svc.handle({"op": "check", "session": "s"})
    snap = svc.handle({"op": "metrics"})["metrics"]
    gauges = {
        (g["name"], g["labels"].get("kind")): g["value"]
        for g in snap["gauges"]
        if g["labels"].get("session") == "s"
    }
    assert gauges[("repro_query_cache_hits", None)] >= 0
    assert gauges[("repro_query_cache_misses", None)] > 0
    assert ("repro_query_cache_revalidations", None) in gauges
    assert ("repro_incr_check_classes", "recomputed") in gauges


def test_metrics_op_optional_exposition():
    svc = CheckService()
    svc.handle({"op": "ping"})
    resp = svc.handle({"op": "metrics", "exposition": True})
    text = resp["exposition"]
    from repro.telemetry import validate_exposition

    assert validate_exposition(text) == []
    assert "# TYPE serve_requests_total counter" in text
    assert 'serve_requests_total{op="ping",outcome="ok"} 1' in text


def test_tracer_counts_request_outcomes():
    """Request outcomes and latencies are recorded once, in the metrics
    registry (the tracer keeps only the ``serve.request`` span)."""
    svc = CheckService()
    svc.handle({"op": "ping"})
    svc.handle({"op": "nope"})
    snap = svc.handle({"op": "metrics"})["metrics"]
    # the metrics request itself is recorded only after it answers
    requests = {
        (c["labels"]["op"], c["labels"]["outcome"]): c["value"]
        for c in snap["counters"]
        if c["name"] == "serve_requests_total"
    }
    assert requests == {("ping", "ok"): 1.0, ("nope", "error"): 1.0}
    latency = {
        h["labels"]["op"]: h["count"]
        for h in snap["histograms"]
        if h["name"] == "serve_request_seconds"
    }
    assert latency == {"ping": 1, "nope": 1}


def test_trace_ids_deterministic_for_seed():
    a = CheckService(seed=5)
    b = CheckService(seed=5)
    c = CheckService(seed=6)
    ta = [a.handle({"op": "ping"})["trace"] for _ in range(3)]
    tb = [b.handle({"op": "ping"})["trace"] for _ in range(3)]
    tc = [c.handle({"op": "ping"})["trace"] for _ in range(3)]
    assert ta == tb
    assert ta != tc
    assert len(set(ta)) == 3  # fresh context per request


def test_inbound_traceparent_is_adopted():
    svc = CheckService()
    parent = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
    resp = svc.handle({"op": "ping", "traceparent": parent})
    assert resp["trace"].split("-")[1] == "ab" * 16  # same trace id
    assert resp["trace"].split("-")[2] != "cd" * 8  # child span
    # malformed inbound context falls back to a fresh one, not an error
    resp = svc.handle({"op": "ping", "traceparent": "garbage"})
    assert resp["ok"] and resp["trace"].startswith("00-")


def test_malformed_traceparent_gets_seeded_root():
    # int(..., 16) alone reads this id as a different, valid trace id
    bad = "00-0123456789abcdef_123456789abcdef-0123456789abcdef-01"
    first_root = CheckService(seed=3).handle({"op": "ping"})["trace"]
    svc = CheckService(seed=3)
    resp = svc.handle({"op": "ping", "traceparent": bad})
    assert resp["ok"] and resp["trace"] == first_root
    nxt = svc.handle({"op": "ping", "id": 2})
    assert nxt["ok"] and nxt["id"] == 2
    assert nxt["trace"] not in (first_root, bad)


def test_metrics_op_scrape_over_socket(client):
    client.request("open", session="s", source=SRC)
    client.request("check", session="s")
    resp = client.request("metrics", exposition=True)
    assert resp["ok"]
    text = resp["exposition"]
    from repro.telemetry import validate_exposition

    assert validate_exposition(text) == []
    assert 'serve_requests_total{op="check",outcome="ok"} 1' in text


@pytest.mark.parametrize(
    "op,fields,error",
    [
        ("open", {"session": "s", "source": SRC, "file": 7},
         "open 'file' must be a string"),
        ("open", {"session": "s", "source": SRC, "strict": "yes"},
         "open 'strict' must be a boolean"),
        ("metrics", {"exposition": "no"},
         "metrics 'exposition' must be a boolean"),
    ],
    ids=["file", "strict", "exposition"],
)
def test_ill_typed_fields_are_error_responses(client, op, fields, error):
    resp = client.request(op, **fields)
    assert resp["ok"] is False
    assert resp["error"] == error
    assert "exposition" not in resp
    # the connection is still usable, and a rejected open made no session
    assert client.request("ping")["pong"] is True
    assert client.request("stats")["sessions"] == []


def test_concurrent_sessions_get_distinct_trace_tids(server):
    """With tracing on, spans from concurrent client threads land on
    distinct Chrome-trace tids (one lane per server worker thread)."""
    from repro import obs

    obs.TRACER.reset()
    obs.enable()
    try:
        barrier = threading.Barrier(3)
        errors = []

        def drive(name):
            c = ServeClient(server.host, server.port)
            try:
                barrier.wait(timeout=30)
                for _ in range(5):
                    assert c.request("ping", session=name)["ok"]
            except Exception as exc:
                errors.append((name, exc))
            finally:
                c.close()

        threads = [
            threading.Thread(target=drive, args=(f"s{i}",)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors, errors
        from repro.obs import SpanRecord

        tids = {
            r.tid
            for r in obs.TRACER.events
            if isinstance(r, SpanRecord) and r.name == "serve.request"
        }
        # ThreadingTCPServer gives each connection its own thread; the
        # three interleaved clients must not share one trace lane.
        assert len(tids) >= 2
        trace = obs.TRACER.to_chrome_trace()
        lanes = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("name") == "thread_name"
        }
        assert len(lanes) == len(tids)
    finally:
        obs.disable()
        obs.TRACER.reset()


# ----------------------------------------------------------------------
# the profile op and per-backend request metrics
# ----------------------------------------------------------------------

PROF_SRC = """\
class F0 {
  class A {
    int x = 5;
    int get() { return x; }
  }
}
class F1 extends F0 {
  class A shares F0.A {
    int y;
    int get() { return x + y; }
  }
}
class Main {
  int main() {
    F0!.A a = new F0.A();
    F1!.A\\y v = (view F1!.A\\y)a;
    v.y = 2;
    int t = 0;
    int i = 0;
    while (i < 10) { t = t + a.get() + v.get(); i = i + 1; }
    return t;
  }
}
"""


class TestProfileOp:
    def _svc(self):
        svc = CheckService()
        assert svc.handle(
            {"op": "open", "session": "p", "source": PROF_SRC}
        )["ok"]
        return svc

    def test_profile_returns_attribution_table(self):
        svc = self._svc()
        resp = svc.handle({"op": "profile", "session": "p"})
        assert resp["ok"] and resp["backend"] == "codegen"
        prof = resp["profile"]
        assert set(prof) == {"file", "backend_det", "lines"}
        lines = {row["line"]: row for row in prof["lines"]}
        # the one-line while on line 20: one loop entry plus its two
        # body statements stepping once per iteration
        assert lines[20]["steps"] == 1 + 2 * 10
        # every profile response carries the request trace id
        assert "trace" in resp

    def test_profile_on_each_backend(self):
        svc = self._svc()
        tables = {}
        for backend in ("walker", "codegen"):
            resp = svc.handle(
                {"op": "profile", "session": "p", "backend": backend}
            )
            assert resp["ok"], resp
            tables[backend] = {
                row["line"]: (row["steps"], row["mask"], row["view"])
                for row in resp["profile"]["lines"]
            }
        # steps/mask/view are a backend invariant, through the wire too
        assert len({repr(sorted(t.items())) for t in tables.values()}) == 1

    def test_profile_unknown_backend_is_an_error(self):
        svc = self._svc()
        resp = svc.handle(
            {"op": "profile", "session": "p", "backend": "llvm"}
        )
        assert not resp["ok"] and "unknown backend" in resp["error"]

    @pytest.mark.parametrize(
        "op, backend", [("run", "compiled"), ("profile", "specialized")]
    )
    def test_removed_backends_fail_closed(self, op, backend):
        svc = self._svc()
        resp = svc.handle({"op": op, "session": "p", "backend": backend})
        assert resp["ok"] is False
        assert resp["error"] == (
            f"unknown backend {backend!r} (choices: walker, codegen)"
        )
        # the session keeps serving
        resp = svc.handle({"op": "run", "session": "p"})
        assert resp["ok"] and resp["result"] == 120
        assert resp["backend"] == "codegen"

    def test_profile_rejects_non_integer_args(self):
        svc = self._svc()
        resp = svc.handle(
            {"op": "profile", "session": "p", "args": ["ten"]}
        )
        assert not resp["ok"] and "list of integers" in resp["error"]

    def test_profile_refuses_broken_program(self):
        svc = CheckService()
        svc.handle({"op": "open", "session": "p",
                    "source": "class Main { int main() { return x; } }"})
        resp = svc.handle({"op": "profile", "session": "p"})
        assert not resp["ok"] and "check error" in resp["error"]


class TestBackendLabeledMetrics:
    def test_run_and_profile_metrics_carry_backend_label(self):
        svc = CheckService()
        svc.handle({"op": "open", "session": "p", "source": PROF_SRC})
        svc.handle({"op": "run", "session": "p", "backend": "codegen"})
        svc.handle({"op": "profile", "session": "p",
                    "backend": "walker"})
        snap = svc.handle({"op": "metrics"})["metrics"]
        counters = {
            (c["labels"]["op"], c["labels"].get("backend")): c["value"]
            for c in snap["counters"]
            if c["name"] == "serve_requests_total"
        }
        assert counters[("run", "codegen")] == 1
        assert counters[("profile", "walker")] == 1
        # non-run ops stay unlabeled (no backend dimension to report)
        assert ("open", None) in counters
        hists = {
            (h["labels"]["op"], h["labels"].get("backend"))
            for h in snap["histograms"]
            if h["name"] == "serve_request_seconds"
        }
        assert ("run", "codegen") in hists

    def test_request_series_stay_inside_the_family_cap(self):
        from repro.telemetry import MAX_SERIES_PER_FAMILY

        svc = CheckService()
        svc.handle({"op": "open", "session": "p", "source": PROF_SRC})
        for backend in ("walker", "codegen"):
            svc.handle({"op": "run", "session": "p", "backend": backend})
            svc.handle({"op": "profile", "session": "p",
                        "backend": backend})
        for op in ("ping", "check", "stats", "metrics", "frobnicate"):
            svc.handle({"op": op, "session": "p"})
        snap = svc.handle({"op": "metrics"})["metrics"]
        series = [
            c for c in snap["counters"]
            if c["name"] == "serve_requests_total"
        ]
        # the label space is ops x outcomes (+ backend on run/profile):
        # structurally far inside the per-family cardinality cap
        assert len(series) <= MAX_SERIES_PER_FAMILY // 2
        assert MAX_SERIES_PER_FAMILY == 64
