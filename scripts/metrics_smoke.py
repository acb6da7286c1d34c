#!/usr/bin/env python
"""CI smoke for the metrics exposition path: start the real ``repro
serve`` process, drive an editing session, then scrape the Prometheus
text through the ``metrics`` op (``exposition: true``) and validate it
with :func:`repro.telemetry.validate_exposition`.

Also checks the snapshot in the same response agrees with the scrape
(same request counts) and that every response carries a ``trace`` field.

Exits non-zero (with a diagnostic on stderr) on any problem.

Run from the repo root::

    PYTHONPATH=src python scripts/metrics_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys

from repro.serve import ServeClient
from repro.telemetry import validate_exposition

SRC = """\
class app {
  class A {
    int x;
    int get() { return x; }
  }
}
"""


def fail(msg: str) -> int:
    print(f"FAIL {msg}", file=sys.stderr)
    return 1


def main() -> int:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--seed", "7",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ready = json.loads(proc.stdout.readline())
        assert ready.get("event") == "ready", ready
        host, port = ready["host"], ready["port"]
        print(f"server ready on {host}:{port}")

        client = ServeClient(host, port)
        traces = []
        for op, kw in [
            ("open", dict(session="s", source=SRC, file="app.jns")),
            ("check", dict(session="s")),
            ("edit", dict(session="s",
                          source=SRC.replace("return x;", "return x + 1;"))),
            ("check", dict(session="s")),
        ]:
            resp = client.request(op, **kw)
            assert resp["ok"], resp
            traces.append(resp.get("trace", ""))
        if not all(t.startswith("00-") for t in traces):
            return fail(f"missing/malformed trace fields: {traces}")
        if len(set(traces)) != len(traces):
            return fail(f"trace contexts not unique per request: {traces}")

        scrape = client.request("metrics", exposition=True)
        assert scrape["ok"], scrape
        text = scrape.get("exposition")
        if not isinstance(text, str):
            return fail(f"metrics op returned no exposition: {sorted(scrape)}")
        problems = validate_exposition(text)
        if problems:
            for p in problems:
                print(f"  exposition problem: {p}", file=sys.stderr)
            return fail(f"{len(problems)} exposition problems")
        for needle in (
            "# TYPE serve_requests_total counter",
            'serve_requests_total{op="check",outcome="ok"} 2',
            'serve_requests_total{op="edit",outcome="ok"} 1',
            "# TYPE serve_request_seconds histogram",
            'repro_query_cache_misses{session="s"}',
        ):
            if needle not in text:
                return fail(f"scrape missing {needle!r}")
        print(f"scrape ok: {len(text.splitlines())} lines, 0 problems")

        # The snapshot must agree with the exposition text.
        op_check = [
            c for c in scrape["metrics"]["counters"]
            if c["name"] == "serve_requests_total"
            and c["labels"].get("op") == "check"
        ]
        if not op_check or op_check[0]["value"] != 2:
            return fail(f"metrics op disagrees with scrape: {op_check}")

        resp = client.request("shutdown")
        assert resp["ok"], resp
        client.close()
        code = proc.wait(timeout=15)
        if code != 0:
            print(proc.stderr.read(), file=sys.stderr)
            return fail(f"server exited {code}")
        print("clean shutdown")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    raise SystemExit(main())
