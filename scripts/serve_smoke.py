#!/usr/bin/env python
"""CI smoke for ``repro serve``: start the real server process, drive
three concurrent editing sessions through the JSONL protocol — checks
plus ``run`` executions under the codegen backend — and assert a clean
shutdown.

Each session alternates body edits of ``A.get`` with body edits of
``Main.main`` and checks every run's result, so a graft in one class
must leave the other class's kept emitted bodies both warm and correct.

Exits non-zero (with a diagnostic on stderr) on any protocol error,
non-incremental edit, stale codegen result after an edit, cross-session
leak, or unclean server exit.

Run from the repo root::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading

from repro.serve import ServeClient

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

MAIN = """\
class Main {
  int main() {
    app.B b = new app.B();
    b.x = 20;
    return b.twice();
  }
}
"""

EDITS_PER_SESSION = 6


def drive(host: str, port: int, name: str, marker: int, errors: list) -> None:
    client = ServeClient(host, port)
    try:
        src = SRC.replace("class app {", f"class app{marker} {{") + \
            MAIN.replace("app.", f"app{marker}.")

        def edited(bonus: int, x: int) -> str:
            return src.replace("return x;", f"return x + {bonus};").replace(
                "b.x = 20;", f"b.x = {x};")

        resp = client.request("open", session=name, source=src,
                              file=f"{name}.jns")
        assert resp["ok"], resp
        resp = client.request("check", session=name)
        assert resp["ok"] and resp["diagnostics"] == [], resp
        # run under the codegen backend: twice() = 2 * (x=20) on a warm,
        # kept-alive interpreter
        resp = client.request("run", session=name)
        assert resp["ok"] and resp["backend"] == "codegen", resp
        assert resp["result"] == 40, resp
        bonus, x = 0, 20
        for i in range(1, EDITS_PER_SESSION + 1):
            # odd edits graft A.get, even ones Main.main
            if i % 2:
                bonus, dirty = i, f"app{marker}.A"
            else:
                x, dirty = 20 + i, "Main"
            resp = client.request("edit", session=name, source=edited(bonus, x))
            assert resp["ok"], resp
            assert resp["stats"]["strategy"] == "incremental", resp
            assert resp["stats"]["dirty"] == [dirty], resp
            resp = client.request("check", session=name)
            assert resp["ok"], resp
            acct = resp["stats"]["check"]
            assert acct["recomputed"] >= 1, resp
            # the edit must evict the grafted class's emitted bodies and
            # keep the other class's: the same warm interpreter computes
            # 2 * (x + bonus), never a stale result
            resp = client.request("run", session=name)
            assert resp["ok"] and resp["backend"] == "codegen", resp
            assert resp["result"] == 2 * (x + bonus), resp
        # a broken edit stays inside this session
        resp = client.request(
            "edit", session=name,
            source=src.replace("return x;", "return nosuch;"),
        )
        assert resp["ok"], resp
        resp = client.request("check", session=name)
        assert not resp["ok"] and resp["diagnostics"], resp
        # a broken program refuses to run instead of executing stale code
        resp = client.request("run", session=name)
        assert not resp["ok"] and "check error" in resp["error"], resp
        resp = client.request("close", session=name)
        assert resp["ok"], resp
    except Exception as exc:
        errors.append(f"{name}: {type(exc).__name__}: {exc}")
    finally:
        client.close()


def main() -> int:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ready_line = proc.stdout.readline()
        ready = json.loads(ready_line)
        assert ready.get("event") == "ready", ready
        host, port = ready["host"], ready["port"]
        print(f"server ready on {host}:{port}")

        errors: list = []
        threads = [
            threading.Thread(
                target=drive, args=(host, port, f"sess{i}", i, errors)
            )
            for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        alive = [t.name for t in threads if t.is_alive()]
        if alive:
            errors.append(f"threads still alive: {alive}")
        if errors:
            for e in errors:
                print(f"FAIL {e}", file=sys.stderr)
            return 1

        control = ServeClient(host, port)
        stats = control.request("stats")
        assert stats["ok"], stats
        assert stats["sessions"] == [], stats  # every session closed
        print(f"requests served: {stats['requests']}")
        resp = control.request("shutdown")
        assert resp["ok"], resp
        control.close()

        code = proc.wait(timeout=15)
        if code != 0:
            print(f"FAIL server exited {code}", file=sys.stderr)
            print(proc.stderr.read(), file=sys.stderr)
            return 1
        print("clean shutdown")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    raise SystemExit(main())
