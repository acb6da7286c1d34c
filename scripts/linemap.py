#!/usr/bin/env python
"""Line map: which ``src/repro/`` lines a test run executes.

The ``coverage`` package is not a dependency, so this is a small
standard-library stand-in: a ``sys.settrace`` hook (also installed with
``threading.settrace`` for threads the tests start) that records every
executed line of a file under ``src/repro/``.  Frames of other files get
no local tracer, which keeps the overhead on library and test code low.
The hook is installed before ``pytest.main`` runs, so import-time lines
count too.  Lines run only in a subprocess a test starts are not seen;
read the ``cli.py`` figures as a floor.

Two modes, run from the repository root::

    python scripts/linemap.py --out MAP.json [PYTEST ARGS...]
    python scripts/linemap.py --diff OLD.json NEW.json

The first runs pytest (default arguments ``-q tests``; anything after
the options is passed to pytest instead) and writes the map, then prints
the executed-line count per package.  A package is a subdirectory of
``src/repro/`` (``runtime``, ``lang``, ...); top-level modules are
grouped as ``repro``.

The second compares two maps, from two trees or two test selections,
and lists the lines executed in OLD that NEW never executes, limited to
the interpreter core (``PACKAGES``: ``runtime``, ``lang``, ``source``).
Lines are matched by file, stripped text and the occurrence index of
that text in the file, so a map of a parent tree and one of a changed
tree compare even where lines moved; a line whose text changed counts
as lost.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "repro"
#: The packages ``--diff`` reports lost lines for.
PACKAGES = ("runtime", "lang", "source")


def package_of(rel: str) -> str:
    """``runtime/interp.py`` -> ``runtime``; ``cli.py`` -> ``repro``."""
    head, sep, _ = rel.partition("/")
    return head if sep else "repro"


def line_keys(path: Path) -> list:
    """Per line (1-based index ``i`` at ``keys[i - 1]``) its match key:
    the stripped text and how many earlier lines of the file share it."""
    seen: Counter = Counter()
    keys = []
    for text in path.read_text().splitlines():
        text = text.strip()
        keys.append(f"{seen[text]}#{text}")
        seen[text] += 1
    return keys


def trace(pytest_args: list) -> dict:
    """Run pytest under the line hook; ``{relative path: [line keys]}``."""
    prefix = str(PKG) + os.sep
    hits: dict = defaultdict(set)
    wanted: dict = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        keep = wanted.get(name)
        if keep is None:
            keep = wanted[name] = name.startswith(prefix)
        return local if keep else None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    out = {}
    for name, lines in hits.items():
        path = Path(name)
        if not path.is_file():
            continue
        keys = line_keys(path)
        out[str(path.relative_to(PKG)).replace(os.sep, "/")] = sorted(
            keys[n - 1] for n in lines if 0 < n <= len(keys)
        )
    return {"pytest_args": pytest_args, "exit": int(status), "files": out}


def per_package(files: dict) -> dict:
    counts: Counter = Counter()
    for rel, keys in files.items():
        counts[package_of(rel)] += len(keys)
    return dict(sorted(counts.items()))


def lost(old: dict, new: dict) -> dict:
    """``{relative path: [line text]}`` of ``PACKAGES`` executed in
    ``old`` only."""
    out = {}
    for rel, keys in sorted(old.items()):
        if package_of(rel) not in PACKAGES:
            continue
        gone = sorted(set(keys) - set(new.get(rel, ())))
        if gone:
            out[rel] = [k.partition("#")[2] for k in gone]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", metavar="MAP.json", help="write the line map here")
    ap.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two line maps instead of running tests")
    args, rest = ap.parse_known_args(argv)
    if args.diff:
        old, new = (json.loads(Path(p).read_text())["files"] for p in args.diff)
        gone = lost(old, new)
        olds, news = per_package(old), per_package(new)
        print(f"{'package':12s} {'old':>7s} {'new':>7s}")
        for pkg in sorted(set(olds) | set(news)):
            print(f"{pkg:12s} {olds.get(pkg, 0):7d} {news.get(pkg, 0):7d}")
        total = sum(len(v) for v in gone.values())
        print(f"lines of {','.join(PACKAGES)} executed in OLD only: {total}")
        for rel, texts in gone.items():
            for text in texts:
                print(f"  {rel}: {text}")
        return 1 if total else 0
    if not args.out:
        ap.error("--out is required unless --diff is given")
    result = trace(rest or ["-q", "tests"])
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True))
    for pkg, n in per_package(result["files"]).items():
        print(f"{pkg:12s} {n:7d} executed lines", file=sys.stderr)
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main())
