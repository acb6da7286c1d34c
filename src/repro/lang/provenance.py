"""Provenance-tracked derivations for the semantic judgments (ISSUE 5).

The memoized query engine (:mod:`repro.lang.queries`) answers *whether*
``T1 <= T2`` or ``T1 ~> T2`` holds; this module records *why*.  When the
process-wide recorder :data:`PROVENANCE` is enabled, every instrumented
judgment site — subtype, bound, ``mem``, ``fclass``, sharing groups,
``required_masks``, SH-CLS ``type_shares``, and the full ``~>`` judgment
— pushes a frame, lets its recursive sub-judgments attach themselves as
premises, and pops a :class:`Derivation`: an immutable proof-tree node
carrying the judgment name, a human-readable subject, the paper rule
that decided it (SH-CLS, S-MASK, prefixExact_k, …), the result, and the
premise derivations.

Memoization stays transparent: when a judgment is answered from its
query cache, the derivation recorded when the entry was *computed* is
spliced into the tree (marked ``(cached)``), so a proof tree looks the
same whether or not the memo tables were warm.  Failed judgments can be
pruned to a *refutation* — the failing premise chain, recursively — which
the type checker attaches to ``JNS-*`` diagnostics under
``check --json --explain`` and ``repro explain`` renders as text.

The discipline mirrors :mod:`repro.obs`: recording is off by default and
each instrumented site pays exactly one ``if PROVENANCE.enabled:``
attribute load and branch when off, so the ≤ 5% disabled-overhead bound
of ``benchmarks/test_obs_json.py`` covers this layer too.  When the
tracer is also enabled, recording bumps ``provenance.recorded`` /
``provenance.spliced`` counters (aggregate and per judgment) and feeds a
``provenance.premises.<judgment>`` histogram, so provenance cost is
itself observable.

Only the recorder object and its switch live here.  The proof-tree
nodes and the recording protocol are in :mod:`repro.lang.derivation`,
which loads when a recorder is first enabled, so a run that never
records never compiles them; ``Derivation`` stays importable from here.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = [
    "Derivation",
    "Provenance",
    "PROVENANCE",
    "enable",
    "disable",
    "enabled",
]


class _NoCapture:
    """What :meth:`Provenance.capture` hands out while recording is off:
    a context manager that captures nothing."""

    __slots__ = ()
    derivations = ()
    derivation = None

    def __enter__(self) -> "_NoCapture":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def failed(self) -> None:
        return None


_NO_CAPTURE = _NoCapture()


class Provenance:
    """The derivation recorder.  All state is per instance so tests can
    build private recorders; production code uses :data:`PROVENANCE`,
    whose ``enabled`` flag is the single branch every judgment site pays
    while recording is off.

    Protocol at an instrumented site (``judge`` is a method of
    :class:`repro.lang.derivation.Recording`, which joins this class when
    a recorder is first enabled; sites call it only while enabled).  The
    site computes its memo table and key once, then either records or
    runs the plain cache path; both call the same compute step, which
    owns the cache write::

        if PROVENANCE.enabled:
            return PROVENANCE.judge("mem", f"mem({t!r})", q, t, compute, t,
                                    rule="mem (Fig. 8)")
        cached = q.get(t)
        if cached is not MISS:
            return cached
        return compute(t)                 # ends with q.put(t, ...)

    ``judge`` answers a hit by splicing the derivation stored when the
    entry was computed, so memoization never makes a proof tree
    shallower; on a miss it records the compute step's sub-judgments as
    premises and stores the tree exactly when the memo table holds the
    key afterwards.  ``query=None`` records an unmemoized judgment.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.roots: List[Derivation] = []
        self._stack: List[_Frame] = []
        #: (judgment, id(memo table), cache key) -> derivation recorded
        #: when the memo entry was computed; consulted on cache hits.
        self._store: Dict[Any, Derivation] = {}
        self.recorded: Dict[str, int] = {}
        self.spliced: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def enable(self, reset: bool = True) -> None:
        _derivation()
        if reset:
            self.clear()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self.roots.clear()
        self._stack.clear()
        self._store.clear()
        self.recorded.clear()
        self.spliced.clear()

    def purge(self) -> None:
        """Drop stored derivations after an invalidation or edit.

        Cached judgments recomputed against the new program must never
        splice a derivation recorded against the old one; after a purge,
        cache hits on surviving entries degrade to the honest
        "(cached) … memo (computed before recording)" leaf instead."""
        self._store.clear()

    def stats(self) -> Dict[str, Any]:
        """Per-judgment recorded/spliced counts (independent of the
        tracer; the tracer mirrors these as ``provenance.*`` counters)."""
        return {
            "recorded": dict(sorted(self.recorded.items())),
            "spliced": dict(sorted(self.spliced.items())),
        }

    def capture(self):
        """A context manager collecting the derivations produced directly
        inside its body, so callers (the type checker, the CLI) can grab
        a proof tree without knowing whether provenance is on."""
        if not self.enabled:
            return _NO_CAPTURE
        return _derivation().Capture(self)

#: The process-wide recorder.  Judgment sites import this and guard with
#: ``if PROVENANCE.enabled:`` — one attribute load and branch when off.
PROVENANCE = Provenance()


def enabled() -> bool:
    return PROVENANCE.enabled


def enable(reset: bool = True) -> None:
    """Turn on the process-wide derivation recorder (clearing previously
    recorded derivations by default)."""
    PROVENANCE.enable(reset=reset)


def disable() -> None:
    PROVENANCE.disable()


_DERIVATION = None


def _derivation():
    """:mod:`repro.lang.derivation`, loaded when the first recorder is
    enabled; loading adds the recording protocol (the methods of
    ``derivation.Recording``) to :class:`Provenance`."""
    global _DERIVATION
    if _DERIVATION is None:
        from . import derivation

        for name, fn in vars(derivation.Recording).items():
            if not name.startswith("__"):
                setattr(Provenance, name, fn)
        _DERIVATION = derivation
    return _DERIVATION


def __getattr__(name: str) -> Any:
    if name in ("Derivation", "MAX_ROOTS"):
        return getattr(_derivation(), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
