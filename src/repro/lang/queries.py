"""Memoized query engine for the semantic core.

The checker and the runtime recompute the same judgments — ancestor
linearizations, ``mem``, field/method lookup, subtyping, sharing-group
closure — thousands of times per program.  This module gives every
subsystem a uniform memo-table abstraction with observability:

* :class:`Query` — one named memo table with hit/miss counters.  The hot
  path (:meth:`Query.get`) is a single dict lookup plus a counter
  increment (and, for bounded queries, an LRU re-append); enabling/
  disabling caching is implemented by making :meth:`Query.put` a no-op
  and dropping the tables, so ``get`` never branches on a flag.  Every
  query is bounded by :data:`DEFAULT_MAXSIZE` unless it opts out, with
  least-recently-used eviction, so long-lived sessions cannot grow
  memory without limit.
* :class:`QueryEngine` — a named collection of queries owned by one
  component (a ``ClassTable``, a ``SharingChecker``, an ``Interp``).
  Engines register themselves in a process-wide weak registry so
  :func:`clear_caches` / :func:`set_caches_enabled` reach every live
  cache from one entry point.
* :class:`CacheStats` — an immutable snapshot of per-query counters,
  with ``to_dict()`` for JSON and ``format()`` for ``--stats`` output.

Keys must be hashable and — for type-valued keys — interned via
:func:`repro.lang.types.intern_type` so equality degenerates to a
pointer comparison on the hot path.

Correctness ground rules (see docs/IMPLEMENTATION.md):

* memo tables are *not* cycle guards.  Judgments that need in-progress
  detection (``parents``, ``has_member``, coinductive sharing) keep an
  explicit guard set; with caches disabled the guard still works.
* state-dependent judgments only cache in the quiescent state (e.g.
  ``type_shares`` is not cached while a coinductive assumption is
  active, ``eval_type_static`` is not cached mid-resolution).

Set ``REPRO_DISABLE_CACHES=1`` in the environment to start the process
with all query caches off (used by the differential correctness tests
and the benchmark "before" measurements).
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..records import Frozen

_set = object.__setattr__

__all__ = [
    "DEFAULT_MAXSIZE",
    "Query",
    "QueryEngine",
    "QueryStat",
    "CacheStats",
    "VersionStore",
    "set_caches_enabled",
    "caches_enabled",
    "clear_caches",
    "collect_stats",
    "read_input",
    "reset_tracker",
    "MISS",
]

#: Sentinel distinguishing "not cached" from a cached ``None`` result.
MISS: Any = object()

#: Default per-query size bound.  Generous enough that no tier-1 or
#: benchmark workload ever evicts (the largest observed table is a few
#: thousand entries), while keeping long-lived REPL sessions and fuzzing
#: runs from growing memory without bound.  Pass ``maxsize=None`` for a
#: genuinely unbounded query, or a small bound for true LRU caches
#: (e.g. the program compile cache).
DEFAULT_MAXSIZE = 1 << 16

#: Sentinel for "use DEFAULT_MAXSIZE" (distinct from explicit None).
_DEFAULT: Any = object()

# Process-wide enabled flag.  Individual engines mirror it into each
# Query's ``put`` behavior so the get/put fast paths stay branch-free.
_ENABLED: bool = os.environ.get("REPRO_DISABLE_CACHES", "") not in ("1", "true", "yes")

# Weak registry of every live engine, so clear_caches()/set_caches_enabled()
# can reach caches owned by long-lived objects (session-scoped fixtures,
# the program cache) without those objects registering callbacks.
_ENGINES: "weakref.WeakSet[QueryEngine]" = weakref.WeakSet()


class VersionStore:
    """Versioned base inputs for dependency-tracked engines.

    Each *input key* names one editable fact of the program — the
    conventional keys (see ``lang/incremental.py``) are::

        ('iface', path)   # a class's interface: extends/shares/adapts,
                          # field and method signatures, nested names
        ('body',  path)   # a class's method/ctor bodies and field inits
        ('sharing',)      # the derived sharing relation (union-find,
                          # masks) — bumped on any hierarchy change
        ('classset',)     # the set of class paths (add/remove/rename)

    ``rev`` is the global revision counter; ``changed[k]`` records the
    revision at which input ``k`` last changed (absent means "never
    changed", i.e. revision 0).  A cached entry verified at revision
    ``r`` is still valid iff every input it consumed satisfies
    ``changed.get(k, 0) <= r``.
    """

    __slots__ = ("rev", "changed", "engines", "__weakref__")

    def __init__(self) -> None:
        self.rev = 1
        self.changed: Dict[Any, int] = {}
        # Every engine validating against this store — one invalidation
        # domain.  ``invalidate_all`` must reach them all: version bumps
        # alone cannot invalidate entries with empty dependency sets.
        self.engines: "weakref.WeakSet[QueryEngine]" = weakref.WeakSet()

    def bump(self, keys: Iterable[Any]) -> int:
        """Advance the revision, marking ``keys`` as changed at it."""
        self.rev += 1
        rev = self.rev
        changed = self.changed
        for k in keys:
            changed[k] = rev
        return rev

    def version(self, key: Any) -> int:
        return self.changed.get(key, 0)

    def invalidate_all(self) -> None:
        """Drop every entry in every attached engine (the global hammer;
        counters survive — see :meth:`QueryEngine.stats`)."""
        self.rev += 1
        self.changed.clear()
        for engine in list(self.engines):
            engine.clear()


class _DepTracker(threading.local):
    """Per-thread stack of dependency-capture frames.

    A frame is ``[tag, key_set]`` where ``tag`` identifies the
    (query, key) computation that pushed it on a cache miss.  Input
    reads (:func:`read_input`) and absorbed hit dependencies land in the
    top frame; :meth:`Query.put` pops down to its own frame, folding any
    orphan frames above it (computations that never cached — exception
    unwinds, conservative no-cache paths) into the entry's dependency
    set, which over-approximates and therefore stays sound.
    """

    def __init__(self) -> None:
        self.frames: List[List[Any]] = []


_TRACKER = _DepTracker()

#: Frame-stack depth bound.  On overflow the two outermost frames merge
#: (sound: dependencies bubble outward), so unbalanced no-cache paths
#: can never grow the stack without limit.
_MAX_FRAMES = 256

#: Marker for "consumed a value whose dependencies are unknown"; an
#: entry whose capture contains it stores ``deps=None`` and is trusted
#: only at the revision it was computed at.
_UNKNOWN_DEP: Any = ("*unknown*",)


def read_input(key: Any) -> None:
    """Record that the computation in flight consumed input ``key``."""
    frames = _TRACKER.frames
    if frames:
        frames[-1][1].add(key)


def reset_tracker() -> None:
    """Drop any leftover capture frames (top-of-operation hygiene)."""
    _TRACKER.frames.clear()


class Query:
    """One named memo table with hit/miss accounting.

    ``get`` returns :data:`MISS` when the key is absent.  ``put`` stores
    the value; bounded queries (the default — see :data:`DEFAULT_MAXSIZE`)
    evict the **least recently used** entry, exploiting dict insertion
    order: a hit moves its key to the back, so the front is always the
    coldest entry.  When caching is disabled the table is empty and
    ``put`` is a no-op, so every ``get`` is a miss — the judgment
    recomputes from scratch.

    A query attached to a :class:`VersionStore` (``versions`` argument)
    becomes *dependency tracked*: each stored entry is a mutable triple
    ``[value, deps, verified_rev]`` where ``deps`` is the set of input
    keys the computation consumed (``None`` when unknown — such entries
    are only trusted within the revision they were stored at).  A hit at
    the entry's verified revision costs one extra integer compare; after
    an edit, the first hit re-validates the entry against the store and
    either green-marks it or drops it (the red/green discipline).
    """

    __slots__ = (
        "name",
        "table",
        "hits",
        "misses",
        "revalidations",
        "maxsize",
        "_enabled",
        "_versions",
    )

    def __init__(
        self,
        name: str,
        maxsize: Optional[int] = _DEFAULT,
        versions: Optional[VersionStore] = None,
    ) -> None:
        self.name = name
        self.table: Dict[Any, Any] = {}
        self.hits = 0
        self.misses = 0
        # Hits that required a green-revalidation pass first (entry was
        # stale but all inputs unchanged) — the "revalidate" slice of the
        # red/green discipline, surfaced per query in labeled metrics.
        self.revalidations = 0
        self.maxsize = DEFAULT_MAXSIZE if maxsize is _DEFAULT else maxsize
        self._enabled = _ENABLED
        self._versions = versions

    def get(self, key: Any) -> Any:
        store = self._versions
        if store is None:
            table = self.table
            value = table.get(key, MISS)
            if value is MISS:
                self.misses += 1
            else:
                self.hits += 1
                if self.maxsize is not None:
                    # LRU bookkeeping: re-append so eviction order tracks use.
                    table[key] = table.pop(key)
            return value
        return self._get_tracked(key, store)

    def _get_tracked(self, key: Any, store: VersionStore) -> Any:
        table = self.table
        entry = table.get(key, MISS)
        if entry is not MISS:
            if entry[2] != store.rev:
                deps = entry[1]
                changed = store.changed
                if deps is not None and all(
                    changed.get(k, 0) <= entry[2] for k in deps
                ):
                    entry[2] = store.rev  # green: inputs unchanged
                    self.revalidations += 1
                else:
                    del table[key]  # red: recompute
                    entry = MISS
        if entry is MISS:
            self.misses += 1
            if self._enabled:
                self._push_frame(key)
            return MISS
        self.hits += 1
        if self.maxsize is not None:
            table[key] = table.pop(key)
        frames = _TRACKER.frames
        if frames:
            deps = entry[1]
            if deps is None:
                # Unknown provenance: poison the consumer so its own
                # entry is trusted only within the current revision.
                frames[-1][1].add(_UNKNOWN_DEP)
            else:
                # The consumer inherits everything this entry depends on.
                frames[-1][1].update(deps)
        return entry[0]

    def _push_frame(self, key: Any) -> None:
        frames = _TRACKER.frames
        if len(frames) >= _MAX_FRAMES:
            # Merge the two outermost frames; dependencies bubbling
            # outward only widens dependency sets, never narrows them.
            frames[0][1].update(frames[1][1])
            frames[0][0] = frames[1][0]
            del frames[1]
        frames.append([(id(self), key), set()])

    def get_status(self, key: Any) -> str:
        """Non-mutating probe for incremental accounting: ``'reused'``
        (entry verified at the current revision), ``'revalidate'``
        (entry present but needs validation), or ``'miss'``."""
        store = self._versions
        entry = self.table.get(key, MISS)
        if entry is MISS:
            return "miss"
        if store is None or entry[2] == store.rev:
            return "reused"
        return "revalidate"

    def put(self, key: Any, value: Any) -> Any:
        if self._enabled:
            store = self._versions
            table = self.table
            if self.maxsize is not None:
                # Re-putting an existing key must refresh its position
                # (plain __setitem__ keeps the old dict slot).
                table.pop(key, None)
                if len(table) >= self.maxsize:
                    table.pop(next(iter(table)))
            if store is None:
                table[key] = value
            else:
                table[key] = self._entry_for(key, value, store)
        return value

    def _entry_for(self, key: Any, value: Any, store: VersionStore) -> List[Any]:
        frames = _TRACKER.frames
        tag = (id(self), key)
        deps: Optional[Set[Any]] = None
        for i in range(len(frames) - 1, -1, -1):
            if frames[i][0] == tag:
                deps = frames[i][1]
                # Fold orphan frames above the match: computations that
                # started but never cached (exceptions, quiescent-only
                # rules).  Over-approximating their reads is sound.
                for j in range(i + 1, len(frames)):
                    deps.update(frames[j][1])
                del frames[i:]
                break
        if frames and deps is not None:
            frames[-1][1].update(deps)
        # deps is None when no matching capture frame exists (put without
        # a prior tracked miss) or when the computation consumed a value
        # of unknown provenance: trust the entry only at this revision.
        if deps is not None and _UNKNOWN_DEP in deps:
            deps = None
        return [value, deps, store.rev]

    def touch(self, key: Any) -> None:
        """Refresh ``key``'s eviction position in a bounded query.
        Redundant after a hit (``get`` refreshes); kept for callers that
        probe via ``__contains__``."""
        if self.maxsize is not None and key in self.table:
            self.table[key] = self.table.pop(key)

    def clear(self) -> None:
        self.table.clear()

    def set_enabled(self, enabled: bool) -> None:
        self._enabled = enabled
        if not enabled:
            self.clear()

    def __contains__(self, key: Any) -> bool:
        return key in self.table

    def __len__(self) -> int:
        return len(self.table)


class QueryStat(Frozen):
    """Counters for one query at snapshot time.  ``revalidations`` counts
    the hits that first green-revalidated a stale entry (a subset of
    ``hits``)."""

    __slots__ = ("engine", "name", "hits", "misses", "size", "revalidations")

    def __init__(
        self,
        engine: str,
        name: str,
        hits: int,
        misses: int,
        size: int,
        revalidations: int = 0,
    ) -> None:
        _set(self, "engine", engine)
        _set(self, "name", name)
        _set(self, "hits", hits)
        _set(self, "misses", misses)
        _set(self, "size", size)
        _set(self, "revalidations", revalidations)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.engine == other.engine
                and self.name == other.name
                and self.hits == other.hits
                and self.misses == other.misses
                and self.size == other.size
                and self.revalidations == other.revalidations
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(
            (self.engine, self.name, self.hits, self.misses, self.size, self.revalidations)
        )

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "engine": self.engine,
            "query": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "revalidations": self.revalidations,
            "size": self.size,
            "hit_rate": round(self.hit_rate, 4),
        }


class CacheStats(Frozen):
    """Immutable snapshot of cache counters across one or more engines."""

    __slots__ = ("stats",)

    def __init__(self, stats: Tuple[QueryStat, ...]) -> None:
        _set(self, "stats", stats)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.stats == other.stats
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.stats,))

    @property
    def hits(self) -> int:
        return sum(s.hits for s in self.stats)

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self.stats)

    @property
    def revalidations(self) -> int:
        return sum(s.revalidations for s in self.stats)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def query(self, name: str, engine: Optional[str] = None) -> Optional[QueryStat]:
        for s in self.stats:
            if s.name == name and (engine is None or s.engine == engine):
                return s
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "enabled": caches_enabled(),
            "hits": self.hits,
            "misses": self.misses,
            "revalidations": self.revalidations,
            "hit_rate": round(self.hit_rate, 4),
            "queries": [s.to_dict() for s in self.stats],
        }

    def format(self) -> str:
        """Human-readable table for ``repro check/run --stats``."""
        lines = [
            "cache stats ({}): {} hits / {} misses ({:.1%} hit rate)".format(
                "enabled" if caches_enabled() else "disabled",
                self.hits,
                self.misses,
                self.hit_rate,
            )
        ]
        width = max((len(f"{s.engine}.{s.name}") for s in self.stats), default=0)
        for s in sorted(self.stats, key=lambda s: -s.lookups):
            if not s.lookups and not s.size:
                continue
            lines.append(
                "  {:<{w}}  {:>8} hits  {:>8} misses  {:>7} entries  {:>6.1%}".format(
                    f"{s.engine}.{s.name}",
                    s.hits,
                    s.misses,
                    s.size,
                    s.hit_rate,
                    w=width,
                )
            )
        return "\n".join(lines)


class QueryEngine:
    """A named group of queries owned by one component.

    Pass a :class:`VersionStore` to make every query in the engine
    dependency-tracked (red/green validation against versioned inputs);
    engines sharing one store form one invalidation domain.
    """

    def __init__(self, name: str, versions: Optional[VersionStore] = None) -> None:
        self.name = name
        self.versions = versions
        self.queries: Dict[str, Query] = {}
        _ENGINES.add(self)
        if versions is not None:
            versions.engines.add(self)

    def query(
        self, name: str, maxsize: Optional[int] = _DEFAULT, cls: type = Query
    ) -> Query:
        """The query ``name``, made on first use as a ``cls`` (a
        :class:`Query` subclass that changes how its table clears)."""
        q = self.queries.get(name)
        if q is None:
            q = self.queries[name] = cls(
                name, maxsize=maxsize, versions=self.versions
            )
        return q

    def clear(self) -> None:
        for q in self.queries.values():
            q.clear()

    def set_enabled(self, enabled: bool) -> None:
        for q in self.queries.values():
            q.set_enabled(enabled)

    def stats(self) -> CacheStats:
        return CacheStats(
            tuple(
                QueryStat(
                    self.name,
                    q.name,
                    q.hits,
                    q.misses,
                    len(q.table),
                    q.revalidations,
                )
                for q in self.queries.values()
            )
        )


def caches_enabled() -> bool:
    """True when query memoization is globally enabled."""
    return _ENABLED


def set_caches_enabled(enabled: bool) -> None:
    """Globally enable/disable all query caches.

    Disabling clears every live memo table (so stale entries can't leak
    back in when re-enabled) and makes subsequent ``put`` calls no-ops.
    Type interning (`types.intern_type`) is *not* affected — interning is
    a representation invariant, not a cache.
    """
    global _ENABLED
    _ENABLED = enabled
    for engine in list(_ENGINES):
        engine.set_enabled(enabled)


def clear_caches() -> None:
    """Drop every live memo table (the single invalidation entry point).

    Also clears the type-interning table — safe because interning is
    self-repopulating — so long test runs can't grow memory without
    bound.
    """
    for engine in list(_ENGINES):
        engine.clear()
    # Imported lazily to avoid an import cycle (types.py does not import
    # queries.py; the intern table lives there).
    from . import types as _types

    _types._INTERN.clear()


def collect_stats(engines: Iterable[Optional[QueryEngine]]) -> CacheStats:
    """Aggregate a CacheStats snapshot across several engines."""
    stats: List[QueryStat] = []
    for engine in engines:
        if engine is not None:
            stats.extend(engine.stats().stats)
    return CacheStats(tuple(stats))


def global_stats() -> CacheStats:
    """Snapshot every live engine in the process."""
    return collect_stats(list(_ENGINES))
