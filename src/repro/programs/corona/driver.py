"""Chaos-hardened CorONA: sharded async traffic with live evolution.

The tentpole of the robustness milestone.  The ring is partitioned
across *shards* — each shard is one :class:`CoronaSystem` (one
``Interp`` heap, one ``QueryEngine``) holding ``nodes // shards`` DHT
nodes.  A request generator issues batched fetch/publish traffic on the
deterministic virtual-time scheduler from :mod:`repro.chaos`, and the
headline event — the corona → pccorona → beecorona family evolution —
runs *while requests are in flight*, per shard, behind a pause gate.

Fault model (all drawn from the seeded :class:`FaultPlan`):

* **crash** — a shard's heap is discarded mid-run; after ``down_ms`` of
  virtual time the next request that touches it restarts it, republishes
  the authoritative feed versions, and replays the evolution journal;
* **drop / delay** — requests entering through a non-owner shard suffer
  inter-shard message loss or latency;
* **fuel** — a chosen request trips ``JnsResourceError`` (JNS-RES-001)
  inside the shard interpreter; the driver recovers the interpreter with
  ``Interp.reset_budget()`` and retries.

Clients retry with capped exponential backoff (seeded jitter).  When a
fetch exhausts its retries and the driver has a cached copy, it degrades
to a *stale serve* (counted, with a staleness histogram) instead of
failing.

Evolution is a two-phase, crash-recoverable protocol: a ``prepare``
journal record precedes the per-shard view change, ``done`` follows it;
a crash between the two leaves the transition pending, and the shard's
restart path (or a freshly started driver handed the same journal)
completes it idempotently.  Every node is in a well-typed family at
every instant — the view change itself is atomic within a shard because
the virtual-time scheduler never preempts non-awaiting code.

Correctness oracles, checked per request against the driver's
authoritative version map:

* content must parse as ``feed-<key>-v<version>`` for the fetched key;
* the version must never exceed the highest version issued (no phantom
  writes) and never be None (no lost feeds);
* under the base ``corona`` family the serve must be fresh (version ≥
  the acknowledged version when the request was issued); under the
  caching families stale serves are legitimate and are *quantified*
  instead (``staleness.cache_lag`` histogram);
* after the run, every shard's heap must contain only keys it owns
  (``key % shards == shard``) — the representation-independence /
  heap-isolation invariant (Banerjee & Naumann).

Reports are byte-identical across runs with the same seed and plan:
``ChaosReport.to_json(include_wall=False)`` contains only virtual-time
and counter state, and every random decision comes from per-request
forks of the master :class:`Rng`.

Telemetry: every request carries a deterministic
:class:`~repro.telemetry.TraceContext` drawn from the ``trace{rid}``
fork of the master RNG — replays with the same seed regenerate the same
128-bit trace-id sequence, digested into ``ChaosReport.trace_digest``
(part of the replay surface).  Each attempt's shard-side work runs
under a ``corona.request`` span tagged ``{op, shard, request,
trace_id}`` when tracing is enabled.  Every fault, retry and request
outcome is recorded once, in ``ChaosReport.counters`` (the digest
surface), and mirrored into ``obs.TRACER`` for ``--profile`` while
tracing is on.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ...chaos import FaultPlan, RetryPolicy, Rng, SimEvent, SimLoop
from ...errors import JnsResourceError
from ...obs import TRACER, Histogram
from ...telemetry import TraceContext
from .system import FAMILIES, CoronaSystem

#: The evolution schedule: each entry is one two-phase transition.
TRANSITIONS: Tuple[Tuple[str, str], ...] = (
    ("corona", "pccorona"),
    ("pccorona", "beecorona"),
)


class DriverKilled(Exception):
    """Raised to simulate the driver process dying mid-run (kill_at /
    kill_after_prepare); the journal written so far survives."""


def feed_content(key: int, version: int) -> str:
    return f"feed-{key}-v{version}"


def parse_feed(content: str) -> Optional[Tuple[int, int]]:
    """Inverse of :func:`feed_content`; None when malformed."""
    try:
        prefix, v = content.rsplit("-v", 1)
        tag, k = prefix.split("-", 1)
        if tag != "feed":
            return None
        return int(k), int(v)
    except (ValueError, AttributeError):
        return None


class EvolutionJournal:
    """Append-only two-phase journal for crash-recoverable evolution.

    Each record is ``{seq, t_ms, shard, transition, phase, epoch}`` with
    ``phase`` one of ``prepare`` / ``done`` (plus ``recovered: True`` on
    a ``done`` written by the recovery path).  When constructed with a
    path, records are flushed to a JSONL file as they are written, so a
    killed driver leaves a replayable journal behind; :meth:`load`
    rebuilds the journal a restarted driver resumes from.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.entries: List[Dict[str, Any]] = []

    @classmethod
    def load(cls, path: str) -> "EvolutionJournal":
        journal = cls(path=None)
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    journal.entries.append(json.loads(line))
        journal.path = path
        return journal

    def record(self, **entry: Any) -> None:
        entry["seq"] = len(self.entries)
        self.entries.append(entry)
        if self.path:
            with open(self.path, "a") as f:
                f.write(json.dumps(entry, sort_keys=True))
                f.write("\n")

    def _by_shard(self, shard: int) -> List[Dict[str, Any]]:
        return [e for e in self.entries if e["shard"] == shard]

    def committed(self, shard: int) -> List[str]:
        """Transitions with a ``done`` record for this shard, in order."""
        return [e["transition"] for e in self._by_shard(shard) if e["phase"] == "done"]

    def pending(self, shard: int) -> List[str]:
        """Transitions prepared but never completed, in order."""
        done = set(self.committed(shard))
        return [
            e["transition"]
            for e in self._by_shard(shard)
            if e["phase"] == "prepare" and e["transition"] not in done
        ]


class Shard:
    """One heap's worth of the ring plus its availability state."""

    def __init__(self, index: int, size: int, seed: int):
        self.index = index
        self.size = size
        self.seed = seed
        self.family = "corona"
        self.epoch = 0
        self.gate = SimEvent()
        self.down_until: Optional[float] = None
        self.system: Optional[CoronaSystem] = None
        self.boot()

    def boot(self) -> None:
        # objects=0: the driver owns publication so restarts can
        # republish the authoritative versions, not the boot snapshot.
        self.system = CoronaSystem(
            size=self.size,
            objects=0,
            backend="codegen",
            seed=self.seed,
            max_steps=10**9,  # activates fuel accounting for injection
        )

    @property
    def down(self) -> bool:
        return self.down_until is not None

    def crash(self, now: float, down_ms: float) -> None:
        self.system = None
        self.down_until = now + down_ms

    def trip_fuel(self) -> None:
        """Arm fuel exhaustion: the next interpreter step raises
        JNS-RES-001 (the counting evaluator is active because the shard
        was built with a step budget)."""
        interp = self.system.interp
        interp._steps = interp._max_steps

    def recover_fuel(self) -> None:
        self.system.interp.reset_budget()


@dataclass
class ChaosReport:
    """Aggregate outcome of one chaos run.

    ``to_json(include_wall=False)`` is the deterministic replay digest
    surface: it excludes wall-clock throughput and pause timings, which
    vary run to run, and keeps everything derived from virtual time and
    the seeded RNG."""

    params: Dict[str, Any]
    counters: Dict[str, int]
    histograms: Dict[str, Dict[str, Any]]
    shards: List[Dict[str, Any]]
    journal: List[Dict[str, Any]]
    oracle_violations: List[Dict[str, Any]]
    failures: List[Dict[str, Any]]
    virtual_ms: float
    killed: bool = False
    #: sha256 over the per-request trace-id sequence — deterministic for
    #: a given seed, so it is part of the replay-digest surface.
    trace_digest: str = ""
    wall: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self, include_wall: bool = True) -> Dict[str, Any]:
        data = {
            "params": self.params,
            "counters": dict(sorted(self.counters.items())),
            "histograms": {k: self.histograms[k] for k in sorted(self.histograms)},
            "shards": self.shards,
            "journal": self.journal,
            "oracle_violations": self.oracle_violations,
            "failures": self.failures,
            "virtual_ms": self.virtual_ms,
            "killed": self.killed,
            "trace_digest": self.trace_digest,
        }
        if include_wall:
            data["wall"] = self.wall
        return data

    def to_json(self, include_wall: bool = True) -> str:
        return json.dumps(self.to_dict(include_wall), sort_keys=True, indent=2)


class ChaosCoronaDriver:
    """Deterministic chaos harness over a sharded CorONA deployment."""

    def __init__(
        self,
        nodes: int = 256,
        shards: int = 4,
        objects: int = 96,
        requests: int = 600,
        seed: int = 11,
        plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        journal: Optional[EvolutionJournal] = None,
        evolve_at: Optional[Tuple[int, int]] = None,
        kill_at: Optional[int] = None,
        kill_after_prepare: Optional[Tuple[int, int]] = None,
        publish_every: int = 8,
        interarrival_ms: float = 1.0,
        pause_ms_per_node: float = 0.25,
        bee_threshold: int = 3,
    ):
        if shards < 1 or nodes < shards:
            raise ValueError("need at least one node per shard")
        self.shard_size = nodes // shards
        self.nodes = self.shard_size * shards
        self.nshards = shards
        self.objects = objects
        self.requests = requests
        self.seed = seed
        self.plan = plan or FaultPlan()
        self.retry = retry or RetryPolicy()
        self.journal = journal or EvolutionJournal()
        self.evolve_at = evolve_at or (requests // 3, (2 * requests) // 3)
        self.kill_at = kill_at
        self.kill_after_prepare = kill_after_prepare
        self.publish_every = publish_every
        self.interarrival_ms = interarrival_ms
        self.pause_ms_per_node = pause_ms_per_node
        self.bee_threshold = bee_threshold

        self._rng = Rng(seed)
        self._hot = min(3, objects)
        self.counters: Dict[str, int] = {}
        self._hists: Dict[str, Histogram] = {}
        #: per-request trace ids in rid order (hex), digested into the
        #: replay surface; identical across same-seed replays.
        self.trace_ids: List[str] = []
        self.oracle_violations: List[Dict[str, Any]] = []
        self.failures: List[Dict[str, Any]] = []
        # Authoritative feed state: highest version handed to a publish
        # request, and highest version acknowledged by its owner shard.
        self.version_issued: Dict[int, int] = {}
        self.version_acked: Dict[int, int] = {}
        self._stale: Dict[int, Tuple[int, str]] = {}
        self._fuel_done: set = set()
        self._completed = 0
        self._wall_pause = Histogram("evolution.pause_ms_wall")
        self.loop = SimLoop()
        self.shards: List[Shard] = []
        self._evolve_gates = [SimEvent(False) for _ in TRANSITIONS]

    # ---- bookkeeping -----------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n
        if TRACER.enabled:
            TRACER.count(name, n)

    def _observe(self, name: str, value: float) -> None:
        h = self._hists.get(name)
        if h is None:
            h = self._hists[name] = Histogram(name)
        h.observe(value)
        if TRACER.enabled:
            TRACER.observe(name, value)

    def _fault(self, kind: str) -> None:
        self._count("chaos.injected")
        self._count(f"chaos.injected.{kind}")

    def _violation(self, rid: int, key: int, reason: str, **detail: Any) -> None:
        self._count("oracle.violation")
        self.oracle_violations.append(
            {"rid": rid, "key": key, "reason": reason, **detail}
        )

    def owner_of(self, key: int) -> int:
        return key % self.nshards

    def local_key(self, key: int) -> int:
        return key // self.nshards

    # ---- boot / recovery -------------------------------------------------

    def _boot_shards(self) -> None:
        with TRACER.span("corona.boot", shards=self.nshards, nodes=self.nodes):
            for i in range(self.nshards):
                shard_seed = Rng(self.seed).fork(f"shard{i}").randrange(2**31 - 1)
                self.shards.append(
                    Shard(i, self.shard_size, shard_seed)
                )
        for key in range(self.objects):
            self.version_issued[key] = 1
            self.version_acked[key] = 1
            self._publish_to_shard(self.shards[self.owner_of(key)], key, 1)
        for shard in self.shards:
            self._recover_journal(shard)

    def _publish_to_shard(self, shard: Shard, key: int, version: int) -> None:
        shard.system.publish(
            self.local_key(key), version, feed_content(key, version)
        )

    def _recover_journal(self, shard: Shard) -> None:
        """Replay committed transitions and complete pending ones — the
        second phase of the two-phase protocol, run on shard restart and
        on driver restart from a persisted journal."""
        for transition in self.journal.committed(shard.index):
            target = transition.split("->")[1]
            if FAMILIES.index(target) > FAMILIES.index(shard.family):
                shard.system.evolve(target, threshold=self.bee_threshold)
                shard.family = target
        for transition in self.journal.pending(shard.index):
            target = transition.split("->")[1]
            if FAMILIES.index(target) > FAMILIES.index(shard.family):
                shard.system.evolve(target, threshold=self.bee_threshold)
                shard.family = target
            self._count("chaos.recovered")
            self.journal.record(
                shard=shard.index,
                transition=transition,
                phase="done",
                t_ms=self.loop.now,
                epoch=shard.epoch,
                recovered=True,
            )

    def _restart_shard(self, shard: Shard) -> None:
        with TRACER.span("corona.restart", shard=shard.index):
            shard.epoch += 1
            shard.down_until = None
            shard.family = "corona"
            shard.boot()
            for key in range(self.objects):
                if self.owner_of(key) == shard.index:
                    self._publish_to_shard(shard, key, self.version_acked[key])
            self._recover_journal(shard)
        self._count("chaos.restart")

    # ---- traffic ---------------------------------------------------------

    def _issue(self, rid: int) -> Tuple[str, int, int]:
        """Decide one request's op/key/version.  Runs synchronously in
        rid order inside the generator so version numbers are issued
        deterministically; all later decisions use the request fork."""
        rng = self._rng.fork(f"issue{rid}")
        if rng.random() < 0.5 and self._hot:
            key = rng.randrange(self._hot)
        else:
            key = rng.randrange(self.objects)
        if rid % self.publish_every == self.publish_every - 1:
            version = self.version_issued.get(key, 0) + 1
            self.version_issued[key] = version
            return "publish", key, version
        return "fetch", key, 0

    async def _generate(self) -> None:
        tasks = []
        for rid in range(self.requests):
            if self.kill_at is not None and rid == self.kill_at:
                raise DriverKilled(f"killed before request {rid}")
            for j, at in enumerate(self.evolve_at):
                if rid == at:
                    self._evolve_gates[j].set()
            for fault in self.plan.crash_at.get(rid, ()):
                shard = self.shards[fault.shard % self.nshards]
                if not shard.down:
                    self._fault("crash")
                    shard.crash(self.loop.now, fault.down_ms)
            op, key, version = self._issue(rid)
            # Request identity: a fresh deterministic trace from the
            # rid-keyed fork — pure function of (seed, rid), so replays
            # regenerate the identical id sequence.
            ctx = TraceContext.from_rng(self._rng.fork(f"trace{rid}"))
            self.trace_ids.append(ctx.hex_trace)
            tasks.append(
                self.loop.create_task(
                    self._request(rid, op, key, version, ctx), name=f"req{rid}"
                )
            )
            await self.loop.sleep(self.interarrival_ms)
        for task in tasks:
            await task

    async def _request(
        self, rid: int, op: str, key: int, version: int, ctx: TraceContext
    ) -> None:
        rng = self._rng.fork(f"req{rid}")
        owner = self.owner_of(key)
        entry = rng.randrange(self.nshards)
        floor = self.version_acked.get(key, 0)
        attempts = 0
        while True:
            outcome = await self._attempt(
                rid, op, key, version, rng, entry, floor, ctx, attempts
            )
            if outcome == "ok":
                self._completed += 1
                if attempts:
                    self._observe("retry.per_request", attempts)
                return
            attempts += 1
            self._count("retry.attempt")
            if attempts >= self.retry.max_attempts:
                self._count("retry.exhausted")
                self._degrade(rid, op, key, outcome)
                return
            await self.loop.sleep(self.retry.backoff_ms(attempts - 1, rng))

    async def _attempt(
        self,
        rid: int,
        op: str,
        key: int,
        version: int,
        rng: Rng,
        entry: int,
        floor: int,
        ctx: TraceContext,
        attempt: int,
    ) -> str:
        shard = self.shards[self.owner_of(key)]
        if shard.down:
            if self.loop.now >= shard.down_until:
                self._restart_shard(shard)
            else:
                return "down"
        await shard.gate.wait()
        if shard.down:
            return "down"
        if entry != shard.index:
            fate, delay_ms = self.plan.message_fate(rng)
            if fate == "drop":
                self._fault("drop")
                return "dropped"
            if fate == "delay":
                self._fault("delay")
                await self.loop.sleep(delay_ms)
                if shard.down:
                    return "down"
        if rid in self.plan.fuel_at and rid not in self._fuel_done:
            self._fuel_done.add(rid)
            self._fault("fuel")
            shard.trip_fuel()
        # The shard-side work below is await-free, so the request span
        # opens and closes on one simulated "thread" — safe with the
        # tracer's thread-local span stack even though many requests are
        # interleaved by the virtual-time scheduler.
        span = None
        if TRACER.enabled:
            attempt_ctx = ctx.child(f"attempt{attempt}")
            span = TRACER.span(
                "corona.request",
                op=op,
                shard=shard.index,
                request=rid,
                trace_id=ctx.hex_trace,
                span_id=attempt_ctx.hex_span,
                parent_span_id=ctx.hex_span,
            )
            span.__enter__()
        try:
            if op == "publish":
                # A newer publish for this key already landed while we
                # were retrying: applying ours would regress the store.
                if self.version_acked.get(key, 0) >= version:
                    self._count("publish.superseded")
                    return "ok"
                self._publish_to_shard(shard, key, version)
                self.version_acked[key] = version
                self._count("publish.ok")
            else:
                start = rng.randrange(shard.size)
                content = shard.system.fetch(start, self.local_key(key), shard.family)
                self._check_fetch(rid, key, content, floor, shard.family)
                if content is not None:
                    parsed = parse_feed(content)
                    if parsed:
                        self._stale[key] = (parsed[1], content)
                self._count("fetch.ok")
            return "ok"
        except JnsResourceError:
            shard.recover_fuel()
            return "fuel"
        finally:
            if span is not None:
                span.__exit__(None, None, None)

    def _check_fetch(
        self, rid: int, key: int, content: Optional[str], floor: int, family: str
    ) -> None:
        """The per-request oracle (see module docstring)."""
        if content is None:
            self._violation(rid, key, "lost", family=family)
            return
        parsed = parse_feed(content)
        if parsed is None:
            self._violation(rid, key, "malformed", content=content)
            return
        got_key, got_version = parsed
        if got_key != key:
            self._violation(rid, key, "wrong-key", got=got_key)
            return
        issued = self.version_issued.get(key, 0)
        if got_version > issued or got_version < 1:
            self._violation(rid, key, "phantom-version", got=got_version, issued=issued)
            return
        if family == "corona" and got_version < floor:
            self._violation(
                rid, key, "stale-under-base-family", got=got_version, floor=floor
            )
            return
        lag = self.version_acked.get(key, 0) - got_version
        if lag > 0:
            self._observe("staleness.cache_lag", lag)

    def _degrade(self, rid: int, op: str, key: int, last_outcome: str) -> None:
        if op == "fetch" and key in self._stale:
            stale_version, _content = self._stale[key]
            self._count("degraded.stale_serve")
            self._observe(
                "degraded.staleness",
                max(0, self.version_acked.get(key, 0) - stale_version),
            )
            self._completed += 1
            return
        self._count("requests.failed")
        self.failures.append(
            {"rid": rid, "op": op, "key": key, "last_outcome": last_outcome}
        )

    # ---- evolution -------------------------------------------------------

    async def _evolution(self) -> None:
        for j, (frm, to) in enumerate(TRANSITIONS):
            await self._evolve_gates[j].wait()
            with TRACER.span("corona.evolve", transition=f"{frm}->{to}"):
                for shard in self.shards:
                    await self._evolve_shard(shard, j)

    async def _evolve_shard(self, shard: Shard, j: int) -> None:
        frm, to = TRANSITIONS[j]
        if FAMILIES.index(shard.family) >= FAMILIES.index(to):
            return  # already there (journal recovery on a resumed driver)
        self.journal.record(
            shard=shard.index,
            transition=f"{frm}->{to}",
            phase="prepare",
            t_ms=self.loop.now,
            epoch=shard.epoch,
        )
        if self.kill_after_prepare == (j, shard.index):
            raise DriverKilled(f"killed after prepare of {frm}->{to} @{shard.index}")
        if shard.down:
            # Crash raced the transition: leave it pending; the restart
            # path completes it from the journal (phase two).
            self._count("evolution.deferred")
            return
        shard.gate.clear()
        t0_virtual = self.loop.now
        t0_wall = time.perf_counter()
        shard.system.evolve(to, threshold=self.bee_threshold)
        self._wall_pause.observe((time.perf_counter() - t0_wall) * 1000.0)
        # The view change itself is atomic in virtual time; the pause
        # clients observe is modelled as proportional to shard size.
        await self.loop.sleep(self.pause_ms_per_node * shard.size)
        shard.family = to
        shard.gate.set()
        self._observe("evolution.pause_virtual_ms", self.loop.now - t0_virtual)
        self._count("evolution.applied")
        self.journal.record(
            shard=shard.index,
            transition=f"{frm}->{to}",
            phase="done",
            t_ms=self.loop.now,
            epoch=shard.epoch,
        )

    # ---- isolation oracle ------------------------------------------------

    def _check_isolation(self) -> None:
        """Every row in every shard heap must belong to that shard: the
        global key embedded in the content maps back to this shard and
        this local slot."""
        for shard in self.shards:
            if shard.system is None:
                continue
            for _node, local, version, content in shard.system.store_contents():
                parsed = parse_feed(content)
                if parsed is None:
                    self._violation(-1, local, "isolation-malformed", shard=shard.index)
                    continue
                gkey, _v = parsed
                if self.owner_of(gkey) != shard.index or self.local_key(gkey) != local:
                    self._violation(
                        -1, gkey, "isolation-breach", shard=shard.index, local=local
                    )

    # ---- entry point -----------------------------------------------------

    async def _main(self) -> None:
        generator = self.loop.create_task(self._generate(), name="generator")
        evolution = self.loop.create_task(self._evolution(), name="evolution")
        await generator
        for gate in self._evolve_gates:
            gate.set()  # short runs: force any unreached transition now
        await evolution

    def run(self) -> ChaosReport:
        wall0 = time.perf_counter()
        killed = False
        self._boot_shards()
        try:
            self.loop.run(self.loop.create_task(self._main(), name="driver"))
        except DriverKilled:
            killed = True
        self._check_isolation()
        wall_s = time.perf_counter() - wall0
        shards = [
            {
                "index": s.index,
                "family": s.family,
                "epoch": s.epoch,
                "size": s.size,
                "down": s.down,
                "stats": (
                    None
                    if s.system is None
                    else {
                        "lookups": s.system.stats().lookups,
                        "total_hops": s.system.stats().total_hops,
                        "misses": s.system.stats().misses,
                    }
                ),
            }
            for s in self.shards
        ]
        return ChaosReport(
            params={
                "nodes": self.nodes,
                "shards": self.nshards,
                "objects": self.objects,
                "requests": self.requests,
                "seed": self.seed,
                "plan": self.plan.to_dict(),
                "retry": self.retry.to_dict(),
                "evolve_at": list(self.evolve_at),
                "publish_every": self.publish_every,
                "interarrival_ms": self.interarrival_ms,
                "pause_ms_per_node": self.pause_ms_per_node,
                "bee_threshold": self.bee_threshold,
            },
            counters=dict(self.counters),
            histograms={k: h.to_dict() for k, h in self._hists.items()},
            shards=shards,
            journal=list(self.journal.entries),
            oracle_violations=self.oracle_violations,
            failures=self.failures,
            virtual_ms=self.loop.now,
            killed=killed,
            trace_digest=hashlib.sha256(
                "\n".join(self.trace_ids).encode()
            ).hexdigest(),
            wall={
                "seconds": round(wall_s, 3),
                "requests_completed": self._completed,
                "rps": round(self._completed / wall_s, 1) if wall_s else 0.0,
                "evolution_pause_ms": self._wall_pause.to_dict(),
            },
        )


def run_chaos(
    nodes: int = 256,
    shards: int = 4,
    objects: int = 96,
    requests: int = 600,
    seed: int = 11,
    faults: str = "",
    **kwargs: Any,
) -> ChaosReport:
    """Convenience wrapper: parse a fault-plan string and run."""
    plan = FaultPlan.parse(faults) if faults else FaultPlan()
    driver = ChaosCoronaDriver(
        nodes=nodes,
        shards=shards,
        objects=objects,
        requests=requests,
        seed=seed,
        plan=plan,
        **kwargs,
    )
    return driver.run()
