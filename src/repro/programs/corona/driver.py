"""CorONA under chaos: live evolution of one running heap under traffic.

One :class:`CoronaSystem` (one ``Interp`` heap, one ``QueryEngine``)
holds the whole ring.  A request generator issues fetch/publish traffic
on the deterministic virtual-time scheduler from :mod:`repro.chaos`, and
the headline event of §7.4 — the corona → pccorona → beecorona family
evolution — runs *while requests are in flight*, behind a pause gate:
requests that reach the heap during a transition wait for it.

Faults come from the fault plan (:func:`~repro.chaos.parse_fuel_plan`):
a ``fuel:REQ`` fault trips ``JnsResourceError`` (JNS-RES-001) inside the
interpreter while request REQ is served; the driver recovers the
interpreter with ``Interp.reset_budget()`` and re-runs the request once.

Every node is in a well-typed family at every instant: the view change
itself is atomic because the virtual-time scheduler never preempts
non-awaiting code.

Correctness oracles, checked per request against the driver's
authoritative version map:

* content must parse as ``feed-<key>-v<version>`` for the fetched key;
* the version must never exceed the highest version issued (no phantom
  writes) and never be None (no lost feeds);
* under the base ``corona`` family the serve must be fresh (version ≥
  the acknowledged version when the request was issued); under the
  caching families stale serves are legitimate and are *quantified*
  instead (``staleness.cache_lag`` histogram);
* after the run, every row of the heap's stores must hold the feed it
  was published under (its content names the row's key and version) —
  the representation-independence invariant of Banerjee & Naumann.

Reports are byte-identical across runs with the same seed and plan:
``ChaosReport.to_json(include_wall=False)`` contains only virtual-time
and counter state, and every random decision comes from per-request
forks of the master :class:`Rng`.

Telemetry: every request carries a deterministic
:class:`~repro.telemetry.TraceContext` drawn from the ``trace{rid}``
fork of the master RNG — replays with the same seed regenerate the same
128-bit trace-id sequence, digested into ``ChaosReport.trace_digest``
(part of the replay surface).  Each attempt runs under a
``corona.request`` span tagged ``{op, request, trace_id}`` when tracing
is enabled.  Every fault and request outcome is recorded once, in
``ChaosReport.counters`` (the digest surface), and mirrored into
``obs.TRACER`` for ``--profile`` while tracing is on.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ...chaos import Rng, SimEvent, SimLoop, parse_fuel_plan
from ...errors import JnsResourceError
from ...obs import TRACER, Histogram
from ...telemetry import TraceContext
from .system import CoronaSystem

#: The evolution schedule, one view change of the live heap per entry.
TRANSITIONS: Tuple[Tuple[str, str], ...] = (
    ("corona", "pccorona"),
    ("pccorona", "beecorona"),
)


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


@dataclass
class ChaosReport:
    """Aggregate outcome of one run.

    ``to_json(include_wall=False)`` is the deterministic replay digest
    surface: it excludes wall-clock throughput and pause timings, which
    vary run to run, and keeps everything derived from virtual time and
    the seeded RNG."""

    params: Dict[str, Any]
    counters: Dict[str, int]
    histograms: Dict[str, Dict[str, Any]]
    family: str
    stats: Dict[str, int]
    oracle_violations: List[Dict[str, Any]]
    failures: List[Dict[str, Any]]
    virtual_ms: float
    #: sha256 over the per-request trace-id sequence — deterministic for
    #: a given seed, so it is part of the replay-digest surface.
    trace_digest: str = ""
    wall: Dict[str, Any] = field(default_factory=dict)

    def to_json(self, include_wall: bool = True) -> str:
        data = asdict(self)
        if not include_wall:
            del data["wall"]
        return json.dumps(data, sort_keys=True, indent=2)


class ChaosCoronaDriver:
    """Deterministic live-evolution harness over one CorONA heap."""

    #: Every PUBLISH_EVERY-th request is a publish, the rest fetches.
    PUBLISH_EVERY = 8
    INTERARRIVAL_MS = 1.0
    #: The client-visible pause of a view change, modelled as
    #: proportional to the number of nodes it changes.
    PAUSE_MS_PER_NODE = 0.25
    BEE_THRESHOLD = 3

    def __init__(
        self,
        nodes: int = 64,
        objects: int = 96,
        requests: int = 600,
        seed: int = 11,
        fuel: Iterable[int] = (),
    ):
        if nodes < 1:
            raise ValueError("need at least one node")
        self.nodes = nodes
        self.objects = objects
        self.requests = requests
        self.seed = seed
        #: Indices of the requests whose serve trips JNS-RES-001.
        self.fuel = frozenset(fuel)
        self.evolve_at = (requests // 3, (2 * requests) // 3)

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
        # request, and highest version acknowledged by the heap.
        self.version_issued: Dict[int, int] = {}
        self.version_acked: Dict[int, int] = {}
        self._completed = 0
        self._wall_pause = Histogram("evolution.pause_ms_wall")
        self.loop = SimLoop()
        self.family = "corona"
        self.gate = SimEvent()
        self.system: Optional[CoronaSystem] = None
        self._evolve_gates = [SimEvent(False) for _ in TRANSITIONS]

    # ---- bookkeeping -----------------------------------------------------

    def _count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1
        if TRACER.enabled:
            TRACER.count(name)

    def _observe(self, name: str, value: float) -> None:
        h = self._hists.get(name)
        if h is None:
            h = self._hists[name] = Histogram(name)
        h.observe(value)
        if TRACER.enabled:
            TRACER.observe(name, value)

    def _violation(self, rid: int, key: int, reason: str, **detail: Any) -> None:
        self._count("oracle.violation")
        self.oracle_violations.append(
            {"rid": rid, "key": key, "reason": reason, **detail}
        )

    # ---- boot ------------------------------------------------------------

    def _boot(self) -> None:
        with TRACER.span("corona.boot", nodes=self.nodes):
            # objects=0: the driver publishes version 1 of every feed
            # itself, so the version map starts authoritative.
            self.system = CoronaSystem(
                size=self.nodes,
                objects=0,
                backend="codegen",
                seed=self.seed,
                max_steps=10**9,  # activates fuel accounting for injection
            )
            for key in range(self.objects):
                self.version_issued[key] = 1
                self.version_acked[key] = 1
                self.system.publish(key, 1, feed_content(key, 1))

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
        if rid % self.PUBLISH_EVERY == self.PUBLISH_EVERY - 1:
            version = self.version_issued.get(key, 0) + 1
            self.version_issued[key] = version
            return "publish", key, version
        return "fetch", key, 0

    async def _generate(self) -> None:
        tasks = []
        for rid in range(self.requests):
            for j, at in enumerate(self.evolve_at):
                if rid == at:
                    self._evolve_gates[j].set()
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
            await self.loop.sleep(self.INTERARRIVAL_MS)
        for task in tasks:
            await task

    async def _request(
        self, rid: int, op: str, key: int, version: int, ctx: TraceContext
    ) -> None:
        rng = self._rng.fork(f"req{rid}")
        floor = self.version_acked.get(key, 0)
        await self.gate.wait()
        if rid in self.fuel:
            self._count("chaos.injected")
            self._count("chaos.injected.fuel")
            # The next interpreter step raises JNS-RES-001 (the counting
            # evaluator is active because the heap has a step budget).
            interp = self.system.interp
            interp._steps = interp._max_steps
        for attempt in range(2):
            try:
                # Await-free, so the span opens and closes on one
                # simulated "thread" — safe with the tracer's thread-local
                # span stack although the scheduler interleaves requests.
                with TRACER.span(
                    "corona.request",
                    op=op,
                    request=rid,
                    trace_id=ctx.hex_trace,
                    span_id=ctx.child(f"attempt{attempt}").hex_span,
                    parent_span_id=ctx.hex_span,
                ):
                    self._serve(rid, op, key, version, rng, floor)
            except JnsResourceError as exc:
                self.system.interp.reset_budget()
                if attempt:
                    self._count("requests.failed")
                    self.failures.append(
                        {"rid": rid, "op": op, "key": key, "code": exc.code}
                    )
                continue
            self._completed += 1
            return

    def _serve(
        self, rid: int, op: str, key: int, version: int, rng: Rng, floor: int
    ) -> None:
        if op == "publish":
            self.system.publish(key, version, feed_content(key, version))
            self.version_acked[key] = version
            self._count("publish.ok")
        else:
            content = self.system.fetch(rng.randrange(self.nodes), key, self.family)
            self._check_fetch(rid, key, content, floor)
            self._count("fetch.ok")

    def _check_fetch(
        self, rid: int, key: int, content: Optional[str], floor: int
    ) -> None:
        """The per-request oracle (see module docstring)."""
        family = self.family
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

    # ---- evolution -------------------------------------------------------

    async def _evolution(self) -> None:
        for j, (frm, to) in enumerate(TRANSITIONS):
            await self._evolve_gates[j].wait()
            with TRACER.span("corona.evolve", transition=f"{frm}->{to}"):
                self.gate.clear()
                t0_virtual = self.loop.now
                t0_wall = time.perf_counter()
                self.system.evolve(to, threshold=self.BEE_THRESHOLD)
                self._wall_pause.observe((time.perf_counter() - t0_wall) * 1000.0)
                # The view change itself is atomic in virtual time; the
                # pause clients observe is modelled as proportional to
                # the heap's size.
                await self.loop.sleep(self.PAUSE_MS_PER_NODE * self.nodes)
                self.family = to
                self.gate.set()
                self._observe("evolution.pause_virtual_ms", self.loop.now - t0_virtual)
                self._count("evolution.applied")

    # ---- store oracle ----------------------------------------------------

    def _check_store(self) -> None:
        """Every row of the heap's stores must hold the feed it was
        published under: its content names the row's key and version."""
        for _node, key, version, content in self.system.store_contents():
            parsed = parse_feed(content)
            if parsed is None:
                self._violation(-1, key, "isolation-malformed")
            elif parsed != (key, version):
                self._violation(
                    -1, parsed[0], "isolation-breach", row_key=key, row_version=version
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
        self._boot()
        self.loop.run(self.loop.create_task(self._main(), name="driver"))
        self._check_store()
        wall_s = time.perf_counter() - wall0
        return ChaosReport(
            params={
                "nodes": self.nodes,
                "objects": self.objects,
                "requests": self.requests,
                "seed": self.seed,
                "plan": {"fuel": sorted(self.fuel)},
                "evolve_at": list(self.evolve_at),
            },
            counters=dict(self.counters),
            histograms={k: h.to_dict() for k, h in self._hists.items()},
            family=self.family,
            stats=asdict(self.system.stats()),
            oracle_violations=self.oracle_violations,
            failures=self.failures,
            virtual_ms=self.loop.now,
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
    nodes: int = 64,
    objects: int = 96,
    requests: int = 600,
    seed: int = 11,
    faults: str = "",
) -> ChaosReport:
    """Convenience wrapper: parse a fault-plan string and run."""
    fuel = parse_fuel_plan(faults)
    return ChaosCoronaDriver(nodes, objects, requests, seed, fuel).run()
