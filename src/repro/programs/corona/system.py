"""Synchronous CorONA experiment driver (Section 7.4).

``CoronaSystem`` boots one ring inside one interpreter heap, runs
workload phases under each family, and evolves the live system between
phases without recreating any node or data object.  The chaos driver
(``driver.py``) builds one ``CoronaSystem`` and talks to it through the
per-request methods (``fetch`` / ``publish`` / ``evolve``).

Determinism: the only randomness source in the J&s program is the
``Rand`` LCG, and every ``workload`` / ``workloadVia`` call constructs a
fresh ``Rand(seed)`` — there is no hidden global stream on either the
J&s or the Python side.  ``CoronaSystem`` therefore threads a single
master ``seed``: phases that do not pass an explicit seed draw a
distinct per-phase seed derived from ``(master seed, phase index)`` via
the forkable :class:`repro.chaos.Rng`, so two systems built with the
same constructor arguments replay bit-identically while successive
phases still see independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...chaos import Rng
from ...obs import TRACER
from .source import SOURCE, evolution_loc, program

FAMILY_CODES = {"corona": 0, "pccorona": 1, "beecorona": 2}


@dataclass
class PhaseStats:
    lookups: int
    total_hops: int
    misses: int

    @property
    def avg_hops(self) -> float:
        return self.total_hops / self.lookups if self.lookups else 0.0


class CoronaSystem:
    """Python driver for the CorONA experiment: boots the ring, runs
    workload phases under each family, evolving the live system between
    phases without recreating any node or data object."""

    def __init__(
        self,
        size: int = 16,
        objects: int = 64,
        mode: str = "jns",
        backend: str = "walker",
        seed: int = 11,
        max_steps: Optional[int] = None,
    ):
        self.interp = program().interp(
            mode=mode,
            backend=backend,
            max_steps=max_steps,
        )
        self.main = self.interp.new_instance(("Main",), ())
        self.size = size
        self.objects = objects
        self.seed = seed
        self._phase_index = 0
        self.net = self.interp.call_method(self.main, "boot", [size])
        if objects:
            self.interp.call_method(self.main, "publishAll", [self.net, objects])
        self._node_ids_before = self._node_instances()

    def _node_instances(self):
        ids = []
        first = self.interp.get_field(self.net, "first")
        node = first
        while True:
            ids.append(id(node.inst))
            node = self.interp.get_field(node, "nextNode")
            if node.inst is first.inst:
                break
        return ids

    def _reset_stats(self):
        self.interp.set_field(self.net, "totalHops", 0)
        self.interp.set_field(self.net, "lookups", 0)
        self.interp.set_field(self.net, "misses", 0)

    def stats(self) -> PhaseStats:
        """Cumulative routing statistics since the last phase reset."""
        return PhaseStats(
            lookups=self.interp.get_field(self.net, "lookups"),
            total_hops=self.interp.get_field(self.net, "totalHops"),
            misses=self.interp.get_field(self.net, "misses"),
        )

    def _derive_seed(self) -> int:
        seed = Rng(self.seed).fork(f"phase{self._phase_index}").randrange(2**31 - 1)
        self._phase_index += 1
        return seed

    def run_phase(
        self, family: str, fetches: int = 200, seed: Optional[int] = None
    ) -> PhaseStats:
        """family: "corona", "pccorona", or "beecorona".

        When ``seed`` is omitted the phase seed is derived from the
        system's master seed and the phase index, so repeated phases use
        independent streams yet the whole run replays bit-identically.
        """
        code = FAMILY_CODES[family]
        if seed is None:
            seed = self._derive_seed()
        self._reset_stats()
        bad = self.interp.call_method(
            self.main, "workloadVia", [self.net, code, fetches, self.objects, seed]
        )
        if bad:
            raise AssertionError(f"{bad} fetches returned no content")
        return self.stats()

    # ---- per-request surface used by the chaos driver -------------------

    def fetch(self, start_id: int, key: int, family: str = "corona") -> Optional[str]:
        """Route one fetch from ``start_id`` under the given family's
        view; returns the content string or None on a store miss."""
        if TRACER.enabled:
            with TRACER.span("corona.fetch", family=family):
                return self.interp.call_method(
                    self.main,
                    "fetchVia",
                    [self.net, FAMILY_CODES[family], start_id, key],
                )
        return self.interp.call_method(
            self.main, "fetchVia", [self.net, FAMILY_CODES[family], start_id, key]
        )

    def publish(self, key: int, version: int, content: str) -> None:
        """Publish one DataObject to its owner node (idempotent per
        (key, version): re-publishing replaces the stored object)."""
        if TRACER.enabled:
            with TRACER.span("corona.publish"):
                self._publish(key, version, content)
            return
        self._publish(key, version, content)

    def _publish(self, key: int, version: int, content: str) -> None:
        obj = self.interp.new_instance(
            ("corona", "DataObject"), (key, version, content)
        )
        self.interp.call_method(self.net, "publish", [obj])

    def evolve(self, family: str, threshold: int = 3) -> None:
        """Apply one evolution step by target family name."""
        if TRACER.enabled:
            with TRACER.span("corona.evolve.apply", family=family):
                self._evolve(family, threshold)
            return
        self._evolve(family, threshold)

    def _evolve(self, family: str, threshold: int) -> None:
        if family == "pccorona":
            self.evolve_to_pc()
        elif family == "beecorona":
            self.evolve_to_bee(threshold=threshold)
        else:
            raise ValueError(f"cannot evolve to {family!r}")

    def store_contents(self) -> List[Tuple[int, int, int, str]]:
        """Walk every node's base ``store`` and return
        ``(node_id, key, version, content)`` rows — the store witness
        the chaos driver checks after a run (manager caches are views over
        these same shared objects and are not walked separately)."""
        rows = []
        interp = self.interp
        first = interp.get_field(self.net, "first")
        node = first
        while True:
            node_id = interp.get_field(node, "id")
            store = interp.get_field(node, "store")
            entry = interp.get_field(store, "first")
            while entry is not None:
                obj = interp.get_field(entry, "obj")
                rows.append(
                    (
                        node_id,
                        interp.get_field(entry, "key"),
                        interp.get_field(obj, "version"),
                        interp.get_field(obj, "content"),
                    )
                )
                entry = interp.get_field(entry, "next")
            node = interp.get_field(node, "nextNode")
            if node.inst is first.inst:
                break
        return rows

    # ---------------------------------------------------------------------

    def evolve_to_pc(self) -> None:
        self.interp.call_method(self.main, "evolveToPC", [self.net])

    def evolve_to_bee(self, threshold: int = 5) -> int:
        self.interp.call_method(self.main, "evolveToBee", [self.net])
        return self.interp.call_method(self.main, "maintainBee", [self.net, threshold])

    def nodes_preserved(self) -> bool:
        """Evolution must not create or replace host-node objects."""
        return self._node_instances() == self._node_ids_before


def run_experiment(size: int = 16, objects: int = 64, fetches: int = 300):
    """The full Section 7.4 scenario; returns per-phase stats."""
    sys = CoronaSystem(size=size, objects=objects)
    plain = sys.run_phase("corona", fetches, seed=11)
    sys.evolve_to_pc()
    pc_cold = sys.run_phase("pccorona", fetches, seed=11)
    pc_warm = sys.run_phase("pccorona", fetches, seed=23)
    replicated = sys.evolve_to_bee(threshold=5)
    bee = sys.run_phase("beecorona", fetches, seed=37)
    assert sys.nodes_preserved(), "evolution must reuse the live node objects"
    return {
        "plain": plain,
        "pc_cold": pc_cold,
        "pc_warm": pc_warm,
        "bee": bee,
        "replicated": replicated,
        "loc": evolution_loc(),
    }


def main() -> None:
    results = run_experiment()
    print("CorONA evolution experiment (Section 7.4 reproduction)")
    for phase in ("plain", "pc_cold", "pc_warm", "bee"):
        stats = results[phase]
        print(
            f"  {phase:8s} avg hops {stats.avg_hops:5.2f} "
            f"({stats.lookups} lookups, {stats.misses} misses)"
        )
    print(f"  objects proactively replicated: {results['replicated']}")
    loc = results["loc"]
    print(f"  evolution code: {loc['evolution']} of {loc['total']} lines")
