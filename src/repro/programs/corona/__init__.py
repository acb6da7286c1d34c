"""CorONA: live evolution of a running publish-subscribe system
(Section 7.4).

The paper ports CorONA (an RSS feed aggregator over the Beehive
replication framework over the Pastry DHT) to J&s and evolves the
*running* system from passive caching (PC-Pastry) to active replication
(Beehive) by changing the views of the host-node objects.

Substitutions (recorded in DESIGN.md): the Pastry overlay becomes a
deterministic in-process ring with power-of-two finger tables (Chord-like
greedy prefix routing — same O(log n) hop shape); the network is
synchronous; feeds are small content strings.  All shared structures are
linked (nodes, fingers, store entries) because arrays of family types do
not participate in implicit view adaptation.

Family structure:

* ``corona``    — the base system: ring of ``Node`` objects with finger
  tables, per-node object ``Store``, ``DataObject`` feeds, a ``Net``
  aggregate with fetch/publish and hop-count statistics, and two hook
  methods (``cacheProbe``/``recordFetch``) that do nothing;
* ``pccorona``  — PC-Pastry-style passive caching: ``Node`` gains an
  (unshared, masked) ``CacheMgr`` and overrides the hooks to consult and
  fill a per-node cache along the lookup path;
* ``beecorona`` — Beehive-style active replication: ``Node`` gains an
  unshared ``ReplMgr``; a maintenance round proactively replicates
  popular objects to every node, making popular fetches O(1).

The evolution code (``Main.evolveToPC`` / ``Main.evolveToBee``) changes
the view of each live host node and initializes the masked manager field,
exactly the paper's recipe; it is a few lines against the whole system.

Package layout: :mod:`.source` holds the J&s program, :mod:`.system`
the synchronous experiment driver, and :mod:`.driver` the chaos harness
(live evolution of one heap under in-flight traffic, seeded fuel faults,
per-request oracles — see ``docs/IMPLEMENTATION.md``, "CorONA under
chaos").
"""

from __future__ import annotations

from .driver import (
    TRANSITIONS,
    ChaosCoronaDriver,
    ChaosReport,
    feed_content,
    parse_feed,
    run_chaos,
)
from .source import SOURCE, evolution_loc, program
from .system import (
    FAMILY_CODES,
    CoronaSystem,
    PhaseStats,
    main,
    run_experiment,
)

__all__ = [
    "SOURCE",
    "program",
    "evolution_loc",
    "FAMILY_CODES",
    "CoronaSystem",
    "PhaseStats",
    "run_experiment",
    "main",
    "TRANSITIONS",
    "ChaosCoronaDriver",
    "ChaosReport",
    "feed_content",
    "parse_feed",
    "run_chaos",
]

if __name__ == "__main__":
    main()
