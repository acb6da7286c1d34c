"""Seeded inputs for the four workloads.

Every workload draws its ops from a small, fixed universe (jolden driver
x input variant, serve program state, CorONA epoch script) whose outputs
are pinned in ``reference.json`` by ``reference.py`` on the ``walker``
backend.  A run seed only picks the order and the variants, so any seed
is checkable against the pinned outputs, and the mix of op kinds (and,
as far as the inputs allow, their cost) in a run of whole cycles does not
depend on the seed.

Nothing here imports ``repro`` at module level: the sources of the J&s
programs are read through :func:`jolden_source` and
:func:`corona_source` only when needed.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import re
from typing import Dict, Iterator, List, Tuple

WORKLOADS = ("jolden-steady", "cold-run", "serve-edit", "views-evolve")

# ---------------------------------------------------------------------------
# jolden

#: Input variants per seeded jolden driver (drivers without a seed
#: parameter have one).
VARIANTS = 4

#: name -> (steady args, small args, index of the seed argument or None).
#: Steady args are sized so one ``Main.run`` under codegen takes 50-100 ms
#: on a 2-core x86 box, as evenly as the drivers allow, so the median op
#: sits inside one mode rather than between two.  Small args make a cold
#: ``repro run`` dominated by start-up, not by the program.
JOLDEN: Dict[str, Tuple[Tuple, Tuple, object]] = {
    "bh": ((24, 4, 7), (8, 1, 7), 2),
    "bisort": ((8, 12345), (5, 12345), 1),
    "em3d": ((128, 4, 42, 777), (16, 2, 2, 777), 3),
    "health": ((3, 40, 42), (2, 4, 42), 2),
    "mst": ((130, 321), (16, 321), 1),
    "perimeter": ((64,), (8,), None),
    "power": ((4, 4, 5, 24), (2, 2, 2, 2), None),
    "treeadd": ((12, 4), (6, 2), None),
    "tsp": ((200, 99), (16, 99), 1),
    "voronoi": ((85, 5), (12, 5), 1),
}
DRIVERS = tuple(JOLDEN)


def variants(name: str) -> int:
    return VARIANTS if JOLDEN[name][2] is not None else 1


def jolden_args(name: str, variant: int, small: bool = False) -> Tuple:
    steady, tiny, seed_at = JOLDEN[name]
    args = list(tiny if small else steady)
    if seed_at is not None:
        args[seed_at] += 1000 * variant
    return tuple(args)


def jolden_cycles(seed: int) -> Iterator[List[Tuple[str, int]]]:
    """Endless cycles of ``(driver, variant)`` ops: every cycle runs each
    of the ten drivers once, in a seeded order.  Cycle ``k`` runs variant
    ``k`` (mod the driver's variants): variants differ in cost, so the
    seed picks only the order and n cycles cost the same under any seed."""
    rng = random.Random(seed)
    for k in itertools.count():
        order = list(DRIVERS)
        rng.shuffle(order)
        yield [(name, k % variants(name)) for name in order]


def jolden_source(name: str) -> str:
    from repro.programs import jolden

    return jolden.BY_NAME[name].SOURCE


def cold_source(name: str, variant: int) -> str:
    """The driver's program plus a no-argument ``Bench.main`` entry that
    calls ``Main.run`` on the small input."""
    source = jolden_source(name)
    ret = re.search(r"(\w+) run\(", source).group(1)
    args = ", ".join(str(a) for a in jolden_args(name, variant, small=True))
    return (
        source
        + f"\nclass Bench {{\n  {ret} main() {{\n"
        + f"    Main m = new Main();\n    return m.run({args});\n  }}\n}}\n"
    )


def cold_file(name: str, variant: int) -> str:
    return f"{name}-{variant}.jns"


# ---------------------------------------------------------------------------
# serve-edit

#: The one line of ``Bench.main`` that edits rewrite.  Every variant keeps
#: the line count, so a good edit changes a body only (a graft).  They
#: differ only in the workload's random seed, so a run costs about the
#: same whichever state the seeded edit chain is in.
GOOD_LINES = tuple(
    f"    int bad = m.workload(net, 80, 48, {seed});"
    for seed in (101, 202, 303, 404, 505, 606)
)
#: Ill-typed rewrites of the same line; their ``JNS-*`` codes are pinned.
ILL_LINES = (
    '    int bad = m.workload(net, "sixty", 48, 101);',
    "    boolean bad = m.workload(net, 60, 48, 101);",
    "    int bad = m.workload(net, 60, 48);",
)
#: Field lines of ``Bench``: switching between them changes the class's
#: field set, a signature edit the incremental checker rebuilds from
#: scratch.
SHAPES = ("  int rounds;", "  int rounds; int spare;")

_BENCH = """
class Bench {{
{shape}
  int main() {{
    Main m = new Main();
    corona!.Net net = m.boot(16);
    m.publishAll(net, 48);
{line}
    return net.totalHops * 10 + bad;
  }}
}}
"""


def corona_source() -> str:
    from repro.programs.corona.source import SOURCE

    return SOURCE


def serve_state_key(state: Tuple[str, int, int]) -> str:
    kind, index, shape = state
    return f"{kind}{index}-s{shape}"


def serve_source(corona: str, state: Tuple[str, int, int]) -> str:
    kind, index, shape = state
    line = (GOOD_LINES if kind == "good" else ILL_LINES)[index]
    return corona + _BENCH.format(shape=SHAPES[shape], line=line)


def serve_states() -> List[Tuple[str, int, int]]:
    return [
        (kind, i, shape)
        for kind, lines in (("good", GOOD_LINES), ("ill", ILL_LINES))
        for i in range(len(lines))
        for shape in range(len(SHAPES))
    ]


#: One block of the edit chain, as episodes shuffled per block.  ``body``
#: edits a body and runs; ``sig`` switches the field set and runs;
#: ``ill`` makes the program ill-typed, checks (the pinned rejection),
#: repairs and runs; ``warm`` runs with no edit since the last run;
#: ``check`` checks a good program.  Warm runs are the largest group, so
#: the median op is a warm run, not the boundary between two op kinds.
#: One signature edit per 48 episodes keeps the scratch rebuilds and the
#: GC pauses that some of them take fewer than the latency tail's ten
#: samples, so the tail falls among the runs after a rebuild, a dense
#: group, not at the edge of that sparse one.
EPISODES = ("sig",) + ("ill",) * 2 + ("body",) * 8 + ("check",) * 4 + ("warm",) * 32

INITIAL_STATE = ("good", 0, 0)


def serve_blocks(seed: int) -> Iterator[List[Tuple[str, Tuple[str, int, int]]]]:
    """Endless blocks of ``(op, state)``: for ``edit`` the state the edit
    installs, for ``run``/``check`` the state the op runs against."""
    rng = random.Random(seed)
    good, shape = INITIAL_STATE[1], INITIAL_STATE[2]

    def other_good() -> int:
        return (good + 1 + rng.randrange(len(GOOD_LINES) - 1)) % len(GOOD_LINES)

    while True:
        episodes = list(EPISODES)
        rng.shuffle(episodes)
        ops: List[Tuple[str, Tuple[str, int, int]]] = []
        for ep in episodes:
            if ep == "body":
                good = other_good()
                ops.append(("edit", ("good", good, shape)))
            elif ep == "sig":
                shape = 1 - shape
                ops.append(("edit", ("good", good, shape)))
            elif ep == "ill":
                ill = ("ill", rng.randrange(len(ILL_LINES)), shape)
                good = other_good()
                ops += [("edit", ill), ("check", ill),
                        ("edit", ("good", good, shape))]
            if ep == "check":
                ops.append(("check", ("good", good, shape)))
            else:
                ops.append(("run", ("good", good, shape)))
        yield ops


# ---------------------------------------------------------------------------
# views-evolve

FAMILIES = ("corona", "pccorona", "beecorona")
RING, OBJECTS, SCRIPTS = 16, 64, 8
#: Fetches per client poll under each family, inverse to a fetch's cost,
#: so polls cost about the same under every family and the median op
#: sits inside one mode.
POLL_FETCHES = {"corona": 64, "pccorona": 16, "beecorona": 32}
#: Ops per family phase: every fifteenth op publishes a new feed version.
#: The fast writes (publishes, the pccorona evolution) then balance the
#: slow ones (polls of the dearest family, the beecorona evolution), so
#: the median op sits inside one family's polls, not between two.  The
#: phases are long enough that the beecorona evolutions a GC pause hits,
#: the slowest ops, stay fewer than the latency tail's ten samples: the
#: tail then falls among the other beecorona evolutions, a dense group.
PHASE_OPS, PUBLISH_EVERY = 60, 15
#: Zipf-like feed popularity, p(k) ~ 1/(k+1), as cumulative weights.
_CUM: List[float] = []
for _k in range(OBJECTS):
    _CUM.append((_CUM[-1] if _CUM else 0.0) + 1.0 / (_k + 1))


def views_script(index: int) -> List[Tuple]:
    """One epoch on a freshly booted ring: a phase of client polls and
    publishes under each family, with the live evolutions
    ``corona -> pccorona -> beecorona`` at fixed op indices.  A poll is
    ``("poll", family, start node, keys)``; a publish is ``("publish",
    key, version, content)``; an evolution is ``("evolve", family)``."""
    rng = random.Random(7919 * (index + 1))
    versions = [1] * OBJECTS
    ops: List[Tuple] = []
    for phase, family in enumerate(FAMILIES):
        if phase:
            ops.append(("evolve", family))
        for i in range(PHASE_OPS):
            if i % PUBLISH_EVERY == PUBLISH_EVERY - 1:
                key = rng.choices(range(OBJECTS), cum_weights=_CUM)[0]
                versions[key] += 1
                ops.append(("publish", key, versions[key],
                            f"feed-{key}-v{versions[key]}"))
            else:
                keys = rng.choices(range(OBJECTS), cum_weights=_CUM,
                                   k=POLL_FETCHES[family])
                ops.append(("poll", family, rng.randrange(RING), tuple(keys)))
    return ops


def views_epochs(seed: int) -> Iterator[int]:
    """Endless epoch script indices: each cycle of ``SCRIPTS`` epochs runs
    every script once, in a seeded order."""
    rng = random.Random(seed)
    while True:
        order = list(range(SCRIPTS))
        rng.shuffle(order)
        yield from order


def digest(values) -> str:
    return hashlib.sha1(repr(values).encode("utf-8")).hexdigest()[:16]
