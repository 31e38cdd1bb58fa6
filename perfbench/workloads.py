"""Seeded inputs for the three workloads.

A workload is an endless sequence of cycles made from the seed alone, each a
list of steps with the same mix of calls, so a run of whole cycles has the
same mix whatever the seed.  A step is a
JSON-ready dict: a CLI call (`op` names it, `argv` is passed to
`hexprism.cli`, `check` says what the output must be), a library search
instance, or an untimed preparation step (`mutate`, `cleanup`).  The same seed
gives the same steps, so a traced replay sees the inputs an untraced run saw.
"""

from __future__ import annotations

import itertools
import random

from oracle import expected_sizes

KINDS = ("decomposition", "packing", "covering")

CATALOG_KEYS = (
    "bipartite:4x6", "bipartite:6x6",
    "covering:7", "covering:8", "covering:11", "covering:17",
    "decomposition:6", "decomposition:13", "decomposition:15", "decomposition:19",
    "hexagons:9",
    "packing:7", "packing:8", "packing:9", "packing:11", "packing:17",
    "prisms:10",
)

# CLI search requests of cli-small, each identical to a library instance below
CLI_SEARCHES = (
    (["search", "--n", "9"], "k9-mixed-exhaust", 1),
    (["search", "--n", "12", "--blocks", "both"], "k12-mixed-find", 0),
    (["search", "--host", "bipartite:6x6", "--blocks", "hexagon"], "b6x6-hex-find", 0),
)

_MIXED = {"min_hexagons": 1, "min_prisms": 1, "symmetry_breaking": True}

# library instances of the search workload; node and placement counts are in
# fingerprints.json
SEARCH_INSTANCES = {
    "k15-mixed-find": {"group": "engine", "call": "search", "host": ["complete", 15],
                       "config": dict(_MIXED, node_budget=1_000_000), "shapes": "both"},
    "k12-mixed-find": {"group": "engine", "call": "search", "host": ["complete", 12],
                       "config": dict(_MIXED, node_budget=200_000), "shapes": "both"},
    "k9-mixed-exhaust": {"group": "engine", "call": "search", "host": ["complete", 9],
                         "config": _MIXED, "shapes": "both"},
    "k9-hex-find": {"group": "engine", "call": "search", "host": ["complete", 9],
                    "config": {"prisms": False, "symmetry_breaking": True},
                    "shapes": "hexagon"},
    "k10-prism-find": {"group": "engine", "call": "search", "host": ["complete", 10],
                       "config": {"hexagons": False, "symmetry_breaking": True},
                       "shapes": "prism"},
    "b6x6-hex-find": {"group": "engine", "call": "search", "host": ["bipartite", 6, 6],
                      "config": {"prisms": False, "symmetry_breaking": True,
                                 "node_budget": 50_000},
                      "shapes": "hexagon"},
    "k7-cover3-exhaust": {"group": "extremal", "call": "extremal", "host": ["complete", 7],
                          "kind": "covering", "bound": 3},
    "k8-pack4-exhaust": {"group": "extremal", "call": "extremal", "host": ["complete", 8],
                         "kind": "packing", "bound": 4},
    "k8-pack1-find": {"group": "extremal", "call": "extremal", "host": ["complete", 8],
                      "kind": "packing", "bound": 1},
    "k8-cover2-find": {"group": "extremal", "call": "extremal", "host": ["complete", 8],
                       "kind": "covering", "bound": 2, "node_budget": 200_000},
    "cert-n7": {"group": "certify", "call": "certify", "n": 7},
    "cert-n9": {"group": "certify", "call": "certify", "n": 9},
    "cert-n10": {"group": "certify", "call": "certify", "n": 10},
}

# cli-large: one unit per stratum, in this order, in every cycle
LARGE_BASES = (676, 452, 604, 524, 640, 488)
LARGE_JITTER = 24
MUTATIONS = {
    "drop": ("uncovered-edges",),
    "duplicate": ("overcovered-edges",),
    "retarget": ("uncovered-edges", "overcovered-edges"),
}


def _order(rng: random.Random, low: int, high: int, kind: str) -> int:
    """A seeded order in [low, high] at which `kind` is a real construction:
    decompositions where one exists, packings and coverings where none does."""
    want = kind == "decomposition"
    choices = [n for n in range(low, high + 1) if expected_sizes(n)[0] == want]
    return rng.choice(choices)


def cli_small(seed: int):
    """Cycles of 20 small CLI calls in seeded order: 5 construct-then-verify
    pairs, 4 catalog exports, 3 classify calls and the 3 CLI searches."""
    rng = random.Random(seed)
    for c in itertools.count():
        units = []
        for i in range(5):
            kind = rng.choice(KINDS)
            n = _order(rng, 6, 60, kind) if kind == "decomposition" else rng.randint(6, 60)
            path = f"s{c}_{i}.json"
            units.append([
                {"op": "construct", "argv": ["construct", "--n", str(n), "--kind", kind,
                                             "--output", path],
                 "check": {"type": "design_file", "path": path, "n": n, "kind": kind}},
                {"op": "verify", "argv": ["verify", path],
                 "check": {"type": "verify", "path": path, "rc": 0}},
            ])
        for _ in range(4):
            key = rng.choice(CATALOG_KEYS)
            units.append([{"op": "catalog", "argv": ["catalog", key],
                           "check": {"type": "catalog", "key": key}}])
        for _ in range(3):
            n = rng.randint(6, 60)
            units.append([{"op": "classify", "argv": ["classify", "--n", str(n)],
                           "check": {"type": "classify", "n": n}}])
        for argv, instance, rc in CLI_SEARCHES:
            units.append([{"op": "search", "argv": list(argv),
                           "check": {"type": "search", "instance": instance, "rc": rc}}])
        rng.shuffle(units)
        yield [step for unit in units for step in unit]


def cli_large(seed: int):
    """Cycles of six construct-then-verify pairs, one per order stratum
    between 450 and 700, the kinds in turn; every other pair adds a verify of
    a seeded mutated copy, which must be rejected with the mutation's finding
    codes."""
    rng = random.Random(seed)
    for c in itertools.count():
        cycle = []
        for i, base in enumerate(LARGE_BASES):
            cycle += _large_unit(rng, f"u{c}_{i}", KINDS[i % 3], base, mutate=i % 2 == 0)
        yield cycle


def _large_unit(rng: random.Random, name: str, kind: str, base: int, mutate: bool):
    n = _order(rng, base, base + LARGE_JITTER - 1, kind)
    path, mutated = f"{name}.json", f"{name}.mut.json"
    steps = [
        {"op": "construct", "argv": ["construct", "--n", str(n), "--kind", kind,
                                     "--output", path],
         "check": {"type": "design_file", "path": path, "n": n, "kind": kind}},
        {"op": "verify", "argv": ["verify", path],
         "check": {"type": "verify", "path": path, "rc": 0}},
    ]
    if mutate:
        mutation = {"type": rng.choice(sorted(MUTATIONS)), "at": rng.random(),
                    "position": rng.randrange(6), "pick": rng.random()}
        steps += [
            {"op": "mutate", "src": path, "dst": mutated, "mutation": mutation},
            {"op": "verify-mutated", "argv": ["verify", mutated],
             "check": {"type": "verify", "path": mutated, "rc": 1,
                       "codes": list(MUTATIONS[mutation["type"]])}},
        ]
    return steps + [{"op": "cleanup", "paths": [path, mutated]}]


def search(seed: int):
    """Cycles of one call per library instance, in the listed order.  The
    instances are fixed, so their node counts can be fingerprinted: the seed
    changes nothing here."""
    while True:
        yield [{"op": name, "instance": name, **spec} for name, spec in SEARCH_INSTANCES.items()]


WORKLOADS = {"cli-small": cli_small, "cli-large": cli_large, "search": search}

# steps replayed in one process by a traced run: two cycles of cli-small,
# three units of cli-large, one cycle of search
REPLAY_STEPS = {"cli-small": 40, "cli-large": 13, "search": len(SEARCH_INSTANCES)}


def steps(workload: str, seed: int, count: int) -> list[dict]:
    """The first `count` steps of a workload's sequence."""
    cycles = (step for cycle in WORKLOADS[workload](seed) for step in cycle)
    return list(itertools.islice(cycles, count))


# about how long one cycle takes on a 2-core x86_64 machine
CYCLE_SECONDS = {"cli-small": 10.0, "cli-large": 30.0, "search": 20.0}


def run_cycles(workload: str, seed: int, seconds: float, run_step) -> None:
    """Run whole cycles in a closed loop, as many as take about `seconds`
    (at least one).  The count depends on `seconds` alone, not on how fast
    this run goes, so every run has the same mix of calls."""
    count = max(1, round(seconds / CYCLE_SECONDS[workload]))
    for cycle in itertools.islice(WORKLOADS[workload](seed), count):
        for step in cycle:
            run_step(step)


def mutate(obj: dict, mutation: dict) -> None:
    """Apply one seeded mutation to a parsed complete-host design in place."""
    blocks = obj["blocks"]
    at = int(mutation["at"] * len(blocks))
    if mutation["type"] == "drop":
        del blocks[at]
    elif mutation["type"] == "duplicate":
        blocks.insert(at, blocks[at])
    else:
        block = blocks[at]
        if block["type"] == "hexagon":
            vertices = block["vertices"]
        else:
            vertices = block["triangles"][0] + block["triangles"][1]
        outside = [v for v in range(obj["host"]["n"]) if v not in vertices]
        new = outside[int(mutation["pick"] * len(outside))]
        pos = mutation["position"]
        if block["type"] == "hexagon":
            block["vertices"] = vertices[:pos] + [new] + vertices[pos + 1:]
        else:
            tri = [list(t) for t in block["triangles"]]
            tri[pos // 3][pos % 3] = new
            block["triangles"] = tri
