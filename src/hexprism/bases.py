"""The bundled designs: one ordered table from catalog key to data file.

Each file under data/ holds a 0-based design that was found once and frozen
so builds never pay the search cost.  A design is verified the first time it
is requested and then cached; a failing file is a packaging defect and
raises.  Decompositions, packings and coverings must use both block shapes;
the hexagon, prism and bipartite ingredients use one.
"""

from __future__ import annotations

import threading
from importlib import resources

from .core import Design
from .designfile import loads_design
from .verifier import verify_design

# in the order `hexprism catalog` lists them; covering:17 is assembled from
# its listed blocks plus two fills, see catalog.py
FILES = {
    "bipartite:4x6": "b46_hexagons",
    "bipartite:6x6": "b66_hexagons",
    "covering:7": "k7_covering",
    "covering:8": "k8_covering",
    "covering:11": "k11_covering",
    "covering:17": "k17_covering_listed",
    "decomposition:6": "k6_decomposition",
    "decomposition:13": "k13_decomposition",
    "decomposition:15": "k15_decomposition",
    "decomposition:19": "k19_decomposition",
    "hexagons:9": "k9_hexagons",
    "packing:7": "k7_packing",
    "packing:8": "k8_packing",
    "packing:9": "k9_packing",
    "packing:11": "k11_packing",
    "packing:17": "k17_packing",
    "prisms:10": "k10_prisms",
}

_MIXED = ("decomposition", "packing", "covering")

_cache: dict[str, Design] = {}
# re-entrant: building covering:17 loads hexagons:9 and the bipartite seeds
# while the lock is held
_lock = threading.RLock()


def cached(key: str, build) -> Design:
    """The entry for the key: build() on first access, then the kept result."""
    with _lock:
        design = _cache.get(key)
        if design is None:
            design = _cache[key] = build()
    return design


def check(key: str, report) -> None:
    """Raise unless the verification report of the key's entry is valid."""
    if not report.valid:
        raise RuntimeError(
            f"bundled design {key!r} failed verification: "
            + "; ".join(f.code for f in report.failures)
        )


def load_data_design(key: str, verify: bool = True) -> Design:
    """The design in the key's data file, verified unless verify is False."""
    name = FILES[key]
    text = resources.files("hexprism").joinpath("data", f"{name}.json").read_text()
    design = loads_design(text)
    if verify:
        mixed = key.partition(":")[0] in _MIXED
        check(key, verify_design(design, require_both_types=mixed))
    return design


def load_base(key: str) -> Design:
    """A catalog entry stored whole in its data file, verified once and cached."""
    return cached(key, lambda: load_data_design(key))
