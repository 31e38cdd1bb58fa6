"""The bundled designs: one ordered table from catalog key to data file.

Each file under data/ holds a whole 0-based design, frozen so builds never
pay the search cost.  load_base verifies an entry on first access and caches
it; a failing file is a packaging defect and raises.  Decompositions,
packings and coverings must use both block shapes; the other entries use one.
"""

from __future__ import annotations

import threading
from importlib import resources

from .core import Design
from .designfile import loads_design
from .verifier import verify_design

# in the order `hexprism catalog` lists them
FILES = {
    "bipartite:4x6": "b46_hexagons",
    "bipartite:6x6": "b66_hexagons",
    "covering:7": "k7_covering",
    "covering:8": "k8_covering",
    "covering:11": "k11_covering",
    "covering:17": "k17_covering",
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
_lock = threading.Lock()


def load_data_design(key: str) -> Design:
    """The design in the key's data file; raises unless it verifies."""
    name = FILES[key]
    text = resources.files("hexprism").joinpath("data", f"{name}.json").read_text()
    design = loads_design(text)
    mixed = key.partition(":")[0] in _MIXED
    report = verify_design(design, require_both_types=mixed)
    if not report.valid:
        raise RuntimeError(
            f"bundled design {key!r} failed verification: "
            + "; ".join(f.code for f in report.failures)
        )
    return design


def load_base(key: str) -> Design:
    """The key's catalog entry, loaded and verified once, then cached."""
    with _lock:
        if key not in _cache:
            _cache[key] = load_data_design(key)
        return _cache[key]
