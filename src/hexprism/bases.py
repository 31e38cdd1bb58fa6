"""The bundled design catalog: one ordered table from key to data file.

Each file under data/ holds a whole 0-based design, frozen so builds never
pay the search cost.  It is read through the package's own loader, as
pkgutil.get_data does, so the package works from a directory or a zip.
get verifies an entry on first access and caches it; a failing file is a
packaging defect and raises.  Decompositions, packings and coverings must
use both block shapes; the other entries use one.
"""

from __future__ import annotations

import os
from _thread import allocate_lock

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
_lock = allocate_lock()  # the type threading.Lock returns


def keys() -> tuple[str, ...]:
    return tuple(FILES)


def load_data_design(key: str) -> Design:
    """The design in the key's data file; raises unless it verifies."""
    path = os.path.join(os.path.dirname(__file__), "data", f"{FILES[key]}.json")
    design = loads_design(__loader__.get_data(path))
    mixed = key.partition(":")[0] in _MIXED
    report = verify_design(design, require_both_types=mixed)
    if not report.valid:
        raise RuntimeError(
            f"bundled design {key!r} failed verification: "
            + "; ".join(f.code for f in report.failures)
        )
    return design


def get(key: str) -> Design:
    """The key's catalog entry, loaded and verified once, then cached."""
    with _lock:
        if key not in _cache:
            if key not in FILES:
                raise KeyError(f"no catalog entry for {key!r}")
            _cache[key] = load_data_design(key)
        return _cache[key]


load_base = get
