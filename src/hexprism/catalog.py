"""The bundled design catalog, keyed by strings such as "packing:9".

Every entry but one loads from its data file through the bases module.  The
17-vertex covering entry is assembled on first access from its listed
blocks plus two fills: the 9-vertex hexagon decomposition relabeled onto the
top nine vertices, and a bipartite hexagon decomposition between the first
eight vertices and the top six.  Every entry is verified before it is cached.
"""

from __future__ import annotations

from .bases import FILES, cached, check, load_base, load_data_design
from .bipartite import c6_decompose_bipartite
from .core import CompleteBipartite, Design, Kind, relabel_block
from .verifier import verify_design

_ASSEMBLED = "covering:17"


def keys() -> tuple[str, ...]:
    return tuple(FILES)


def _assemble_k17_covering() -> Design:
    listed = load_data_design(_ASSEMBLED, verify=False)
    nine = load_base("hexagons:9")
    fill_one = tuple(relabel_block(b, range(8, 17)) for b in nine.blocks)
    fill_two = c6_decompose_bipartite(
        CompleteBipartite(frozenset(range(8)), frozenset(range(11, 17)))
    ).blocks
    design = Design(
        host=listed.host,
        kind=Kind.COVERING,
        blocks=listed.blocks + fill_one + fill_two,
        padding=listed.padding,
    )
    check(_ASSEMBLED, verify_design(design))
    return design


def get(key: str) -> Design:
    """The catalog entry for the key, verified once and cached."""
    if key == _ASSEMBLED:
        return cached(key, _assemble_k17_covering)
    if key not in FILES:
        raise KeyError(f"no catalog entry for {key!r}")
    return load_base(key)
