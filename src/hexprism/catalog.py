"""The bundled design catalog, keyed by strings such as "packing:9".

Every entry is a whole design frozen in the data file that bases.FILES names,
verified on first access and cached by bases.load_base.
"""

from __future__ import annotations

# nothing here calls load_data_design, c6_decompose_bipartite or verify_design;
# perfbench/spans.py looks them up on this module to wrap them, so they stay
from .bases import FILES, load_base, load_data_design
from .bipartite import c6_decompose_bipartite
from .core import Design
from .verifier import verify_design


def keys() -> tuple[str, ...]:
    return tuple(FILES)


def get(key: str) -> Design:
    """The catalog entry for the key, verified once and cached."""
    if key not in FILES:
        raise KeyError(f"no catalog entry for {key!r}")
    return load_base(key)
