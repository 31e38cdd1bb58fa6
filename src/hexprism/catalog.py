"""The bundled design catalog, keyed by strings such as "packing:9"; bases
owns it.  perfbench/spans.py wraps the names below on this module too."""

from .bases import get, keys, load_base, load_data_design, verify_design  # noqa: F401
from .bipartite import c6_decompose_bipartite  # noqa: F401
