"""Hexagon/prism designs on complete graphs.

Constructs decompositions, maximum packings, and minimum coverings of K_n
into 6-cycles and prisms, verifies arbitrary designs independently, and
certifies by search that the three exceptional orders admit none.
"""

from .bipartite import c6_decompose_bipartite, side_partition
from .constructions import (
    InfeasibleOrderError,
    hexagon_plus_factor,
    join_layout,
    max_multipack,
    min_multicover,
    multidecompose,
    prism_minus_matching,
    prism_to_two_hexagons,
)
from .core import (
    Complete,
    CompleteBipartite,
    Design,
    Explicit,
    Hexagon,
    InvalidBlockError,
    Kind,
    Prism,
    block_edges,
    canonical_form,
    recognize,
    relabel_block,
    relabel_design,
)
from .designfile import DesignFileError, dumps_design, load_design, loads_design, save_design
from .feasibility import (
    FeasibilityReport,
    UnsupportedOrderError,
    classify,
    leave_lower_bound,
    nonexistence_reason,
    padding_lower_bound,
)
from .search import (
    InfeasibleBoundError,
    MultigraphHostError,
    NonexistenceReport,
    SearchConfig,
    SearchOutcome,
    SearchStats,
    Status,
    confirm_nonexistence,
    find_extremal,
    search_multidecomposition,
)
from .verifier import Finding, VerificationReport, incidence_table, verify_design

__version__ = "0.1.0"

__all__ = [
    "Complete",
    "CompleteBipartite",
    "Design",
    "DesignFileError",
    "Explicit",
    "FeasibilityReport",
    "Finding",
    "Hexagon",
    "InfeasibleBoundError",
    "InfeasibleOrderError",
    "InvalidBlockError",
    "Kind",
    "MultigraphHostError",
    "NonexistenceReport",
    "Prism",
    "SearchConfig",
    "SearchOutcome",
    "SearchStats",
    "Status",
    "UnsupportedOrderError",
    "VerificationReport",
    "block_edges",
    "c6_decompose_bipartite",
    "canonical_form",
    "classify",
    "confirm_nonexistence",
    "dumps_design",
    "find_extremal",
    "hexagon_plus_factor",
    "incidence_table",
    "join_layout",
    "leave_lower_bound",
    "load_design",
    "loads_design",
    "max_multipack",
    "min_multicover",
    "multidecompose",
    "nonexistence_reason",
    "padding_lower_bound",
    "prism_minus_matching",
    "prism_to_two_hexagons",
    "recognize",
    "relabel_block",
    "relabel_design",
    "save_design",
    "search_multidecomposition",
    "side_partition",
    "verify_design",
]
