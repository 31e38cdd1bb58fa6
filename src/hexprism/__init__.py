"""Hexagon/prism designs on complete graphs.

Constructs decompositions, maximum packings, and minimum coverings of K_n
into 6-cycles and prisms, verifies arbitrary designs independently, and
certifies by search that the three exceptional orders admit none.

Each public name is imported from its submodule on first access, so a
program loads only the modules it uses: the CLI, say, loads the search
engine only for `hexprism search`.
"""

__version__ = "0.1.0"

# each submodule and the public names it defines
_MODULES = {
    "bipartite": ("c6_decompose_bipartite", "side_partition"),
    "constructions": (
        "InfeasibleOrderError", "hexagon_plus_factor", "join_layout", "max_multipack",
        "min_multicover", "multidecompose", "prism_minus_matching", "prism_to_two_hexagons",
    ),
    "core": (
        "Complete", "CompleteBipartite", "Design", "Explicit", "Hexagon", "InvalidBlockError",
        "Kind", "Prism", "block_edges", "canonical_form", "recognize", "relabel_block",
        "relabel_design",
    ),
    "designfile": ("DesignFileError", "dumps_design", "load_design", "loads_design", "save_design"),
    "feasibility": (
        "FeasibilityReport", "UnsupportedOrderError", "classify", "leave_lower_bound",
        "nonexistence_reason", "padding_lower_bound",
    ),
    "search": (
        "InfeasibleBoundError", "MultigraphHostError", "NonexistenceReport", "SearchConfig",
        "SearchOutcome", "SearchStats", "Status", "confirm_nonexistence", "find_extremal",
        "search_multidecomposition",
    ),
    "verifier": ("Finding", "VerificationReport", "incidence_table", "verify_design"),
}
# the table __getattr__ reads: each public name and its submodule
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_EXPORTS)

# loaded on access too, as `import hexprism` once loaded them all
_SUBMODULES = {"bases", "catalog", *_MODULES}


def __getattr__(name: str):
    # __import__ imports as the import statement does, so -X importtime lists
    # the submodule, as it does not for importlib.import_module
    if name in _SUBMODULES:
        return __import__(f"{__name__}.{name}", fromlist=["__name__"])
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{_EXPORTS[name]}", fromlist=[name]), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
