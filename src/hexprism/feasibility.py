"""Counting arithmetic for orders of complete graphs.

A design on K_n spends 6 edges per hexagon and 9 per prism, so block counts
(x, y) solve 6x + 9y = n(n-1)/2 and each vertex's incidences (p, q) solve
2p + 3q = n - 1.  This module classifies which orders admit a decomposition
and what the extremal leave and padding sizes are.
"""

from __future__ import annotations

from .core import Value

EXCEPTIONAL_ORDERS = (7, 9, 10)

# the most host vertices a search may run on without a node_budget
UNBUDGETED_VERTEX_LIMIT = 10

_MOD3_ANNOTATION = (
    "minimum padding is 3: every block covers a multiple of 3 edges and "
    "n(n-1)/2 is divisible by 3 here, so any padding size must be a multiple "
    "of 3, and 3 is attained"
)


class UnsupportedOrderError(ValueError):
    """Raised for orders below 6, where no design with both shapes fits."""


class FeasibilityReport(Value):
    __slots__ = ("n", "decomposition_exists", "min_leave", "min_padding", "block_solutions",
                 "degree_solutions", "annotation")

    def __init__(self, n: int, decomposition_exists: bool, min_leave: int, min_padding: int,
                 block_solutions: frozenset[tuple[int, int]],
                 degree_solutions: frozenset[tuple[int, int]], annotation: str | None = None):
        self._assign(n, decomposition_exists, min_leave, min_padding, block_solutions,
                     degree_solutions, annotation)


def block_count_solutions(edge_count: int, require_both: bool) -> set[tuple[int, int]]:
    """All (x, y) with 6x + 9y = edge_count; x, y >= 1 when require_both."""
    low = 1 if require_both else 0
    solutions = set()
    for y in range(low, edge_count // 9 + 1):
        rest = edge_count - 9 * y
        if rest % 6 == 0 and rest // 6 >= low:
            solutions.add((rest // 6, y))
    return solutions


def degree_solutions(degree: int) -> set[tuple[int, int]]:
    """All (p, q) with 2p + 3q = degree, p, q >= 0."""
    solutions = set()
    for q in range(degree // 3 + 1):
        rest = degree - 3 * q
        if rest % 2 == 0:
            solutions.add((rest // 2, q))
    return solutions


def nonexistence_reason(n: int) -> str | None:
    """Why K_n has no decomposition, or None when one exists."""
    if n in EXCEPTIONAL_ORDERS:
        return (
            f"n = {n} is one of the exceptional orders {{7, 9, 10}}, where the "
            "block and degree equations leave no room for both shapes"
        )
    if n % 3 == 2:
        return (
            f"n = {n} has n(n-1)/2 not divisible by 3, so 6x + 9y = n(n-1)/2 "
            "has no integer solutions"
        )
    return None


def has_decomposition(n: int) -> bool:
    """Whether K_n, n >= 6, splits into hexagons and prisms with at least
    one of each, without building the rest of the report."""
    if n < 6:
        raise UnsupportedOrderError(f"order {n} is below 6")
    return n % 3 in (0, 1) and n not in EXCEPTIONAL_ORDERS


def classify(n: int) -> FeasibilityReport:
    """Existence and extremal leave/padding sizes for K_n, n >= 6."""
    exists = has_decomposition(n)
    if exists:
        min_leave = min_padding = 0
    elif n == 7:
        min_leave = min_padding = 6
    elif n in (9, 10):
        min_leave = min_padding = 3
    else:
        min_leave, min_padding = 1, 2
    return FeasibilityReport(
        n=n,
        decomposition_exists=exists,
        min_leave=min_leave,
        min_padding=min_padding,
        block_solutions=frozenset(block_count_solutions(n * (n - 1) // 2, True)),
        degree_solutions=frozenset(degree_solutions(n - 1)),
        annotation=_MOD3_ANNOTATION if n in (9, 10) else None,
    )


def _least_change(n: int, sign: int) -> int:
    """Least r, nonzero unless K_n has a decomposition, for which
    n(n-1)/2 + sign * r edges admit block counts with both shapes."""
    edge_count = n * (n - 1) // 2
    r = 0 if has_decomposition(n) else 1
    while not block_count_solutions(edge_count + sign * r, True):
        r += 1
    return r


def leave_lower_bound(n: int) -> int:
    """Least leave size consistent with the block-count equation for K_n."""
    return _least_change(n, -1)


def padding_lower_bound(n: int) -> int:
    """Least padding size consistent with the block-count equation for K_n."""
    return _least_change(n, 1)
