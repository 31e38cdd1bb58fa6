"""Counting arithmetic for orders of complete graphs.

A design on K_n spends 6 edges per hexagon and 9 per prism, so block counts
(x, y) solve 6x + 9y = n(n-1)/2 and each vertex's incidences (p, q) solve
2p + 3q = n - 1.  This module holds every rule about orders: which admit
a decomposition, which block-count cases of the exceptional orders fall to
incidence arithmetic, and the extremal leave and padding sizes, which are
the arithmetic bounds apart from K7's padding.
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

# the orders whose minima classify explains: K7's padding is the one minimum
# above its arithmetic bound, and 9 and 10 pad by a multiple of 3
_ANNOTATIONS = {
    7: "minimum padding is 6, not the arithmetic bound 3: find_extremal(Complete(7), "
       "COVERING, 3) exhausts, so no covering of K7 pads 3 edges, the next size the "
       "block-count equation allows is 6, and 6 is attained",
    9: _MOD3_ANNOTATION,
    10: _MOD3_ANNOTATION,
}


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
    """All (x, y) with 6x + 9y = edge_count; x, y >= 1 when require_both.

    A solution needs 3 | edge_count and 2x + 3y = edge_count / 3, so y has
    the parity of edge_count / 3: only every other y from the first such one
    is tried."""
    if edge_count % 3:
        return set()
    low = 1 if require_both else 0
    first, last = low + (edge_count // 3 - low) % 2, (edge_count - 6 * low) // 9
    return {((edge_count - 9 * y) // 6, y) for y in range(first, last + 1, 2)}


def degree_solutions(degree: int) -> set[tuple[int, int]]:
    """All (p, q) with 2p + 3q = degree, p, q >= 0."""
    return {((degree - 3 * q) // 2, q) for q in range(degree // 3 + 1)
            if (degree - 3 * q) % 2 == 0}


def _analytic_eliminations(n: int) -> dict[tuple[int, int], str]:
    """Each block-count case (x, y) of K_n that incidence arithmetic rules
    out, with its reason, in sorted case order."""
    allowed_q = {q for _, q in degree_solutions(n - 1)}
    eliminated = {}
    for x, y in sorted(block_count_solutions(n * (n - 1) // 2, True)):
        in_prism = sorted(q for q in allowed_q if 1 <= q <= y)
        if not in_prism:
            eliminated[x, y] = (
                f"every prism vertex would need a prism count q with 1 <= q <= {y} "
                f"and 2p + 3q = {n - 1} solvable, but the admissible counts are "
                f"{sorted(allowed_q)}"
            )
        elif in_prism == [y] and 9 * y > 15:
            eliminated[x, y] = (
                f"every prism vertex must lie in all {y} prisms, so the prisms share "
                f"one 6-vertex support, yet {9 * y} edges exceed the 15 available there"
            )
        elif 6 * y < n and 0 not in allowed_q:
            eliminated[x, y] = (
                f"{y} prism(s) touch at most {6 * y} of the {n} vertices, and a vertex "
                f"outside every prism would need 2p = {n - 1}, which is odd"
            )
    return eliminated


def nonexistence_reason(n: int) -> str | None:
    """Why K_n, n >= 6, has no decomposition, or None when one exists; at
    an exceptional order, which block-count cases (x, y) incidence arithmetic
    rules out and which only the search in confirm_nonexistence does."""
    if n < 6:
        raise UnsupportedOrderError(f"order {n} is below 6")
    if n % 3 == 2:
        return (
            f"n = {n} has n(n-1)/2 not divisible by 3, so 6x + 9y = n(n-1)/2 "
            "has no integer solutions"
        )
    if n not in EXCEPTIONAL_ORDERS:
        return None
    analytic = _analytic_eliminations(n)
    searched = sorted(block_count_solutions(n * (n - 1) // 2, True) - analytic.keys())
    return (
        f"n = {n} is one of the exceptional orders {{7, 9, 10}}, where no block-count case "
        "(x, y) with both shapes survives: incidence arithmetic rules out "
        + ", ".join(map(str, analytic))
        + (f", and only the exhaustive search in confirm_nonexistence({n}) rules out "
           + ", ".join(map(str, searched)) if searched else "")
    )


def has_decomposition(n: int) -> bool:
    """Whether K_n, n >= 6, splits into hexagons and prisms with at least
    one of each, without building the rest of the report."""
    return nonexistence_reason(n) is None


def classify(n: int) -> FeasibilityReport:
    """Existence and extremal leave/padding sizes for K_n, n >= 6: the
    arithmetic bounds, apart from K7's padding."""
    exists = has_decomposition(n)
    return FeasibilityReport(
        n=n,
        decomposition_exists=exists,
        min_leave=_least_change(n, -1, exists),
        min_padding=6 if n == 7 else _least_change(n, 1, exists),
        block_solutions=frozenset(block_count_solutions(n * (n - 1) // 2, True)),
        degree_solutions=frozenset(degree_solutions(n - 1)),
        annotation=_ANNOTATIONS.get(n),
    )


def _least_change(n: int, sign: int, exists: bool) -> int:
    """Least r for which n(n-1)/2 + sign * r edges admit block counts with
    both shapes: 0 if K_n has a decomposition (exists), else positive."""
    if exists:
        return 0
    edge_count = n * (n - 1) // 2
    # every block spends a multiple of 3 edges, so only every third r can fit
    r = 1 + -(edge_count + sign) * sign % 3
    while not block_count_solutions(edge_count + sign * r, True):
        r += 3
    return r


def leave_lower_bound(n: int) -> int:
    """Least leave size consistent with the block-count equation for K_n."""
    return _least_change(n, -1, has_decomposition(n))


def padding_lower_bound(n: int) -> int:
    """Least padding size consistent with the block-count equation for K_n."""
    return _least_change(n, 1, has_decomposition(n))
