"""Recursive construction of decompositions, packings, and coverings.

A complete graph is split into an ordered join of cliques.  Bundled base
designs land on single parts or on small groups of parts, every remaining
cross pair gets a bipartite hexagon fill, and the concatenation in layout
order is the output.  The exceptional orders have no layout: the MONOLITHIC
table builds each of their packings and coverings from a bundled design,
transforming its first block where needed.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations
from operator import itemgetter

from .bases import get as catalog_get, load_base
from .bipartite import c6_decompose_bipartite
from .core import (
    Complete,
    CompleteBipartite,
    Design,
    Hexagon,
    Kind,
    Prism,
    Value,
    _unchecked,
    canonical_form,
    edge,
)
from .feasibility import FeasibilityReport, classify, has_decomposition, nonexistence_reason


class InfeasibleOrderError(ValueError):
    """The requested construction does not exist at this order."""

    def __init__(self, report: FeasibilityReport, message: str):
        super().__init__(message)
        self.report = report


class Recipe(Value):
    """How one residue class of n is built: head parts, then tail parts.

    head_entry (when set) spans all head parts and alone carries a leave or
    padding.  An even n tiles its tail with parts of 6, each taking
    decomposition:6; an odd n with parts of 12, each taking decomposition:13
    joined with part 0, a single vertex in every odd recipe.  Each cross pair
    left over, unless on a single-vertex part, gets a bipartite fill.
    """

    __slots__ = ("head", "head_entry")

    def __init__(self, head: tuple[int, ...], head_entry: str | None):
        self._assign(head, head_entry)


_D, _P, _C = Kind.DECOMPOSITION, Kind.PACKING, Kind.COVERING
_SIXES = Recipe((), None)
_TENS = Recipe((10,), "prisms:10")

# keyed by (kind, n % 12); the exceptional orders have no decomposition, and
# MONOLITHIC builds their packings and coverings without a layout
RECIPES = {
    (_D, 0): _SIXES,
    (_D, 6): _SIXES,
    (_D, 4): _TENS,
    (_D, 10): _TENS,
    (_D, 1): Recipe((1,), None),
    (_D, 7): Recipe((1, 6, 12), "decomposition:19"),
    (_D, 3): Recipe((1, 14), "decomposition:15"),
    (_D, 9): Recipe((1, 8), "hexagons:9"),
    (_P, 2): Recipe((8,), "packing:8"),
    (_P, 8): Recipe((8,), "packing:8"),
    (_P, 5): Recipe((1, 16), "packing:17"),
    (_P, 11): Recipe((1, 10), "packing:11"),
    (_C, 2): Recipe((8,), "covering:8"),
    (_C, 8): Recipe((8,), "covering:8"),
    (_C, 5): Recipe((1, 4, 12), "covering:17"),
    (_C, 11): Recipe((1, 4, 6), "covering:11"),
}


def join_layout(n: int, kind: Kind) -> tuple[range, ...]:
    """The parts used to build the given kind at order n: consecutive vertex
    ranges that tile 0..n-1.  Orders handled monolithically (and orders where
    the kind does not apply) have no layout and raise with the feasibility
    report."""
    reason = nonexistence_reason(n)
    if kind is Kind.DECOMPOSITION:
        if reason is not None:
            raise InfeasibleOrderError(classify(n), f"no decomposition of order {n}: {reason}")
    elif reason is None:
        raise InfeasibleOrderError(
            classify(n),
            f"order {n} admits a decomposition; {kind.value}s of it have no join layout",
        )
    elif (kind, n) in MONOLITHIC:
        raise InfeasibleOrderError(
            classify(n), f"order {n} is handled monolithically and has no join layout"
        )
    head = RECIPES[kind, n % 12].head
    tail = 12 if n % 2 else 6
    sizes = head + (tail,) * ((n - sum(head)) // tail)
    starts = list(accumulate(sizes, initial=0))
    return tuple(range(a, b) for a, b in zip(starts, starts[1:]))


# ---------------------------------------------------------------------------
# block transformations


def prism_minus_matching(p: Prism) -> tuple[Hexagon, frozenset]:
    """Drop a fixed perfect matching from the prism, leaving a hexagon.

    On the canonical form [a,b,c;d,e,f] the matching is {ab, cf, de}; the
    rung matching would leave two triangles instead, so one triangle edge,
    one rung, and one far-triangle edge are removed.
    """
    cp = canonical_form(p)
    a, b, c = cp.first
    d, e, f = cp.second
    matching = frozenset({edge(a, b), edge(c, f), edge(d, e)})
    return Hexagon((b, c, a, d, f, e)), matching


def hexagon_plus_factor(h: Hexagon) -> tuple[Prism, frozenset]:
    """Add a fixed 1-factor to the hexagon, producing a prism.

    On the canonical form (a,b,c,d,e,f) the added matching is {ac, df, be},
    closing triangles {a,b,c} and {d,e,f} with rungs cd, fa, be.
    """
    ch = canonical_form(h)
    a, b, c, d, e, f = ch.vertices
    matching = frozenset({edge(a, c), edge(d, f), edge(b, e)})
    return Prism((a, b, c), (f, e, d)), matching


def prism_to_two_hexagons(p: Prism) -> tuple[Hexagon, Hexagon, frozenset]:
    """Split the prism into two hexagons at the cost of doubling 3 edges.

    On the canonical form [a,b,c;d,e,f] the hexagons are (a,b,c,f,e,d) and
    (a,c,b,e,f,d); edges bc, ef, ad are used by both and form the padding.
    """
    cp = canonical_form(p)
    a, b, c = cp.first
    d, e, f = cp.second
    first = Hexagon((a, b, c, f, e, d))
    second = Hexagon((a, c, b, e, f, d))
    padding = frozenset({edge(b, c), edge(e, f), edge(a, d)})
    return first, second, padding


# the packings and coverings of the orders without a decomposition or a join
# layout: a bundled design, and the transformation applied to its first block
# (None keeps the design as it is), whose last item is the leave or padding
MONOLITHIC = {
    (_P, 7): ("packing:7", None),
    (_P, 9): ("packing:9", None),
    (_P, 10): ("prisms:10", prism_minus_matching),
    (_C, 7): ("covering:7", None),
    (_C, 9): ("hexagons:9", hexagon_plus_factor),
    (_C, 10): ("prisms:10", prism_to_two_hexagons),
}


# ---------------------------------------------------------------------------
# assembly helpers


def _embed(design: Design, targets) -> tuple[tuple, frozenset, tuple]:
    """Blocks, leave, and padding of a bundled design mapped onto the target
    vertices, position by position from its 0-based labels.  The design is
    verified and the targets are distinct, so every block keeps its shape and
    is built unchecked."""
    blocks = tuple(_unchecked(type(b), itemgetter(*b.vertices)(targets)) for b in design.blocks)
    leave = frozenset(edge(targets[u], targets[v]) for u, v in design.leave)
    padding = tuple(edge(targets[u], targets[v]) for u, v in design.padding)
    return blocks, leave, padding


@lru_cache(maxsize=None)
def _fill(a: int, b: int) -> Design:
    """The hexagon fill of K_{a,b} on labels 0..a+b-1, left side first; it
    depends only on the two sizes, so each size pair is built once."""
    return c6_decompose_bipartite(CompleteBipartite(range(a), range(a, a + b)))


def _assemble(n: int, kind: Kind) -> Design:
    """Place the recipe's catalog entries over the layout and fill the
    remaining cross pairs with bipartite hexagons."""
    parts = join_layout(n, kind)
    recipe = RECIPES[kind, n % 12]
    blocks: list = []
    leave: frozenset = frozenset()
    padding: tuple = ()
    consumed: set = set()

    def place(design: Design, indices) -> None:
        nonlocal leave, padding
        span = [v for i in indices for v in parts[i]]
        got_blocks, got_leave, got_padding = _embed(design, span)
        blocks.extend(got_blocks)
        leave |= got_leave
        padding += got_padding
        consumed.update(combinations(indices, 2))

    heads = range(len(recipe.head))
    if recipe.head_entry is not None:
        place(catalog_get(recipe.head_entry), heads)
    joined = n % 2 == 1
    tail = catalog_get("decomposition:13" if joined else "decomposition:6")
    for i in range(len(heads), len(parts)):
        place(tail, [0, i] if joined else [i])

    for i, j in combinations(range(len(parts)), 2):
        if (i, j) not in consumed and len(parts[i]) > 1 and len(parts[j]) > 1:
            place(_fill(len(parts[i]), len(parts[j])), (i, j))

    return Design(Complete(n), kind, blocks, leave, padding)


def _extremal(n: int, kind: Kind) -> Design:
    """The decomposition when one exists, else the packing or covering of
    the given kind: monolithic at the orders in MONOLITHIC, else assembled."""
    if has_decomposition(n):
        return multidecompose(n)
    if (kind, n) not in MONOLITHIC:
        return _assemble(n, kind)
    key, transform = MONOLITHIC[kind, n]
    base = load_base(key)
    if transform is None:
        return base
    *blocks, extra = transform(base.blocks[0])
    blocks = tuple(blocks) + base.blocks[1:]
    if kind is Kind.PACKING:
        return Design(Complete(n), kind, blocks, leave=extra)
    return Design(Complete(n), kind, blocks, padding=extra)


# ---------------------------------------------------------------------------
# entry points


def multidecompose(n: int) -> Design:
    """A decomposition of the order-n complete graph into hexagons and
    prisms, at least one of each.  Orders without one raise with the
    feasibility report attached."""
    return _assemble(n, Kind.DECOMPOSITION)


def max_multipack(n: int) -> Design:
    """A maximum packing: the decomposition itself when one exists,
    otherwise a packing whose leave meets the minimum cardinality."""
    return _extremal(n, Kind.PACKING)


def min_multicover(n: int) -> Design:
    """A minimum covering: the decomposition itself when one exists,
    otherwise a covering whose padding meets the minimum cardinality."""
    return _extremal(n, Kind.COVERING)
