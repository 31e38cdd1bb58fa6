"""Hexagon decompositions of complete bipartite graphs.

Every admissible K_{m,n} (sides at least 4 and even, 6 dividing mn) is tiled
from two bundled seeds, a 6-by-6 and a 4-by-6 decomposition, translated
across a grid of side groups.  Under the admissibility conditions one side
is always divisible by 6: both sides are even, and 3 divides mn, so 3 (and
hence 6) divides one of them.  That side is cut into groups of 6; the other
follows side_partition.  Both seeds are stored 0-based with the 4-or-6 side
first, so seed label i lands on position i of the part followed by the group.
"""

from __future__ import annotations

from operator import itemgetter

from .bases import load_base
from .core import CompleteBipartite, Design, Hexagon, Kind, _unchecked


class InfeasibleParametersError(ValueError):
    """Bipartite parameters outside the admissible set; names the clause."""


def side_partition(n: int) -> tuple[int, ...]:
    """Cut an admissible side size into parts of 4 and 6.

    Sizes 0 mod 6 become all 6s, sizes 2 mod 6 two 4s then 6s, sizes
    4 mod 6 one 4 then 6s.
    """
    if n % 2:
        raise ValueError(f"side size must be even, got {n}")
    if n < 4:
        raise ValueError(f"side size must be at least 4, got {n}")
    if n % 6 == 0:
        return (6,) * (n // 6)
    if n % 6 == 2:
        return (4, 4) + (6,) * ((n - 8) // 6)
    return (4,) + (6,) * ((n - 4) // 6)


def c6_decompose_bipartite(host: CompleteBipartite) -> Design:
    """Decompose the complete bipartite host into hexagons, mn/6 of them,
    each alternating between the sides."""
    m, n = len(host.left), len(host.right)
    for label, size in (("left", m), ("right", n)):
        if size < 4:
            raise InfeasibleParametersError(
                f"{label} side has {size} vertices; both sides need at least 4"
            )
        if size % 2:
            raise InfeasibleParametersError(
                f"{label} side has {size} vertices; both sides must be even"
            )
    if (m * n) % 6:
        raise InfeasibleParametersError(
            f"6 must divide the edge count, but {m} * {n} = {m * n} is not divisible by 6"
        )
    if m % 6 == 0:
        axis, other = sorted(host.left), sorted(host.right)
    else:
        assert n % 6 == 0, "one even side must be divisible by 6 when 3 divides mn"
        axis, other = sorted(host.right), sorted(host.left)
    groups = [axis[i : i + 6] for i in range(0, len(axis), 6)]
    parts = []
    at = 0
    for size in side_partition(len(other)):
        parts.append(other[at : at + size])
        at += size
    six, four = load_base("bipartite:6x6").blocks, load_base("bipartite:4x6").blocks
    blocks = []
    for group in groups:
        for part in parts:
            seed = six if len(part) == 6 else four
            labels = part + group  # distinct, so the verified seeds need no re-check
            blocks.extend(_unchecked(Hexagon, itemgetter(*b.vertices)(labels)) for b in seed)
    return Design(host=host, kind=Kind.DECOMPOSITION, blocks=tuple(blocks))
