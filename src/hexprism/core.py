"""Vertices, edges, hosts, and the two block shapes.

A block is either a hexagon (a 6-cycle) or a prism (two triangles joined by
a perfect matching, which is the complement of a 6-cycle on the same six
vertices).  Everything in this module is an immutable value and every
operation is a pure function, so values can be shared freely across threads.
The value types rest on Value, a __slots__ base that stands in for frozen
dataclasses at a fraction of their import cost.

Both shapes keep their six vertices in one tuple, .vertices, which
EDGE_POSITIONS reads; a prism's .first and .second are views of its halves.
Blocks check their shape when built, relabel_block's results included; the
private _unchecked skips the check, for the design-file decoder and the
placement of verified bundled designs, which establish it in bulk.
"""

from __future__ import annotations

import itertools
from collections import Counter
from enum import Enum
from operator import itemgetter

Edge = tuple[int, int]


class InvalidBlockError(ValueError):
    """A block whose vertex tuple violates its shape invariants."""


def edge(u: int, v: int) -> Edge:
    """Normalized undirected edge: the ordered pair (min, max)."""
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def edge_set(pairs) -> frozenset[Edge]:
    return frozenset(edge(u, v) for u, v in pairs)


# looked up once, not on each of the tens of thousands of blocks of a design
_new, _set = object.__new__, object.__setattr__


class Value:
    """An immutable value whose fields are its __slots__, in order.

    It compares, hashes, prints, copies and pickles as a frozen dataclass
    does, and replace() rebuilds it through __init__ with some fields
    changed, as dataclasses.replace does.  Each __init__ sets the fields
    with _assign or _set, since assignment raises.
    """

    __slots__ = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _compared(self) -> tuple:
        """The field values that equality and the hash read."""
        return self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    __getstate__ = _values

    def __setstate__(self, state: tuple) -> None:
        self._assign(*state)

    def replace(self, **changes):
        """A copy with the named fields changed, built through __init__."""
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))


# ---------------------------------------------------------------------------
# hosts


class Complete(Value):
    """The complete graph on vertices 0..n-1."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        _set(self, "n", n)
        if n < 1:
            raise ValueError("order must be positive")


class CompleteBipartite(Value):
    """All edges between two disjoint vertex sets."""

    __slots__ = ("left", "right")

    def __init__(self, left: frozenset[int], right: frozenset[int]):
        self._assign(frozenset(left), frozenset(right))
        if not self.left or not self.right:
            raise ValueError("both sides must be nonempty")
        if self.left & self.right:
            raise ValueError("sides must be disjoint")


class Explicit(Value):
    """An explicit edge multiset; repeated pairs are multiplicities."""

    __slots__ = ("edges",)

    def __init__(self, edges: tuple[Edge, ...]):
        _set(self, "edges", tuple(sorted(edge(u, v) for u, v in edges)))


Host = Complete | CompleteBipartite | Explicit


def host_vertices(host: Host) -> tuple[int, ...]:
    if isinstance(host, Complete):
        return tuple(range(host.n))
    if isinstance(host, CompleteBipartite):
        return tuple(sorted(host.left | host.right))
    return tuple(sorted({v for e in host.edges for v in e}))


def host_edges(host: Host) -> Counter:
    """Edge multiset of a host, keyed by normalized edges."""
    if isinstance(host, Complete):
        return Counter(itertools.combinations(range(host.n), 2))
    if isinstance(host, CompleteBipartite):
        return Counter(edge(u, v) for u in host.left for v in host.right)
    return Counter(host.edges)


# ---------------------------------------------------------------------------
# blocks


class Hexagon(Value):
    """The 6-cycle a-b-c-d-e-f-a written as the tuple (a, b, c, d, e, f)."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[int, int, int, int, int, int]):
        _set(self, "vertices", tuple(vertices))
        if len(self.vertices) != 6:
            raise InvalidBlockError(f"hexagon needs 6 vertices: {self.vertices}")


class Prism(Value):
    """Two triangles plus the matching pairing equal positions.

    [a, b, c; d, e, f] has triangles {a, b, c} and {d, e, f} and the rungs
    a-d, b-e, c-f.  The edge set is the complement of a 6-cycle.  It keeps the
    one tuple vertices = first + second; the repr and replace() read its halves.
    """

    __slots__ = ("vertices",)

    def __init__(self, first: tuple[int, int, int], second: tuple[int, int, int]):
        first, second = tuple(first), tuple(second)
        if len(first) != 3 or len(second) != 3:
            raise InvalidBlockError(f"prism needs two vertex triples: {first}; {second}")
        _set(self, "vertices", first + second)

    @property
    def first(self) -> tuple[int, int, int]:
        return self.vertices[:3]

    @property
    def second(self) -> tuple[int, int, int]:
        return self.vertices[3:]

    def __repr__(self) -> str:
        return f"Prism(first={self.first!r}, second={self.second!r})"

    def replace(self, **changes):
        return Prism(**dict({"first": self.first, "second": self.second}, **changes))


Block = Hexagon | Prism


# the edges of each shape, as position pairs in its vertex tuple
EDGE_POSITIONS = {
    Hexagon: ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)),
    Prism: ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)),
}


def block_edges(block: Block) -> frozenset[Edge]:
    """The 6 (hexagon) or 9 (prism) edges of a block."""
    vs = block.vertices
    if len(set(vs)) != 6:
        raise InvalidBlockError(f"block vertices must be distinct: {block}")
    return frozenset(edge(vs[i], vs[j]) for i, j in EDGE_POSITIONS[type(block)])


def canonical_form(block: Block) -> Block:
    """A unique representative: two blocks agree here iff their edge sets agree.

    Hexagons take the lexicographically least of the 12 rotations and
    reflections.  Prisms lead with the sorted triangle containing the least
    vertex; the second triple is written in matching order against the first.
    """
    block_edges(block)  # reject malformed input
    if isinstance(block, Hexagon):
        t = block.vertices
        variants = []
        for seq in (t, t[::-1]):
            for i in range(6):
                variants.append(seq[i:] + seq[:i])
        return Hexagon(min(variants))
    partner = {}
    for x, y in zip(block.first, block.second):
        partner[x] = y
        partner[y] = x
    t1 = set(block.first)
    t2 = set(block.second)
    lead = t1 if min(t1) < min(t2) else t2
    first = tuple(sorted(lead))
    return Prism(first, tuple(partner[v] for v in first))


def recognize(edges) -> Block | None:
    """Classify an edge set as a hexagon or prism, in canonical form.

    Returns a Hexagon for any connected 2-regular 6-vertex edge set, a Prism
    for any 3-regular 6-vertex edge set carrying exactly two vertex-disjoint
    triangles, and None for anything else.
    """
    try:
        es = edge_set(edges)
    except ValueError:
        return None
    vs = sorted({v for e in es for v in e})
    if len(vs) != 6:
        return None
    deg = Counter(v for e in es for v in e)

    if len(es) == 6 and all(deg[v] == 2 for v in vs):
        nbr = {v: [] for v in vs}
        for u, v in es:
            nbr[u].append(v)
            nbr[v].append(u)
        start = vs[0]
        cycle = [start, min(nbr[start])]
        while True:
            prev, cur = cycle[-2], cycle[-1]
            nxt = nbr[cur][0] if nbr[cur][1] == prev else nbr[cur][1]
            if nxt == start:
                break
            cycle.append(nxt)
        if len(cycle) != 6:
            return None  # disconnected, e.g. two triangles
        return canonical_form(Hexagon(tuple(cycle)))

    if len(es) == 9 and all(deg[v] == 3 for v in vs):
        triangles = [
            t
            for t in itertools.combinations(vs, 3)
            if edge(t[0], t[1]) in es and edge(t[0], t[2]) in es and edge(t[1], t[2]) in es
        ]
        if len(triangles) != 2:
            return None
        t1, t2 = triangles
        if set(t1) & set(t2):
            return None
        tri_edges = {
            edge(a, b) for t in triangles for a, b in itertools.combinations(t, 2)
        }
        rungs = es - tri_edges
        partner = {}
        for u, v in rungs:
            if (u in t1) == (v in t1):
                return None
            partner[u] = v
            partner[v] = u
        if len(partner) != 6:
            return None
        return canonical_form(Prism(t1, tuple(partner[v] for v in t1)))

    return None


def _unchecked(shape: type, vertices: tuple) -> Block:
    """A block of the given shape on a tuple of 6 vertices, built without __init__."""
    block = _new(shape)
    _set(block, "vertices", vertices)
    return block


def relabel_block(block: Block, mapping) -> Block:
    """The block with each vertex v replaced by mapping[v]: a dict, or a
    sequence indexed by 0-based label that places a design by position.
    The result is checked like any new block."""
    vs = itemgetter(*block.vertices)(mapping)
    return Hexagon(vs) if isinstance(block, Hexagon) else Prism(vs[:3], vs[3:])


# ---------------------------------------------------------------------------
# designs


class Kind(Enum):
    DECOMPOSITION = "decomposition"
    PACKING = "packing"
    COVERING = "covering"


class Design(Value):
    """A list of blocks against a host, with an optional leave or padding.

    Decompositions use the blocks exactly; packings additionally name the
    uncovered leave edges; coverings name the padding multiset of edge reuses.
    Construction does not validate; the verifier reports on any Design.
    """

    __slots__ = ("host", "kind", "blocks", "leave", "padding")

    def __init__(self, host: Host, kind: Kind, blocks: tuple[Block, ...],
                 leave: frozenset[Edge] = frozenset(), padding: tuple[Edge, ...] = ()):
        self._assign(host, kind, tuple(blocks), frozenset(edge(u, v) for u, v in leave),
                     tuple(sorted(edge(u, v) for u, v in padding)))

    @property
    def hexagon_count(self) -> int:
        return sum(1 for b in self.blocks if isinstance(b, Hexagon))

    @property
    def prism_count(self) -> int:
        return sum(1 for b in self.blocks if isinstance(b, Prism))


def relabel_design(design: Design, mapping: dict[int, int]) -> Design:
    """Apply a vertex bijection to every part of a design.

    The mapping must be a bijection on the host vertex set; verification
    verdicts are invariant under this operation.
    """
    vs = host_vertices(design.host)
    if sorted(mapping) != list(vs) or sorted(mapping.values()) != list(vs):
        raise ValueError("mapping must be a bijection on the host vertex set")
    host = design.host
    if isinstance(host, CompleteBipartite):
        host = CompleteBipartite(
            frozenset(mapping[v] for v in host.left),
            frozenset(mapping[v] for v in host.right),
        )
    elif isinstance(host, Explicit):
        host = Explicit(tuple(edge(mapping[u], mapping[v]) for u, v in host.edges))
    return Design(
        host=host,
        kind=design.kind,
        blocks=tuple(relabel_block(b, mapping) for b in design.blocks),
        leave=frozenset(edge(mapping[u], mapping[v]) for u, v in design.leave),
        padding=tuple(edge(mapping[u], mapping[v]) for u, v in design.padding),
    )
