"""Independent design checking.

The verifier shares no construction code with the rest of the package: it
recomputes every block edge from the raw tuples and counts its uses.  Every
host numbers its edges, and the counts sit in a flat list indexed by that
rank: a complete host ranks them by arithmetic, any other host through a
dict over its distinct edges.  Only edges outside the host have no rank;
their uses go to a signed Counter, and leave or padding edges with an
endpoint that is not an int to a list of their own.

On a complete host K_n, bulk passes over all blocks first test that every
block is a plain Hexagon or Prism of 6 distinct plain ints in 0 .. n - 1.
When they all are, no block can yield a finding, and the edges are counted
in one loop with the triangular rank written out inline.  Otherwise, and on
every other host, a block-by-block loop counts the edges and reports each
malformed block or one that leaves the host.  Both give the same report.

The claimed counts are compared with the expected ones as whole lists, and
only a mismatch is scanned, a slice at a time, to list what is missing or
doubled.  A host with more edges than the blocks and leave can meet is
rejected by arithmetic first, so the lists are never longer than the input
is large.  Malformed input yields findings, never exceptions, so the
verifier can be pointed at untrusted design files: any Design its
constructor builds gets a report, whatever its kind, host, blocks, leave
or padding hold.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, groupby

from .core import (
    Complete,
    CompleteBipartite,
    Design,
    Edge,
    Explicit,
    Hexagon,
    Kind,
    Prism,
    Value,
)


class Finding(Value):
    """One verification failure: a code, a message, and the offending data."""

    __slots__ = ("code", "message", "blocks", "edges")

    def __init__(self, code: str, message: str, blocks: tuple[int, ...] = (),
                 edges: tuple[Edge, ...] = ()):
        self._assign(code, message, blocks, edges)


class VerificationReport(Value):
    __slots__ = ("valid", "failures", "hexagon_count", "prism_count", "leave", "padding",
                 "incidence")

    def __init__(self, valid: bool, failures: tuple[Finding, ...], hexagon_count: int,
                 prism_count: int, leave: frozenset, padding: tuple, incidence: dict):
        self._assign(valid, failures, hexagon_count, prism_count, leave, padding, incidence)

    def _compared(self) -> tuple:
        return self._values()[:-1]  # all but the incidence table


# ranks per slice when a count mismatch is located
_SLICE = 1024


def _norm(u, v):
    return (u, v) if u < v else (v, u)


def _order(e):
    """Sort key for reported edges: pairs of numbers in value order, then any
    other pair by repr, as such pairs need not compare with each other."""
    return (0, e) if all(isinstance(x, (int, float)) for x in e) else (1, repr(e))


def _host_edge_count(host) -> int:
    """The number of host edges, by arithmetic, without building any."""
    if isinstance(host, Complete):
        return host.n * (host.n - 1) // 2
    if isinstance(host, CompleteBipartite):
        return len(host.left) * len(host.right)
    return len(host.edges)


def _host_vertex_set(host) -> set:
    if isinstance(host, Complete):
        return set(range(host.n))
    if isinstance(host, CompleteBipartite):
        return set(host.left) | set(host.right)
    return {v for e in host.edges for v in e}


def _integral_host(host) -> bool:
    """Whether the host's order, or else each of its vertices, is a plain int."""
    if isinstance(host, Complete):
        return type(host.n) is int
    return all(type(v) is int for v in _host_vertex_set(host))


def _edge_ranks(host):
    """How a host numbers its edges: (rank, edge_at, expected).

    rank(u, v) maps a host edge, its int endpoints in either order, to
    0 .. len(expected) - 1, and any other pair of ints to None: one that is
    not an edge of the host.  edge_at(r) is the normalized edge of rank r,
    and expected[r] how many times the host has it, more than once only on
    an explicit multigraph.  A complete host ranks by arithmetic, any other
    through a dict over its sorted distinct edges.
    """
    if isinstance(host, Complete):
        n = host.n
        before = [v * (v - 1) // 2 for v in range(n)]  # edges (u, w) with u < w < v

        def rank(u, v):
            if u > v:
                u, v = v, u
            if 0 <= u < v < n:
                return before[v] + u
            return None

        def edge_at(r):
            v = (1 + math.isqrt(1 + 8 * r)) // 2
            return (r - before[v], v)

        return rank, edge_at, [1] * (n * (n - 1) // 2)
    if isinstance(host, CompleteBipartite):
        pairs = ((u, v) for u in host.left for v in host.right)
    else:
        pairs = host.edges
    multiplicity = Counter(_norm(u, v) for u, v in pairs)
    edges = sorted(multiplicity)
    index = {e: r for r, e in enumerate(edges)}

    def rank(u, v):
        return index.get(_norm(u, v))

    return rank, edges.__getitem__, [multiplicity[e] for e in edges]


# each shape's edges as position pairs in its six vertices, written out here
# and not taken from core.EDGE_POSITIONS, so the check shares no edge table
_PAIRS = {
    Hexagon: ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)),
    Prism: ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)),
}


def _six(block):
    """A well-formed block's six vertices, or the finding code and text of
    one that cannot be checked edge by edge."""
    # a block built without __init__ may lack its field or its shape
    vs = getattr(block, "vertices", None) if isinstance(block, (Hexagon, Prism)) else None
    if type(vs) is not tuple or len(vs) != 6:
        return "bad-block", "is not a hexagon or prism"
    if not set(map(type, vs)) <= {int}:
        return "non-integer-vertex", f"has a vertex that is not an integer: {block}"
    if len(set(vs)) != 6:
        return "repeated-vertex", f"does not have 6 distinct vertices: {block}"
    return vs


def _block_by_block(blocks, host_vs, rank, claimed, stray, failures):
    """Count any blocks on any host, one block and one edge at a time,
    appending a finding for each block that is malformed or leaves the host.

    Edges with a rank go to claimed, the rest to stray.  Returns the
    hexagon and prism counts and the per-vertex hexagon and prism uses.
    """
    uses: dict = {Hexagon: [], Prism: []}
    for i, block in enumerate(blocks):
        vs = _six(block)
        if len(vs) == 2:  # a finding's code and text
            code, text = vs
            failures.append(Finding(code, f"block {i} {text}", blocks=(i,)))
            continue
        shape = Hexagon if isinstance(block, Hexagon) else Prism
        uses[shape] += vs
        if not host_vs.issuperset(vs):
            outside = sorted(set(vs) - host_vs)
            failures.append(
                Finding(
                    "vertex-outside-host",
                    f"block {i} uses vertices {outside} outside the host",
                    blocks=(i,),
                )
            )
        for p, q in _PAIRS[shape]:
            u, v = vs[p], vs[q]
            r = rank(u, v)
            if r is None:
                stray[_norm(u, v)] += 1
            else:
                claimed[r] += 1
    hexagon_vs, prism_vs = uses[Hexagon], uses[Prism]
    return len(hexagon_vs) // 6, len(prism_vs) // 6, Counter(hexagon_vs), Counter(prism_vs)


def _inline_counts(blocks, n, claimed):
    """Count blocks on K_n with no call per block or edge, or return None.

    Bulk passes first decide that every block is a plain Hexagon or Prism
    whose vertices are a plain tuple of 6 distinct plain ints in [0, n), so
    that none could yield a finding.
    Only then are the edges added to claimed, each ranked inline as
    before[v] + u for u < v.  Any other blocks leave claimed untouched and
    return None, for the block-by-block loop to report on.  Returns what
    that loop returns.
    """
    if not set(map(type, blocks)) <= {Hexagon, Prism}:
        return None
    try:
        hexagons = [b.vertices for b in blocks if type(b) is Hexagon]
        prisms = [b.vertices for b in blocks if type(b) is Prism]
    except AttributeError:  # a block built without its field
        return None
    sixes = hexagons + prisms
    # types before anything measures, hashes or orders; a bool is not an int
    if not set(map(type, sixes)) <= {tuple}:
        return None
    if not set(map(type, chain.from_iterable(sixes))) <= {int}:
        return None
    if not set(map(len, sixes)) | set(map(len, map(set, sixes))) <= {6}:
        return None
    hexagon_uses = Counter(chain.from_iterable(hexagons))
    prism_uses = Counter(chain.from_iterable(prisms))
    used = hexagon_uses.keys() | prism_uses.keys()
    if used and (min(used) < 0 or max(used) >= n):
        return None
    before = [v * (v - 1) // 2 for v in range(n)]
    for a, b, c, d, e, f in hexagons:
        claimed[before[a] + b if b < a else before[b] + a] += 1
        claimed[before[b] + c if c < b else before[c] + b] += 1
        claimed[before[c] + d if d < c else before[d] + c] += 1
        claimed[before[d] + e if e < d else before[e] + d] += 1
        claimed[before[e] + f if f < e else before[f] + e] += 1
        claimed[before[f] + a if a < f else before[a] + f] += 1
    for a, b, c, d, e, f in prisms:
        claimed[before[a] + b if b < a else before[b] + a] += 1
        claimed[before[b] + c if c < b else before[c] + b] += 1
        claimed[before[a] + c if c < a else before[c] + a] += 1
        claimed[before[d] + e if e < d else before[e] + d] += 1
        claimed[before[e] + f if f < e else before[f] + e] += 1
        claimed[before[d] + f if f < d else before[f] + d] += 1
        claimed[before[a] + d if d < a else before[d] + a] += 1
        claimed[before[b] + e if e < b else before[e] + b] += 1
        claimed[before[c] + f if f < c else before[f] + c] += 1
    return len(hexagons), len(prisms), hexagon_uses, prism_uses


def incidence_table(design: Design) -> dict:
    """Per-vertex (p, q): how many hexagons and prisms meet each vertex.

    This is the table verify_design reports: every host vertex, plus any
    vertex outside the host that a well-formed block uses.  A host the
    verifier rejects before counting any edge gets an empty table.
    """
    return verify_design(design, require_both_types=False).incidence


def _rejected(design: Design, finding: Finding) -> VerificationReport:
    """A report with one finding that stopped the check before any edge."""
    return VerificationReport(False, (finding,), 0, 0, design.leave, design.padding, {})


def _differences(claimed, expected, edge_at, *balances):
    """(uncovered, extra): sorted edge tuples listing each edge once per use
    that the claimed counts miss, or exceed, against the expected ones.

    The lists are compared a slice at a time, and only the slices that
    differ are walked rank by rank, then each (edge, count) pair of the
    balances, where a negative count is uses missed and a positive one uses
    beyond.
    """
    uncovered: list = []
    extra: list = []
    for lo in range(0, len(claimed), _SLICE):
        got, want = claimed[lo : lo + _SLICE], expected[lo : lo + _SLICE]
        if got == want:
            continue
        for r, c, x in zip(range(lo, lo + _SLICE), got, want):
            if c != x:
                (uncovered if c < x else extra).extend([edge_at(r)] * abs(x - c))
    for balance in balances:
        for e, c in balance:
            if c:
                (uncovered if c < 0 else extra).extend([e] * abs(c))
    return tuple(sorted(uncovered, key=_order)), tuple(sorted(extra, key=_order))


def verify_design(design: Design, require_both_types: bool = True) -> VerificationReport:
    """Check a design against its host and kind.

    Decompositions must cover every host edge exactly once; packings exactly
    once outside the leave; coverings exactly once plus the padding multiset.
    With require_both_types the design must use at least one hexagon and one
    prism; pass False for single-shape ingredient designs.  A host with more
    edges than the blocks and leave can meet gets one uncovered-edges finding
    that lists no edges, and no incidence table; a kind that is not a Kind
    and a host of no host type get a lone bad-kind or bad-host finding.
    """
    if not isinstance(design.kind, Kind):
        return _rejected(design, Finding("bad-kind", f"kind is not a Kind: {design.kind!r}"))
    if not isinstance(design.host, (Complete, CompleteBipartite, Explicit)):
        return _rejected(design, Finding("bad-host", f"host is not a graph: {design.host!r}"))
    if not _integral_host(design.host):
        # no edge can be checked against a host that cannot be enumerated
        text = f"host has an order or vertex that is not an integer: {design.host}"
        return _rejected(design, Finding("non-integer-host", text))
    host_size = _host_edge_count(design.host)
    reach = 9 * len(design.blocks) + len(design.leave)
    if host_size > reach:
        # past this check the count lists are at most as long as the file
        text = (f"{host_size} host edges, but the blocks and leave meet at most {reach}: "
                f"at least {host_size - reach} host edge uses not covered")
        return _rejected(design, Finding("uncovered-edges", text))
    failures: list[Finding] = []
    host_vs = _host_vertex_set(design.host)
    rank, edge_at, expected = _edge_ranks(design.host)
    # uses per host edge by rank, and of edges outside it in a signed Counter
    claimed = [0] * len(expected)
    stray: Counter = Counter()

    counted = None
    if isinstance(design.host, Complete):
        counted = _inline_counts(design.blocks, design.host.n, claimed)
    if counted is None:
        counted = _block_by_block(design.blocks, host_vs, rank, claimed, stray, failures)
    hexagons, prisms, hexagon_uses, prism_uses = counted

    for name, kind, given in (("leave", Kind.PACKING, design.leave),
                              ("padding", Kind.COVERING, design.padding)):
        if design.kind is not kind and given:
            failures.append(
                Finding(
                    f"unexpected-{name}",
                    f"{design.kind.value} must not carry a {name}",
                    edges=tuple(sorted(given, key=_order)),
                )
            )

    # the partition equation: blocks + leave - padding meet each host edge as
    # often as the host has it.  An endpoint that is not an int lies outside
    # every host, but 1.0 or True would count as the int it equals, so such
    # edges go to odd as (edge, sign), apart from stray
    odd: list = []
    for name, kind, edges, sign in (("leave", Kind.PACKING, design.leave, 1),
                                    ("padding", Kind.COVERING, design.padding, -1)):
        if design.kind is not kind:
            continue
        overlap, outside = [], []
        for e in edges:
            u, v = e
            if type(u) is not int or type(v) is not int:
                odd.append((e, sign))
                outside.append(e)
                continue
            r = rank(u, v)
            if r is None:  # outside the host, counted under the edge itself
                outside.append(e)
                counts, r = stray, e
            else:
                counts = claimed
            if sign > 0 and counts[r] > 0:  # blocks cover this leave edge
                overlap.append(e)
            counts[r] += sign
        # each listed once: a padding edge outside the host may repeat
        found = (("leave-overlap", "leave edges also covered by blocks", overlap),
                 (f"{name}-outside-host", f"{name} edges not in the host", outside))
        for code, text, listed in found:
            listed = [e for e, _ in groupby(sorted(listed, key=_order))]
            if listed:
                failures.append(Finding(code, f"{text}: {listed}", edges=tuple(listed)))
    if claimed != expected or any(stray.values()) or odd:
        uncovered, extra = _differences(claimed, expected, edge_at, stray.items(), odd)
        if uncovered:
            failures.append(
                Finding(
                    "uncovered-edges",
                    f"{len(uncovered)} host edge uses not covered: {uncovered}",
                    edges=uncovered,
                )
            )
        if extra:
            failures.append(
                Finding(
                    "overcovered-edges",
                    f"{len(extra)} edge uses beyond the host: {extra}",
                    edges=extra,
                )
            )

    if require_both_types:
        if hexagons == 0:
            failures.append(Finding("missing-hexagon", "no hexagon block present"))
        if prisms == 0:
            failures.append(Finding("missing-prism", "no prism block present"))

    incidence = dict.fromkeys(host_vs, (0, 0))
    for v in hexagon_uses.keys() | prism_uses.keys():
        incidence[v] = (hexagon_uses[v], prism_uses[v])
    return VerificationReport(
        valid=not failures,
        failures=tuple(failures),
        hexagon_count=hexagons,
        prism_count=prisms,
        leave=design.leave,
        padding=design.padding,
        incidence=incidence,
    )
