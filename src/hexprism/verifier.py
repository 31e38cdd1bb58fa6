"""Independent design checking.

The verifier shares no construction code with the rest of the package: it
recomputes host and block edge multisets from the raw tuples and compares
them directly.  Malformed input yields findings, never exceptions, so it can
be pointed at untrusted design files.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

from .core import (
    Complete,
    CompleteBipartite,
    Design,
    Edge,
    Explicit,
    Hexagon,
    Kind,
    Prism,
)


@dataclass(frozen=True)
class Finding:
    """One verification failure: a code, a message, and the offending data."""

    code: str
    message: str
    blocks: tuple[int, ...] = ()
    edges: tuple[Edge, ...] = ()


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    failures: tuple[Finding, ...]
    hexagon_count: int
    prism_count: int
    leave: frozenset
    padding: tuple
    incidence: dict = field(compare=False)


def _norm(u, v):
    return (u, v) if u < v else (v, u)


def _host_edge_multiset(host) -> Counter:
    if isinstance(host, Complete):
        return Counter(itertools.combinations(range(host.n), 2))
    if isinstance(host, CompleteBipartite):
        return Counter(_norm(u, v) for u in host.left for v in host.right)
    return Counter(_norm(u, v) for u, v in host.edges)


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


def _raw_block_edges(block) -> list:
    """Edge list straight from the tuples, with no shape validation."""
    if isinstance(block, Hexagon):
        t = block.vertices
        return [_norm(t[i], t[(i + 1) % 6]) for i in range(6)]
    a, b, c = block.first
    d, e, f = block.second
    return [
        _norm(a, b), _norm(b, c), _norm(a, c),
        _norm(d, e), _norm(e, f), _norm(d, f),
        _norm(a, d), _norm(b, e), _norm(c, f),
    ]


def _block_fault(block) -> tuple[str, str] | None:
    """Finding code and text for a block that cannot be checked edge by
    edge, or None for a well-formed one."""
    if isinstance(block, Hexagon):
        vs = block.vertices
    elif isinstance(block, Prism):
        vs = block.first + block.second
    else:
        return "bad-block", "is not a hexagon or prism"
    if not all(type(v) is int for v in vs):
        return "non-integer-vertex", f"has a vertex that is not an integer: {block}"
    if len(vs) != 6 or len(set(vs)) != 6:
        return "repeated-vertex", f"does not have 6 distinct vertices: {block}"
    return None


def incidence_table(design: Design) -> dict:
    """Per-vertex (p, q): how many hexagons and prisms meet each vertex."""
    table = {v: (0, 0) for v in _host_vertex_set(design.host)}
    for block in design.blocks:
        if _block_fault(block) is not None:
            continue
        vs = block.vertices if isinstance(block, Hexagon) else block.first + block.second
        for v in vs:
            p, q = table.get(v, (0, 0))
            if isinstance(block, Hexagon):
                table[v] = (p + 1, q)
            else:
                table[v] = (p, q + 1)
    return table


def verify_design(design: Design, require_both_types: bool = True) -> VerificationReport:
    """Check a design against its host and kind.

    Decompositions must cover every host edge exactly once; packings exactly
    once outside the leave; coverings exactly once plus the padding multiset.
    With require_both_types the design must use at least one hexagon and one
    prism; pass False for single-shape ingredient designs.
    """
    if not _integral_host(design.host):
        # no edge can be checked against a host that cannot be enumerated
        text = f"host has an order or vertex that is not an integer: {design.host}"
        failures = (Finding("non-integer-host", text),)
        return VerificationReport(False, failures, 0, 0, design.leave, design.padding, {})
    failures: list[Finding] = []
    host_multiset = _host_edge_multiset(design.host)
    host_vs = _host_vertex_set(design.host)

    hexagons = prisms = 0
    coverage: Counter = Counter()
    for i, block in enumerate(design.blocks):
        fault = _block_fault(block)
        if fault is not None:
            code, text = fault
            failures.append(Finding(code, f"block {i} {text}", blocks=(i,)))
            continue
        if isinstance(block, Hexagon):
            hexagons += 1
            vs = block.vertices
        else:
            prisms += 1
            vs = block.first + block.second
        outside = sorted(set(vs) - host_vs)
        if outside:
            failures.append(
                Finding(
                    "vertex-outside-host",
                    f"block {i} uses vertices {outside} outside the host",
                    blocks=(i,),
                )
            )
        coverage.update(_raw_block_edges(block))

    leave = Counter(_norm(u, v) for u, v in design.leave)
    padding = Counter(_norm(u, v) for u, v in design.padding)

    if design.kind is not Kind.PACKING and design.leave:
        failures.append(
            Finding(
                "unexpected-leave",
                f"{design.kind.value} must not carry a leave",
                edges=tuple(sorted(design.leave)),
            )
        )
        leave = Counter()
    if design.kind is not Kind.COVERING and design.padding:
        failures.append(
            Finding(
                "unexpected-padding",
                f"{design.kind.value} must not carry a padding",
                edges=tuple(design.padding),
            )
        )
        padding = Counter()

    overlap = sorted(e for e in leave if coverage[e] > 0)
    if overlap:
        failures.append(
            Finding(
                "leave-overlap",
                f"leave edges also covered by blocks: {overlap}",
                edges=tuple(overlap),
            )
        )
    bad_leave = sorted(e for e in leave if e not in host_multiset)
    if bad_leave:
        failures.append(
            Finding(
                "leave-outside-host",
                f"leave edges not in the host: {bad_leave}",
                edges=tuple(bad_leave),
            )
        )
    bad_padding = sorted(e for e in padding if e not in host_multiset)
    if bad_padding:
        failures.append(
            Finding(
                "padding-outside-host",
                f"padding edges not in the host: {bad_padding}",
                edges=tuple(bad_padding),
            )
        )

    # the partition equation: blocks (+ leave) must equal host (+ padding)
    expected = host_multiset + padding
    claimed = coverage + leave
    uncovered = expected - claimed
    extra = claimed - expected
    if uncovered:
        edges = tuple(sorted(uncovered.elements()))
        failures.append(
            Finding(
                "uncovered-edges",
                f"{sum(uncovered.values())} host edge uses not covered: {edges}",
                edges=edges,
            )
        )
    if extra:
        edges = tuple(sorted(extra.elements()))
        failures.append(
            Finding(
                "overcovered-edges",
                f"{sum(extra.values())} edge uses beyond the host: {edges}",
                edges=edges,
            )
        )

    if require_both_types:
        if hexagons == 0:
            failures.append(Finding("missing-hexagon", "no hexagon block present"))
        if prisms == 0:
            failures.append(Finding("missing-prism", "no prism block present"))

    return VerificationReport(
        valid=not failures,
        failures=tuple(failures),
        hexagon_count=hexagons,
        prism_count=prisms,
        leave=design.leave,
        padding=design.padding,
        incidence=incidence_table(design),
    )
