from __future__ import annotations

import dataclasses
import itertools
import random
import time

from hexprism.catalog import get as catalog_get
from hexprism.core import (
    Complete,
    CompleteBipartite,
    Design,
    Explicit,
    Hexagon,
    Kind,
    Prism,
    block_edges,
    host_vertices,
    relabel_design,
)
from hexprism.designfile import loads_design
from hexprism.verifier import incidence_table, verify_design


def _codes(report):
    return {f.code for f in report.failures}


def _k6_pair():
    return catalog_get("decomposition:6")


def test_k6_pair_is_valid():
    report = verify_design(_k6_pair())
    assert report.valid
    assert report.hexagon_count == 1
    assert report.prism_count == 1


def test_deleting_a_block_reports_its_edges():
    base = catalog_get("decomposition:13")
    hex_index = next(i for i, b in enumerate(base.blocks) if isinstance(b, Hexagon))
    damaged = dataclasses.replace(
        base, blocks=base.blocks[:hex_index] + base.blocks[hex_index + 1 :]
    )
    report = verify_design(damaged)
    assert not report.valid
    finding = next(f for f in report.failures if f.code == "uncovered-edges")
    assert len(finding.edges) == 6


def test_mutated_vertex_breaks_partition():
    base = catalog_get("decomposition:13")
    blocks = list(base.blocks)
    blk = blocks[0]
    if isinstance(blk, Hexagon):
        vs = list(blk.vertices)
        vs[0] = vs[1]
        blocks[0] = Hexagon(tuple(vs))
    else:
        first = list(blk.first)
        first[0] = blk.second[0]
        blocks[0] = Prism(tuple(first), blk.second)
    report = verify_design(dataclasses.replace(base, blocks=tuple(blocks)))
    assert not report.valid
    assert "repeated-vertex" in _codes(report)


def test_duplicated_block_overcovers():
    base = _k6_pair()
    report = verify_design(
        dataclasses.replace(base, blocks=base.blocks + base.blocks[:1])
    )
    assert not report.valid
    assert "overcovered-edges" in _codes(report)


def test_vertex_outside_host():
    design = Design(
        host=Complete(6),
        kind=Kind.DECOMPOSITION,
        blocks=(Hexagon((0, 1, 2, 3, 4, 9)), Prism((0, 4, 2), (3, 1, 5))),
    )
    assert "vertex-outside-host" in _codes(verify_design(design))


def test_bad_block_type():
    design = Design(
        host=Complete(6),
        kind=Kind.DECOMPOSITION,
        blocks=("hexagon", Prism((0, 4, 2), (3, 1, 5))),
    )
    assert "bad-block" in _codes(verify_design(design))


def test_missing_shape_findings():
    # hosts matching one block exactly: covered, but the other shape's quota fails
    hexagon = Hexagon((0, 1, 2, 3, 4, 5))
    prism = Prism((0, 4, 2), (3, 1, 5))
    only_hex = Design(
        host=Explicit(tuple(sorted(block_edges(hexagon)))),
        kind=Kind.DECOMPOSITION,
        blocks=(hexagon,),
    )
    report = verify_design(only_hex)
    assert _codes(report) == {"missing-prism"}
    assert verify_design(only_hex, require_both_types=False).valid

    only_prism = Design(
        host=Explicit(tuple(sorted(block_edges(prism)))),
        kind=Kind.DECOMPOSITION,
        blocks=(prism,),
    )
    assert _codes(verify_design(only_prism)) == {"missing-hexagon"}


def test_non_integer_vertex_is_a_finding():
    base = _k6_pair()
    bad = Hexagon((0, 1, 2, 3, 4, "x"))
    report = verify_design(dataclasses.replace(base, blocks=(bad,) + base.blocks[1:]))
    assert not report.valid
    finding = next(f for f in report.failures if f.code == "non-integer-vertex")
    assert finding.blocks == (0,)
    assert "x" not in report.incidence


def test_non_integer_host_is_a_finding():
    for host in (Complete(7.0), Complete(True), CompleteBipartite({0, 1.5}, {2, 3})):
        design = Design(host=host, kind=Kind.DECOMPOSITION, blocks=_k6_pair().blocks)
        report = verify_design(design)
        assert not report.valid
        assert _codes(report) == {"non-integer-host"}
        assert report.incidence == {}


def test_unexpected_leave_and_padding():
    base = _k6_pair()
    with_leave = dataclasses.replace(base, leave=frozenset({(0, 1)}))
    assert "unexpected-leave" in _codes(verify_design(with_leave))
    with_padding = dataclasses.replace(base, padding=((0, 1),))
    assert "unexpected-padding" in _codes(verify_design(with_padding))


def test_leave_overlap_and_outside_host():
    packing = catalog_get("packing:8")
    covered = min(block_edges(packing.blocks[0]))
    overlapping = dataclasses.replace(packing, leave=packing.leave | {covered})
    assert "leave-overlap" in _codes(verify_design(overlapping))

    outside = dataclasses.replace(packing, leave=packing.leave | {(0, 99)})
    assert "leave-outside-host" in _codes(verify_design(outside))


def test_padding_outside_host():
    covering = catalog_get("covering:8")
    damaged = dataclasses.replace(covering, padding=covering.padding + ((3, 88),))
    assert "padding-outside-host" in _codes(verify_design(damaged))


def test_packing_missing_leave_edge_detected():
    packing = catalog_get("packing:8")
    report = verify_design(dataclasses.replace(packing, leave=frozenset()))
    assert not report.valid
    assert "uncovered-edges" in _codes(report)


def test_covering_with_wrong_padding_detected():
    covering = catalog_get("covering:8")
    report = verify_design(dataclasses.replace(covering, padding=()))
    assert not report.valid
    assert "overcovered-edges" in _codes(report)


def test_incidence_table_k6():
    table = incidence_table(_k6_pair())
    assert table == {v: (1, 1) for v in range(6)}


def test_incidence_satisfies_degree_identity():
    design = catalog_get("decomposition:19")
    for v, (p, q) in incidence_table(design).items():
        assert 2 * p + 3 * q == 18, v


def test_verification_invariant_under_relabeling():
    rng = random.Random(5)
    designs = [
        _k6_pair(),
        catalog_get("decomposition:13"),
        catalog_get("packing:9"),
        catalog_get("covering:8"),
    ]
    for design in designs:
        vs = list(host_vertices(design.host))
        for _ in range(25):
            shuffled = vs[:]
            rng.shuffle(shuffled)
            mapping = dict(zip(vs, shuffled))
            moved = relabel_design(design, mapping)
            report = verify_design(moved)
            assert report.valid, mapping
            assert report.hexagon_count == design.hexagon_count
            assert report.prism_count == design.prism_count


def test_verification_invariant_under_block_reexpression():
    base = _k6_pair()
    hexagon = base.blocks[0]
    prism = base.blocks[1]
    assert isinstance(hexagon, Hexagon) and isinstance(prism, Prism)
    t = hexagon.vertices
    rolled = Hexagon(t[2:] + t[:2])
    swapped = Prism(prism.second, prism.first)
    report = verify_design(
        dataclasses.replace(base, blocks=(swapped, rolled))
    )
    assert report.valid


def test_bipartite_host_verification():
    left = frozenset(range(4))
    right = frozenset(range(4, 10))
    from hexprism.bipartite import c6_decompose_bipartite

    design = c6_decompose_bipartite(CompleteBipartite(left, right))
    report = verify_design(design, require_both_types=False)
    assert report.valid
    assert report.hexagon_count == 4


def test_multigraph_host_padding_semantics():
    # a covering of a doubled edge by reusing it is equivalent to padding
    prism = Prism((0, 1, 2), (3, 4, 5))
    edges = tuple(sorted(block_edges(prism)))
    design = Design(
        host=Explicit(edges),
        kind=Kind.COVERING,
        blocks=(prism, prism),
        padding=edges,
    )
    report = verify_design(design, require_both_types=False)
    assert report.valid


def test_huge_host_is_rejected_without_building_it():
    text = '{"host":{"type":"complete","n":1000000},"kind":"decomposition","blocks":[]}'
    assert len(text) < 100
    start = time.perf_counter()
    report = verify_design(loads_design(text))
    assert time.perf_counter() - start < 0.5
    (finding,) = report.failures
    assert finding.code == "uncovered-edges"
    assert finding.edges == ()
    assert "499999500000 host edges" in finding.message
    assert "at most 0" in finding.message
    assert report.incidence == {}


def test_host_beyond_the_blocks_reach_counts_blocks_and_leave():
    # K_7 has 21 edges; one prism and the other 12 edges as leave reach them all
    prism = Prism((0, 1, 2), (3, 4, 5))
    rest = sorted(set(itertools.combinations(range(7), 2)) - block_edges(prism))
    full = Design(host=Complete(7), kind=Kind.PACKING, blocks=(prism,), leave=frozenset(rest))
    assert "uncovered-edges" not in _codes(verify_design(full))
    short = dataclasses.replace(full, leave=frozenset(rest[1:]))
    (finding,) = verify_design(short).failures
    assert finding.code == "uncovered-edges"
    assert "21 host edges" in finding.message and "at most 20" in finding.message
