from __future__ import annotations

import itertools
import random

import pytest

from hexprism.core import (
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
    edge,
    edge_set,
    host_edges,
    host_vertices,
    recognize,
    relabel_block,
    relabel_design,
)


def test_edge_normalizes_order():
    assert edge(3, 1) == (1, 3)
    assert edge(1, 3) == (1, 3)


def test_edge_rejects_loops():
    with pytest.raises(ValueError):
        edge(4, 4)


def test_edge_set_deduplicates():
    assert edge_set([(1, 2), (2, 1), (0, 3)]) == frozenset({(1, 2), (0, 3)})


def test_hexagon_arity_checked():
    with pytest.raises(InvalidBlockError):
        Hexagon((0, 1, 2, 3, 4))


def test_prism_arity_checked():
    with pytest.raises(InvalidBlockError):
        Prism((0, 1), (2, 3, 4))


def test_hexagon_edges():
    h = Hexagon((0, 1, 2, 3, 4, 5))
    assert block_edges(h) == edge_set([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


def test_prism_edges():
    p = Prism((0, 1, 2), (3, 4, 5))
    tris = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    rungs = [(0, 3), (1, 4), (2, 5)]
    assert block_edges(p) == edge_set(tris + rungs)


def test_block_edges_rejects_repeats():
    with pytest.raises(InvalidBlockError):
        block_edges(Hexagon((0, 1, 2, 3, 4, 0)))
    with pytest.raises(InvalidBlockError):
        block_edges(Prism((0, 1, 2), (3, 4, 1)))


def test_hexagon_complement_is_prism():
    # on 6 vertices the 9 non-cycle edges form the matched-triangle block
    hexagon = Hexagon((0, 1, 2, 3, 4, 5))
    k6 = set(host_edges(Complete(6)))
    rest = frozenset(k6) - block_edges(hexagon)
    assert recognize(rest) == canonical_form(Prism((0, 4, 2), (3, 1, 5)))


def _hexagon_symmetries(t):
    for seq in (t, t[::-1]):
        for i in range(6):
            yield seq[i:] + seq[:i]


def test_hexagon_canonical_constant_on_symmetry_class():
    base = Hexagon((2, 7, 4, 9, 0, 5))
    forms = {canonical_form(Hexagon(s)) for s in _hexagon_symmetries(base.vertices)}
    assert len(forms) == 1
    assert forms.pop() == canonical_form(base)


def _prism_symmetries(p):
    pairs = list(zip(p.first, p.second))
    for perm in itertools.permutations(pairs):
        first = tuple(a for a, _ in perm)
        second = tuple(b for _, b in perm)
        yield Prism(first, second)
        yield Prism(second, first)


def test_prism_canonical_constant_on_symmetry_class():
    base = Prism((4, 0, 7), (2, 9, 6))
    forms = {canonical_form(q) for q in _prism_symmetries(base)}
    assert len(forms) == 1
    canon = forms.pop()
    assert canon.first == tuple(sorted(canon.first))
    assert min(canon.first) < min(canon.second)


def test_canonical_preserves_edges():
    rng = random.Random(11)
    for _ in range(200):
        vs = rng.sample(range(30), 6)
        h = Hexagon(tuple(vs))
        assert block_edges(canonical_form(h)) == block_edges(h)
        p = Prism(tuple(vs[:3]), tuple(vs[3:]))
        assert block_edges(canonical_form(p)) == block_edges(p)


def test_all_labeled_blocks_round_trip():
    """Every labeled block on a fixed 6-set survives edges -> recognize."""
    hexagons = set()
    prisms = set()
    for perm in itertools.permutations(range(6)):
        h = Hexagon(perm)
        assert recognize(block_edges(h)) == canonical_form(h)
        hexagons.add(canonical_form(h))
        p = Prism(perm[:3], perm[3:])
        assert recognize(block_edges(p)) == canonical_form(p)
        prisms.add(canonical_form(p))
    # 720 orderings collapse 12-to-1 for either shape
    assert len(hexagons) == 60
    assert len(prisms) == 60
    assert len(hexagons | prisms) == 120


def test_recognize_rejects_non_blocks():
    two_triangles = edge_set([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert recognize(two_triangles) is None

    k33 = edge_set([(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])
    assert recognize(k33) is None

    # cycle plus the three long chords: 3-regular but triangle-free
    mobius = edge_set(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3), (1, 4), (2, 5)]
    )
    assert recognize(mobius) is None

    chord = edge_set([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2)])
    assert recognize(chord) is None

    assert recognize(edge_set([(0, 1), (1, 2)])) is None
    assert recognize(frozenset()) is None

    five_cycle_plus = edge_set([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (5, 0)])
    assert recognize(five_cycle_plus) is None


def test_recognize_arbitrary_labels():
    h = Hexagon((12, 3, 44, 7, 90, 21))
    assert recognize(block_edges(h)) == canonical_form(h)


def test_relabel_block():
    mapping = {0: 5, 1: 4, 2: 3, 3: 2, 4: 1, 5: 0}
    h = relabel_block(Hexagon((0, 1, 2, 3, 4, 5)), mapping)
    assert h == Hexagon((5, 4, 3, 2, 1, 0))
    p = relabel_block(Prism((0, 1, 2), (3, 4, 5)), mapping)
    assert p == Prism((5, 4, 3), (2, 1, 0))


def test_relabel_block_by_position():
    # a sequence places label i on its i-th entry, as the dict i -> seq[i] does
    seq = [17, 3, 40, 8, 25, 11, 6]
    for block in (Hexagon((0, 2, 4, 6, 1, 3)), Prism((6, 0, 1), (2, 5, 3))):
        assert relabel_block(block, seq) == relabel_block(block, dict(enumerate(seq)))
    with pytest.raises(IndexError):
        relabel_block(Hexagon((0, 1, 2, 3, 4, 7)), seq)
    with pytest.raises(KeyError):
        relabel_block(Prism((0, 1, 2), (3, 4, 7)), dict(enumerate(seq)))


def test_relabel_design_requires_bijection():
    design = Design(
        host=Complete(6),
        kind=Kind.DECOMPOSITION,
        blocks=(Hexagon((0, 1, 2, 3, 4, 5)), Prism((0, 4, 2), (3, 1, 5))),
    )
    with pytest.raises(ValueError):
        relabel_design(design, {v: 0 for v in range(6)})
    with pytest.raises(ValueError):
        relabel_design(design, {v: v for v in range(5)})


def test_relabel_design_moves_all_parts():
    design = Design(
        host=Complete(8),
        kind=Kind.PACKING,
        blocks=(Hexagon((0, 1, 2, 3, 4, 5)),),
        leave=frozenset({(6, 7)}),
    )
    mapping = {v: (v + 1) % 8 for v in range(8)}
    moved = relabel_design(design, mapping)
    assert moved.blocks == (Hexagon((1, 2, 3, 4, 5, 6)),)
    assert moved.leave == frozenset({(0, 7)})
    assert moved.host == Complete(8)


def test_design_normalizes_leave_and_padding():
    d = Design(
        host=Complete(8),
        kind=Kind.COVERING,
        blocks=(),
        padding=((5, 2), (1, 0)),
    )
    assert d.padding == ((0, 1), (2, 5))
    d = Design(host=Complete(8), kind=Kind.PACKING, blocks=(), leave={(7, 3)})
    assert d.leave == frozenset({(3, 7)})


def test_host_vertices_and_edges():
    assert host_vertices(Complete(4)) == (0, 1, 2, 3)
    assert sum(host_edges(Complete(5)).values()) == 10

    bip = CompleteBipartite(frozenset({0, 2}), frozenset({1, 3}))
    assert host_vertices(bip) == (0, 1, 2, 3)
    assert set(host_edges(bip)) == {(0, 1), (0, 3), (1, 2), (2, 3)}

    ex = Explicit(((1, 0), (0, 1), (2, 3)))
    assert host_edges(ex)[(0, 1)] == 2
    assert host_vertices(ex) == (0, 1, 2, 3)


def test_bipartite_host_validation():
    with pytest.raises(ValueError):
        CompleteBipartite(frozenset({0, 1}), frozenset({1, 2}))
    with pytest.raises(ValueError):
        CompleteBipartite(frozenset(), frozenset({1}))
