from __future__ import annotations

import hashlib
from collections import Counter
from itertools import combinations

import pytest

from hexprism import catalog
from hexprism.bipartite import c6_decompose_bipartite
from hexprism.constructions import (
    RECIPES,
    InfeasibleOrderError,
    hexagon_plus_factor,
    join_layout,
    max_multipack,
    min_multicover,
    multidecompose,
    prism_minus_matching,
    prism_to_two_hexagons,
)
from hexprism.core import (
    CompleteBipartite,
    Hexagon,
    Kind,
    Prism,
    block_edges,
    canonical_form,
    edge,
    edge_set,
    recognize,
    relabel_block,
)
from hexprism.designfile import dumps_design
from hexprism.feasibility import UnsupportedOrderError
from hexprism.verifier import incidence_table, verify_design


def _sizes(parts):
    return [len(part) for part in parts]


def test_layout_shapes_decomposition():
    assert _sizes(join_layout(6, Kind.DECOMPOSITION)) == [6]
    assert _sizes(join_layout(12, Kind.DECOMPOSITION)) == [6, 6]
    assert _sizes(join_layout(13, Kind.DECOMPOSITION)) == [1, 12]
    assert _sizes(join_layout(15, Kind.DECOMPOSITION)) == [1, 14]
    assert _sizes(join_layout(16, Kind.DECOMPOSITION)) == [10, 6]
    assert _sizes(join_layout(19, Kind.DECOMPOSITION)) == [1, 6, 12]
    assert _sizes(join_layout(21, Kind.DECOMPOSITION)) == [1, 8, 12]
    assert _sizes(join_layout(25, Kind.DECOMPOSITION)) == [1, 12, 12]
    assert _sizes(join_layout(27, Kind.DECOMPOSITION)) == [1, 14, 12]
    assert _sizes(join_layout(28, Kind.DECOMPOSITION)) == [10, 6, 6, 6]


def test_layout_shapes_packing():
    assert _sizes(join_layout(8, Kind.PACKING)) == [8]
    assert _sizes(join_layout(14, Kind.PACKING)) == [8, 6]
    assert _sizes(join_layout(11, Kind.PACKING)) == [1, 10]
    assert _sizes(join_layout(17, Kind.PACKING)) == [1, 16]
    assert _sizes(join_layout(23, Kind.PACKING)) == [1, 10, 12]
    assert _sizes(join_layout(29, Kind.PACKING)) == [1, 16, 12]


def test_layout_shapes_covering():
    assert _sizes(join_layout(8, Kind.COVERING)) == [8]
    assert _sizes(join_layout(14, Kind.COVERING)) == [8, 6]
    assert _sizes(join_layout(11, Kind.COVERING)) == [1, 4, 6]
    assert _sizes(join_layout(17, Kind.COVERING)) == [1, 4, 12]
    assert _sizes(join_layout(23, Kind.COVERING)) == [1, 4, 6, 12]
    assert _sizes(join_layout(29, Kind.COVERING)) == [1, 4, 12, 12]


def test_layout_parts_tile_the_order():
    for n in range(6, 201):
        for kind in (Kind.DECOMPOSITION, Kind.PACKING, Kind.COVERING):
            try:
                parts = join_layout(n, kind)
            except InfeasibleOrderError:
                continue
            at = 0
            for part in parts:
                assert type(part) is range and part.step == 1
                assert part.start == at
                at += len(part)
            assert at == n


def test_layout_refusals_carry_report():
    for n in (7, 9, 10):
        with pytest.raises(InfeasibleOrderError) as info:
            join_layout(n, Kind.DECOMPOSITION)
        assert info.value.report.n == n
        for kind in (Kind.PACKING, Kind.COVERING):
            with pytest.raises(InfeasibleOrderError):
                join_layout(n, kind)
    # orders that decompose have no packing or covering layout
    with pytest.raises(InfeasibleOrderError):
        join_layout(12, Kind.PACKING)
    with pytest.raises(InfeasibleOrderError):
        join_layout(13, Kind.COVERING)


@pytest.mark.parametrize(
    "build, n, kind",
    [
        (multidecompose, 601, Kind.DECOMPOSITION),
        (max_multipack, 677, Kind.PACKING),
        (min_multicover, 677, Kind.COVERING),
        (max_multipack, 662, Kind.PACKING),
    ],
)
def test_fills_match_the_per_pair_bipartite_fill(build, n, kind):
    # the fills are the design's last blocks; the oracle builds each one on
    # its own host from the two parts, as a cross pair of the layout
    parts = join_layout(n, kind)
    recipe = RECIPES[kind, n % 12]
    consumed = set(combinations(range(len(recipe.head)), 2)) if recipe.head_entry else set()
    if n % 2:
        consumed.update((0, i) for i in range(1, len(parts)))
    expected = []
    for i, j in combinations(range(len(parts)), 2):
        if len(parts[i]) == 1 or len(parts[j]) == 1 or (i, j) in consumed:
            continue
        host = CompleteBipartite(frozenset(parts[i]), frozenset(parts[j]))
        expected.extend(c6_decompose_bipartite(host).blocks)
    blocks = build(n).blocks
    assert len(expected) > 0
    assert blocks[len(blocks) - len(expected):] == tuple(expected)


def test_prism_minus_matching_pinned():
    hexagon, matching = prism_minus_matching(Prism((1, 2, 3), (4, 5, 6)))
    assert hexagon == Hexagon((2, 3, 1, 4, 6, 5))
    assert matching == edge_set([(1, 2), (3, 6), (4, 5)])


def test_hexagon_plus_factor_pinned():
    prism, matching = hexagon_plus_factor(Hexagon((1, 2, 3, 4, 5, 6)))
    assert matching == edge_set([(1, 3), (4, 6), (2, 5)])
    assert canonical_form(prism) == canonical_form(Prism((1, 2, 3), (6, 5, 4)))
    assert block_edges(prism) == block_edges(Hexagon((1, 2, 3, 4, 5, 6))) | matching


def test_prism_to_two_hexagons_pinned():
    first, second, doubled = prism_to_two_hexagons(Prism((1, 2, 3), (4, 5, 6)))
    assert first == Hexagon((1, 2, 3, 6, 5, 4))
    assert second == Hexagon((1, 3, 2, 5, 6, 4))
    assert doubled == edge_set([(2, 3), (5, 6), (1, 4)])


def test_transformations_canonicalize_input():
    # any re-expression of the same block maps to the same output
    rotated = Prism((5, 6, 4), (2, 3, 1))
    assert prism_minus_matching(rotated) == prism_minus_matching(Prism((1, 2, 3), (4, 5, 6)))
    rolled = Hexagon((4, 5, 6, 1, 2, 3))
    assert hexagon_plus_factor(rolled) == hexagon_plus_factor(Hexagon((1, 2, 3, 4, 5, 6)))
    swapped = Prism((4, 5, 6), (1, 2, 3))
    assert prism_to_two_hexagons(swapped) == prism_to_two_hexagons(Prism((1, 2, 3), (4, 5, 6)))


def test_prism_minus_matching_inverts():
    prism = Prism((0, 7, 3), (9, 2, 5))
    hexagon, matching = prism_minus_matching(prism)
    assert block_edges(hexagon) | matching == block_edges(prism)
    assert not (block_edges(hexagon) & matching)
    assert recognize(block_edges(hexagon)) == canonical_form(hexagon)


def test_hexagon_plus_factor_inverts():
    hexagon = Hexagon((3, 8, 1, 9, 4, 6))
    prism, matching = hexagon_plus_factor(hexagon)
    assert block_edges(hexagon) | matching == block_edges(prism)
    assert not (block_edges(hexagon) & matching)


def test_prism_split_edge_accounting():
    prism = Prism((2, 4, 8), (1, 6, 0))
    first, second, doubled = prism_to_two_hexagons(prism)
    combined = Counter(block_edges(first)) + Counter(block_edges(second))
    expected = Counter(block_edges(prism)) + Counter(doubled)
    assert combined == expected


def test_rejected_matchings_break_the_shape():
    # removing the rung matching leaves two disjoint triangles, not a cycle
    prism = Prism((1, 2, 3), (4, 5, 6))
    rungs = edge_set([(1, 4), (2, 5), (3, 6)])
    assert recognize(block_edges(prism) - rungs) is None
    # adding the long-diagonal factor to a hexagon builds a triangle-free graph
    hexagon = Hexagon((1, 2, 3, 4, 5, 6))
    antipodal = edge_set([(1, 4), (2, 5), (3, 6)])
    assert recognize(block_edges(hexagon) | antipodal) is None


@pytest.mark.parametrize("n", [6, 13, 15, 16, 19, 21, 24, 25, 27, 34, 45, 48])
def test_multidecompose_verifies(n):
    design = multidecompose(n)
    report = verify_design(design)
    assert report.valid, [f.code for f in report.failures]
    assert design.kind is Kind.DECOMPOSITION
    assert report.hexagon_count >= 1 and report.prism_count >= 1
    for v, (p, q) in incidence_table(design).items():
        assert 2 * p + 3 * q == n - 1, v


@pytest.mark.parametrize("n", [7, 8, 9, 10, 11, 14, 17, 20, 23, 26, 29, 41, 47])
def test_max_multipack_verifies(n):
    design = max_multipack(n)
    report = verify_design(design)
    assert report.valid, [f.code for f in report.failures]
    want = {7: 6, 9: 3, 10: 3}.get(n, 1)
    assert len(design.leave) == want


@pytest.mark.parametrize("n", [7, 8, 9, 10, 11, 14, 17, 20, 23, 26, 29, 41, 47])
def test_min_multicover_verifies(n):
    design = min_multicover(n)
    report = verify_design(design)
    assert report.valid, [f.code for f in report.failures]
    want = {7: 6, 9: 3, 10: 3}.get(n, 2)
    assert len(design.padding) == want


def test_pack_of_decomposable_order_is_the_decomposition():
    assert max_multipack(12) == multidecompose(12)
    assert min_multicover(13) == multidecompose(13)
    assert not max_multipack(12).leave
    assert not min_multicover(13).padding


def test_only_the_head_entry_carries_a_leave_or_padding():
    # the leave and padding are the head entry's, placed by position on the
    # head parts; each tail part takes decomposition:6 on the part at even n,
    # or decomposition:13 on part 0 plus the part at odd n
    builds = {Kind.DECOMPOSITION: multidecompose, Kind.PACKING: max_multipack,
              Kind.COVERING: min_multicover}
    for n in range(6, 201):
        for kind, build in builds.items():
            try:
                parts = join_layout(n, kind)
            except InfeasibleOrderError:
                continue
            recipe = RECIPES[kind, n % 12]
            design = build(n)
            heads = len(recipe.head)
            leave, padding, at = frozenset(), (), 0
            if recipe.head_entry is not None:
                entry = catalog.get(recipe.head_entry)
                span = [v for part in parts[:heads] for v in part]
                leave = edge_set((span[u], span[v]) for u, v in entry.leave)
                padding = tuple(sorted(edge(span[u], span[v]) for u, v in entry.padding))
                at = len(entry.blocks)
            assert (design.leave, design.padding) == (leave, padding), (n, kind)
            tail = catalog.get("decomposition:13" if n % 2 else "decomposition:6")
            for part in parts[heads:]:
                span = [0, *part] if n % 2 else list(part)
                placed = tuple(relabel_block(b, span) for b in tail.blocks)
                assert design.blocks[at:at + len(placed)] == placed, (n, kind, part)
                at += len(placed)


def test_packing_leaves_at_odd_residue():
    assert max_multipack(23).leave == frozenset({(0, 1)})
    assert max_multipack(29).leave == frozenset({(0, 9)})


def test_covering_padding_stays_in_base_clique():
    for n in (14, 20, 26):
        padding = min_multicover(n).padding
        assert all(u < 8 and v < 8 for u, v in padding), n
    for n in (23, 35):
        padding = min_multicover(n).padding
        assert all(u < 11 and v < 11 for u, v in padding), n
    for n in (29, 41):
        padding = min_multicover(n).padding
        assert all(u < 17 and v < 17 for u, v in padding), n


def test_exceptional_orders_have_both_shapes():
    ten_pack = max_multipack(10)
    assert ten_pack.hexagon_count == 1 and ten_pack.prism_count == 4
    nine_cover = min_multicover(9)
    assert nine_cover.hexagon_count == 5 and nine_cover.prism_count == 1
    ten_cover = min_multicover(10)
    assert ten_cover.hexagon_count == 2 and ten_cover.prism_count == 4


def test_infeasible_orders_refused_with_report():
    for n in (7, 9, 10):
        with pytest.raises(InfeasibleOrderError) as info:
            multidecompose(n)
        assert info.value.report.n == n
        assert not info.value.report.decomposition_exists
    for n in (8, 11, 44):
        with pytest.raises(InfeasibleOrderError):
            multidecompose(n)


def test_tiny_orders_unsupported():
    for n in (0, 3, 5):
        with pytest.raises(UnsupportedOrderError):
            multidecompose(n)
        with pytest.raises(UnsupportedOrderError):
            max_multipack(n)
        with pytest.raises(UnsupportedOrderError):
            min_multicover(n)


def test_constructions_are_deterministic():
    assert multidecompose(25) == multidecompose(25)
    assert max_multipack(26) == max_multipack(26)
    assert min_multicover(23) == min_multicover(23)


# sha256 of every construct output for orders 6..100 plus every catalog
# export; any change to a byte of construction output changes it
GOLDEN_DIGEST = "9083ce1ccb849837e9abd0102eee7787221cf6829e11dda63162324f5820f04d"


def test_construct_and_catalog_json_are_byte_identical():
    digest = hashlib.sha256()
    built = 0
    for n in range(6, 101):
        for build in (multidecompose, max_multipack, min_multicover):
            try:
                text = dumps_design(build(n))
                built += 1
            except InfeasibleOrderError:
                text = "infeasible\n"
            digest.update(text.encode())
    for key in catalog.keys():
        digest.update(dumps_design(catalog.get(key)).encode())
    assert built == 251
    assert digest.hexdigest() == GOLDEN_DIGEST


# sha256 of every construct output for orders 101..200, so the promise of
# byte-identical construct JSON holds up to n = 200, not only to 100
GOLDEN_DIGEST_101_200 = "b8134ae0dc21cdedfd076ae5711053b6ea9638e6c2c847457c8d2000e927b58f"


def test_construct_json_for_orders_101_to_200_is_byte_identical():
    digest = hashlib.sha256()
    built = 0
    for n in range(101, 201):
        for build in (multidecompose, max_multipack, min_multicover):
            try:
                text = dumps_design(build(n))
                built += 1
            except InfeasibleOrderError:
                text = "infeasible\n"
            digest.update(text.encode())
    assert built == 266
    assert digest.hexdigest() == GOLDEN_DIGEST_101_200
