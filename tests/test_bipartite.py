from __future__ import annotations

import random

import pytest

from hexprism import bipartite
from hexprism.bases import load_base
from hexprism.bipartite import (
    InfeasibleParametersError,
    c6_decompose_bipartite,
    side_partition,
)
from hexprism.core import CompleteBipartite, Hexagon
from hexprism.verifier import verify_design


def test_side_partition_values():
    assert side_partition(4) == (4,)
    assert side_partition(6) == (6,)
    assert side_partition(8) == (4, 4)
    assert side_partition(10) == (4, 6)
    assert side_partition(12) == (6, 6)
    assert side_partition(14) == (4, 4, 6)
    assert side_partition(16) == (4, 6, 6)
    assert side_partition(18) == (6, 6, 6)
    assert side_partition(20) == (4, 4, 6, 6)


def test_side_partition_rejects_bad_sizes():
    for bad in (2, 3, 5, 7, 9):
        with pytest.raises(ValueError):
            side_partition(bad)


def test_spec_validation():
    with pytest.raises(ValueError):
        CompleteBipartite(frozenset(), frozenset({1}))
    with pytest.raises(ValueError):
        CompleteBipartite(frozenset({1, 2}), frozenset({2, 3}))


def _sides(m, n):
    return CompleteBipartite(frozenset(range(m)), frozenset(range(m, m + n)))


def test_infeasible_parameters():
    with pytest.raises(InfeasibleParametersError, match="at least 4"):
        c6_decompose_bipartite(_sides(2, 6))
    with pytest.raises(InfeasibleParametersError, match="even"):
        c6_decompose_bipartite(_sides(5, 6))
    with pytest.raises(InfeasibleParametersError, match="divisible by 6"):
        c6_decompose_bipartite(_sides(4, 4))
    with pytest.raises(InfeasibleParametersError, match="divisible by 6"):
        c6_decompose_bipartite(_sides(8, 10))


def test_decomposes_seed_shapes():
    for m, n in [(4, 6), (6, 6)]:
        design = c6_decompose_bipartite(_sides(m, n))
        assert len(design.blocks) == m * n // 6
        report = verify_design(design, require_both_types=False)
        assert report.valid


def test_blocks_alternate_sides():
    host = _sides(8, 12)
    design = c6_decompose_bipartite(host)
    for block in design.blocks:
        assert isinstance(block, Hexagon)
        pattern = ["L" if v in host.left else "R" for v in block.vertices]
        assert pattern in (["L", "R"] * 3, ["R", "L"] * 3)


def test_full_even_grid():
    """All feasible even-by-even shapes with both sides in range decompose."""
    for m in range(4, 21, 2):
        for n in range(4, 21, 2):
            if (m * n) % 6 != 0:
                continue
            design = c6_decompose_bipartite(_sides(m, n))
            assert len(design.blocks) == m * n // 6
            report = verify_design(design, require_both_types=False)
            assert report.valid, (m, n)


def test_arbitrary_vertex_labels():
    rng = random.Random(23)
    labels = rng.sample(range(1000), 18)
    left = frozenset(labels[:6])
    right = frozenset(labels[6:])
    design = c6_decompose_bipartite(CompleteBipartite(left, right))
    assert design.host == CompleteBipartite(left, right)
    report = verify_design(design, require_both_types=False)
    assert report.valid
    assert len(design.blocks) == 12


def _sorted_side_fill(host):
    """Reference fill: each seed placed on a (part, group) pair through a
    dict from the seed's sorted left side onto the part and its sorted right
    side onto the group, which assumes nothing about the seed's labels."""
    m = len(host.left)
    axis, other = sorted(host.left), sorted(host.right)
    if m % 6:
        axis, other = other, axis
    groups = [axis[i : i + 6] for i in range(0, len(axis), 6)]
    parts, at = [], 0
    for size in side_partition(len(other)):
        parts.append(other[at : at + size])
        at += size
    blocks = []
    for group in groups:
        for part in parts:
            seed = load_base("bipartite:6x6" if len(part) == 6 else "bipartite:4x6")
            mapping = dict(zip(sorted(seed.host.left), part))
            mapping.update(zip(sorted(seed.host.right), group))
            blocks.extend(Hexagon(tuple(mapping[v] for v in b.vertices)) for b in seed.blocks)
    return tuple(blocks)


def test_fill_matches_sorted_side_reference():
    # positional placement must give the same blocks in the same order as
    # the per-side dicts, whatever the labels of the two sides
    rng = random.Random(29)
    sides = range(4, 25, 2)
    for m in sides:
        for n in sides:
            if (m * n) % 6:
                continue
            shuffled = rng.sample(range(1000), m + n)
            for labels in (list(range(m + n)), shuffled):
                host = CompleteBipartite(frozenset(labels[:m]), frozenset(labels[m:]))
                assert c6_decompose_bipartite(host).blocks == _sorted_side_fill(host), (m, n)


def test_deterministic_output():
    a = c6_decompose_bipartite(_sides(6, 10))
    b = c6_decompose_bipartite(_sides(6, 10))
    assert a == b


def test_seeds_are_loaded_once_per_fill(monkeypatch):
    # K_{24,24} tiles 4 groups by 4 parts; the two seeds are fetched once
    # each, not once per (group, part) cell
    loads = []

    def counting_load(key):
        loads.append(key)
        return load_base(key)

    monkeypatch.setattr(bipartite, "load_base", counting_load)
    design = c6_decompose_bipartite(_sides(24, 24))
    assert len(design.blocks) == 96
    assert len(loads) <= 2
