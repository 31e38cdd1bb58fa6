from __future__ import annotations

import os
import sys
import threading
from collections import Counter

import pytest

from hexprism import bases
from hexprism.bipartite import c6_decompose_bipartite
from hexprism.catalog import get, keys
from hexprism.core import (
    CompleteBipartite,
    Hexagon,
    Prism,
    canonical_form,
    edge,
    relabel_block,
)
from hexprism.designfile import dumps_design
from hexprism.verifier import incidence_table, verify_design

import _original_labels as source


def _shift_hexagon(t):
    return Hexagon(tuple(v - 1 for v in t))


def _shift_prism(pair):
    first, second = pair
    return Prism(tuple(v - 1 for v in first), tuple(v - 1 for v in second))


def _shift_edges(pairs):
    return {edge(u - 1, v - 1) for u, v in pairs}


def _canonical_multiset(blocks):
    return Counter(canonical_form(b) for b in blocks)


def _source_multiset(entry):
    shifted = [_shift_prism(p) for p in entry["prisms"]]
    shifted += [_shift_hexagon(h) for h in entry["hexagons"]]
    return Counter(canonical_form(b) for b in shifted)


def test_k6_matches_source():
    design = get("decomposition:6")
    assert _canonical_multiset(design.blocks) == Counter(
        [
            canonical_form(_shift_hexagon(source.K6_HEXAGON)),
            canonical_form(_shift_prism(source.K6_PRISM)),
        ]
    )


@pytest.mark.parametrize("n", sorted(source.DECOMPOSITIONS))
def test_decompositions_match_source(n):
    design = get(f"decomposition:{n}")
    assert _canonical_multiset(design.blocks) == _source_multiset(
        source.DECOMPOSITIONS[n]
    )
    assert not design.leave and not design.padding


@pytest.mark.parametrize("n", sorted(source.PACKINGS))
def test_packings_match_source(n):
    design = get(f"packing:{n}")
    entry = source.PACKINGS[n]
    assert _canonical_multiset(design.blocks) == _source_multiset(entry)
    assert design.leave == frozenset(_shift_edges(entry["leave"]))


@pytest.mark.parametrize("n", [7, 8, 11])
def test_coverings_match_source(n):
    design = get(f"covering:{n}")
    entry = source.COVERINGS[n]
    assert _canonical_multiset(design.blocks) == _source_multiset(entry)
    assert Counter(design.padding) == Counter(sorted(_shift_edges(entry["padding"])))


def test_covering_17_assembles_listed_and_fills():
    design = get("covering:17")
    entry = source.COVERINGS[17]
    got = _canonical_multiset(design.blocks)

    listed = _source_multiset(entry)
    assert listed == Counter({b: min(got[b], c) for b, c in listed.items()})

    # the nine-vertex fill is the bundled hexagon decomposition, shifted
    offset = entry["fill_nine_vertices"][0] - 1
    nine = get("hexagons:9")
    fill9 = Counter(
        canonical_form(relabel_block(b, {v: v + offset for v in range(9)}))
        for b in nine.blocks
    )
    rest = got - listed
    assert fill9 == Counter({b: min(rest[b], c) for b, c in fill9.items()})

    bipartite_part = rest - fill9
    left = {v - 1 for v in entry["fill_bipartite_left"]}
    right = {v - 1 for v in entry["fill_bipartite_right"]}
    assert sum(bipartite_part.values()) == len(left) * len(right) // 6
    for block in bipartite_part:
        assert isinstance(block, Hexagon)
        sides = [("L" if v in left else "R") for v in block.vertices]
        assert sides in (["L", "R"] * 3, ["R", "L"] * 3)

    assert Counter(design.padding) == Counter(sorted(_shift_edges(entry["padding"])))
    assert design.hexagon_count == 20 and design.prism_count == 2


def test_covering_17_fills_match_the_assembly_block_for_block():
    # the assembly the frozen file was made from, rebuilt block for block
    blocks = get("covering:17").blocks
    assert len(blocks) == 22
    nine = get("hexagons:9")
    assert blocks[8:14] == tuple(relabel_block(b, range(8, 17)) for b in nine.blocks)
    fill = c6_decompose_bipartite(CompleteBipartite(range(8), range(11, 17)))
    assert blocks[14:] == fill.blocks
    assert get("covering:17").padding == ((2, 4), (6, 7))


def test_load_base_first_gives_the_whole_covering_17():
    bases._cache.clear()
    design = bases.load_base("covering:17")
    assert verify_design(design).valid
    assert len(design.blocks) == 22
    assert design is get("covering:17")


_SINGLE_SHAPE = {"hexagons", "prisms", "bipartite"}


def test_every_entry_verifies():
    listing = keys()
    assert len(listing) == 17

    def order_key(key):
        kind, _, order = key.partition(":")
        return (kind, tuple(int(x) for x in order.split("x")))

    assert list(listing) == sorted(listing, key=order_key)
    for key in listing:
        design = get(key)
        kind = key.partition(":")[0]
        report = verify_design(design, require_both_types=kind not in _SINGLE_SHAPE)
        assert report.valid, (key, [f.code for f in report.failures])


@pytest.mark.parametrize("key", keys())
def test_data_files_are_canonical(key):
    # each shipped file is the encoder's own text for the design it holds
    path = os.path.join(os.path.dirname(bases.__file__), "data", f"{bases.FILES[key]}.json")
    with open(path, encoding="utf-8", newline="") as fp:
        assert fp.read() == dumps_design(get(key))


def test_block_counts_of_bundled_decompositions():
    for n, (hx, pr) in {6: (1, 1), 13: (7, 4), 15: (10, 5), 19: (15, 9)}.items():
        design = get(f"decomposition:{n}")
        assert (design.hexagon_count, design.prism_count) == (hx, pr), n


def test_get_caches():
    assert get("packing:9") is get("packing:9")
    assert get("covering:17") is get("covering:17")


def test_concurrent_first_access_builds_each_entry_once():
    bases._cache.clear()
    seen = [[] for _ in range(8)]

    def fetch(out):
        for key in keys():
            out.append(get(key))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fetch, args=(out,)) for out in seen]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for column in zip(*seen):
        assert all(design is column[0] for design in column)
    assert all(len(out) == len(keys()) for out in seen)


def test_unknown_key_rejected():
    for key in ("decomposition:99", "decomposition:4x6", "bipartite:6", "junk"):
        with pytest.raises(KeyError):
            get(key)


def test_derived_bases_load():
    nine = get("hexagons:9")
    assert nine.hexagon_count == 6 and nine.prism_count == 0
    assert incidence_table(nine) == {v: (4, 0) for v in range(9)}

    ten = get("prisms:10")
    assert ten.prism_count == 5 and ten.hexagon_count == 0
    assert incidence_table(ten) == {v: (0, 3) for v in range(10)}


def test_bipartite_seeds():
    b46 = get("bipartite:4x6")
    assert b46.hexagon_count == 4
    b66 = get("bipartite:6x6")
    assert b66.hexagon_count == 6
