from __future__ import annotations

import hashlib
import itertools
import random
import time
from collections import Counter

import pytest

from hexprism import core, verifier
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
    host_edges,
    host_vertices,
    relabel_design,
)
from hexprism.designfile import loads_design
from hexprism.verifier import Finding, incidence_table, verify_design


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
    damaged = base.replace(blocks=base.blocks[:hex_index] + base.blocks[hex_index + 1 :])
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
    report = verify_design(base.replace(blocks=tuple(blocks)))
    assert not report.valid
    assert "repeated-vertex" in _codes(report)


def test_duplicated_block_overcovers():
    base = _k6_pair()
    report = verify_design(
        base.replace(blocks=base.blocks + base.blocks[:1])
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


def test_malformed_block_object_is_a_bad_block_finding():
    # blocks built without __init__ skip the shape check; each must give a
    # finding, not an exception, whichever counting path sees it first
    malformed = [
        core._unchecked(Prism, (0, 1, 2, 3, 4)),
        core._unchecked(Prism, [0, 1, 2, 3, 4, 5]),
        core._unchecked(Hexagon, 5),
        core._unchecked(Hexagon, None),
        object.__new__(Prism),
        object.__new__(Hexagon),
    ]
    for design in (catalog_get("decomposition:6"), catalog_get("bipartite:4x6")):
        i = len(design.blocks)
        for block in malformed:
            bad = design.replace(blocks=design.blocks + (block,))
            report = verify_design(bad, require_both_types=False)
            assert report.failures == (
                Finding("bad-block", f"block {i} is not a hexagon or prism", blocks=(i,)),
            )


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
    report = verify_design(base.replace(blocks=(bad,) + base.blocks[1:]))
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
    with_leave = base.replace(leave=frozenset({(0, 1)}))
    assert "unexpected-leave" in _codes(verify_design(with_leave))
    with_padding = base.replace(padding=((0, 1),))
    assert "unexpected-padding" in _codes(verify_design(with_padding))


def test_leave_overlap_and_outside_host():
    packing = catalog_get("packing:8")
    covered = min(block_edges(packing.blocks[0]))
    overlapping = packing.replace(leave=packing.leave | {covered})
    assert "leave-overlap" in _codes(verify_design(overlapping))

    outside = packing.replace(leave=packing.leave | {(0, 99)})
    assert "leave-outside-host" in _codes(verify_design(outside))


def test_padding_outside_host():
    covering = catalog_get("covering:8")
    damaged = covering.replace(padding=covering.padding + ((3, 88),))
    assert "padding-outside-host" in _codes(verify_design(damaged))


def test_packing_missing_leave_edge_detected():
    packing = catalog_get("packing:8")
    report = verify_design(packing.replace(leave=frozenset()))
    assert not report.valid
    assert "uncovered-edges" in _codes(report)


def test_covering_with_wrong_padding_detected():
    covering = catalog_get("covering:8")
    report = verify_design(covering.replace(padding=()))
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
        base.replace(blocks=(swapped, rolled))
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

    # K_{12,18} with one block dropped and a leave edge inside the left side
    fill = c6_decompose_bipartite(CompleteBipartite(range(12), range(12, 30)))
    assert verify_design(fill, require_both_types=False).valid
    dropped = fill.blocks[7]
    broken = fill.replace(kind=Kind.PACKING, leave=frozenset({(1, 0)}),
                          blocks=fill.blocks[:7] + fill.blocks[8:])
    report = verify_design(broken, require_both_types=False)
    assert [(f.code, f.edges) for f in report.failures] == [
        ("leave-outside-host", ((0, 1),)),
        ("uncovered-edges", tuple(sorted(block_edges(dropped)))),
        ("overcovered-edges", ((0, 1),)),
    ]
    assert report.hexagon_count == len(fill.blocks) - 1 == 35


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
    short = full.replace(leave=frozenset(rest[1:]))
    (finding,) = verify_design(short).failures
    assert finding.code == "uncovered-edges"
    assert "21 host edges" in finding.message and "at most 20" in finding.message


def test_non_integer_leave_edge_is_outside_the_host():
    packing = catalog_get("packing:8")
    report = verify_design(packing.replace(leave=packing.leave | {(0, 1.5)}))
    assert [(f.code, f.message, f.edges) for f in report.failures] == [
        ("leave-outside-host", "leave edges not in the host: [(0, 1.5)]", ((0, 1.5),)),
        ("overcovered-edges", "1 edge uses beyond the host: ((0, 1.5),)", ((0, 1.5),)),
    ]


def test_non_integer_padding_edge_is_outside_the_host():
    covering = catalog_get("covering:8")
    report = verify_design(covering.replace(padding=covering.padding + ((0, 2.5),)))
    assert [(f.code, f.message, f.edges) for f in report.failures] == [
        ("padding-outside-host", "padding edges not in the host: [(0, 2.5)]", ((0, 2.5),)),
        ("uncovered-edges", "1 host edge uses not covered: ((0, 2.5),)", ((0, 2.5),)),
    ]


def _explicit_k6():
    k6 = catalog_get("decomposition:6")
    return k6.replace(host=Explicit(tuple(itertools.combinations(range(6), 2))))


@pytest.mark.parametrize(
    "base",
    [lambda: catalog_get("decomposition:6"), lambda: catalog_get("bipartite:4x6"), _explicit_k6],
    ids=["complete", "bipartite", "explicit"],
)
def test_float_or_bool_leave_and_padding_vertex_is_outside_every_host(base):
    # 1.0 and True equal the int 1, yet no host has them as vertices: every
    # host reports them as outside, never as the host edge (1, 5)
    design = base()
    cases = [
        (Kind.PACKING, {"leave": frozenset({(1.0, 5)})},
         [("leave-outside-host", "leave edges not in the host: [(1.0, 5)]"),
          ("overcovered-edges", "1 edge uses beyond the host: ((1.0, 5),)")]),
        (Kind.COVERING, {"padding": ((1.0, 5),)},
         [("padding-outside-host", "padding edges not in the host: [(1.0, 5)]"),
          ("uncovered-edges", "1 host edge uses not covered: ((1.0, 5),)")]),
        (Kind.PACKING, {"leave": frozenset({(True, 5)})},
         [("leave-outside-host", "leave edges not in the host: [(True, 5)]"),
          ("overcovered-edges", "1 edge uses beyond the host: ((True, 5),)")]),
    ]
    for kind, change, expected in cases:
        report = verify_design(design.replace(kind=kind, **change),
                               require_both_types=False)
        assert [(f.code, f.message) for f in report.failures] == expected


def test_mixed_type_leave_and_wrong_kind_or_host_are_findings():
    from hexprism.constructions import max_multipack, multidecompose

    packing = max_multipack(8)
    edge_codes = {"leave-outside-host", "uncovered-edges", "overcovered-edges"}
    cases = [
        (packing.replace(leave=[("a", "b"), (1.0, 2.0)]), edge_codes),
        (packing.replace(leave=[("a", "b")], blocks=packing.blocks[:1] + packing.blocks),
         edge_codes),
        (multidecompose(13).replace(leave=[("a", "b"), (0.5, 1)]), {"unexpected-leave"}),
        (Design(packing.host, "packing", packing.blocks, leave=packing.leave), {"bad-kind"}),
        (packing.replace(host=None), {"bad-host"}),
        (packing.replace(host=(8,)), {"bad-host"}),
    ]
    for design, codes in cases:
        report = verify_design(design)
        assert _codes(report) == codes
    # pairs of numbers come first in value order, any other pair after them
    (outside, _, extra) = verify_design(cases[0][0]).failures
    assert outside.edges == extra.edges == ((1.0, 2.0), ("a", "b"))
    # the constructor sorts padding but never hashes it: an unhashable
    # endpoint is named once as outside the host and counted once per use
    covering = packing.replace(kind=Kind.COVERING, leave=(), padding=[([1], [2])] * 2)
    report = verify_design(covering)
    assert [(f.code, f.edges) for f in report.failures] == [
        ("padding-outside-host", (([1], [2]),)),
        ("uncovered-edges", ((2, 5), ([1], [2]), ([1], [2]))),
    ]


def test_seeded_leave_and_padding_of_any_type_never_raise():
    from hexprism.constructions import max_multipack, min_multicover, multidecompose

    endpoints = (0, 5, 9, -1, True, 1.0, 2.5, "a", "b")
    bases = (max_multipack(8), min_multicover(8), multidecompose(13))
    rng = random.Random(47)
    checked = odd = 0
    while checked < 2000:
        base = rng.choice(bases)
        kind = rng.choice(list(Kind))
        pairs = [(rng.choice(endpoints), rng.choice(endpoints)) for _ in range(rng.randrange(4))]
        field = rng.choice(("leave", "padding"))
        try:
            if rng.random() < 0.5:
                design = Design(base.host, kind, base.blocks, **{field: pairs})
            else:
                design = base.replace(kind=kind, **{field: pairs})
        except (TypeError, ValueError):  # a loop, or endpoints that do not compare
            continue
        report = verify_design(design)
        assert isinstance(report, verifier.VerificationReport)
        if any(type(x) is not int for pair in pairs for x in pair):
            assert not report.valid, design
            odd += 1
        checked += 1
    assert odd > 500


# ---------------------------------------------------------------------------
# seeded fuzzing: every mutation of a valid design must be flagged, and the
# findings over the whole seeded set are pinned by one digest


def _fuzz_bases():
    from hexprism.constructions import max_multipack, min_multicover, multidecompose

    prism = Prism((0, 1, 2), (3, 4, 5))
    multigraph = Design(
        host=Explicit(tuple(sorted(block_edges(prism))) * 2),
        kind=Kind.DECOMPOSITION,
        blocks=(prism, prism),
    )
    return (
        [(multidecompose(n), True) for n in (6, 12, 13, 22)]
        + [(max_multipack(n), True) for n in (7, 8, 9, 14)]
        + [(min_multicover(n), True) for n in (8, 10, 11, 17)]
        + [(catalog_get("bipartite:4x6"), False), (catalog_get("hexagons:9"), False),
           (multigraph, False)]
    )


def _rebuild(block, vs):
    return Hexagon(tuple(vs)) if isinstance(block, Hexagon) else Prism(tuple(vs[:3]), tuple(vs[3:]))


def _replace_block(design, i, block):
    return design.replace(blocks=design.blocks[:i] + (block,) + design.blocks[i + 1 :])


def _mutations(rng, design):
    """(name, mutated design) pairs; each breaks the design it starts from."""
    blocks = design.blocks
    vs_host = list(host_vertices(design.host))
    top = max(vs_host)
    host_pairs = sorted(
        (u, v) for u, v in itertools.combinations(vs_host, 2)
        if (u, v) not in design.leave
    )
    i = rng.randrange(len(blocks))
    block = blocks[i]
    vs = list(block.vertices)
    j, k = rng.sample(range(6), 2)
    yield "drop", design.replace(blocks=blocks[:i] + blocks[i + 1 :])
    yield "duplicate", design.replace(blocks=blocks[:i] + (block,) + blocks[i:])
    others = [v for v in vs_host if v not in vs]
    if others:
        moved = vs[:]
        moved[j] = rng.choice(others)
        yield "retarget", _replace_block(design, i, _rebuild(block, moved))
    if isinstance(block, Hexagon):
        swapped = Prism(tuple(vs[:3]), tuple(vs[3:]))
    else:
        swapped = Hexagon(tuple(vs))
    yield "swap", _replace_block(design, i, swapped)
    for name, outside in (("outside-n", top + 1), ("outside-n+5", top + 6), ("outside--1", -1)):
        moved = vs[:]
        moved[j] = outside
        yield name, _replace_block(design, i, _rebuild(block, moved))
    repeated = vs[:]
    repeated[j] = repeated[k]
    yield "repeat", _replace_block(design, i, _rebuild(block, repeated))
    stray = rng.choice(host_pairs)
    yield "leave", design.replace(leave=design.leave | {stray})
    yield "padding", design.replace(padding=design.padding + (stray,))
    yield "leave-non-int", design.replace(leave=design.leave | {(vs[0], 0.5)})
    yield "padding-non-int", design.replace(padding=design.padding + ((vs[0], 1.5),))
    copies = rng.randrange(256, 300)
    yield "copies", design.replace(blocks=blocks + (block,) * copies)
    yield "huge-host", design.replace(host=Complete(10**6))
    yield "larger-host", design.replace(host=Complete(top + 3))


def _fingerprint(report) -> str:
    return repr((
        report.valid,
        report.hexagon_count,
        report.prism_count,
        [(f.code, f.message, f.blocks, f.edges) for f in report.failures],
        sorted(report.incidence.items()),
    ))


# a new value means some finding, count or incidence moved
FUZZ_DIGEST = "00b11f708f8ce23462407bdbee6e02fd6c2a18220b7f06ad1bb693ea6713f9b8"


def test_seeded_mutations_are_all_flagged():
    rng = random.Random(20171)
    digest = hashlib.sha256()
    mutated = 0
    for design, both in _fuzz_bases():
        report = verify_design(design, require_both_types=both)
        assert report.valid
        digest.update(_fingerprint(report).encode())
        for _ in range(3):
            for name, bad in _mutations(rng, design):
                report = verify_design(bad, require_both_types=both)
                assert not report.valid, name
                digest.update(f"{name}:{_fingerprint(report)}".encode())
                mutated += 1
    assert mutated > 600
    assert digest.hexdigest() == FUZZ_DIGEST


# ---------------------------------------------------------------------------
# large designs on every host type, counted inline on complete hosts and
# block by block on the others, against a plain Counter reference;
# malformed blocks send a complete host down the block-by-block loop too


def _large_design(build):
    """The design a parameter names: a construction at an order, the
    bipartite fill of K_{a,b}, or an explicit multigraph made of K_n's edges
    and those of the first 40 blocks of its decomposition, blocks repeated."""
    from hexprism import constructions
    from hexprism.bipartite import c6_decompose_bipartite

    name, size = build.split(":")
    if name == "c6_decompose_bipartite":
        a, b = map(int, size.split("x"))
        return c6_decompose_bipartite(CompleteBipartite(range(a), range(a, a + b)))
    if name == "explicit":
        design = constructions.multidecompose(int(size))
        again = design.blocks[:40]
        edges = [*itertools.combinations(range(int(size)), 2),
                 *itertools.chain.from_iterable(map(block_edges, again))]
        return design.replace(host=Explicit(tuple(edges)),
                              blocks=design.blocks + again)
    return getattr(constructions, name)(int(size))


def _reference(design, host, both):
    """What a Counter count says of a design on a host whose edge multiset
    is given: (valid, uncovered edge uses, overcovered edge uses, hexagons,
    prisms, leave, padding)."""
    host = host.copy()
    host.update(tuple(sorted(e)) for e in design.padding)
    used = Counter(tuple(sorted(e)) for e in design.leave)
    good = [b for b in design.blocks
            if {type(v) for v in b.vertices} == {int} and len(set(b.vertices)) == 6]
    used.update(itertools.chain.from_iterable(map(block_edges, good)))
    shapes = Counter(map(type, good))
    malformed = len(good) < len(design.blocks)
    changed = {e for e, _ in host.items() ^ used.items()}
    uncovered = tuple(sorted(e for e in changed for _ in range(host[e] - used[e])))
    extra = tuple(sorted(e for e in changed for _ in range(used[e] - host[e])))
    valid = not (malformed or uncovered or extra) and (
        not both or (shapes[Hexagon] > 0 and shapes[Prism] > 0))
    return valid, uncovered, extra, shapes[Hexagon], shapes[Prism], design.leave, design.padding


def _observed(report):
    edges = {f.code: f.edges for f in report.failures}
    return (report.valid, edges.get("uncovered-edges", ()), edges.get("overcovered-edges", ()),
            report.hexagon_count, report.prism_count, report.leave, report.padding)


def _large_mutations(design, shape):
    """(name, mutated design, whether the inline path counts it) triples;
    the vertex mutations change the first block of the given shape, and
    only a complete host is ever counted inline."""
    complete = isinstance(design.host, Complete)
    host_vs = host_vertices(design.host)
    blocks = design.blocks
    yield "valid", design, complete
    yield "drop", design.replace(blocks=blocks[:-1]), complete
    yield "duplicate", design.replace(blocks=blocks + blocks[-1:]), complete
    i = next(i for i, b in enumerate(blocks) if isinstance(b, shape))
    vs = list(blocks[i].vertices)
    others = sorted(set(host_vs) - set(vs))
    for name, v, inline in (("retarget", others[len(others) // 2], complete),
                            ("repeat", vs[1], False), ("n", host_vs[-1] + 1, False),
                            ("-1", -1, False), ("True", True, False), ("1.0", 1.0, False),
                            ("[0]", [0], False)):
        moved = vs[:]
        moved[3] = v
        yield name, _replace_block(design, i, _rebuild(blocks[i], moved)), inline


@pytest.mark.parametrize("build, shape", [
    ("multidecompose:601", Hexagon), ("max_multipack:452", Prism), ("min_multicover:455", Hexagon),
    ("c6_decompose_bipartite:120x180", Hexagon), ("explicit:121", Prism),
])
def test_large_orders_match_a_counter_reference(build, shape, monkeypatch):
    design = _large_design(build)
    host = host_edges(design.host)
    both = {Hexagon, Prism} <= set(map(type, design.blocks))
    inline_counts = verifier._inline_counts
    block_by_block = verifier._block_by_block
    looped = []

    def spy(*args):
        looped.append(True)
        return block_by_block(*args)

    monkeypatch.setattr(verifier, "_block_by_block", spy)
    for mutation, bad, inline in _large_mutations(design, shape):
        looped.clear()
        report = verify_design(bad, require_both_types=both)
        assert looped == ([] if inline else [True]), mutation
        assert _observed(report) == _reference(bad, host, both), mutation
        assert report.valid is (mutation == "valid"), mutation
        if mutation in ("True", "1.0", "[0]"):
            assert report.failures[0].code == "non-integer-vertex", mutation
        if inline:
            # the block-by-block loop gives the same report, to the message
            monkeypatch.setattr(verifier, "_inline_counts", lambda *args: None)
            assert _fingerprint(verify_design(bad)) == _fingerprint(report), mutation
            monkeypatch.setattr(verifier, "_inline_counts", inline_counts)
