from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter

import pytest

from hexprism.bases import load_base
from hexprism.catalog import get as catalog_get
from hexprism.core import (
    Complete,
    CompleteBipartite,
    Explicit,
    Hexagon,
    Kind,
    Prism,
    block_edges,
    canonical_form,
    host_edges,
)
from hexprism.designfile import dumps_design
from hexprism.search import (
    InfeasibleBoundError,
    MultigraphHostError,
    SearchConfig,
    SearchStats,
    Status,
    _leave_candidates,
    confirm_nonexistence,
    find_extremal,
    hexagons_through,
    merge_stats,
    prisms_through,
    search_multidecomposition,
)
from hexprism.verifier import verify_design


def _complete_adjacency(n):
    return {v: set(range(n)) - {v} for v in range(n)}


def test_hexagons_through_complete_host():
    adj = _complete_adjacency(6)
    found = hexagons_through(adj, (0, 1))
    # 6-cycles through a fixed edge of K6: choose and order the path 4!
    assert len(found) == 24
    assert len({canonical_form(h) for h in found}) == 24
    for h in found:
        assert (0, 1) in [tuple(sorted(e)) for e in map(sorted, block_edges(h))] or (
            0,
            1,
        ) in block_edges(h)


def test_prisms_through_complete_host():
    adj = _complete_adjacency(6)
    found = prisms_through(adj, (0, 1))
    canon = {canonical_form(p) for p in found}
    assert len(found) == len(canon)
    # brute force: of the 60 labeled prisms on 6 vertices, those using edge 0-1
    from itertools import permutations

    expect = {
        canonical_form(Prism(perm[:3], perm[3:]))
        for perm in permutations(range(6))
        if (0, 1) in block_edges(Prism(perm[:3], perm[3:]))
    }
    assert canon == expect


def _random_adjacency(rng, n, p):
    labels = sorted(rng.sample(range(100), n))
    adj = {v: set() for v in labels}
    for u, v in itertools.combinations(labels, 2):
        if rng.random() < p:
            adj[u].add(v)
            adj[v].add(u)
    return adj


@pytest.mark.parametrize("seed", range(4))
def test_blocks_through_match_brute_force(seed):
    # every labeled 6-tuple, read as a hexagon and as a prism, kept with its
    # edges if all of them are in the adjacency
    rng = random.Random(seed)
    adj = _random_adjacency(rng, 8, 0.6)
    shapes = {Hexagon: [], Prism: []}
    for t in itertools.permutations(adj, 6):
        for block in (Hexagon(t), Prism(t[:3], t[3:])):
            es = block_edges(block)
            if all(y in adj[x] for x, y in es):
                shapes[type(block)].append((t, es, canonical_form(block)))
    assert shapes[Hexagon] and shapes[Prism]
    edges = sorted((u, v) for u in adj for v in adj[u] if u < v)
    for u, v in edges + [(v, u) for u, v in rng.sample(edges, 3)]:
        hexes = hexagons_through(adj, (u, v))
        prisms = prisms_through(adj, (u, v))
        for shape, found in ((Hexagon, hexes), (Prism, prisms)):
            every = {c for _, es, c in shapes[shape] if (min(u, v), max(u, v)) in es}
            assert {canonical_form(b) for b in found} == every
            assert len(found) == len(every)
        tuples = [t for t, _, _ in shapes[Hexagon]]
        assert [h.vertices for h in hexes] == sorted(t for t in tuples if t[:2] == (u, v))
        # (u, v) in the first triangle, then (u, v) as the first rung
        tuples = [t for t, _, _ in shapes[Prism]]
        assert [p.first + p.second for p in prisms] == sorted(
            t for t in tuples if t[:2] == (u, v)
        ) + sorted(t for t in tuples if (t[0], t[3]) == (u, v) and t[1] < t[2])


def test_search_k6_matches_bundled_design():
    outcome = search_multidecomposition(
        Complete(6), SearchConfig(symmetry_breaking=True)
    )
    assert outcome.status is Status.FOUND
    report = verify_design(outcome.design)
    assert report.valid
    bundled = catalog_get("decomposition:6")
    assert Counter(map(canonical_form, outcome.design.blocks)) == Counter(
        map(canonical_form, bundled.blocks)
    )


def test_search_k7_exhausts():
    outcome = search_multidecomposition(
        Complete(7), SearchConfig(symmetry_breaking=True)
    )
    assert outcome.status is Status.EXHAUSTED
    assert outcome.design is None
    assert outcome.stats.nodes >= 1


def test_search_k12_finds_both_shapes():
    outcome = search_multidecomposition(
        Complete(12),
        SearchConfig(
            min_hexagons=1, min_prisms=1, symmetry_breaking=True, node_budget=100_000
        ),
    )
    assert outcome.status is Status.FOUND
    report = verify_design(outcome.design)
    assert report.valid
    assert report.hexagon_count >= 1 and report.prism_count >= 1


def test_search_k9_hexagons_matches_frozen():
    outcome = search_multidecomposition(
        Complete(9),
        SearchConfig(prisms=False, symmetry_breaking=True),
    )
    assert outcome.status is Status.FOUND
    frozen = load_base("hexagons:9")
    assert Counter(map(canonical_form, outcome.design.blocks)) == Counter(
        map(canonical_form, frozen.blocks)
    )


def test_search_k10_prisms_matches_frozen():
    outcome = search_multidecomposition(
        Complete(10),
        SearchConfig(hexagons=False, symmetry_breaking=True),
    )
    assert outcome.status is Status.FOUND
    frozen = load_base("prisms:10")
    assert Counter(map(canonical_form, outcome.design.blocks)) == Counter(
        map(canonical_form, frozen.blocks)
    )


def test_search_bipartite_host():
    host = CompleteBipartite(frozenset(range(6)), frozenset(range(6, 12)))
    outcome = search_multidecomposition(
        host, SearchConfig(prisms=False, symmetry_breaking=True, node_budget=50_000)
    )
    assert outcome.status is Status.FOUND
    assert len(outcome.design.blocks) == 6
    assert verify_design(outcome.design, require_both_types=False).valid


def test_budget_halts_search():
    outcome = search_multidecomposition(
        Complete(12), SearchConfig(symmetry_breaking=True, node_budget=2)
    )
    assert outcome.status is Status.BUDGET
    assert outcome.design is None


def test_large_host_requires_budget():
    with pytest.raises(ValueError, match="budget"):
        search_multidecomposition(Complete(12), SearchConfig())


def test_multigraph_host_rejected():
    with pytest.raises(MultigraphHostError):
        search_multidecomposition(
            Explicit(((0, 1), (0, 1), (1, 2))), SearchConfig()
        )


def test_infeasible_edge_count_exhausts_immediately():
    # 10 edges cannot be 6x + 9y
    host = Explicit(tuple(sorted(host_edges(Complete(5)))))
    outcome = search_multidecomposition(host, SearchConfig())
    assert outcome.status is Status.EXHAUSTED


def test_extremal_packing_bound_rejected_arithmetically():
    with pytest.raises(InfeasibleBoundError, match="no solution"):
        find_extremal(Complete(7), Kind.PACKING, 3)
    with pytest.raises(InfeasibleBoundError):
        find_extremal(Complete(8), Kind.PACKING, 2)


def test_extremal_covering_bound_three_exhausts_on_k7():
    outcome = find_extremal(Complete(7), Kind.COVERING, 3)
    assert outcome.status is Status.EXHAUSTED
    assert outcome.design is None
    assert outcome.stats.nodes == 134_701


def test_extremal_packing_finds_k8_leave_one():
    outcome = find_extremal(Complete(8), Kind.PACKING, 1)
    assert outcome.status is Status.FOUND
    design = outcome.design
    assert design.kind is Kind.PACKING
    assert len(design.leave) == 1
    assert verify_design(design).valid


def test_extremal_covering_finds_k8_padding_two():
    outcome = find_extremal(Complete(8), Kind.COVERING, 2, node_budget=200_000)
    assert outcome.status is Status.FOUND
    design = outcome.design
    assert design.kind is Kind.COVERING
    assert len(design.padding) == 2
    assert verify_design(design).valid


_MIXED = SearchConfig(min_hexagons=1, min_prisms=1, symmetry_breaking=True)
_BIPARTITE_6X6 = CompleteBipartite(frozenset(range(6)), frozenset(range(6, 12)))


# status, nodes, placements, max_depth and the sha256 of dumps_design of the
# found design, as the dict-of-sets engine reported them
@pytest.mark.parametrize(
    "run,expected",
    [
        pytest.param(
            lambda: search_multidecomposition(
                Complete(12), SearchConfig(min_hexagons=1, min_prisms=1, symmetry_breaking=True,
                                           node_budget=200_000)),
            ("found", 26, 25, 10, "36e7a525dd7014ff5c68ec6bcb1e362e91c975f40da3614f7cc7e4be3f316e42"),
            id="k12-mixed-find"),
        pytest.param(
            lambda: search_multidecomposition(Complete(9), _MIXED),
            ("exhausted", 479, 478, 2, None),
            id="k9-mixed-exhaust"),
        pytest.param(
            lambda: search_multidecomposition(
                Complete(9), SearchConfig(prisms=False, symmetry_breaking=True)),
            ("found", 13, 12, 6, "547ffbb2070fa414014282bd6736006074f4e3b0ea4bf9eae5af11715701d9ea"),
            id="k9-hex-find"),
        pytest.param(
            lambda: search_multidecomposition(
                Complete(10), SearchConfig(hexagons=False, symmetry_breaking=True)),
            ("found", 6, 5, 5, "ae00ea8038eb9c4982f115ac9e544151fa697fbf862bbe361c0b390bbd37aa3f"),
            id="k10-prism-find"),
        pytest.param(
            lambda: search_multidecomposition(
                _BIPARTITE_6X6,
                SearchConfig(prisms=False, symmetry_breaking=True, node_budget=50_000)),
            ("found", 10, 9, 6, "dba1663326e1c1c7a93b48e79a6848d047738a7023b6e96ba1b9df979c393c62"),
            id="b6x6-hex-find"),
        pytest.param(
            lambda: find_extremal(Complete(8), Kind.PACKING, 1),
            ("found", 402, 401, 4, "bc8adfc7e5c36b4f5cd8e391fc0ed399b73d4f807acc71e5167daa0872c120b5"),
            id="k8-pack1-find"),
        pytest.param(
            lambda: find_extremal(Complete(8), Kind.COVERING, 2, node_budget=200_000),
            ("found", 70, 69, 4, "2d8031363dcc7dbc2661f50e16edbf045348e20b5854968d228535ee3ef8f6de"),
            id="k8-cover2-find"),
        pytest.param(
            lambda: find_extremal(Complete(8), Kind.PACKING, 4),
            ("exhausted", 291, 280, 1, None),
            id="k8-pack4-exhaust"),
        pytest.param(
            # the raw placement enumeration behind confirm_nonexistence(7)
            lambda: search_multidecomposition(
                Complete(7), SearchConfig(min_hexagons=1, min_prisms=1, degree_prunes=False)),
            ("exhausted", 7481, 7480, 3, None),
            id="cert-n7-raw"),
    ],
)
def test_engine_fingerprint_is_pinned(run, expected):
    outcome = run()
    stats = outcome.stats
    digest = None
    if outcome.design is not None:
        digest = hashlib.sha256(dumps_design(outcome.design).encode()).hexdigest()
    assert (outcome.status.value, stats.nodes, stats.placements, stats.max_depth,
            digest) == expected


def test_stats_count_prunes_by_reason():
    raw = search_multidecomposition(
        Complete(7), SearchConfig(min_hexagons=1, min_prisms=1, degree_prunes=False)).stats
    mixed = search_multidecomposition(
        Complete(13), SearchConfig(min_hexagons=1, min_prisms=1, symmetry_breaking=True,
                                   node_budget=3000)).stats
    cover = find_extremal(Complete(8), Kind.COVERING, 2, node_budget=200_000).stats
    reasons = [(s.pruned_block_count, s.pruned_odd_degree, s.pruned_vertex_degree,
                s.skipped_padding_budget) for s in (raw, mixed, cover)]
    assert reasons == [(3200, 0, 0, 0), (0, 678, 2235, 0), (5, 0, 60, 2096)]
    assert all(s.elapsed_s > 0 for s in (raw, mixed, cover))
    total = merge_stats([raw, mixed, cover])
    assert (total.nodes, total.placements, total.max_depth) == (
        raw.nodes + mixed.nodes + cover.nodes, raw.placements + mixed.placements
        + cover.placements, 9)
    assert (total.pruned_block_count, total.pruned_odd_degree, total.pruned_vertex_degree,
            total.skipped_padding_budget) == (3205, 678, 2295, 2096)
    assert total.elapsed_s == pytest.approx(raw.elapsed_s + mixed.elapsed_s + cover.elapsed_s)
    assert merge_stats([]) == SearchStats()


def test_nonexistence_order_seven():
    report = confirm_nonexistence(7)
    assert report.nonexistent
    assert report.branches_agree
    assert report.cases == ((2, 1),)
    assert report.analytic_complete
    assert report.enumerative_complete


def test_nonexistence_order_nine():
    report = confirm_nonexistence(9)
    assert report.nonexistent
    assert report.branches_agree
    assert set(report.cases) == {(3, 2)}
    assert report.enumerative_complete


def test_nonexistence_order_ten():
    report = confirm_nonexistence(10)
    assert report.nonexistent
    assert report.branches_agree
    assert set(report.cases) == {(6, 1), (3, 3)}
    # the all-prisms case falls to arithmetic; the mixed case only to
    # enumeration, since degree 9 admits both one and three prisms per vertex
    assert (6, 1) in report.analytic_eliminated
    assert (3, 3) not in report.analytic_eliminated
    assert report.enumerative_complete


def test_certificate_case_counters_are_pinned():
    # one engine run per (x, y) case, from the root hexagon (0, 1, 2, 3, 4, 5)
    nine = confirm_nonexistence(9).stats
    assert nine == {"case32_nodes": 479, "case32_placements": 478}
    ten = confirm_nonexistence(10).stats
    assert ten == {"case33_nodes": 11565, "case33_placements": 11564,
                   "case61_nodes": 2, "case61_placements": 1}
    for stats in (nine, ten, confirm_nonexistence(7).stats):
        assert all(type(v) is int for v in stats.values())


def test_certificate_reasons_name_the_root_hexagon():
    for n in (9, 10):
        report = confirm_nonexistence(n)
        for (x, y), reason in report.enumerative_eliminated.items():
            assert "root hexagon (0, 1, 2, 3, 4, 5)" in reason
            assert "relabels" in reason
            assert f"exactly {x} hexagons and {y} prisms" in reason
            assert f"exhausted in {report.stats[f'case{x}{y}_nodes']} nodes" in reason


def test_target_counts_find_exact_block_counts():
    outcome = search_multidecomposition(
        Complete(12), SearchConfig(target_counts=(8, 2), symmetry_breaking=True,
                                   node_budget=100_000))
    assert outcome.status is Status.FOUND
    assert outcome.stats.nodes == 1728
    report = verify_design(outcome.design)
    assert report.valid
    assert (report.hexagon_count, report.prism_count) == (8, 2)


def test_target_counts_exhaust_an_impossible_split():
    # two hexagons have 12 edges, not the 15 of K_6, so the root node is cut
    outcome = search_multidecomposition(Complete(6), SearchConfig(target_counts=(2, 0)))
    assert outcome.status is Status.EXHAUSTED
    assert (outcome.stats.nodes, outcome.stats.pruned_block_count) == (1, 1)


@pytest.mark.parametrize(
    "n,bound,classes",
    [(7, 1, 1), (7, 2, 2), (7, 3, 5), (7, 4, 10), (7, 5, 21), (7, 6, 41),
     (8, 2, 2), (8, 3, 5), (8, 4, 11)],
)
def test_leave_class_counts(n, bound, classes):
    reps = _leave_candidates(Complete(n), bound)
    assert len(reps) == classes
    assert reps == sorted(reps)
    assert all(len(set(leave)) == bound for leave in reps)


@pytest.mark.parametrize("n,bound", [(7, b) for b in range(1, 7)] + [(8, b) for b in range(1, 5)])
def test_leave_classes_match_networkx(n, bound):
    nx = pytest.importorskip("networkx")
    expected = []
    reps: dict = {}
    for subset in itertools.combinations(sorted(host_edges(Complete(n))), bound):
        g = nx.Graph(subset)
        bucket = reps.setdefault(tuple(sorted(d for _, d in g.degree())), [])
        if not any(nx.is_isomorphic(g, h) for h in bucket):
            bucket.append(g)
            expected.append(subset)
    assert _leave_candidates(Complete(n), bound) == expected


def test_nonexistence_rejects_other_orders():
    with pytest.raises(ValueError):
        confirm_nonexistence(8)
