from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter

import pytest

from hexprism.bases import load_base
from hexprism.catalog import get as catalog_get
from hexprism.core import (
    EDGE_POSITIONS,
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
    Status,
    _block,
    _degree_ok,
    _hexagons,
    _index,
    _leave_candidates,
    _through,
    confirm_nonexistence,
    find_extremal,
    search_multidecomposition,
)
from hexprism.verifier import verify_design

from _leave_reference import full_scan_leave_classes


def _complete_adjacency(n):
    return {v: set(range(n)) - {v} for v in range(n)}


def _blocks_through(shape, adj, e):
    """The engine's candidates of the shape through edge e of the adjacency,
    in generation order, as blocks on the adjacency's own labels."""
    edges = sorted({(x, y) for x in adj for y in adj[x] if x < y})
    labels, idx, nbr, _ = _index(edges)
    return [_block(shape, vs, labels) for vs in _through(shape, nbr, idx[e[0]], idx[e[1]])]


def test_hexagons_through_complete_host():
    adj = _complete_adjacency(6)
    found = _blocks_through(Hexagon, adj, (0, 1))
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
    found = _blocks_through(Prism, adj, (0, 1))
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
        hexes = _blocks_through(Hexagon, adj, (u, v))
        prisms = _blocks_through(Prism, adj, (u, v))
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


@pytest.mark.parametrize("seed", range(5))
def test_hexagon_walk_matches_filtered_through(seed):
    # on the four sparse adjacencies of test_blocks_through_match_brute_force
    # and on K8, each edge both ways, under random vertex masks ok and need
    # (need empty or 1-6 vertices): the walk yields, in order, the _through
    # hexagons inside ok that cover need, each with the count of those
    # filtered out since the previous one, and then the count of the rest
    rng = random.Random(seed)
    adj = _random_adjacency(rng, 8, 0.6) if seed < 4 else _complete_adjacency(8)
    edges = sorted((u, v) for u in adj for v in adj[u] if u < v)
    _, idx, nbr, _ = _index(edges)
    survived = Counter()
    for u, v in [(idx[a], idx[b]) for a, b in edges] + [(idx[b], idx[a]) for a, b in edges]:
        every = list(_through(Hexagon, nbr, u, v))
        for _ in range(6):
            ok = sum(1 << w for w in range(len(nbr)) if rng.random() < 0.85)
            need = rng.sample(range(len(nbr)), rng.choice([0, 0, 1, 2, 3, 4, 5, 6]))
            kept = [i for i, vs in enumerate(every)
                    if all(ok >> w & 1 for w in vs) and set(need) <= set(vs)]
            walked = list(_hexagons(nbr, u, v, ok, sum(1 << w for w in need)))
            assert [vs for _, vs in walked] == [every[i] for i in kept] + [None]
            assert [skipped for skipped, _ in walked] == [
                i - j - 1 for i, j in zip(kept + [len(every)], [-1] + kept)]
            survived[bool(need)] += len(kept)
    assert survived[False] and survived[True]


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


@pytest.mark.parametrize(
    "run,nodes",
    [(lambda: search_multidecomposition(
        Complete(12), SearchConfig(symmetry_breaking=True, node_budget=2)), 3),
     # the budget holds per leave class, and the stats sum over the classes tried
     (lambda: find_extremal(Complete(8), Kind.PACKING, 4, node_budget=5), 16)],
    ids=["decomposition", "packing"],
)
def test_budget_halts_search(run, nodes):
    outcome = run()
    assert outcome.status is Status.BUDGET
    assert outcome.design is None
    assert outcome.stats.nodes == nodes


@pytest.mark.parametrize("n", [21, 33])
def test_budget_bounds_candidate_builds(n, monkeypatch):
    # candidates are walked only as they are tried, so a budget stop comes
    # after a handful of them however large the host; an item pulled from the
    # hexagon walk stands for its survivor and the run it passed over
    from hexprism import search

    through, hexagons, walked = search._through, search._hexagons, [0]

    def counting_through(*args):
        for candidate in through(*args):
            walked[0] += 1
            yield candidate

    def counting_hexagons(*args):
        for skipped, vs in hexagons(*args):
            walked[0] += skipped + (vs is not None)
            yield skipped, vs

    monkeypatch.setattr(search, "_through", counting_through)
    monkeypatch.setattr(search, "_hexagons", counting_hexagons)
    outcome = search_multidecomposition(
        Complete(n), SearchConfig(min_hexagons=1, min_prisms=1, symmetry_breaking=True,
                                  node_budget=5))
    assert outcome.status is Status.BUDGET
    assert 0 < walked[0] <= 100


# a negative budget or bound is refused by value, not read as a budget stop,
# an exhausted run or a failure inside the leave enumeration
@pytest.mark.parametrize(
    "run,match",
    [(lambda: search_multidecomposition(Complete(12), SearchConfig()), "budget"),
     (lambda: find_extremal(Complete(11), Kind.PACKING, 1), "budget"),
     (lambda: find_extremal(Complete(11), Kind.COVERING, 2), "budget"),
     (lambda: SearchConfig(node_budget=-5), "node_budget must be non-negative, got -5"),
     (lambda: find_extremal(Complete(9), Kind.PACKING, 3, node_budget=-5), "got -5"),
     (lambda: find_extremal(Complete(9), Kind.PACKING, -3),
      "packing bound must be non-negative, got -3"),
     (lambda: find_extremal(Complete(9), Kind.COVERING, -3),
      "covering bound must be non-negative, got -3")],
    ids=["decomposition", "packing", "covering", "negative-budget", "negative-extremal-budget",
         "negative-packing-bound", "negative-covering-bound"],
)
def test_large_host_requires_budget(run, match):
    with pytest.raises(ValueError, match=match):
        run()


_MULTIGRAPH = Explicit(((0, 1), (0, 1), (1, 2)))


@pytest.mark.parametrize(
    "run",
    [lambda: search_multidecomposition(_MULTIGRAPH, SearchConfig()),
     # raised before the block-count check, which 3 edges = 6x + 9y would fail
     lambda: find_extremal(_MULTIGRAPH, Kind.PACKING, 0)],
    ids=["decomposition", "packing"],
)
def test_multigraph_host_rejected(run):
    with pytest.raises(MultigraphHostError):
        run()


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


def _counts(outcome):
    """Status and every SearchStats field but elapsed_s."""
    s = outcome.stats
    return (outcome.status.value, s.nodes, s.placements, s.max_depth, s.pruned_block_count,
            s.pruned_odd_degree, s.pruned_vertex_degree, s.skipped_padding_budget)


def test_extremal_covering_bound_three_exhausts_on_k7():
    outcome = find_extremal(Complete(7), Kind.COVERING, 3)
    assert outcome.design is None
    assert _counts(outcome) == ("exhausted", 134_701, 134_700, 3, 76_480, 0, 56_720, 315_600)


# budget stops land mid-loop, after children were counted and cut before
# placement, so every counter pins where the look-ahead stops
@pytest.mark.parametrize(
    "run,expected",
    [(lambda: find_extremal(Complete(7), Kind.COVERING, 3, node_budget=1000),
      ("budget", 1001, 1000, 3, 568, 0, 417, 2994)),
     (lambda: search_multidecomposition(
         Complete(15), SearchConfig(min_hexagons=1, min_prisms=1, symmetry_breaking=True,
                                    node_budget=1000)),
      ("budget", 1001, 1000, 6, 0, 0, 994, 0)),
     (lambda: search_multidecomposition(
         Complete(15), SearchConfig(min_hexagons=1, min_prisms=1, symmetry_breaking=True,
                                    node_budget=5000)),
      ("budget", 5001, 5000, 13, 0, 683, 4228, 0))],
    ids=["k7-cover3-1000", "k15-mixed-1000", "k15-mixed-5000"],
)
def test_budget_stop_counts_are_pinned(run, expected):
    assert _counts(run()) == expected


def test_budget_stop_sweep_is_pinned():
    # a budget stop can land inside a run of hexagon children counted without
    # being built; at every budget here the counters are those of the
    # per-child loop, hashed over all 546 runs
    runs = [(Complete(9), _MIXED, range(1, 480)),
            (Complete(10), SearchConfig(target_counts=(3, 3), symmetry_breaking=True),
             range(1, 11566, 250)),
            (Complete(15), _MIXED, range(500, 10001, 500))]
    rows = [_counts(search_multidecomposition(host, cfg.replace(node_budget=budget)))
            for host, cfg, budgets in runs for budget in budgets]
    assert len(rows) == 546
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "5b2fc0ed09d54a22a01f8db192b1929972f84b064f880f0e3aab4bedf2d63f51")


def test_covering_budget_stop_sweep_is_pinned():
    # extremal coverings judge their children per node in bulk, and a budget
    # stop can land inside a run of them counted without being built; the
    # counters are hashed over all 126 runs, statuses included
    runs = [(Complete(7), 3, range(1, 3000, 61)), (Complete(8), 2, range(1, 71)),
            (Complete(9), 3, (1000, 5000)), (Complete(10), 3, (1000, 3000)),
            (Complete(11), 2, (1000, 3000))]
    rows = [_counts(find_extremal(host, Kind.COVERING, bound, node_budget=budget))
            for host, bound, budgets in runs for budget in budgets]
    assert len(rows) == 126
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "a6649ef9a4f7ff78c38670473e6510c91fc1e58a9d56fbb98e8c52c9e43442e2")


_RAW = SearchConfig(min_hexagons=1, min_prisms=1, degree_prunes=False)


def test_replay_budget_stop_sweep_is_pinned():
    # a state whose subtree exhausted before replays its counts only if they
    # fit the budget; over the whole of the raw n = 7 search and K7 covering-3,
    # both sides of their last budget included, every budget stop lands where
    # expanding each state again would put it, and the hashes are those of
    # the engine that did
    raw = [_counts(search_multidecomposition(Complete(7), _RAW.replace(node_budget=budget)))
           for budget in (*range(1, 7482, 187), 7480)]
    cover = [_counts(find_extremal(Complete(7), Kind.COVERING, 3, node_budget=budget))
             for budget in (*range(1, 134702, 3367), 134700, 134701)]
    assert raw[-2][0] == cover[-1][0] == "exhausted"
    assert (len(raw), len(cover)) == (42, 43)
    assert hashlib.sha256(repr(raw).encode()).hexdigest() == (
        "440a5a06bfba5e4b4c4b5b11b99983ddbd039505a914f2fe16f2eb7e5aa7d4a6")
    assert hashlib.sha256(repr(cover).encode()).hexdigest() == (
        "47ed3471d64696b0073fc84976f42081ea98b93b4162a4a3d68e40dc67024cb9")


@pytest.mark.parametrize(
    "run,expanded",
    [(lambda: find_extremal(Complete(7), Kind.COVERING, 3), 546),
     (lambda: search_multidecomposition(Complete(7), _RAW), 1630),
     (lambda: search_multidecomposition(Complete(15), _MIXED.replace(node_budget=1_000_000)),
      5563),
     (lambda: confirm_nonexistence(10), 111)],
    ids=["k7-cover3", "cert-n7-raw", "k15-mixed-find", "cert-n10"],
)
def test_each_exhausted_state_is_expanded_once(run, expanded, monkeypatch):
    # expanding every placed state as it comes takes 1,501, 4,281, 6,935 and
    # 111 expansions; a state seen again after its subtree exhausted replays
    from hexprism import search

    expand, calls = search._Engine._expand, []

    def counted(engine, depth):
        calls.append(depth)
        return expand(engine, depth)

    monkeypatch.setattr(search._Engine, "_expand", counted)
    run()
    assert len(calls) == expanded


def test_replay_cap_changes_no_count(monkeypatch):
    # the engine find_extremal runs for K7 covering-3, keeping at most 10 states
    from hexprism import search

    monkeypatch.setattr(search, "_REPLAY_CAP", 10)
    engine = search._Engine(Complete(7), Kind.COVERING, SearchConfig(min_hexagons=1, min_prisms=1),
                            padding_budget=3)
    outcome = engine.run()
    assert _counts(outcome) == ("exhausted", 134_701, 134_700, 3, 76_480, 0, 56_720, 315_600)
    assert len(engine.exhausted) == 10


def test_zero_bound_on_complete_host():
    # the empty leave uses no vertices, which is the empty prefix
    assert _leave_candidates(Complete(13), 0) == [()]
    outcome = find_extremal(Complete(13), Kind.PACKING, 0, node_budget=100)
    assert outcome.status is Status.BUDGET
    assert outcome.stats.nodes == 101


def test_extremal_packing_finds_k8_leave_one():
    outcome = find_extremal(Complete(8), Kind.PACKING, 1)
    assert outcome.status is Status.FOUND
    design = outcome.design
    assert design.kind is Kind.PACKING
    assert design.host == Complete(8)
    assert design.leave == {(0, 1)}
    assert verify_design(design).valid


def test_extremal_packing_finds_k7_leave_six():
    # the order-7 maximum packing: K7 has 41 leave classes of six edges, and
    # the first, the star at vertex 0, leaves a K6 that a hexagon and a prism
    # decompose, found at once
    outcome = find_extremal(Complete(7), Kind.PACKING, 6)
    assert _counts(outcome) == ("found", 3, 2, 2, 0, 0, 0, 0)
    assert outcome.design.leave == {(0, v) for v in range(1, 7)}
    assert verify_design(outcome.design).valid


def test_extremal_packing_tries_every_raw_leave_off_complete_hosts(monkeypatch):
    # C(24, 3) = 2,024 leave subsets of K_{4,6}, each cut at its root, all on
    # one engine that indexes the host's 24 edges once
    from hexprism import search

    indexed = []
    monkeypatch.setattr(search, "_index", lambda edges: indexed.append(edges) or _index(edges))
    outcome = find_extremal(CompleteBipartite(range(4), range(4, 10)), Kind.PACKING, 3)
    assert outcome.status is Status.EXHAUSTED
    assert (outcome.stats.nodes, outcome.stats.placements) == (2024, 0)
    assert [len(edges) for edges in indexed] == [24]


def test_packing_leave_may_isolate_a_vertex():
    # the last leave class of K6 plus the pendant edge (5, 6) leaves vertex 6
    # with no edge; it keeps its index in the engine at remaining degree 0
    host = Explicit(tuple(itertools.combinations(range(6), 2)) + ((5, 6),))
    outcome = find_extremal(host, Kind.PACKING, 1)
    assert _counts(outcome)[:3] == ("found", 18, 2)
    assert outcome.design.leave == {(5, 6)}
    assert verify_design(outcome.design).valid


def test_covering_bound_is_exact_up_front_and_a_budget_in_the_search():
    # a hexagon and a prism sharing edge (0, 1): 14 edges, so padding 1 gives
    # 15 = 6 + 9 edge uses; 16-20 solve no 6x + 9y, and at b = 7 (21 uses)
    # the search still accepts the covering with padding 1
    host = Explicit(tuple(itertools.pairwise((0, 1, 2, 3, 4, 5, 0)))
                    + ((0, 2), (2, 6), (0, 6), (1, 7), (3, 7), (1, 3), (2, 7), (3, 6)))
    assert len(host.edges) == 14
    for bound in (1, 7):
        outcome = find_extremal(host, Kind.COVERING, bound)
        assert outcome.status is Status.FOUND and len(outcome.design.padding) == 1
        assert verify_design(outcome.design).valid
    for bound in range(2, 7):
        with pytest.raises(InfeasibleBoundError, match=f"{14 + bound} = 6x"):
            find_extremal(host, Kind.COVERING, bound)


def test_extremal_covering_finds_k8_padding_two():
    outcome = find_extremal(Complete(8), Kind.COVERING, 2, node_budget=200_000)
    assert outcome.status is Status.FOUND
    design = outcome.design
    assert design.kind is Kind.COVERING
    assert len(design.padding) == 2
    assert verify_design(design).valid


_MIXED = SearchConfig(min_hexagons=1, min_prisms=1, symmetry_breaking=True)
_BIPARTITE_6X6 = CompleteBipartite(frozenset(range(6)), frozenset(range(6, 12)))


# every _counts field, then the sha256 of dumps_design of the found design;
# status, nodes, placements and max_depth are as the dict-of-sets engine
# reported them
@pytest.mark.parametrize(
    "run,expected",
    [
        pytest.param(
            lambda: search_multidecomposition(
                Complete(15), SearchConfig(min_hexagons=1, min_prisms=1, symmetry_breaking=True,
                                           node_budget=1_000_000)),
            ("found", 133_090, 133_089, 15, 0, 42_606, 83_547, 0,
             "5a9211391a7f9178b1e6b94504122d3517975f978e889d7f3be7503e08d5f542"),
            id="k15-mixed-find"),
        pytest.param(
            lambda: search_multidecomposition(
                Complete(12), SearchConfig(min_hexagons=1, min_prisms=1, symmetry_breaking=True,
                                           node_budget=200_000)),
            ("found", 26, 25, 10, 2, 0, 13, 0,
             "36e7a525dd7014ff5c68ec6bcb1e362e91c975f40da3614f7cc7e4be3f316e42"),
            id="k12-mixed-find"),
        pytest.param(
            lambda: search_multidecomposition(Complete(9), _MIXED),
            ("exhausted", 479, 478, 2, 0, 0, 477, 0, None),
            id="k9-mixed-exhaust"),
        pytest.param(
            # the engine run behind the (3, 3) case of confirm_nonexistence(10)
            lambda: search_multidecomposition(
                Complete(10), SearchConfig(target_counts=(3, 3), symmetry_breaking=True)),
            ("exhausted", 11_565, 11_564, 4, 0, 0, 11_453, 0, None),
            id="k10-case33-exhaust"),
        pytest.param(
            lambda: search_multidecomposition(
                Complete(9), SearchConfig(prisms=False, symmetry_breaking=True)),
            ("found", 13, 12, 6, 0, 0, 6, 0,
             "547ffbb2070fa414014282bd6736006074f4e3b0ea4bf9eae5af11715701d9ea"),
            id="k9-hex-find"),
        pytest.param(
            lambda: search_multidecomposition(
                Complete(10), SearchConfig(hexagons=False, symmetry_breaking=True)),
            ("found", 6, 5, 5, 0, 0, 0, 0,
             "ae00ea8038eb9c4982f115ac9e544151fa697fbf862bbe361c0b390bbd37aa3f"),
            id="k10-prism-find"),
        pytest.param(
            lambda: search_multidecomposition(
                _BIPARTITE_6X6,
                SearchConfig(prisms=False, symmetry_breaking=True, node_budget=50_000)),
            ("found", 10, 9, 6, 0, 0, 3, 0,
             "dba1663326e1c1c7a93b48e79a6848d047738a7023b6e96ba1b9df979c393c62"),
            id="b6x6-hex-find"),
        pytest.param(
            lambda: find_extremal(Complete(8), Kind.PACKING, 1),
            ("found", 402, 401, 4, 0, 384, 13, 0,
             "bc8adfc7e5c36b4f5cd8e391fc0ed399b73d4f807acc71e5167daa0872c120b5"),
            id="k8-pack1-find"),
        pytest.param(
            lambda: find_extremal(Complete(8), Kind.COVERING, 2, node_budget=200_000),
            ("found", 70, 69, 4, 5, 0, 60, 2096,
             "2d8031363dcc7dbc2661f50e16edbf045348e20b5854968d228535ee3ef8f6de"),
            id="k8-cover2-find"),
        pytest.param(
            lambda: find_extremal(Complete(8), Kind.PACKING, 4),
            ("exhausted", 291, 280, 1, 0, 0, 290, 0, None),
            id="k8-pack4-exhaust"),
        pytest.param(
            # the raw placement enumeration behind confirm_nonexistence(7)
            lambda: search_multidecomposition(
                Complete(7), SearchConfig(min_hexagons=1, min_prisms=1, degree_prunes=False)),
            ("exhausted", 7481, 7480, 3, 3200, 0, 0, 0, None),
            id="cert-n7-raw"),
    ],
)
def test_engine_fingerprint_is_pinned(run, expected):
    outcome = run()
    digest = None
    if outcome.design is not None:
        digest = hashlib.sha256(dumps_design(outcome.design).encode()).hexdigest()
    assert (*_counts(outcome), digest) == expected


# covering finds off the benchmark workload, at a 300k budget: every _counts
# field, then the sha256 of dumps_design of the found design, which verifies
@pytest.mark.parametrize(
    "n,bound,expected",
    [(9, 3, ("found", 53_480, 53_479, 5, 35, 0, 51_131, 4_799_690,
             "4becc6bd2147ddf384e9f119fd53b4979578cbf9d81f5757e0a562b360a2bd00")),
     (10, 3, ("found", 294_349, 294_348, 7, 0, 0, 277_444, 70_692_814,
              "4812687a8af151fe77802b39ce066ee5c28fb1ed22ee122b8013a87e57748033")),
     (11, 2, ("found", 219_187, 219_186, 8, 0, 0, 206_406, 96_382_236,
              "6b78c3aced36076ba686ce57fbc40a15472aaa438975ef1776af2c017ef1f5f7"))],
    ids=["k9-cover3", "k10-cover3", "k11-cover2"],
)
def test_covering_finds_are_pinned(n, bound, expected):
    outcome = find_extremal(Complete(n), Kind.COVERING, bound, node_budget=300_000)
    digest = hashlib.sha256(dumps_design(outcome.design).encode()).hexdigest()
    assert (*_counts(outcome), digest) == expected
    assert verify_design(outcome.design).valid


# a prism with a triangle's vertices joined to a seventh vertex: the branch
# edge's one prism would leave 3 edges, which no block count meets
_PRISM_AND_FAN = Explicit(((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5),
                           (0, 6), (1, 6), (2, 6)))


@pytest.mark.parametrize(
    "run",
    [lambda: search_multidecomposition(Complete(9), _MIXED),
     lambda: find_extremal(Complete(8), Kind.PACKING, 1),
     lambda: search_multidecomposition(
         Complete(7), SearchConfig(min_hexagons=1, min_prisms=1, degree_prunes=False)),
     # coverings whose children reuse met edges at some block vertices
     lambda: find_extremal(Complete(7), Kind.COVERING, 6, node_budget=50_000),
     lambda: find_extremal(Complete(9), Kind.COVERING, 3, node_budget=5000),
     # every reuse class below the padding budget, and a budget stop inside a run
     lambda: find_extremal(Complete(7), Kind.COVERING, 3, node_budget=2000),
     # prism walks that read a vertex's level-3 fold, built by the hexagon
     # walk of the same node
     lambda: find_extremal(Complete(8), Kind.COVERING, 5),
     # hexagon runs cut by the odd-degree bound, and a budget stop inside one
     lambda: search_multidecomposition(Complete(13), _MIXED.replace(node_budget=3000)),
     lambda: search_multidecomposition(_PRISM_AND_FAN, SearchConfig(degree_prunes=False))],
    ids=["k9-mixed", "k8-pack1", "cert-n7-raw", "k7-cover6", "k9-cover3-5000", "k7-cover3-2000",
         "k8-cover5", "k13-mixed-3000", "prism-count-cut"],
)
def test_child_verdict_matches_the_full_degree_check(run, monkeypatch, request):
    # a child is judged per node and shape from its parent's degrees and its
    # block's vertices, and the root on its own; each verdict, and the
    # odd-degree count the exact-mode judge is given with degree prunes on,
    # must be those of the cuts applied to all of the state's remaining degrees
    from hexprism import search

    verdict, judge, fold_node, judge_covers = (search._Engine._verdict, search._Engine._judged,
                                           search._Engine._fold, search._Engine._judged_covers)
    reasons = ("pruned_block_count", "pruned_odd_degree", "pruned_vertex_degree")

    def full_check(engine, key, child):
        cut, exact, prunes = engine._cut(key), engine.pad_budget == 0, engine.cfg.degree_prunes
        if cut is None:
            return "pruned_block_count"
        if prunes and exact and sum(d % 2 for d in child) > 6 * cut[0]:
            return "pruned_odd_degree"
        if prunes and not cut[1].isdisjoint(child):
            return "pruned_vertex_degree"
        return None

    def checked_root(engine, rd):
        key = (engine.avail.bit_count(), engine.hex_placed, engine.prism_placed, engine.pad_used)
        reason = verdict(engine, rd)
        assert rd == [nu.bit_count() for nu in engine.nbr]
        assert reason == full_check(engine, key, rd)
        roots.append(reason)
        return reason

    def checked_runs(engine, shape, walk, children):
        # each survivor passes the full check, and each run counted before it
        # holds the children the full check cuts, under the reasons it names
        exact = not engine.pad_budget
        while True:
            before = [getattr(engine.stats, r) for r in reasons]
            item = next(walk, None)
            run = Counter({r: getattr(engine.stats, r) - b for r, b in zip(reasons, before)})
            cut = [children.pop(0)[1] for _ in range(run.total())]
            assert all(cut) and Counter(cut) == +run
            judged.extend((shape, exact, reason) for reason in cut)
            if item is None:
                assert not children
                return
            if engine.stats.nodes < engine.limit:  # else the loop only counts the item
                vs, reason = children.pop(0)
                assert item == (shape, vs) and not reason
                judged.append((shape, exact, reason))
            yield item

    def checked(engine, shape, u, v, rd, odd, depth):
        # an exact-mode child meets all of its block's edges, so each block
        # vertex loses 2 (hexagon) or 3 (prism) and the key is the same for all
        unmet, size = engine.avail.bit_count(), len(EDGE_POSITIONS[shape])
        key = (unmet - size, engine.hex_placed + (shape is Hexagon),
               engine.prism_placed + (shape is Prism), 0)
        if engine.cfg.degree_prunes:
            assert odd == sum(d % 2 for d in rd)
        children = []
        for vs in _through(shape, engine.nbr, u, v):
            child = list(rd)
            for i, j in EDGE_POSITIONS[shape]:
                child[vs[i]] -= 1
                child[vs[j]] -= 1
            children.append((vs, unmet != size and full_check(engine, key, child)))
        yield from checked_runs(engine, shape, judge(engine, shape, u, v, rd, odd, depth),
                                children)

    def checked_fold(engine, u, v, shapes):
        # the node's blocks of the enabled shapes through (u, v) in the host
        # that reuse more met edges than the padding left are counted at once
        met, left, over = ~engine.avail, engine.pad_budget - engine.pad_used, 0
        for shape in shapes:
            for vs in _through(shape, engine.host_nbr, u, v):
                reused = sum(met >> engine.eid[vs[i]][vs[j]] & 1 for i, j in EDGE_POSITIONS[shape])
                over += reused > left
        skipped = engine.stats.skipped_padding_budget
        ge = fold_node(engine, u, v, shapes)
        assert engine.stats.skipped_padding_budget - skipped == over
        return ge

    def checked_covers(engine, shape, u, v, ge, lws, rd, depth):
        # the shape's blocks through (u, v) in the host, less those over the
        # padding left, are the children; each loses its block's newly met edges
        met, unmet, children = ~engine.avail, engine.avail.bit_count(), []
        left = engine.pad_budget - engine.pad_used
        for vs in _through(shape, engine.host_nbr, u, v):
            pairs = [(vs[i], vs[j]) for i, j in EDGE_POSITIONS[shape]]
            new = [(x, y) for x, y in pairs if not met >> engine.eid[x][y] & 1]
            reused = len(pairs) - len(new)
            child = list(rd)
            for x, y in new:
                child[x] -= 1
                child[y] -= 1
            key = (unmet - len(new), engine.hex_placed + (shape is Hexagon),
                   engine.prism_placed + (shape is Prism), engine.pad_used + reused)
            if reused <= left:
                children.append((vs, len(new) != unmet and full_check(engine, key, child)))
        covered.append(shape)
        walk = judge_covers(engine, shape, u, v, ge, lws, rd, depth)
        return checked_runs(engine, shape, walk, children)

    judged: list = []
    covered: list = []
    roots: list = []
    monkeypatch.setattr(search._Engine, "_verdict", checked_root)
    monkeypatch.setattr(search._Engine, "_judged", checked)
    monkeypatch.setattr(search._Engine, "_fold", checked_fold)
    monkeypatch.setattr(search._Engine, "_judged_covers", checked_covers)
    run()
    assert judged and roots
    assert bool(covered) == ("cover" in request.node.callspec.id)
    # in exact mode only the fan host cuts a prism child by the block-count equation
    assert ((Prism, True, "pruned_block_count") in judged) == ("count" in request.node.callspec.id)


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


def test_packing_stats_add_up_over_the_leave_classes():
    # one engine runs every class; each run alone, on an engine of its own,
    # counts what it adds to the shared stats, and max_depth is the deepest
    from hexprism import search

    host, cfg = Complete(8), SearchConfig(min_hexagons=1, min_prisms=1)
    parts = [search._Engine(host, Kind.PACKING, cfg).run(leave).stats
             for leave in _leave_candidates(host, 4)]
    total = find_extremal(host, Kind.PACKING, 4).stats
    summed = ("nodes", "placements", "pruned_block_count", "pruned_odd_degree",
              "pruned_vertex_degree", "skipped_padding_budget")
    assert len(parts) == 11 and (total.nodes, total.placements) == (291, 280)
    assert total.elapsed_s > 0
    assert [getattr(total, f) for f in summed] == [sum(getattr(p, f) for p in parts)
                                                   for f in summed]
    assert total.max_depth == max(p.max_depth for p in parts)


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
    "cfg",
    [SearchConfig(prisms=False, target_counts=(3, 2), node_budget=2000),
     SearchConfig(min_prisms=3, target_counts=(3, 2), node_budget=2000)],
    ids=["disabled-shape", "below-minimum"],
)
def test_contradictory_target_counts_exhaust_at_the_root(cfg):
    # a disabled shape caps its count at 0 and a minimum raises the target's
    # floor, so either leaves no count range to search
    outcome = search_multidecomposition(Complete(9), cfg)
    assert outcome.status is Status.EXHAUSTED
    assert (outcome.stats.nodes, outcome.stats.pruned_block_count) == (1, 1)


def test_degree_cut_matches_brute_force():
    # rd unmet edges can be met by p <= a_max hexagons and q <= b_max prisms
    # exactly when rd <= 2p + 3q <= rd + slack for some such p and q
    for rd, a_max, b_max, slack in itertools.product(range(21), range(7), range(7), range(4)):
        expected = any(rd <= 2 * p + 3 * q <= rd + slack
                       for p in range(a_max + 1) for q in range(b_max + 1))
        assert _degree_ok(rd, a_max, b_max, slack) == expected, (rd, a_max, b_max, slack)


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
    # every representative uses exactly the leading vertices 0..k-1
    for leave in reps:
        used = {x for e in leave for x in e}
        assert used == set(range(len(used)))


def test_leave_class_lists_are_pinned():
    # the representatives themselves, not only their number, in order
    lists = [_leave_candidates(Complete(8), 4), _leave_candidates(Complete(7), 5)]
    assert hashlib.sha256(repr(lists).encode()).hexdigest() == (
        "7440ef6c803c28e1e90017198c10cc1da1ce5d0ed60c34d106840e000a90b7c0")


def test_leave_classes_ignore_unused_trailing_vertices():
    # four edges touch at most eight vertices, so K9 has K8's representatives
    reps = _leave_candidates(Complete(9), 4)
    assert len(reps) == 11
    assert reps == _leave_candidates(Complete(8), 4)


@pytest.mark.parametrize("n,bound", [(7, b) for b in range(1, 7)] + [(8, b) for b in range(1, 5)])
def test_leave_classes_match_networkx(n, bound):
    nx = pytest.importorskip("networkx")
    expected = []
    reps: dict = {}
    for subset in itertools.combinations(sorted(host_edges(Complete(n))), bound):
        g = nx.Graph(subset)
        # bucketed by an isomorphism invariant finer than the degree
        # sequence: the sorted endpoint-degree pairs of the edges
        degree = dict(g.degree())
        key = tuple(sorted(tuple(sorted((degree[u], degree[v]))) for u, v in subset))
        bucket = reps.setdefault(key, [])
        if not any(nx.is_isomorphic(g, h) for h in bucket):
            bucket.append(g)
            expected.append(subset)
    assert _leave_candidates(Complete(n), bound) == expected


@pytest.mark.parametrize(
    "n,bound",
    [(7, 0)] + [(n, b) for n in (6, 7) for b in range(1, 7)] + [(8, b) for b in range(1, 6)]
    + [(9, 4), (10, 4)],
)
def test_leave_classes_match_the_full_scan(n, bound):
    # the star-first walk keeps exactly the classes, and the representatives,
    # of the scan over every subset in combinations order
    assert _leave_candidates(Complete(n), bound) == full_scan_leave_classes(n, bound)


def test_nonexistence_rejects_other_orders():
    with pytest.raises(ValueError):
        confirm_nonexistence(8)
