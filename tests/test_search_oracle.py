"""An answer-level oracle for the search engine.

A cut-free exact cover lists every hexagon and prism of a small host by
matching each 6-subset of its vertices against the 60 labelled hexagons and
60 labelled prisms on six points, then backtracks on the least uncovered
edge with no degree or block-count cut.  It shares no code with
hexprism.search, so the engine's found/exhausted answers are checked against
it rather than against pinned node counts, which a change to the cuts must
re-record (differential testing: McKeeman, Digital Technical Journal 10(1),
1998).
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import pytest

from hexprism.core import Complete, CompleteBipartite, Explicit, Kind, host_edges
from hexprism.search import (
    InfeasibleBoundError,
    SearchConfig,
    Status,
    find_extremal,
    search_multidecomposition,
)
from hexprism.verifier import verify_design


def _labelled(cycles) -> list:
    """The distinct edge sets on points 0..5 of a shape drawn as the vertex
    cycles over each permutation of the points."""
    shapes = {frozenset(frozenset((p[a], p[b])) for cycle in cycles
                        for a, b in zip(cycle, cycle[1:] + cycle[:1]))
              for p in itertools.permutations(range(6))}
    return sorted(shapes, key=sorted)


# a hexagon is one 6-cycle; a prism is two triangles and three rungs, each
# rung drawn as a 2-cycle, which names its one edge twice
_HEXAGONS = _labelled([(0, 1, 2, 3, 4, 5)])
_PRISMS = _labelled([(0, 1, 2), (3, 4, 5), (0, 3), (1, 4), (2, 5)])
_PAIRS = list(itertools.combinations(range(6), 2))


def _mask(pairs) -> int:
    return sum(1 << _PAIRS.index(tuple(sorted(pair))) for pair in pairs)


def test_the_oracle_knows_sixty_of_each_shape():
    assert len(_HEXAGONS) == len(_PRISMS) == 60
    assert {len(s) for s in _HEXAGONS} == {6} and {len(s) for s in _PRISMS} == {9}


def _blocks(edges: set) -> list:
    """Every ("hexagon" | "prism", edge set) inside the simple edge set: a
    labelled shape lies on a 6-subset when its pairs are among the subset's."""
    vertices = sorted({x for e in edges for x in e})
    shapes = [(shape, _mask(p), p) for shape, ps in (("hexagon", _HEXAGONS), ("prism", _PRISMS))
              for p in ps]
    found = []
    for subset in itertools.combinations(vertices, 6):
        present = _mask(pair for pair in _PAIRS if (subset[pair[0]], subset[pair[1]]) in edges)
        found += [(shape, frozenset(tuple(sorted(subset[i] for i in pair)) for pair in p))
                  for shape, m, p in shapes if not m & ~present]
    return found


def _oracle(edges: set, cfg: SearchConfig, padding: int = 0, leave: int = 0) -> bool:
    """Whether blocks of the config's shapes meet every edge, each block
    through the least edge still unmet, in counts that reach the config's
    minima and equal its target if it sets one.  An edge already met may be
    met again for one unit of padding each, up to padding units in all; with
    no padding the blocks partition the edges.  The least unmet edge may
    instead go into the leave, which must end with exactly leave edges."""
    through: dict = {e: [] for e in edges}
    for shape, block in _blocks(edges):
        for e in block if getattr(cfg, shape + "s") else ():
            through[e].append((shape, block))

    @lru_cache(maxsize=None)  # a memo, not a cut: it returns what the call would
    def extend(unmet: frozenset, hexagons: int, prisms: int, left: int, leave_left: int) -> bool:
        if not unmet:
            return (hexagons >= cfg.min_hexagons and prisms >= cfg.min_prisms and not leave_left
                    and cfg.target_counts in (None, (hexagons, prisms)))
        for shape, block in through[min(unmet)]:
            reused = len(block - unmet)
            if reused <= left and extend(unmet - block, hexagons + (shape == "hexagon"),
                                         prisms + (shape == "prism"), left - reused, leave_left):
                return True
        return leave_left > 0 and extend(unmet - {min(unmet)}, hexagons, prisms, left,
                                         leave_left - 1)

    return extend(frozenset(edges), 0, 0, padding, leave)


def _random_host(rng: random.Random, swaps: int, overlap: int = 0):
    """A union of 2-4 random blocks on 7-10 vertices that share at most
    overlap edge uses in all, with swaps host edges then traded for
    non-edges; also the blocks' (hexagons, prisms) and the uses they share."""
    while True:
        n, want, edges, counts, shared = rng.randint(7, 10), rng.randint(2, 4), set(), [0, 0], 0
        for _ in range(50):  # draws, most of which clash on so few vertices
            shape = rng.randrange(2)
            relabel = rng.sample(range(n), 6)
            block = {tuple(sorted(relabel[i] for i in pair))
                     for pair in (_HEXAGONS, _PRISMS)[shape][rng.randrange(60)]}
            if sum(counts) < want and shared + len(block & edges) <= overlap:
                shared += len(block & edges)
                edges |= block
                counts[shape] += 1
        if sum(counts) >= 2:
            break
    others = sorted(set(itertools.combinations(range(n), 2)) - edges)
    for gone, new in zip(rng.sample(sorted(edges), swaps), rng.sample(others, swaps)):
        edges = edges - {gone} | {new}
    return Explicit(tuple(sorted(edges))), tuple(counts), shared


def _agree(outcome, expected: bool, cfg: SearchConfig) -> None:
    assert outcome.status is (Status.FOUND if expected else Status.EXHAUSTED)
    if expected:
        both = cfg.min_hexagons > 0 and cfg.min_prisms > 0
        assert verify_design(outcome.design, require_both_types=both).valid


def test_decompositions_of_random_hosts_match_the_oracle():
    rng, answers = random.Random(0), set()
    for i in range(200):
        host, counts, _ = _random_host(rng, swaps=rng.choice((0, 0, 0, 1, 2, 3)))
        # the config rotates over the knobs the certificates and finds use
        cfg = [SearchConfig(),
               SearchConfig(min_hexagons=1, min_prisms=1),
               SearchConfig(min_hexagons=1, min_prisms=1, degree_prunes=False),
               SearchConfig(target_counts=counts),
               SearchConfig(prisms=False),
               SearchConfig(hexagons=False)][i % 6]
        expected = _oracle(set(host.edges), cfg)
        answers.add(expected)
        _agree(search_multidecomposition(host, cfg), expected, cfg)
    assert answers == {True, False}


# each config fixes a root block under symmetry breaking: a hexagon when one
# is owed or prisms are off, a prism when hexagons are off
@pytest.mark.parametrize(
    "host,cfg",
    [(Complete(6), SearchConfig(target_counts=(1, 1))),
     (Complete(7), SearchConfig(min_hexagons=1, min_prisms=1)),
     (Complete(9), SearchConfig(prisms=False)),
     (Complete(10), SearchConfig(hexagons=False)),
     (CompleteBipartite(range(3), range(3, 7)), SearchConfig()),
     (CompleteBipartite(range(4), range(4, 8)), SearchConfig(prisms=False)),
     (CompleteBipartite(range(4), range(4, 10)), SearchConfig())],
    ids=["k6-target", "k7-mixed", "k9-hexagons", "k10-prisms", "b3x4", "b4x4", "b4x6"],
)
def test_symmetry_breaking_keeps_the_oracle_answer(host, cfg):
    # the oracle fixes no root block; the budget only bounds a broken engine
    expected = _oracle(set(host_edges(host)), cfg)
    for symmetric in (False, True):
        run = cfg.replace(symmetry_breaking=symmetric, node_budget=100_000)
        _agree(search_multidecomposition(host, run), expected, cfg)


def test_coverings_of_random_hosts_match_the_oracle():
    # blocks that share k edge uses cover their union with padding k
    rng, answers, cfg = random.Random(100), set(), SearchConfig(min_hexagons=1, min_prisms=1)
    for _ in range(80):
        host, _, shared = _random_host(rng, swaps=rng.choice((0, 0, 1)), overlap=rng.randint(1, 3))
        padding = shared or 3
        if not any(6 * x + 9 * y == len(host.edges) + padding
                   for x, y in itertools.product(range(1, 9), repeat=2)):
            with pytest.raises(InfeasibleBoundError):
                find_extremal(host, Kind.COVERING, padding)
            continue
        expected = _oracle(set(host.edges), cfg, padding)
        answers.add(expected)
        _agree(find_extremal(host, Kind.COVERING, padding), expected, cfg)
    assert answers == {True, False}


def test_packings_of_random_hosts_match_the_oracle():
    # a union of blocks, some with edges swapped out, plus 1-3 edges, packed
    # with each leave size 1-3; only one size leaves a multiple of 3 edges
    rng, answers, cfg = random.Random(200), set(), SearchConfig(min_hexagons=1, min_prisms=1)
    for _ in range(60):
        host, _, _ = _random_host(rng, swaps=rng.choice((0, 1, 2, 3)))
        n = 1 + max(max(e) for e in host.edges)
        extra = rng.sample(sorted(set(itertools.combinations(range(n), 2)) - set(host.edges)),
                           rng.randint(1, 3))
        host = Explicit(host.edges + tuple(extra))
        for bound in (1, 2, 3):
            if not any(6 * x + 9 * y == len(host.edges) - bound
                       for x, y in itertools.product(range(1, 9), repeat=2)):
                with pytest.raises(InfeasibleBoundError):
                    find_extremal(host, Kind.PACKING, bound)
                continue
            expected = _oracle(set(host.edges), cfg, leave=bound)
            answers.add(expected)
            _agree(find_extremal(host, Kind.PACKING, bound), expected, cfg)
    assert answers == {True, False}
