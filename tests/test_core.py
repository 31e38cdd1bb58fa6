from __future__ import annotations

import copy
import itertools
import pickle
import random

import pytest

from hexprism.catalog import get as catalog_get
from hexprism.core import (
    Complete,
    CompleteBipartite,
    Design,
    Explicit,
    Hexagon,
    InvalidBlockError,
    Kind,
    Prism,
    _unchecked,
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
from hexprism.feasibility import FeasibilityReport
from hexprism.search import NonexistenceReport, SearchConfig, SearchOutcome, SearchStats, Status
from hexprism.verifier import Finding, VerificationReport


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


def test_both_shapes_keep_six_vertices_in_one_tuple():
    first, second = (4, 0, 7), (2, 9, 6)
    p = Prism(first, second)
    assert p.vertices == first + second and p.__slots__ == ("vertices",)
    assert (p.first, p.second) == (first, second)
    for name in ("first", "second"):
        with pytest.raises(AttributeError):
            setattr(p, name, (1, 2, 3))
    for block in catalog_get("decomposition:13").blocks:
        assert _unchecked(type(block), block.vertices) == block


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


# ---------------------------------------------------------------------------
# the value-type contract: each former frozen dataclass keeps its behaviour

_HEX = Hexagon((0, 1, 2, 3, 4, 5))
_HEX_TEXT = "Hexagon(vertices=(0, 1, 2, 3, 4, 5))"
_STATS_TEXT = ("SearchStats(nodes=2, placements=0, max_depth=0, pruned_block_count=0, "
               "pruned_odd_degree=0, pruned_vertex_degree=0, skipped_padding_budget=0, "
               "elapsed_s=0.0)")
# one value of each type, a design of each kind, and the literal repr of each
_VALUES = [
    (Complete(6), "Complete(n=6)"),
    (CompleteBipartite([0, 1], {2}),
     "CompleteBipartite(left=frozenset({0, 1}), right=frozenset({2}))"),
    (Explicit([(1, 0), (2, 1)]), "Explicit(edges=((0, 1), (1, 2)))"),
    (Hexagon([0, 1, 2, 3, 4, 5]), _HEX_TEXT),
    (Prism([0, 1, 2], [3, 4, 5]), "Prism(first=(0, 1, 2), second=(3, 4, 5))"),
    (Design(Complete(6), Kind.DECOMPOSITION, [_HEX]),
     "Design(host=Complete(n=6), kind=<Kind.DECOMPOSITION: 'decomposition'>, "
     f"blocks=({_HEX_TEXT},), leave=frozenset(), padding=())"),
    (Design(Complete(8), Kind.PACKING, [_HEX], leave=[(7, 6)]),
     "Design(host=Complete(n=8), kind=<Kind.PACKING: 'packing'>, "
     f"blocks=({_HEX_TEXT},), leave=frozenset({{(6, 7)}}), padding=())"),
    (Design(Complete(6), Kind.COVERING, [_HEX], padding=[(1, 0)]),
     "Design(host=Complete(n=6), kind=<Kind.COVERING: 'covering'>, "
     f"blocks=({_HEX_TEXT},), leave=frozenset(), padding=((0, 1),))"),
    (Finding("c", "text", (1,), ((0, 1),)),
     "Finding(code='c', message='text', blocks=(1,), edges=((0, 1),))"),
    (VerificationReport(True, (), 1, 0, frozenset(), (), {0: (1, 0)}),
     "VerificationReport(valid=True, failures=(), hexagon_count=1, prism_count=0, "
     "leave=frozenset(), padding=(), incidence={0: (1, 0)})"),
    (FeasibilityReport(9, False, 3, 3, frozenset({(3, 2)}), frozenset({(4, 0)})),
     "FeasibilityReport(n=9, decomposition_exists=False, min_leave=3, min_padding=3, "
     "block_solutions=frozenset({(3, 2)}), degree_solutions=frozenset({(4, 0)}), "
     "annotation=None)"),
    (SearchConfig(node_budget=5),
     "SearchConfig(hexagons=True, prisms=True, min_hexagons=0, min_prisms=0, "
     "target_counts=None, node_budget=5, symmetry_breaking=False, degree_prunes=True)"),
    (SearchStats(nodes=2), _STATS_TEXT),
    (SearchOutcome(Status.EXHAUSTED, None, SearchStats(nodes=2)),
     f"SearchOutcome(status=<Status.EXHAUSTED: 'exhausted'>, design=None, stats={_STATS_TEXT})"),
    (NonexistenceReport(7, ((1, 1),), {}, {(1, 1): "why"}, {"nodes": 3}, True, True),
     "NonexistenceReport(n=7, cases=((1, 1),), analytic_eliminated={}, "
     "enumerative_eliminated={(1, 1): 'why'}, stats={'nodes': 3}, nonexistent=True, "
     "branches_agree=True)"),
]
# all but the stats, whose counters change in place
_FROZEN = [(value, text) for value, text in _VALUES if not isinstance(value, SearchStats)]
# these hold a dict or the mutable stats, as their dataclasses did
_UNHASHABLE = (SearchStats, SearchOutcome, NonexistenceReport)


def _ids(values) -> list[str]:
    return [f"{type(v).__name__}-{v.kind.value}" if isinstance(v, Design) else type(v).__name__
            for v, _ in values]


@pytest.mark.parametrize("value, text", _VALUES, ids=_ids(_VALUES))
def test_value_types_compare_hash_and_print_as_frozen_dataclasses(value, text):
    twin = value.replace()
    assert twin == value and twin is not value
    assert not twin != value
    if isinstance(value, _UNHASHABLE):
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(twin) == hash(value)
    fields = tuple(getattr(value, name) for name in value.__slots__)
    assert value != fields
    assert all(value != other for other, _ in _VALUES if type(other) is not type(value))
    assert repr(value) == text
    with pytest.raises(TypeError):
        value.replace(no_such_field=1)


@pytest.mark.parametrize("value, text", _FROZEN, ids=_ids(_FROZEN))
def test_value_fields_cannot_be_assigned_or_deleted(value, text):
    for name in value.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = None
    assert repr(value) == text


@pytest.mark.parametrize("value, text", _VALUES, ids=_ids(_VALUES))
def test_value_types_pickle_and_copy(value, text):
    for twin in (pickle.loads(pickle.dumps(value)), pickle.loads(pickle.dumps(value, 0)),
                 copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value
        assert repr(twin) == text


def test_replace_rebuilds_through_init():
    design = Design(Complete(8), Kind.PACKING, [_HEX], leave=[(7, 6)])
    changed = design.replace(leave=[(5, 4), (7, 6)], padding=[(3, 2), (1, 0)])
    assert changed.leave == frozenset({(4, 5), (6, 7)})
    assert changed.padding == ((0, 1), (2, 3))
    assert changed.blocks == (_HEX,) and changed.host == Complete(8)
    assert design.replace(blocks=[_HEX, _HEX]).blocks == (_HEX, _HEX)
    assert design.leave == frozenset({(6, 7)}) and design.padding == ()
    assert SearchConfig(node_budget=1).replace(symmetry_breaking=True) == SearchConfig(
        node_budget=1, symmetry_breaking=True)
    with pytest.raises(ValueError, match="node_budget must be non-negative"):
        SearchConfig(node_budget=1).replace(node_budget=-1)
    with pytest.raises(InvalidBlockError):
        _HEX.replace(vertices=(0, 1, 2))
    with pytest.raises(ValueError):
        Complete(3).replace(n=0)


def test_verification_report_equality_ignores_incidence():
    report = VerificationReport(True, (), 1, 0, frozenset(), (), {0: (1, 0)})
    other = report.replace(incidence={})
    assert other == report and hash(other) == hash(report)
    assert report.replace(valid=False) != report


def test_search_stats_are_mutable_and_unhashable():
    stats = SearchStats()
    stats.nodes += 3
    stats.max_depth = 2
    assert stats == SearchStats(nodes=3, max_depth=2)
    assert stats.replace(nodes=4) == SearchStats(nodes=4, max_depth=2)
    with pytest.raises(TypeError):
        hash(stats)
