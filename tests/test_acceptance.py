"""Acceptance gate: the nine product criteria, one pass/fail line each.

Each test prints "[criterion N] PASS <label>" when its block of checks
holds, or the FAIL twin right before the assertion error surfaces.  Run
with -s to watch the lines stream; captured output shows them either way.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from contextlib import contextmanager

from hexprism.bases import load_base
from hexprism.bipartite import c6_decompose_bipartite
from hexprism.catalog import get as catalog_get
from hexprism.constructions import max_multipack, min_multicover, multidecompose
from hexprism.core import (
    Complete,
    CompleteBipartite,
    Hexagon,
    Kind,
    Prism,
    block_edges,
    canonical_form,
    host_vertices,
    recognize,
    relabel_design,
)
from hexprism.search import (
    InfeasibleBoundError,
    SearchConfig,
    Status,
    confirm_nonexistence,
    find_extremal,
    search_multidecomposition,
)
from hexprism.verifier import incidence_table, verify_design

import _original_labels as source


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL {label}")
        raise
    print(f"[criterion {number}] PASS {label}")


_DECOMPOSABLE = [
    n for n in range(6, 201) if n % 3 in (0, 1) and n not in (7, 9, 10)
]
_NON_DECOMPOSABLE = [n for n in range(6, 201) if n % 3 == 2 or n in (7, 9, 10)]

# sweeps are built once and shared by the identity checks of criterion 8
_built = {}


def _decompositions():
    if "decomposition" not in _built:
        _built["decomposition"] = {n: multidecompose(n) for n in _DECOMPOSABLE}
    return _built["decomposition"]


def _packings():
    if "packing" not in _built:
        _built["packing"] = {n: max_multipack(n) for n in _NON_DECOMPOSABLE}
    return _built["packing"]


def _coverings():
    if "covering" not in _built:
        _built["covering"] = {n: min_multicover(n) for n in _NON_DECOMPOSABLE}
    return _built["covering"]


def test_criterion_1_decomposition_sweep():
    with criterion(1, "decompositions for every admissible order in [6, 200]"):
        start = time.perf_counter()
        designs = _decompositions()
        for n, design in designs.items():
            report = verify_design(design)
            assert report.valid, (n, [f.code for f in report.failures])
            assert report.hexagon_count >= 1 and report.prism_count >= 1, n
            assert not design.leave and not design.padding, n
        elapsed = time.perf_counter() - start
        assert len(designs) == len(_DECOMPOSABLE)
        assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_packing_leaves():
    with criterion(2, "maximum packing leave sizes across [6, 200]"):
        start = time.perf_counter()
        designs = _packings()
        for n, design in designs.items():
            report = verify_design(design)
            assert report.valid, (n, [f.code for f in report.failures])
            want = {7: 6, 9: 3, 10: 3}.get(n, 1)
            assert len(design.leave) == want, n
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"


def test_criterion_3_covering_paddings():
    with criterion(3, "minimum covering padding sizes across [6, 200]"):
        start = time.perf_counter()
        designs = _coverings()
        for n, design in designs.items():
            report = verify_design(design)
            assert report.valid, (n, [f.code for f in report.failures])
            want = {7: 6, 9: 3, 10: 3}.get(n, 2)
            assert len(design.padding) == want, n
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"


def test_criterion_4_nonexistence_certificates():
    with criterion(4, "orders 7, 9, 10 certified impossible by both branches"):
        budgets = {7: 1.0, 9: 60.0, 10: 600.0}
        for n, budget in budgets.items():
            start = time.perf_counter()
            report = confirm_nonexistence(n)
            elapsed = time.perf_counter() - start
            assert report.nonexistent, n
            assert report.branches_agree, n
            assert report.enumerative_complete, n
            assert elapsed < budget, f"n={n} took {elapsed:.1f}s"


def test_criterion_5_exceptional_minimality():
    with criterion(5, "order-7 bounds: covering 3 exhausted, packing 3 rejected"):
        outcome = find_extremal(Complete(7), Kind.COVERING, 3)
        assert outcome.status is Status.EXHAUSTED
        assert outcome.design is None
        try:
            find_extremal(Complete(7), Kind.PACKING, 3)
        except InfeasibleBoundError as exc:
            assert "no solution" in str(exc)
        else:
            raise AssertionError("packing bound 3 was not rejected")


def test_criterion_6_bundled_examples():
    with criterion(6, "all 13 bundled explicit designs verify as transcribed"):
        checked = 0

        def shift_blocks(entry):
            blocks = [
                Prism(tuple(v - 1 for v in f), tuple(v - 1 for v in s))
                for f, s in entry["prisms"]
            ]
            blocks += [
                Hexagon(tuple(v - 1 for v in h)) for h in entry["hexagons"]
            ]
            return Counter(map(canonical_form, blocks))

        def shift_edges(pairs):
            return {tuple(sorted((u - 1, v - 1))) for u, v in pairs}

        k6 = catalog_get("decomposition:6")
        assert verify_design(k6).valid
        assert Counter(map(canonical_form, k6.blocks)) == Counter(
            [
                canonical_form(Hexagon(tuple(v - 1 for v in source.K6_HEXAGON))),
                canonical_form(
                    Prism(
                        tuple(v - 1 for v in source.K6_PRISM[0]),
                        tuple(v - 1 for v in source.K6_PRISM[1]),
                    )
                ),
            ]
        )
        checked += 1

        counts = {13: (7, 4), 15: (10, 5), 19: (15, 9)}
        for n, entry in source.DECOMPOSITIONS.items():
            design = catalog_get(f"decomposition:{n}")
            report = verify_design(design)
            assert report.valid, n
            assert (report.hexagon_count, report.prism_count) == counts[n]
            assert Counter(map(canonical_form, design.blocks)) == shift_blocks(entry)
            checked += 1

        for n, entry in source.PACKINGS.items():
            design = catalog_get(f"packing:{n}")
            assert verify_design(design).valid, n
            assert design.leave == frozenset(shift_edges(entry["leave"])), n
            assert Counter(map(canonical_form, design.blocks)) == shift_blocks(entry)
            checked += 1

        for n, entry in source.COVERINGS.items():
            design = catalog_get(f"covering:{n}")
            assert verify_design(design).valid, n
            assert Counter(design.padding) == Counter(
                sorted(shift_edges(entry["padding"]))
            ), n
            listed = shift_blocks(entry)
            got = Counter(map(canonical_form, design.blocks))
            assert listed == Counter(
                {b: min(got[b], c) for b, c in listed.items()}
            ), n
            if n != 17:
                assert got == listed, n
            checked += 1

        assert checked == 13


def test_criterion_7_bipartite_ingredient_suite():
    with criterion(7, "bipartite hexagon fills across the even grid"):
        start = time.perf_counter()
        pairs = set()
        for fixed in (6, 12, 18):
            for other in range(4, 21, 2):
                pairs.add((fixed, other))
                pairs.add((other, fixed))
        for m, n in sorted(pairs):
            host = CompleteBipartite(frozenset(range(m)), frozenset(range(m, m + n)))
            design = c6_decompose_bipartite(host)
            assert len(design.blocks) == m * n // 6, (m, n)
            report = verify_design(design, require_both_types=False)
            assert report.valid, (m, n)
            for block in design.blocks:
                inside = [v in host.left for v in block.vertices]
                assert inside in ([True, False] * 3, [False, True] * 3), (m, n)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"suite took {elapsed:.2f}s"


def test_criterion_8_property_suites():
    with criterion(8, "canonical round trips, relabel invariance, degree identity"):
        hexagons = set()
        prisms = set()
        for perm in itertools.permutations(range(6)):
            h = Hexagon(perm)
            assert recognize(block_edges(h)) == canonical_form(h)
            hexagons.add(canonical_form(h))
            p = Prism(perm[:3], perm[3:])
            assert recognize(block_edges(p)) == canonical_form(p)
            prisms.add(canonical_form(p))
        assert len(hexagons) == 60 and len(prisms) == 60
        assert len(hexagons | prisms) == 120

        rng = random.Random(97)
        sample = [
            catalog_get("decomposition:6"),
            catalog_get("decomposition:13"),
            catalog_get("packing:9"),
            catalog_get("covering:8"),
            _packings()[10],
            _coverings()[10],
        ]
        for design in sample:
            vs = list(host_vertices(design.host))
            for _ in range(100):
                shuffled = vs[:]
                rng.shuffle(shuffled)
                moved = relabel_design(design, dict(zip(vs, shuffled)))
                assert verify_design(moved).valid

        def degree_shift(design):
            shift = Counter()
            for u, v in design.leave:
                shift[u] -= 1
                shift[v] -= 1
            for u, v in design.padding:
                shift[u] += 1
                shift[v] += 1
            return shift

        for designs in (_decompositions(), _packings(), _coverings()):
            for n, design in designs.items():
                shift = degree_shift(design)
                for v, (p, q) in incidence_table(design).items():
                    assert 2 * p + 3 * q == n - 1 + shift[v], (n, v)


def test_criterion_9_search_oracle_agreement():
    with criterion(9, "searches rediscover the frozen ingredient designs"):
        start = time.perf_counter()

        def canon(blocks):
            return Counter(map(canonical_form, blocks))

        outcome = search_multidecomposition(
            Complete(6),
            SearchConfig(min_hexagons=1, min_prisms=1, symmetry_breaking=True),
        )
        assert outcome.status is Status.FOUND
        assert verify_design(outcome.design).valid
        bundled = catalog_get("decomposition:6")
        assert canon(outcome.design.blocks) == canon(bundled.blocks)

        outcome = search_multidecomposition(
            Complete(12),
            SearchConfig(
                min_hexagons=1,
                min_prisms=1,
                symmetry_breaking=True,
                node_budget=200_000,
            ),
        )
        assert outcome.status is Status.FOUND
        report = verify_design(outcome.design)
        assert report.valid
        assert report.hexagon_count >= 1 and report.prism_count >= 1

        outcome = search_multidecomposition(
            Complete(9), SearchConfig(prisms=False, symmetry_breaking=True)
        )
        assert outcome.status is Status.FOUND
        assert canon(outcome.design.blocks) == canon(load_base("hexagons:9").blocks)
        assert verify_design(outcome.design, require_both_types=False).valid

        outcome = search_multidecomposition(
            Complete(10), SearchConfig(hexagons=False, symmetry_breaking=True)
        )
        assert outcome.status is Status.FOUND
        assert canon(outcome.design.blocks) == canon(load_base("prisms:10").blocks)
        assert verify_design(outcome.design, require_both_types=False).valid

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"searches took {elapsed:.1f}s"
