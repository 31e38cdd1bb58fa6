from __future__ import annotations

import pytest

from hexprism.feasibility import (
    UnsupportedOrderError,
    block_count_solutions,
    classify,
    degree_solutions,
    has_decomposition,
    leave_lower_bound,
    nonexistence_reason,
    padding_lower_bound,
)
from hexprism.search import confirm_nonexistence


def _brute_block_solutions(edge_count, require_both):
    low = 1 if require_both else 0
    return {
        (x, y)
        for x in range(low, edge_count // 6 + 1)
        for y in range(low, edge_count // 9 + 1)
        if 6 * x + 9 * y == edge_count
    }


def _brute_degree_solutions(degree):
    return {
        (p, q)
        for p in range(degree // 2 + 1)
        for q in range(degree // 3 + 1)
        if 2 * p + 3 * q == degree
    }


def test_block_solutions_match_brute_force():
    for total in range(-5, 400):
        for require_both in (True, False):
            assert block_count_solutions(total, require_both) == _brute_block_solutions(
                total, require_both
            ), total


def test_block_solutions_key_values():
    assert block_count_solutions(21, True) == {(2, 1)}
    assert block_count_solutions(45, True) == {(6, 1), (3, 3)}
    assert block_count_solutions(18, True) == set()
    assert block_count_solutions(18, False) == {(3, 0), (0, 2)}
    assert block_count_solutions(24, True) == {(1, 2)}
    assert block_count_solutions(15, True) == {(1, 1)}
    assert block_count_solutions(36, True) == {(3, 2)}


def test_degree_solutions_match_brute_force():
    for degree in range(0, 200):
        assert degree_solutions(degree) == _brute_degree_solutions(degree), degree


def test_degree_solutions_key_values():
    assert degree_solutions(5) == {(1, 1)}
    assert degree_solutions(6) == {(3, 0), (0, 2)}
    assert degree_solutions(8) == {(4, 0), (1, 2)}
    assert degree_solutions(9) == {(3, 1), (0, 3)}


def test_classify_rejects_tiny_orders():
    for n in (-1, 0, 1, 5):
        with pytest.raises(UnsupportedOrderError):
            classify(n)


def test_existence_range():
    for n in range(6, 201):
        report = classify(n)
        expected = n % 3 in (0, 1) and n not in (7, 9, 10)
        assert report.decomposition_exists is expected, n


def test_existence_predicate_matches_the_report():
    for n in range(6, 401):
        assert has_decomposition(n) is classify(n).decomposition_exists, n
    for n in (-1, 0, 5):
        with pytest.raises(UnsupportedOrderError):
            has_decomposition(n)


def test_leave_and_padding_sizes():
    for n in range(6, 201):
        report = classify(n)
        if n == 7:
            want_leave, want_padding = 6, 6
        elif n in (9, 10):
            want_leave, want_padding = 3, 3
        elif n % 3 == 2:
            want_leave, want_padding = 1, 2
        else:
            want_leave, want_padding = 0, 0
        assert report.min_leave == want_leave, n
        assert report.min_padding == want_padding, n


def test_arithmetic_bounds_track_true_minima():
    """classify reads its minima off the counting bounds, except at order 7,
    where arithmetic allows padding 3 but no such covering exists."""
    for n in range(6, 401):
        report = classify(n)
        assert report.min_leave == leave_lower_bound(n), n
        if n != 7:
            assert report.min_padding == padding_lower_bound(n), n
    assert (classify(7).min_padding, padding_lower_bound(7)) == (6, 3)


def test_leave_matches_edge_arithmetic():
    """Outside the exceptions the leave is the least residue of C(n,2) mod 3."""
    for n in range(11, 201):
        if n in (7, 9, 10):
            continue
        total = n * (n - 1) // 2
        assert classify(n).min_leave == total % 3, n


def test_annotations_only_on_7_9_and_10():
    # 9 and 10 explain their mod-3 padding, and 7 its padding above the bound
    for n in range(6, 60):
        report = classify(n)
        if n in (7, 9, 10):
            assert report.annotation, n
        else:
            assert report.annotation is None, n
    assert "find_extremal(Complete(7), COVERING, 3) exhausts" in classify(7).annotation


def test_nonexistence_reason():
    for n in (7, 9, 10):
        reason = nonexistence_reason(n)
        assert reason is not None and str(n) in reason
    for n in (8, 11, 14):
        reason = nonexistence_reason(n)
        assert reason is not None
    for n in (6, 12, 13, 15):
        assert nonexistence_reason(n) is None
    for n in range(6):
        with pytest.raises(UnsupportedOrderError):
            nonexistence_reason(n)


def test_nonexistence_reason_names_what_arithmetic_rules_out():
    # the reason splits each exceptional order's cases as the certificate
    # does: arithmetic first, then the cases only the search rules out
    for n in (7, 9, 10):
        report = confirm_nonexistence(n)
        arithmetic, _, searched = nonexistence_reason(n).partition("only the exhaustive search")
        for case in report.cases:
            assert (str(case) in arithmetic) is (case in report.analytic_eliminated), (n, case)
            assert (str(case) in searched) is (case not in report.analytic_eliminated), (n, case)
    assert "(6, 1), and only the exhaustive search in confirm_nonexistence(10) rules out (3, 3)" \
        in nonexistence_reason(10)


def test_report_solution_sets():
    report = classify(13)
    assert report.block_solutions == frozenset({(2, 6), (5, 4), (8, 2), (11, 0)}) or (
        (7, 4) in report.block_solutions
    )
    assert all(6 * x + 9 * y == 78 for x, y in report.block_solutions)
    assert all(2 * p + 3 * q == 12 for p, q in report.degree_solutions)
