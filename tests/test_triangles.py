"""Number triangles: frozen entries, brute-force counting oracles,
two-term recurrences, inversion, and the enumeration guard rails."""

import random
from math import comb, factorial

import pytest

from degenpoly.algebra import EgfSeries, PolyX, _integer_row, _riordan_columns
from degenpoly.kernels import degenerate_exp, lambda_log_series
from degenpoly.rationals import Q, QONE, QZERO
from degenpoly.triangles import (
    column_power_triangle,
    count_partitions,
    degenerate_stirling1,
    degenerate_stirling2,
    degenerate_whitney2,
    enumerate_colored_partitions,
    r_whitney1,
    r_whitney2,
    set_partitions,
    stirling1,
    stirling2,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def build_by_recurrence(n_max, step):
    """Triangle from T(n+1,k) = T(n,k-1) + step(n,k) T(n,k), T(0,0) = 1."""
    rows = [[QONE]]
    for n in range(n_max):
        prev = rows[-1]
        row = []
        for k in range(n + 2):
            v = QZERO
            if 1 <= k <= n + 1:
                v = v + prev[k - 1]
            if k <= n:
                v = v + step(n, k) * prev[k]
            row.append(v)
        rows.append(row)
    return rows


def test_classical_frozen_entries():
    s1 = stirling1(5)
    assert s1[3, 1] == 2
    assert s1[4, 1] == -6
    assert s1[5, 3] == 35
    s2 = stirling2(5)
    assert s2[4, 2] == 7
    assert s2.row(4) == (QZERO, QONE, Q(7), Q(6), QONE)
    assert s2[5, 2] == 15


def test_classical_against_recurrences():
    s1 = stirling1(8)
    rec = build_by_recurrence(8, lambda n, k: Q(-n))
    assert [list(s1.row(n)) for n in range(9)] == rec
    s2 = stirling2(8)
    rec = build_by_recurrence(8, lambda n, k: Q(k))
    assert [list(s2.row(n)) for n in range(9)] == rec


def test_stirling2_against_brute_force():
    s2 = stirling2(7)
    for n in range(8):
        for k in range(n + 1):
            assert s2[n, k] == count_partitions(n, k)


def test_set_partition_counts_are_bell_numbers():
    for n, want in enumerate(BELL):
        assert sum(1 for _ in set_partitions(range(n))) == want


def test_set_partitions_are_partitions():
    items = list(range(5))
    seen = set()
    for blocks in set_partitions(items):
        flat = sorted(x for b in blocks for x in b)
        assert flat == items  # disjoint cover
        assert all(blocks)  # no empty block
        key = tuple(tuple(sorted(b)) for b in sorted(blocks, key=min))
        assert key not in seen
        seen.add(key)


def test_degenerate_frozen_entries():
    lam = Q(1, 3)
    assert degenerate_stirling2(2, lam)[2, 1] == 1 - lam
    assert degenerate_stirling1(2, lam)[2, 1] == lam - 1
    for m in (1, 2, 3):
        tri = degenerate_whitney2(3, m, lam)
        assert tri[2, 1] == m - lam + 2
        assert tri[2, 2] == 1
        # column 0 carries the generalized falling factorial of 1
        assert tri[2, 0] == (1 - lam)
        assert tri[3, 0] == (1 - lam) * (1 - 2 * lam)
        assert all(tri[n, n] == 1 for n in range(4))


def test_degenerate_triangles_against_recurrences():
    for lam in (Q(1, 2), Q(-1, 3), Q(2, 7)):
        got = degenerate_stirling2(8, lam)
        rec = build_by_recurrence(8, lambda n, k: k - n * lam)
        assert [list(got.row(n)) for n in range(9)] == rec
        got = degenerate_stirling1(8, lam)
        rec = build_by_recurrence(8, lambda n, k: k * lam - n)
        assert [list(got.row(n)) for n in range(9)] == rec
        for m in (1, 2, 3):
            got = degenerate_whitney2(8, m, lam)
            rec = build_by_recurrence(8, lambda n, k: k * m + 1 - n * lam)
            assert [list(got.row(n)) for n in range(9)] == rec


def test_degenerate_limits_to_classical():
    assert degenerate_stirling1(8, QZERO).rows == stirling1(8).rows
    assert degenerate_stirling2(8, QZERO).rows == stirling2(8).rows
    for m in (1, 2, 3):
        assert degenerate_whitney2(8, m, QZERO).rows == r_whitney2(8, m, 1).rows


def test_degenerate_orthogonality():
    for lam in (Q(1, 2), Q(-1, 3)):
        s1 = degenerate_stirling1(7, lam)
        s2 = degenerate_stirling2(7, lam)
        for n in range(8):
            for k in range(n + 1):
                want = QONE if n == k else QZERO
                got = sum(
                    (s1[n, j] * s2[j, k] for j in range(k, n + 1)), QZERO
                )
                assert got == want


def test_r_whitney_frozen_entries():
    tri = r_whitney1(2, 1, 1)
    assert tri[1, 0] == -1
    assert tri[1, 1] == 1
    for m in (1, 2, 3):
        for r in (0, 1, 2):
            tri = r_whitney2(5, m, r)
            assert all(tri[n, 0] == Q(r) ** n for n in range(6))
            assert all(tri[n, n] == 1 for n in range(6))
            rec = build_by_recurrence(5, lambda n, k: Q(k * m + r))
            assert [list(tri.row(n)) for n in range(6)] == rec


def test_r_whitney_orthogonality():
    for m in (1, 2, 3):
        for r in (0, 1, 2):
            a = r_whitney1(6, m, r)
            b = r_whitney2(6, m, r)
            for n in range(7):
                for k in range(n + 1):
                    want = QONE if n == k else QZERO
                    assert sum(
                        (a[n, j] * b[j, k] for j in range(k, n + 1)), QZERO
                    ) == want
                    assert sum(
                        (b[n, j] * a[j, k] for j in range(k, n + 1)), QZERO
                    ) == want


def test_whitney_collapses_to_shifted_stirling():
    # m = 1, r = 1 counts partitions of one extra element
    tri = r_whitney2(6, 1, 1)
    for n in range(7):
        for k in range(n + 1):
            assert tri[n, k] == count_partitions(n + 1, k + 1)


def test_colored_partition_enumeration_matches_triangle():
    for m in (1, 2, 3):
        for r in (0, 1, 2):
            tri = r_whitney2(6, m, r)
            for n in range(7 - r):
                for k in range(n + 1):
                    got = enumerate_colored_partitions(n, k, m, r, max_elements=8)
                    assert tri[n, k] == got, (n, k, m, r)


def test_colored_partition_edge_cases():
    assert enumerate_colored_partitions(0, 0, 1, 0) == 1  # the empty partition
    assert enumerate_colored_partitions(0, 0, 3, 2) == 1
    assert enumerate_colored_partitions(2, 0, 1, 0) == 0  # no blocks to hold them
    # members of a distinguished block never take a color, so the
    # one-block configurations always weigh 1
    assert enumerate_colored_partitions(3, 0, 2, 1) == 1
    assert enumerate_colored_partitions(2, 0, 2, 1) == 1
    # weight check by hand (n=2, k=1, m=2, r=1): {1}{2,3} has one
    # colorable element, {1,2}{3} and {1,3}{2} have none: 2 + 1 + 1
    assert enumerate_colored_partitions(2, 1, 2, 1) == 4


def test_enumeration_guard_rails():
    with pytest.raises(ValueError):
        enumerate_colored_partitions(9, 2, 1, 2, max_elements=10)  # 11 elements
    with pytest.raises(ValueError):
        enumerate_colored_partitions(-1, 0, 1, 0)
    with pytest.raises(ValueError):
        enumerate_colored_partitions(2, -1, 1, 0)
    with pytest.raises(ValueError):
        enumerate_colored_partitions(2, 0, 0, 1)  # m must be positive
    with pytest.raises(ValueError):
        r_whitney2(4, 0, 1)
    with pytest.raises(ValueError):
        degenerate_whitney2(4, 0, Q(1, 2))
    with pytest.raises(ValueError):
        stirling1(-1)


def test_column_power_triangle_refuses_a_non_triangular_array():
    # a base of order 0 puts nonzero entries above the diagonal
    with pytest.raises(ValueError, match=r"\(n, k\) = \(0, 1\)"):
        column_power_triangle(3, EgfSeries.one(3))
    # a lead of positive order against a constant base: column 1 is fine
    # at n_max 1, but column 2 has a[1] != 0 above the diagonal
    t = EgfSeries.t(2)
    assert column_power_triangle(1, EgfSeries.one(2), t).rows == ((0,), (1, 1))
    with pytest.raises(ValueError, match=r"\(n, k\) = \(1, 2\)"):
        column_power_triangle(2, EgfSeries.one(2), t)


def test_column_power_triangle_refuses_mismatched_and_symbolic_series():
    with pytest.raises(ValueError, match="order caps differ"):
        column_power_triangle(2, EgfSeries.t(3), EgfSeries.one(2))
    with pytest.raises(ValueError, match="cannot give row 4"):
        column_power_triangle(4, EgfSeries.t(2), EgfSeries.one(2))
    x = PolyX.x()
    with pytest.raises(ValueError, match="scalars"):
        column_power_triangle(3, EgfSeries(3, [QZERO, QONE, x]))
    with pytest.raises(ValueError, match="scalars"):
        column_power_triangle(3, EgfSeries.t(3), EgfSeries(3, [QONE, x]))
    with pytest.raises(ValueError, match="scalars"):
        _riordan_columns(3, EgfSeries.t(3), EgfSeries(3, [PolyX.one()]))


# ---------------------------------------------------------------------------
# the integer Riordan kernel against a rational reference


def fraction_riordan_array(n_max, base, lead=None):
    """Reference [lead, base]: column k + 1 is the binomial convolution of
    column k with base, term by term in rationals, and T(n, k) is column
    k's entry n divided by k!."""
    col = list(lead.a[: n_max + 1]) if lead is not None else [QONE] + [QZERO] * n_max
    rows = [[] for _ in range(n_max + 1)]
    for k in range(n_max + 1):
        for n in range(k, n_max + 1):
            rows[n].append(col[n] / Q(factorial(k)))
        col = [
            sum((comb(n, j) * col[j] * base.a[n - j] for j in range(n + 1)), QZERO)
            for n in range(n_max + 1)
        ]
    return tuple(tuple(row) for row in rows)


def _small_q(rng):
    return QZERO if rng.random() < 0.25 else Q(rng.randint(-9, 9), rng.randint(1, 9))


def _random_series(rng, cap, order):
    head = [QZERO] * min(order, cap + 1)
    return EgfSeries(cap, head + [_small_q(rng) for _ in range(cap + 1 - len(head))])


def _assert_matches_reference(n_max, base, lead=None):
    got = column_power_triangle(n_max, base, lead)
    want = fraction_riordan_array(n_max, base, lead)
    assert got.rows == want
    assert all(type(v) is type(QZERO) for row in got.rows for v in row)
    # the kernel's columns are each column's least common denominator form
    for k, column in enumerate(_riordan_columns(n_max, base, lead)):
        entries = [got.rows[n][k] for n in range(k, n_max + 1)]
        assert column == tuple(_integer_row(entries))


LAMS = (Q(1, 3), Q(-2, 5), QZERO, Q(5, 4), Q(12, 13))


@pytest.mark.parametrize("lam", LAMS)
def test_column_power_triangle_matches_the_rational_reference(lam):
    # One array per cap, the kind rotating with the cap and the lam, so
    # that over the five lam every kind meets every cap mod 4: the
    # deformed log alone, the deformed exponential with itself as lead,
    # and random bases of order 1 or 2 under random leads of order 0 or
    # of positive order, cut at a random n_max.
    rng = random.Random("riordan:%s" % lam)
    for cap in range(25):
        kind = (cap + LAMS.index(lam)) % 4
        if kind == 0:
            _assert_matches_reference(cap, lambda_log_series(lam, cap, limit_mode=True))
        elif kind == 1:
            dexp = degenerate_exp(QONE, lam, cap, limit_mode=True)
            _assert_matches_reference(cap, dexp - 1, dexp)
        else:
            base = _random_series(rng, cap, rng.randint(1, 2))
            lead = _random_series(rng, cap, 0 if kind == 2 else rng.randint(1, 3))
            _assert_matches_reference(rng.randint(cap // 2, cap), base, lead)


# ---------------------------------------------------------------------------
# the basis-side triangles at the benchmark's size


def test_stirling1_at_size_24():
    tri = stirling1(24)
    rec = build_by_recurrence(24, lambda n, k: Q(-n))
    assert [list(row) for row in tri.rows] == rec
    assert all(type(v) is type(QZERO) for row in tri.rows for v in row)


def test_r_whitney_pair_at_size_24():
    n_max = 24
    for m in (1, 2, 3):
        for r in (0, 1, 2):
            first, second = r_whitney1(n_max, m, r), r_whitney2(n_max, m, r)
            rec = build_by_recurrence(n_max, lambda n, k: Q(-(m * n + r)))
            assert [list(row) for row in first.rows] == rec, (m, r)
            rec = build_by_recurrence(n_max, lambda n, k: Q(k * m + r))
            assert [list(row) for row in second.rows] == rec, (m, r)
            for tri in (first, second):
                assert all(type(v) is type(QZERO) for row in tri.rows for v in row)
            for a, b in ((first, second), (second, first)):
                for n in range(n_max + 1):
                    for k in range(n + 1):
                        got = sum(a[n, j] * b[j, k] for j in range(k, n + 1))
                        assert got == (1 if n == k else 0), (m, r, n, k)
