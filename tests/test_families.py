"""Polynomial families: frozen small cases, classical limits, the dual
construction routes, and the numeric series evaluation."""

from fractions import Fraction

import pytest

import degenpoly.families as families
from degenpoly.algebra import PolyX
from degenpoly.families import (
    bell_polynomial,
    degenerate_bernoulli,
    degenerate_bernoulli2,
    degenerate_bernoulli2_polys,
    degenerate_bernoulli_polys,
    degenerate_dowling,
    degenerate_poly_bell,
    degenerate_poly_bell_polys,
    degenerate_polyexp_series,
    dobinski_eval,
    dobinski_trace,
    dowling_polynomial,
    falling_basis_rows,
    fully_degenerate_bell,
    fully_degenerate_dowling,
    partial_degenerate_bell,
)
from degenpoly.kernels import degenerate_exp, lambda_falling, lambda_falling_eval
from degenpoly.rationals import Q, QONE, QZERO
from degenpoly.triangles import degenerate_stirling2, degenerate_whitney2

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_bell_frozen():
    lam = Q(1, 5)
    assert fully_degenerate_bell(2, lam) == PolyX([QZERO, 1 - 2 * lam, QONE])
    assert partial_degenerate_bell(2, lam) == PolyX([QZERO, 1 - lam, QONE])
    assert fully_degenerate_bell(0, lam) == PolyX.one()
    assert fully_degenerate_bell(1, lam) == PolyX.x()


def test_bell_classical_values():
    for n in range(9):
        assert bell_polynomial(n)(QONE) == BELL[n]
        assert fully_degenerate_bell(n, QZERO) == bell_polynomial(n)
        assert partial_degenerate_bell(n, QZERO) == bell_polynomial(n)


def test_bell_dual_route():
    # triangle sum against direct composition of the two kernels
    for lam in (Q(1, 2), Q(-1, 3)):
        cap = 7
        inner = degenerate_exp(QONE, lam, cap) - 1
        series = degenerate_exp(PolyX.x(), lam, cap).compose(inner)
        for n in range(cap + 1):
            got = series.a[n]
            got = got if isinstance(got, PolyX) else PolyX.constant(got)
            assert fully_degenerate_bell(n, lam) == got


def test_dowling_frozen():
    lam = Q(1, 3)
    for m in (1, 2, 3):
        assert fully_degenerate_dowling(1, m, lam) == PolyX([QONE, QONE])
    assert degenerate_dowling(2, 1, QZERO) == PolyX([QONE, Q(3), QONE])
    # leading coefficient of the fully deformed family is always 1
    for n in range(6):
        assert fully_degenerate_dowling(n, 2, lam).coeff(n) == 1


def test_falling_basis_rows_match_per_degree_basis():
    # each row against x (x - lam) .. (x - (k-1) lam) built from scratch
    for lam in (Q(1, 2), Q(-2, 5), QZERO):
        for tri in (degenerate_stirling2(7, lam), degenerate_whitney2(7, 2, lam)):
            rows = falling_basis_rows(tri, lam)
            assert len(rows) == 8
            for n, got in enumerate(rows):
                want = PolyX.zero()
                for k in range(n + 1):
                    want = want + tri[n, k] * lambda_falling(k, lam)
                assert got == want
        for n in range(8):
            assert fully_degenerate_bell(n, lam) == falling_basis_rows(
                degenerate_stirling2(7, lam), lam
            )[n]
            assert fully_degenerate_dowling(n, 3, lam) == falling_basis_rows(
                degenerate_whitney2(7, 3, lam), lam
            )[n]


def test_sequence_constructors_match_single_degree():
    for lam in (Q(1, 3), Q(-2, 5), QZERO):
        seqs = [
            (degenerate_bernoulli_polys(6, lam), lambda n: degenerate_bernoulli(n, lam)),
            (degenerate_bernoulli2_polys(6, lam), lambda n: degenerate_bernoulli2(n, lam)),
        ]
        for k in (-1, 0, 1, 2):
            seqs.append(
                (
                    degenerate_poly_bell_polys(6, k, lam),
                    lambda n, k=k: degenerate_poly_bell(n, k, lam),
                )
            )
        for polys, single in seqs:
            assert len(polys) == 7
            assert all(isinstance(p, PolyX) for p in polys)
            assert polys == [single(n) for n in range(7)]
    for build in (degenerate_bernoulli_polys, degenerate_bernoulli2_polys):
        with pytest.raises(ValueError):
            build(-1, Q(1, 2))
    with pytest.raises(ValueError):
        degenerate_poly_bell_polys(-1, 2, Q(1, 2))


def test_dowling_classical_shift():
    # m = 1, lam = 0: evaluation at 1 counts partitions of n+1 elements
    for n in range(8):
        assert degenerate_dowling(n, 1, QZERO)(QONE) == BELL[n + 1]
        assert dowling_polynomial(n, 1)(QONE) == BELL[n + 1]


def test_bernoulli_frozen():
    lam = Q(1, 3)
    assert degenerate_bernoulli(0, lam) == PolyX.one()
    assert degenerate_bernoulli(1, lam) == PolyX([(lam - 1) / 2, QONE])
    assert degenerate_bernoulli2(1, lam) == PolyX([(1 - lam) / 2, QONE])
    assert degenerate_bernoulli2(0, lam) == PolyX.one()


def test_bernoulli_classical_limit():
    # classical values at lam = 0
    assert degenerate_bernoulli(1, QZERO)(QZERO) == Q(-1, 2)
    assert degenerate_bernoulli(2, QZERO) == PolyX([Q(1, 6), Q(-1), QONE])
    assert degenerate_bernoulli(3, QZERO) == PolyX(
        [QZERO, Q(1, 2), Q(-3, 2), QONE]
    )
    assert degenerate_bernoulli(4, QZERO) == PolyX(
        [Q(-1, 30), QZERO, QONE, Q(-2), QONE]
    )


def test_bernoulli2_constants_are_cauchy_numbers():
    # constants at lam = 0: 1, 1/2, -1/6, 1/4, -19/30, 9/4
    want = [QONE, Q(1, 2), Q(-1, 6), Q(1, 4), Q(-19, 30), Q(9, 4)]
    for n, w in enumerate(want):
        assert degenerate_bernoulli2(n, QZERO)(QZERO) == w


def test_polyexp_series_coefficients():
    lam = Q(1, 3)
    s = degenerate_polyexp_series(2, lam, 5)
    assert s.a[0] == 0
    for n in range(1, 6):
        fall = lambda_falling_eval(QONE, n, lam)
        assert s.a[n] == fall * Q(1, n)
    # order 1 is exactly the shifted exponential kernel
    s1 = degenerate_polyexp_series(1, lam, 6)
    e = degenerate_exp(QONE, lam, 6) - 1
    assert s1 == e


def test_poly_bell_collapses_at_order_one():
    for lam in (Q(1, 2), Q(-1, 3), Q(2, 7)):
        for n in range(11):
            assert degenerate_poly_bell(n, 1, lam) == degenerate_bernoulli(n, lam)


def test_poly_bell_other_orders_differ():
    lam = Q(1, 2)
    assert degenerate_poly_bell(3, 2, lam) != degenerate_bernoulli(3, lam)
    assert degenerate_poly_bell(2, 0, lam).degree == 2


def test_family_leading_terms_monic():
    lam = Q(2, 7)
    for n in range(7):
        for p in (
            fully_degenerate_bell(n, lam),
            partial_degenerate_bell(n, lam),
            degenerate_bernoulli(n, lam),
            degenerate_bernoulli2(n, lam),
            degenerate_poly_bell(n, 2, lam),
        ):
            assert p.degree == n
            assert p.coeff(n) == 1


def test_dobinski_domain():
    for bad in (QZERO, QONE, Q(3, 2), Q(-1, 2)):
        with pytest.raises(ValueError):
            dobinski_eval(2, bad, QONE)
    with pytest.raises(ValueError):
        dobinski_eval(-1, Q(1, 2), QONE)
    with pytest.raises(ValueError):
        dobinski_eval(2, Q(1, 2), QONE, terms=-1)


def test_dobinski_float_overflow_raises_value_error():
    # at lam = 12/13 the terms grow like 12^k, past the float range by
    # k = 290, although every partial sum is exact
    with pytest.raises(ValueError, match="partial sum overflows a float"):
        dobinski_eval(4, Q(12, 13), QONE, 400)
    with pytest.raises(ValueError, match="partial sum overflows a float"):
        dobinski_trace(4, Q(12, 13), QONE, 400)
    # x far below zero pushes the prefactor (1 - lam)^(x/lam) out of range
    with pytest.raises(ValueError, match="prefactor overflows a float"):
        dobinski_eval(2, Q(1, 10**5), Q(-(10**5)), 10)


def test_dobinski_converges_on_terminating_arguments():
    # x/lam integral makes the series terminate, so 200 terms is exact
    # up to float rounding
    for lam in (Q(1, 10), Q(1, 3), Q(1, 2)):
        for n in range(7):
            approx, reference = dobinski_eval(n, lam, QONE, 200)
            denom = abs(reference) if reference else 1.0
            assert abs(approx - reference) / denom < 1e-10


def test_dobinski_trace_shape():
    trace = dobinski_trace(3, Q(1, 10), QONE, 50)
    assert set(trace) == {"checkpoints", "reference", "final", "rel_error"}
    ks = [k for k, _ in trace["checkpoints"]]
    assert ks == sorted(ks)
    assert ks[-1] == 50
    assert trace["rel_error"] < 1e-10
    assert trace["final"] == trace["checkpoints"][-1][1]


def test_family_argument_validation():
    with pytest.raises(ValueError):
        fully_degenerate_bell(-1, Q(1, 2))
    with pytest.raises(ValueError):
        fully_degenerate_dowling(2, 0, Q(1, 2))
    with pytest.raises(ValueError):
        degenerate_poly_bell(2, Q(3, 2), Q(1, 2))  # order must be an integer


def test_dobinski_refuses_divergent_series():
    # lam >= 1/2 diverges unless x/lam is a nonnegative integer
    for lam, x in ((Q(1, 2), Q(1, 9)), (Q(3, 5), Q(1, 3)), (Q(3, 5), Q(-3, 5)),
                   (Q(9, 10), Q(-9, 20))):
        with pytest.raises(ValueError, match="diverges"):
            dobinski_eval(2, lam, x, 30)
        with pytest.raises(ValueError, match="diverges"):
            dobinski_trace(2, lam, x, 30)
    # below 1/2 any x converges; above it x/lam integral terminates
    for lam, x in ((Q(9, 20), Q(1, 9)), (Q(1, 3), Q(-2, 7)),
                   (Q(3, 5), Q(6, 5)), (Q(9, 10), QZERO)):
        approx, reference = dobinski_eval(2, lam, x, 400)
        denom = abs(reference) if reference else 1.0
        assert abs(approx - reference) / denom < 1e-8


def _fraction_dobinski(n, lam, x, count):
    """Partial sums of the Dobinski-style series, term by term in
    Fraction: the route the integer sums replaced."""
    inv = 1 / (1 - lam)
    acc = Fraction(0)
    xfall = invpow = kfact = Fraction(1)
    for k in range(count + 1):
        if k:
            xfall *= x - (k - 1) * lam
            invpow *= inv
            kfact *= k
        kfall = Fraction(1)
        for j in range(n):
            kfall *= k - j * lam
        acc += kfall / kfact * invpow * xfall
        yield k, acc


def test_dobinski_integer_sums_match_the_fraction_loop():
    terms, step = 120, 12
    for lam in (Fraction(1, 10), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7),
                Fraction(1, 2)):
        for x in (Fraction(1), Fraction(2, 9), Fraction(7, 3), Fraction(-1, 2)):
            ratio = x / lam
            converges = lam < Fraction(1, 2) or (ratio >= 0 and ratio.denominator == 1)
            qlam, qx = Q(lam.numerator, lam.denominator), Q(x.numerator, x.denominator)
            for n in range(7):
                sums = []
                exact = families._dobinski_terms(n, qlam, qx, terms)
                for (k, num, den), (k0, acc) in zip(exact, _fraction_dobinski(n, lam, x, terms)):
                    assert k == k0 and Fraction(num, den) == acc
                    sums.append(float(acc))
                assert len(sums) == terms + 1
                if not converges:
                    with pytest.raises(ValueError, match="diverges"):
                        dobinski_eval(n, qlam, qx, terms)
                    with pytest.raises(ValueError, match="diverges"):
                        dobinski_trace(n, qlam, qx, terms)
                    continue
                _, _, prefactor = families._dobinski_args(n, qlam, qx, terms)
                values = [(prefactor * v).hex() for v in sums]
                approx, _ = dobinski_eval(n, qlam, qx, terms)
                assert approx.hex() == values[-1]
                trace = dobinski_trace(n, qlam, qx, terms)
                assert [(k, v.hex()) for k, v in trace["checkpoints"]] == [
                    (k, values[k]) for k in range(step, terms + 1, step)
                ]
                assert trace["final"].hex() == values[-1]
