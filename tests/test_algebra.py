"""Polynomial and series ring: axioms on random elements, frozen values,
basis conversions, and the container type."""

import random
from math import comb

import pytest

from degenpoly.algebra import (
    EgfSeries,
    PolyX,
    Triangle,
    binomial_series,
    from_lambda_falling_basis,
    to_lambda_falling_basis,
)
from degenpoly.kernels import degenerate_exp, lambda_log_series
from degenpoly.rationals import Q, QONE, QZERO
from degenpoly.umbral import dowling_pair

CAP = 6


def rand_q(rng):
    return Q(rng.randint(-9, 9), rng.randint(1, 7))


def rand_poly(rng, max_deg=5):
    return PolyX([rand_q(rng) for _ in range(rng.randint(0, max_deg + 1))])


def rand_series(rng, cap=CAP):
    return EgfSeries(cap, [rand_q(rng) for _ in range(cap + 1)])


def test_poly_ring_axioms():
    rng = random.Random(42)
    for _ in range(120):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + PolyX.zero() == a
        assert a * PolyX.one() == a
        assert a - a == PolyX.zero()


def test_series_ring_axioms():
    rng = random.Random(43)
    for _ in range(120):
        a, b, c = rand_series(rng), rand_series(rng), rand_series(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == EgfSeries.zero(CAP)
        assert a * EgfSeries.one(CAP) == a


def test_poly_scalar_ops():
    p = PolyX([Q(1, 2), Q(-2), QONE])
    assert 2 * p == p * 2 == PolyX([QONE, Q(-4), Q(2)])
    assert p / 2 == PolyX([Q(1, 4), Q(-1), Q(1, 2)])
    assert p + 1 == PolyX([Q(3, 2), Q(-2), QONE])
    assert -p == PolyX([Q(-1, 2), Q(2), Q(-1)])
    assert p.coeff(7) == 0
    assert p.degree == 2


def test_poly_eval_and_substitution():
    p = PolyX([QONE, QZERO, QONE])  # 1 + x^2
    assert p(Q(2)) == 5
    assert p(QZERO) == 1
    # substituting x+1 gives 1 + (x+1)^2
    q = p(PolyX([QONE, QONE]))
    assert q == PolyX([Q(2), Q(2), QONE])
    # evaluation is a ring morphism
    rng = random.Random(44)
    for _ in range(40):
        a, b, v = rand_poly(rng), rand_poly(rng), rand_q(rng)
        assert (a * b)(v) == a(v) * b(v)
        assert (a + b)(v) == a(v) + b(v)


def test_poly_pow_and_normalization():
    x = PolyX.x()
    assert (x + 1) ** 2 == PolyX([QONE, Q(2), QONE])
    assert (x + 1) ** 0 == PolyX.one()
    assert PolyX([QZERO, QZERO]).is_zero()
    assert PolyX([QONE, QZERO]).degree == 0
    assert PolyX.zero().degree == -1
    assert PolyX.monomial(3, Q(5)).coeffs == (QZERO, QZERO, QZERO, Q(5))


def test_series_is_egf_normalized():
    # a[n] counts with weight n!: t*t must give a[2] = 2
    t = EgfSeries.t(4)
    assert (t * t).a[2] == 2
    assert (t * t * t).a[3] == 6
    # exp * exp doubles: all-ones series squared has a[n] = 2^n
    e = EgfSeries(8, [QONE] * 9)
    sq = e * e
    assert all(sq.a[n] == Q(2) ** n for n in range(9))


def test_series_mul_matches_binomial_convolution():
    rng = random.Random(45)
    for _ in range(30):
        f, g = rand_series(rng, 5), rand_series(rng, 5)
        prod = f * g
        binom = [[1], [1, 1]]
        for n in range(2, 6):
            row = [1] + [binom[-1][j - 1] + binom[-1][j] for j in range(1, n)] + [1]
            binom.append(row)
        for n in range(6):
            want = sum(
                (binom[n][j] * f.a[j] * g.a[n - j] for j in range(n + 1)), QZERO
            )
            assert prod.a[n] == want


def test_binomial_series_frozen():
    s = binomial_series(Q(-1, 2), Q(2), 4)
    assert s.a[0] == 1
    assert s.a[1] == -1
    assert s.a[2] == 3
    # alpha = 1: just 1 + c t
    s = binomial_series(QONE, Q(3), 4)
    assert s.a == (QONE, Q(3), QZERO, QZERO, QZERO)


def test_compose_and_inverse():
    # f = t/(1-t) has EGF coefficients n!; its inverse is t/(1+t)
    cap = 7
    fact = [1]
    for n in range(1, cap + 1):
        fact.append(fact[-1] * n)
    f = EgfSeries(cap, [QZERO] + [Q(fact[n]) for n in range(1, cap + 1)])
    g = f.comp_inverse()
    for n in range(1, cap + 1):
        want = Q((-1) ** (n - 1) * fact[n])
        assert g.a[n] == want
    assert f.compose(g) == EgfSeries.t(cap)
    assert g.compose(f) == EgfSeries.t(cap)


def test_comp_inverse_random_round_trip():
    rng = random.Random(46)
    for _ in range(20):
        coeffs = [QZERO, Q(rng.choice([1, -1]) * rng.randint(1, 5))]
        coeffs += [rand_q(rng) for _ in range(CAP - 1)]
        f = EgfSeries(CAP, coeffs)
        g = f.comp_inverse()
        assert f.compose(g) == EgfSeries.t(CAP)


def test_reciprocal():
    rng = random.Random(47)
    for _ in range(20):
        coeffs = [Q(rng.choice([1, -1]) * rng.randint(1, 5))]
        coeffs += [rand_q(rng) for _ in range(CAP)]
        f = EgfSeries(CAP, coeffs)
        assert f * f.reciprocal() == EgfSeries.one(CAP)


def test_shift_down():
    t = EgfSeries.t(4)
    one = t.shift_down()
    assert one.order_cap == 3
    assert one.a[0] == 1
    f = EgfSeries(3, [QZERO, QONE, Q(4), Q(9)])
    g = f.shift_down()
    # a'[n] = a[n+1]/(n+1)
    assert g.a == (QONE, Q(2), Q(3))


def test_series_errors():
    f = EgfSeries(4, [QONE])
    g = EgfSeries(5, [QONE])
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f * g
    with pytest.raises(ValueError):
        f.compose(EgfSeries(4, [QONE, QONE]))  # inner must kill the constant
    with pytest.raises(ValueError):
        EgfSeries(4, [QZERO, QZERO, QONE]).comp_inverse()  # order 2, not 1
    with pytest.raises(ValueError):
        EgfSeries(4, [QZERO, QONE]).reciprocal()
    with pytest.raises(ValueError):
        EgfSeries(4, [QONE, QONE]).shift_down()
    with pytest.raises(ValueError):
        EgfSeries(2, [QONE] * 5)  # more coefficients than the cap allows


def test_falling_basis_frozen_example():
    lam = Q(1, 3)
    # x^2 = lam * (x)_{1,lam} + (x)_{2,lam}
    coeffs = to_lambda_falling_basis(PolyX.monomial(2), lam)
    assert coeffs == [QZERO, lam, QONE]


def test_falling_basis_round_trip():
    rng = random.Random(48)
    for lam in (QZERO, Q(1, 2), Q(-1, 3), Q(2), Q(7, 5)):
        for _ in range(10):
            p = rand_poly(rng, max_deg=16)
            coeffs = to_lambda_falling_basis(p, lam)
            assert from_lambda_falling_basis(coeffs, lam) == p
    # lam = 0 is the monomial basis
    p = PolyX([Q(3), Q(-1), Q(5)])
    assert to_lambda_falling_basis(p, QZERO) == list(p.coeffs)


def test_polyx_equality_never_raises():
    x = PolyX.x()
    assert not x == "x"
    assert x != "x"
    assert not PolyX.one() == "1/0"
    assert PolyX.one() != object()


def test_polyx_arithmetic_refuses_strings():
    x = PolyX.x()
    for text in ("1/2", "x", "2"):
        for op in (
            lambda: x + text,
            lambda: text + x,
            lambda: x - text,
            lambda: text - x,
            lambda: x * text,
            lambda: text * x,
            lambda: x / text,
        ):
            with pytest.raises(TypeError):
                op()
    # numbers still mix with polynomials from either side
    assert x + Q(1, 2) == Q(1, 2) + x == PolyX((Q(1, 2), 1))
    assert x - 1 == -(1 - x) == PolyX((-1, 1))
    assert 3 * x == x * 3 == PolyX((0, 3))
    assert x / 2 == x / Q(2) == PolyX((0, Q(1, 2)))


def test_triangle_container():
    tri = Triangle(((QONE,), (QZERO, QONE), (QZERO, QONE, QONE)))
    assert tri.n_max == 2
    assert tri[2, 1] == 1
    assert tri[1, 2] == 0  # above the diagonal reads as zero
    assert tri.row(1) == (QZERO, QONE)
    with pytest.raises(IndexError):
        tri[3, 0]
    with pytest.raises(IndexError):
        tri[0, -1]
    with pytest.raises(IndexError):
        Triangle([[1], [2, 3]])[-1, 0]  # no wrap-around to the last row
    with pytest.raises(ValueError):
        Triangle(((QONE,), (QZERO,)))  # ragged row lengths
    with pytest.raises(ValueError):
        Triangle(())
    assert tri == Triangle(tri.rows)


# ---------------------------------------------------------------------------
# integer product kernel and Lagrange inversion


def fraction_convolution(f, g):
    """Reference product: the binomial convolution term by term in
    rationals, with a coefficient turning PolyX once a term does."""
    out = []
    for n in range(len(f.a)):
        s = QZERO
        for j in range(n + 1):
            u, v = f.a[j], g.a[n - j]
            if u and v:
                s = s + comb(n, j) * u * v
        out.append(s)
    return out


def assert_same_coefficients(got, want):
    assert len(got) == len(want)
    for u, v in zip(got, want):
        assert type(u) is type(v), (u, v)
        if isinstance(v, PolyX):
            assert u.coeffs == v.coeffs
            assert all(type(p) is type(QZERO) for p in u.coeffs)
        else:
            assert u == v


def rand_sparse_q(rng):
    return QZERO if rng.random() < 0.25 else Q(rng.randint(-99, 99), rng.randint(1, 60))


def rand_mixed(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rand_sparse_q(rng)
    if kind == 1:
        return PolyX.zero()
    if kind == 2:
        return PolyX.constant(rand_q(rng))
    return rand_poly(rng, max_deg=4)


def test_series_mul_integer_kernel_scalar():
    rng = random.Random(49)
    for cap in range(25):
        for _ in range(4):
            f = EgfSeries(cap, [rand_sparse_q(rng) for _ in range(cap + 1)])
            g = EgfSeries(cap, [rand_sparse_q(rng) for _ in range(cap + 1)])
            assert_same_coefficients((f * g).a, fraction_convolution(f, g))
        zero = EgfSeries.zero(cap)
        assert_same_coefficients((f * zero).a, fraction_convolution(f, zero))


def test_series_mul_integer_kernel_mixed_polyx():
    rng = random.Random(50)
    for cap in range(13):
        for _ in range(6):
            f = EgfSeries(cap, [rand_mixed(rng) for _ in range(cap + 1)])
            g = EgfSeries(cap, [rand_sparse_q(rng) for _ in range(cap + 1)])
            h = EgfSeries(cap, [rand_mixed(rng) for _ in range(cap + 1)])
            assert_same_coefficients((f * g).a, fraction_convolution(f, g))
            assert_same_coefficients((g * f).a, fraction_convolution(g, f))
            assert_same_coefficients((f * h).a, fraction_convolution(f, h))


def test_series_mul_polyx_cancellation_keeps_type():
    x = PolyX.x()
    one = EgfSeries(2, [QONE, QONE])
    # a[1] = (x + 1) + (-x): the x terms cancel to the constant 1
    prod = EgfSeries(2, [x + 1, -x]) * one
    assert prod.a[1] == PolyX.one() and isinstance(prod.a[1], PolyX)
    # a[1] = x + (-x): cancels to the zero polynomial, still a PolyX
    prod = EgfSeries(2, [x, -x]) * one
    assert isinstance(prod.a[1], PolyX) and prod.a[1].is_zero()
    # a zero PolyX factor contributes no term, so the result stays scalar
    prod = EgfSeries(2, [PolyX.zero(), Q(2)]) * one
    assert prod.a == (QZERO, Q(2), Q(4))
    assert not any(isinstance(v, PolyX) for v in prod.a)
    # a nonzero PolyX against a zero partner also contributes nothing
    prod = EgfSeries(2, [x]) * EgfSeries(2, [QZERO, QONE])
    assert not isinstance(prod.a[0], PolyX)
    assert isinstance(prod.a[1], PolyX) and prod.a[1] == x


@pytest.mark.parametrize("lam", [Q(1, 3), Q(-1, 2), Q(2, 5), Q(-3, 7), Q(5, 4)])
def test_comp_inverse_lagrange_round_trip(lam):
    for cap in range(1, 25):
        t = EgfSeries.t(cap)
        for f in (
            lambda_log_series(lam, cap),
            degenerate_exp(QONE, lam, cap) - 1,
            dowling_pair(2, lam, cap).f,
        ):
            inv = f.comp_inverse()
            assert f.compose(inv) == t
            assert inv.compose(f) == t


def test_comp_inverse_at_cap_zero_is_a_value_error():
    # at cap 0 the order cannot be 1; this used to be an IndexError
    with pytest.raises(ValueError):
        EgfSeries.zero(0).comp_inverse()


def test_comp_inverse_makes_no_compositions(monkeypatch):
    calls = []
    compose = EgfSeries.compose

    def counting_compose(self, inner):
        calls.append(self.order_cap)
        return compose(self, inner)

    monkeypatch.setattr(EgfSeries, "compose", counting_compose)
    for cap in (1, 2, 8, 16):
        lambda_log_series(Q(1, 3), cap).comp_inverse()
    assert calls == []
    # the counter does see compositions when they happen
    f = lambda_log_series(Q(1, 3), 4)
    f.compose(f)
    assert calls == [4]


# ---------------------------------------------------------------------------
# integer reciprocal


def fraction_reciprocal(f):
    """Reference reciprocal: the recurrence a * b = 1 solved term by term
    in rationals."""
    a = f.a
    inv0 = QONE / a[0]
    out = [inv0]
    for n in range(1, len(a)):
        s = QZERO
        for j in range(1, n + 1):
            if a[j] and out[n - j]:
                s = s + comb(n, j) * a[j] * out[n - j]
        out.append(-inv0 * s)
    return out


@pytest.mark.parametrize("lam", [Q(1, 3), Q(-2, 5), QZERO, Q(5, 4), Q(12, 13)])
def test_reciprocal_matches_the_fraction_recurrence(lam):
    rng = random.Random("reciprocal:%s" % lam)
    for cap in range(25):
        head = Q(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        cases = [
            EgfSeries(cap, [head] + [rand_sparse_q(rng) for _ in range(cap)]),
            EgfSeries(cap, [head]),
            degenerate_exp(QONE, lam, cap, limit_mode=True),
            (degenerate_exp(Q(2), lam, cap + 1, limit_mode=True) - 1).shift_down(),
            lambda_log_series(lam, cap + 1, limit_mode=True).shift_down() * head,
        ]
        for f in cases:
            inv = f.reciprocal()
            assert inv.order_cap == cap
            assert_same_coefficients(inv.a, fraction_reciprocal(f))
            assert all(type(v) is type(QZERO) for v in inv.a)


def test_reciprocal_refuses_polyx_and_zero_constants():
    x = PolyX.x()
    with pytest.raises(ValueError, match="constant term"):
        EgfSeries(3, [x, QONE]).reciprocal()
    with pytest.raises(ValueError, match="constant term"):
        EgfSeries(3, [PolyX.one()]).reciprocal()
    with pytest.raises(ValueError, match="constant term"):
        EgfSeries(3, [QZERO, QONE]).reciprocal()
    # a symbolic coefficient past the constant term is refused too
    with pytest.raises(ValueError, match="scalars"):
        EgfSeries(3, [QONE, QZERO, x]).reciprocal()
    with pytest.raises(ValueError, match="scalars"):
        EgfSeries(3, [QONE, PolyX.constant(2)]).reciprocal()
