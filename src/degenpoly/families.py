"""Polynomial families built on the deformed kernels.

This module is the one place where each family's polynomials are built.
Every family has a single-degree constructor returning the degree-n
member as an exact PolyX; the families used in bulk also have a sequence
form returning degrees 0..n_max in one list, and the single-degree
constructor is element [n] of that list.  Two construction styles
appear:

* triangle sums (Bell and Dowling variants): the polynomial is a linear
  combination of monomials or generalized falling factorials with
  Stirling/Whitney triangle entries as weights.  ``falling_basis_rows``
  reads every row of a triangle against the falling basis through one
  integer table of the basis coefficients;
* series products (Bernoulli variants and the polyexponential Bell
  family): the polynomials are the EGF coefficients of an explicit
  product of kernel series, with symbolic x carried in the coefficients,
  so one product yields the whole sequence.

The generating-function route for the triangle-sum families is *not*
computed here; the verifier recomputes those polynomials through series
composition precisely so the two routes stay independent.

``dobinski_eval`` is the package's single floating-point surface: the
series is summed exactly, on integers over one running denominator, and
floats appear only in the conversion of a partial sum and in the
transcendental prefactor.
"""

from __future__ import annotations

import math

from . import kernels, triangles
from .algebra import (
    EgfSeries,
    PolyX,
    Triangle,
    _times_columns,
    as_poly,
    lambda_falling_table,
)
from .rationals import Q, QONE, QZERO, format_rational


def _check_n(n: int):
    if n < 0:
        raise ValueError("n must be >= 0")


def falling_basis_rows(tri: Triangle, lam) -> list:
    """Every row of tri against the generalized falling basis.

    Entry n is sum_k T(n, k) x (x - lam) .. (x - (k-1) lam): row n times
    the integer falling table, built once for the whole triangle.
    """
    table = lambda_falling_table(lam, tri.n_max)
    return [PolyX(_times_columns(row, table)) for row in tri.rows]


def fully_degenerate_bell(n: int, lam) -> PolyX:
    """Second-kind triangle entries against the generalized falling basis."""
    _check_n(n)
    return falling_basis_rows(triangles.degenerate_stirling2(n, lam), lam)[n]


def partial_degenerate_bell(n: int, lam) -> PolyX:
    """Second-kind triangle entries against plain powers of x."""
    _check_n(n)
    tri = triangles.degenerate_stirling2(n, lam)
    return PolyX(tri.row(n))


def bell_polynomial(n: int) -> PolyX:
    """Classical Bell polynomial (the lam = 0 limit of the partial family)."""
    return partial_degenerate_bell(n, QZERO)


def fully_degenerate_dowling(n: int, m: int, lam) -> PolyX:
    """Whitney triangle entries against the generalized falling basis."""
    _check_n(n)
    return falling_basis_rows(triangles.degenerate_whitney2(n, m, lam), lam)[n]


def degenerate_dowling(n: int, m: int, lam) -> PolyX:
    """Whitney triangle entries against plain powers of x."""
    _check_n(n)
    tri = triangles.degenerate_whitney2(n, m, lam)
    return PolyX(tri.row(n))


def dowling_polynomial(n: int, m: int) -> PolyX:
    """Classical Dowling polynomial (lam = 0 limit)."""
    return degenerate_dowling(n, m, QZERO)


def degenerate_bernoulli_polys(n_max: int, lam) -> list:
    """EGF coefficients 0..n_max of (t over the deformed exp minus one)
    times the symbolic deformed exponential."""
    _check_n(n_max)
    grown = kernels.degenerate_exp(QONE, lam, n_max + 1, limit_mode=True) - 1
    unit = grown.shift_down().reciprocal()
    sym = kernels.degenerate_exp(PolyX.x(), lam, n_max, limit_mode=True)
    return [as_poly(c) for c in (unit * sym).a]


def degenerate_bernoulli(n: int, lam) -> PolyX:
    """Degree-n member of degenerate_bernoulli_polys."""
    return degenerate_bernoulli_polys(n, lam)[n]


def degenerate_bernoulli2_polys(n_max: int, lam) -> list:
    """Second-kind variant: t over the deformed log, against (1 + t)^x.

    (1 + t)^x is the lam = 1 deformed exponential, so its EGF
    coefficients are the classical falling factorials of x.
    """
    _check_n(n_max)
    grown = kernels.lambda_log_series(lam, n_max + 1, limit_mode=True)
    unit = grown.shift_down().reciprocal()
    sym = kernels.degenerate_exp(PolyX.x(), QONE, n_max)
    return [as_poly(c) for c in (unit * sym).a]


def degenerate_bernoulli2(n: int, lam) -> PolyX:
    """Degree-n member of degenerate_bernoulli2_polys."""
    return degenerate_bernoulli2_polys(n, lam)[n]


def degenerate_polyexp_series(k: int, lam, order_cap: int) -> EgfSeries:
    """Polyexponential kernel of integer order k.

    EGF coefficients: a[0] = 0 and a[n] = (1)(1 - lam)...(1 - (n-1) lam)
    times n^(1-k) for n >= 1.  Order k may be any integer; k = 1 gives
    the deformed exp minus one.
    """
    if not isinstance(k, int):
        raise ValueError("the polyexponential order k must be an int")
    lam = Q(lam)
    out = [QZERO]
    fall = QONE
    for n in range(1, order_cap + 1):
        fall = fall * (QONE - (n - 1) * lam)
        out.append(fall * Q(n) ** (1 - k))
    return EgfSeries(order_cap, out)


def degenerate_poly_bell_polys(n_max: int, k: int, lam) -> list:
    """EGF coefficients 0..n_max of (polyexp of the deformed log, over
    the deformed exp minus one) times the symbolic deformed exponential.

    k = 1 collapses the first factor to t/(e - 1), i.e. the Bernoulli
    family.
    """
    _check_n(n_max)
    cap = n_max + 1
    log_series = kernels.lambda_log_series(lam, cap, limit_mode=True)
    numer = degenerate_polyexp_series(k, lam, cap).compose(log_series)
    denom = kernels.degenerate_exp(QONE, lam, cap, limit_mode=True) - 1
    unit = numer.shift_down() * denom.shift_down().reciprocal()
    sym = kernels.degenerate_exp(PolyX.x(), lam, n_max, limit_mode=True)
    return [as_poly(c) for c in (unit * sym).a]


def degenerate_poly_bell(n: int, k: int, lam) -> PolyX:
    """Degree-n member of degenerate_poly_bell_polys."""
    return degenerate_poly_bell_polys(n, k, lam)[n]


# ---------------------------------------------------------------------------
# numeric surface


def _dobinski_terms(n: int, lam, x, count: int):
    """Exact partial sums of the Dobinski-style series, yielded per term
    as (k, num, den): the sum through term k is num/den, unreduced.

    With lam = p/q and x = a/b the k-th term is
    prod_{j<n} (kq - jp) prod_{i<k} (aq - ipb) / (q^n k! s^k) with
    s = (q - p) b, so the sums share the running denominator
    D_k = D_{k-1} k s and N_k = N_{k-1} k s + the term's numerator.
    """
    p, q = int(lam.numerator), int(lam.denominator)
    a, b = int(x.numerator), int(x.denominator)
    s = (q - p) * b
    num, den = 0, q**n
    xfall = 1  # generalized falling factorial of x, degree k, times (qb)^k
    for k in range(count + 1):
        if k:
            xfall *= a * q - (k - 1) * p * b
            num *= k * s
            den *= k * s
        kfall = 1  # generalized falling factorial of k, degree n, times q^n
        for j in range(n):
            kfall *= k * q - j * p
        num += kfall * xfall
        yield k, num, den


def _checked_float(compute, what: str, lam, x, terms: int) -> float:
    """Run one float step of the numeric surface.

    A value past the float range is a domain error naming the step, not
    an OverflowError.  For lam > 1/2 the terms grow like (lam/(1 - lam))^k
    unless x/lam is a nonnegative integer, so long sums reach that range
    before _check_convergent would refuse them.
    """
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise ValueError(
            "dobinski %s overflows a float (lam=%s, x=%s, terms=%d)"
            % (what, format_rational(lam), format_rational(x), terms)
        )
    return value


def _check_convergent(lam, x):
    """Refuse a series whose partial sums do not converge.

    The k-th term is (lam/(1 - lam))^k binom(x/lam, k) times a degree-n
    polynomial in k, so the sum converges geometrically for lam < 1/2
    and diverges for lam > 1/2; at lam = 1/2 the terms decay at most
    polynomially.  When x/lam is a nonnegative integer the binomial
    vanishes from k = x/lam + 1 on and the sum terminates at any lam.
    Callers run this after the summation, so a divergent sum that has
    already left the float range is reported as that overflow.
    """
    ratio = x / lam
    if lam < Q(1, 2) or (ratio >= 0 and ratio.denominator == 1):
        return
    raise ValueError(
        "dobinski series diverges at lam=%s, x=%s: it converges only for "
        "lam < 1/2 or x/lam a nonnegative integer"
        % (format_rational(lam), format_rational(x))
    )


def _dobinski_args(n: int, lam, x, terms: int):
    _check_n(n)
    if terms < 0:
        raise ValueError("terms must be >= 0")
    lam = Q(lam)
    x = Q(x)
    if not (0 < lam < 1):
        raise ValueError("dobinski evaluation requires 0 < lam < 1")
    prefactor = _checked_float(
        lambda: float(1 - lam) ** float(x / lam), "prefactor", lam, x, terms
    )
    return lam, x, prefactor


def dobinski_eval(n: int, lam, x, terms: int = 200):
    """Truncated Dobinski-style numeric value and its exact reference.

    Returns (approximation, reference) as floats.  The partial sum is
    kept on integers over one running denominator and converted once, a
    correctly rounded integer division; the prefactor (1 - lam)^(x/lam)
    is evaluated in floating point.  The series converges for
    0 < lam < 1/2, and terminates for x/lam a nonnegative integer with
    0 < lam < 1; anything else raises ValueError, as does a value too
    large for a float.
    """
    lam, x, prefactor = _dobinski_args(n, lam, x, terms)
    for _, num, den in _dobinski_terms(n, lam, x, terms):
        pass
    approx = _checked_float(
        lambda: prefactor * (num / den), "partial sum", lam, x, terms
    )
    _check_convergent(lam, x)
    reference = _checked_float(
        lambda: float(fully_degenerate_bell(n, lam)(x)), "reference", lam, x, terms
    )
    return approx, reference


def dobinski_trace(n: int, lam, x, terms: int = 200) -> dict:
    """Convergence trace: the integer partial sums of dobinski_eval, each
    converted on its own, at ten checkpoints, plus the exact reference
    and final relative error.  Same domain as dobinski_eval."""
    lam, x, prefactor = _dobinski_args(n, lam, x, terms)
    step = max(1, terms // 10)
    checkpoints = []
    final = 0.0
    for k, num, den in _dobinski_terms(n, lam, x, terms):
        value = _checked_float(
            lambda: prefactor * (num / den), "partial sum", lam, x, terms
        )
        if k == terms or (k and k % step == 0):
            checkpoints.append((k, value))
        if k == terms:
            final = value
    _check_convergent(lam, x)
    reference = _checked_float(
        lambda: float(fully_degenerate_bell(n, lam)(x)), "reference", lam, x, terms
    )
    denom = abs(reference) if reference else 1.0
    return {
        "checkpoints": checkpoints,
        "reference": reference,
        "final": final,
        "rel_error": abs(final - reference) / denom,
    }
