"""Sheffer machinery over the generalized falling-factorial basis.

The pairing at the heart of this module sends a series f and a
polynomial p to sum_j f.a[j] q_j, where q is p written in the
generalized falling basis at the deformation lam.  Against that pairing
a pair (g, f) of series with orders 0 and 1 owns a unique polynomial
sequence s_n, characterized by

    <g f^k | s_n> = n! delta_{n,k}.

Every array here is an exponential Riordan array built by the integer
kernel ``algebra._riordan_columns``.  A pair builds two of them once
(lazily) and caches them:

* the Sheffer array S = [1/g(fbar), fbar], fbar the compositional
  inverse of f, as a Triangle (``triangles.column_power_triangle``).
  Row n holds s_n in the falling basis, because the generating series
  of the sequence is (1/g(fbar)) e^x(fbar) and the deformed exponential
  e^x has the falling basis as its coefficients.
  ``sheffer_generate`` reads its rows against the integer falling table
  ``algebra.lambda_falling_table`` to get monomial coefficients.
* the probe array P = [g, f], P(j, k) = (g f^k / k!).a[j], kept as the
  kernel's columns: integer numerators over one denominator per column.
  A polynomial with falling-basis row q has coordinates q P against the
  sequence, so ``expand_in_basis`` is one integer matrix-vector product,
  fed by the integer synthetic division ``algebra._falling_numerators``.

The way back, ``combine_basis``, is one integer linear combination of the
basis polynomials' numerator rows.

Generation is certified: expanding each generated polynomial against
its own pair must give the unit vector.  S comes from fbar and P from
g and f directly, and the expansion recomputes the falling-basis row
from the monomial form, so the check crosses independent routes; an
exact engine has no excuse not to make it.

``connection_coefficients`` changes coordinates between two sequences:
row n of the source's Sheffer array times the target's probe array, the
Riordan-group product S P of the two cached arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm, perm

from . import families, kernels
from .algebra import (
    EgfSeries,
    PolyX,
    Triangle,
    _falling_numerators,
    _integer_row,
    _integer_times_columns,
    _riordan_columns,
    _times_columns,
    binomial_series,
    from_lambda_falling_basis,
    lambda_falling_table,
    to_lambda_falling_basis,
)
from .rationals import Q, QONE, QZERO
from .triangles import column_power_triangle


@dataclass(frozen=True)
class ShefferPair:
    """A pair (g, f) with o(g) = 0 and o(f) = 1 at a fixed deformation.

    The two series must share a truncation cap and have scalar
    coefficients; the cap bounds the degrees this pair can generate or
    expand.  The arrays the pair determines are built on first use and
    cached on the instance, so they live exactly as long as the pair.
    """

    g: EgfSeries
    f: EgfSeries
    lam: object

    def __post_init__(self):
        if self.g.order_cap != self.f.order_cap:
            raise ValueError("pair series must share a truncation cap")
        for name, series in (("g", self.g), ("f", self.f)):
            if any(isinstance(v, PolyX) for v in series.a):
                raise ValueError("%s must have scalar coefficients" % name)
        if not self.g.a[0]:
            raise ValueError("g must have a nonzero scalar constant term")
        if self.f.order_cap < 1 or self.f.a[0] or not self.f.a[1]:
            raise ValueError("f must have order exactly 1")
        object.__setattr__(self, "lam", Q(self.lam))

    @property
    def order_cap(self) -> int:
        return self.g.order_cap

    @cached_property
    def sheffer_array(self) -> Triangle:
        """S(n, k) = (fbar^k / (k! g(fbar))).a[n], fbar the compositional
        inverse of f: row n is s_n in the generalized falling basis."""
        fbar = self.f.comp_inverse()
        lead = self.g.compose(fbar).reciprocal()
        return column_power_triangle(self.order_cap, fbar, lead)

    @cached_property
    def probe_array(self) -> tuple:
        """P(j, k) = (g f^k / k!).a[j], as _riordan_columns: column k
        holds the numerators of P(k, k) .. P(cap, k) and their one
        denominator."""
        return _riordan_columns(self.order_cap, self.f, self.g)


def pair_functional(series: EgfSeries, p: PolyX, lam):
    """<series | p> at deformation lam: the dot product of the series
    coefficients with p in the generalized falling basis."""
    if p.degree > series.order_cap:
        raise ValueError(
            "functional cap %d cannot see degree %d"
            % (series.order_cap, p.degree)
        )
    q = to_lambda_falling_basis(p, lam)
    acc = QZERO
    for j, qj in enumerate(q):
        if qj and series.a[j]:
            acc = acc + series.a[j] * qj
    return acc


def apply_lambda_diff_op(k: int, p: PolyX, lam) -> PolyX:
    """t^k p, t the deformed differential operator.

    t lowers the generalized falling basis as d/dx lowers powers:
    t^k (x)_{n,lam} = (n)_k (x)_{n-k,lam}, with (n)_k the classical
    falling number, and t^k kills degrees below k.  The falling
    coordinates of p are shifted down by k, weighted, and read back in the
    monomial basis.  At lam = 0, t is d/dx.
    """
    if k < 0:
        raise ValueError("operator order must be >= 0")
    q = to_lambda_falling_basis(p, lam)
    return from_lambda_falling_basis(
        [q[n] * perm(n, k) for n in range(k, len(q))], lam
    )


def sheffer_generate(pair: ShefferPair, n_max: int) -> list:
    """The first n_max + 1 polynomials owned by the pair.

    Row n of the pair's Sheffer array gives s_n in the falling basis,
    and its product with the falling table gives the monomial form.  The
    result is certified against the biorthogonality characterization and
    the degree grading; any violation is a bug in the pair's
    construction, so it raises.
    """
    cap = pair.order_cap
    if n_max > cap:
        raise ValueError("pair cap %d cannot generate degree %d" % (cap, n_max))
    table = lambda_falling_table(pair.lam, n_max)
    rows = pair.sheffer_array.rows[: n_max + 1]
    polys = [PolyX(_times_columns(row, table)) for row in rows]
    _assert_biorthogonal(pair, polys)
    return polys


def _assert_biorthogonal(pair: ShefferPair, polys: list):
    """<g f^k | s_n> / k! = delta_{n,k}: each polynomial, expanded
    against its own pair, is a unit vector of the right degree."""
    for n, p in enumerate(polys):
        if p.degree != n:
            raise AssertionError("generated polynomial %d has wrong degree" % n)
        if expand_in_basis(p, pair) != [QZERO] * n + [QONE]:
            raise AssertionError("biorthogonality failed at n=%d" % n)


def connection_coefficients(
    source: ShefferPair, target: ShefferPair, n_max: int
) -> Triangle:
    """Coefficients rewriting the source sequence in the target sequence.

    Row n holds c_{n,0} .. c_{n,n} with source_n = sum_k c_{n,k}
    target_k.  Row n is row n of the source's Sheffer array (source_n in
    the falling basis) times the target's probe array: the expansion of
    source_n that expand_in_basis would make, read off the two pairs'
    cached arrays.
    """
    if source.lam != target.lam:
        raise ValueError("pairs live at different deformations")
    cap = source.order_cap
    if target.order_cap != cap:
        raise ValueError("pairs must share a truncation cap")
    if n_max > cap:
        raise ValueError("pair cap %d cannot expand degree %d" % (cap, n_max))
    rows = source.sheffer_array.rows[: n_max + 1]
    return Triangle([_times_columns(row, target.probe_array) for row in rows])


def expand_in_basis(p: PolyX, target: ShefferPair) -> list:
    """Coefficients of p against the target pair's sequence.

    Returns C_0 .. C_deg(p) with p = sum_k C_k target_k: the row of p in
    the falling basis times the target's probe array, so C_k is the
    pairing of g f^k against p scaled by 1/k!.  The row stays integer
    numerators over one denominator (_falling_numerators) until each C_k
    is built once.
    """
    if p.degree > target.order_cap:
        raise ValueError(
            "pair cap %d cannot expand degree %d"
            % (target.order_cap, p.degree)
        )
    nums, den = _falling_numerators(*_integer_row(p.coeffs), target.lam)
    return _integer_times_columns(nums, den, target.probe_array)


def combine_basis(coeffs, polys) -> PolyX:
    """sum_k coeffs[k] polys[k] as a PolyX; the coefficients are exact
    scalars.

    One integer linear combination: the coefficients become numerators
    c_k over one denominator, each basis polynomial its own numerator row
    over d_k, and with L the lcm of the d_k the sum of c_k (L / d_k) row_k
    is the result's numerator row over den L.
    """
    coeffs = list(coeffs)
    if len(coeffs) > len(polys):
        raise ValueError(
            "got %d coefficients for %d basis polynomials"
            % (len(coeffs), len(polys))
        )
    try:
        nums, den = _integer_row(coeffs)
    except AttributeError:
        raise TypeError("basis coefficients must be exact rationals") from None
    terms = [(c, _integer_row(p.coeffs)) for c, p in zip(nums, polys) if c]
    big = lcm(*(d for _, (_, d) in terms))
    out = [0] * max((len(row) for _, (row, _) in terms), default=0)
    for c, (row, d) in terms:
        w = c * (big // d)
        out[: len(row)] = [u + w * v for u, v in zip(out, row)]
    while out and not out[-1]:
        out.pop()
    den *= big
    return PolyX._raw(tuple(Q(s, den) if s else QZERO for s in out))


# ---------------------------------------------------------------------------
# the standard pairs


def falling_pair(lam, order_cap: int) -> ShefferPair:
    """(1, t): owns the generalized falling factorials themselves."""
    return ShefferPair(
        EgfSeries.one(order_cap), EgfSeries.t(order_cap), lam
    )


def bell_pair(lam, order_cap: int) -> ShefferPair:
    """(1, deformed log): owns the fully deformed Bell polynomials."""
    return ShefferPair(
        EgfSeries.one(order_cap),
        kernels.lambda_log_series(lam, order_cap, limit_mode=True),
        lam,
    )


def bernoulli_pair(lam, order_cap: int) -> ShefferPair:
    """((e - 1)/t, t): owns the deformed Bernoulli polynomials."""
    grown = kernels.degenerate_exp(QONE, lam, order_cap + 1, limit_mode=True) - 1
    return ShefferPair(grown.shift_down(), EgfSeries.t(order_cap), lam)


def bernoulli2_pair(lam, order_cap: int) -> ShefferPair:
    """(t/(e - 1), e - 1): owns the second-kind Bernoulli polynomials."""
    grown = kernels.degenerate_exp(QONE, lam, order_cap + 1, limit_mode=True) - 1
    g = grown.shift_down().reciprocal()
    f = kernels.degenerate_exp(QONE, lam, order_cap, limit_mode=True) - 1
    return ShefferPair(g, f, lam)


def poly_bell_pair(k: int, lam, order_cap: int) -> ShefferPair:
    """((e - 1)/polyexp(log), t): owns the order-k polyexponential Bell
    polynomials."""
    cap1 = order_cap + 1
    log_series = kernels.lambda_log_series(lam, cap1, limit_mode=True)
    numer = kernels.degenerate_exp(QONE, lam, cap1, limit_mode=True) - 1
    denom = families.degenerate_polyexp_series(k, lam, cap1).compose(log_series)
    g = numer.shift_down() * denom.shift_down().reciprocal()
    return ShefferPair(g, EgfSeries.t(order_cap), lam)


def dowling_pair(m: int, lam, order_cap: int) -> ShefferPair:
    """((mt+1)^(-1/m), (1/m) log at lam/m of (mt+1)): owns the fully
    deformed Dowling polynomials."""
    if m < 1:
        raise ValueError("m must be >= 1")
    g = binomial_series(Q(-1, m), m, order_cap)
    lam = Q(lam)
    f = kernels.lambda_log_series(lam / m, order_cap, limit_mode=True)
    f = f.scale_argument(m) * Q(1, m)
    return ShefferPair(g, f, lam)


def rescaled_bell_pair(m: int, lam, order_cap: int) -> ShefferPair:
    """(1, (1/m) log at lam/m of (mt+1)): owns m^n times the Bell
    polynomial at deformation lam/m evaluated at x/m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    lam = Q(lam)
    f = kernels.lambda_log_series(lam / m, order_cap, limit_mode=True)
    f = f.scale_argument(m) * Q(1, m)
    return ShefferPair(EgfSeries.one(order_cap), f, lam)
