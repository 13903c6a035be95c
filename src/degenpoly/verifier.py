"""Mechanical verification of the package's identity inventory.

Every identity the package claims is checked here as an exact statement
on a finite grid: polynomial equalities are compared coefficient by
coefficient, and identities polynomial in the deformation lam are
certified by sampling lam at more points than a conservative degree
bound (4n, deliberately loose), which upgrades grid evidence to proof.
The one numeric tag (THM2_DOBINSKI, the floating-point summation) is
tolerance-checked and never claims exact certification.

A caller sets only n_max, the lam samples and the seed of THM9's random
polynomials.  The rest of the grid is fixed: m in {1, 2, 3}, k in
{0, ..., 3}, r in {0, 1, 2}, enumeration cap 8, and 200 Dobinski terms
at a relative tolerance of 1e-8.

Checkers recompute both sides of each identity through deliberately
different routes: triangle sums against series compositions, engine
connection coefficients against independent closed-form double/quadruple
sums, algebra against brute-force enumeration.  The closed sides of THM5,
THM7 and THM10 share one binomial contraction against a triangle; no
engine side calls it.  The verifier builds no family polynomial itself:
triangles, kernel series, family polynomials and Sheffer pairs all come
from the package's public constructors (the family polynomials from
``families``, the very code the package ships) through a per-run memo,
``ws(fn, *args)``, keyed on the constructor and its arguments.  The memo
is created fresh for every verification call, and a patched or corrupted
constructor is a new key, so it is always honored.

Reports are deterministic: identical arguments produce identical report
objects, byte-identical once serialized.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from itertools import product

from . import families, kernels, triangles, umbral
from .algebra import PolyX, Triangle, as_poly, binom_row, factorial
from .rationals import Q, QONE, QZERO, format_rational


class IdentityId(str, Enum):
    EQ_1A_2A_ORTHO = "EQ_1A_2A_ORTHO"
    EQ_3A_4A_ORTHO = "EQ_3A_4A_ORTHO"
    LEMMA1 = "LEMMA1"
    THM2_DOBINSKI = "THM2_DOBINSKI"
    THM3_GF = "THM3_GF"
    EQ25_ADDITION = "EQ25_ADDITION"
    THM5 = "THM5"
    THM6 = "THM6"
    THM7 = "THM7"
    THM8 = "THM8"
    THM9_ROUNDTRIP = "THM9_ROUNDTRIP"
    THM10 = "THM10"
    THM11 = "THM11"
    EQ56_CLOSING = "EQ56_CLOSING"
    STIRLING_ORTHO = "STIRLING_ORTHO"
    DEG_STIRLING_ORTHO = "DEG_STIRLING_ORTHO"
    POLYBELL_K1_IS_BERNOULLI = "POLYBELL_K1_IS_BERNOULLI"
    LIMIT_LAMBDA0_SUITE = "LIMIT_LAMBDA0_SUITE"
    WHITNEY_ORACLE = "WHITNEY_ORACLE"


IDENTITY_DESCRIPTIONS = {
    IdentityId.EQ_1A_2A_ORTHO: "classical Whitney pair (r = 1): the two triangles are mutually inverse",
    IdentityId.EQ_3A_4A_ORTHO: "r-parameterized Whitney pair: mutual inversion for each (m, r)",
    IdentityId.LEMMA1: "deformed Bell polynomials: triangle sum equals the composed generating series",
    IdentityId.THM2_DOBINSKI: "Dobinski-style series: floated truncation approaches the exact polynomial value",
    IdentityId.THM3_GF: "deformed Dowling polynomials: triangle sum equals the composed generating series",
    IdentityId.EQ25_ADDITION: "binomial addition rule for deformed Bell polynomials in x + y",
    IdentityId.THM5: "deformed Bernoulli polynomials in the Bell basis: closed coefficient sum",
    IdentityId.THM6: "generalized falling factorials in the Bell basis via the first-kind triangle",
    IdentityId.THM7: "polyexponential Bell polynomials in the Bell basis: closed coefficient sum",
    IdentityId.THM8: "deformed Bell polynomials in the second-kind Bernoulli basis",
    IdentityId.THM9_ROUNDTRIP: "basis expansion round trip (Bell and Dowling bases) on a polynomial test family",
    IdentityId.THM10: "deformed Bernoulli polynomials in the Dowling basis: quadruple-sum coefficients",
    IdentityId.THM11: "deformed Dowling polynomials in the Bell basis via first-kind times Whitney",
    IdentityId.EQ56_CLOSING: "rescaled deformed Bell polynomials as binomial sums of Dowling polynomials",
    IdentityId.STIRLING_ORTHO: "classical Stirling triangles are mutually inverse",
    IdentityId.DEG_STIRLING_ORTHO: "deformed Stirling triangles are mutually inverse at every sampled lam",
    IdentityId.POLYBELL_K1_IS_BERNOULLI: "order-1 polyexponential Bell family collapses to the Bernoulli family",
    IdentityId.LIMIT_LAMBDA0_SUITE: "lam = 0 limits reproduce the classical objects and counts",
    IdentityId.WHITNEY_ORACLE: "r-Whitney triangle matches the colored-partition enumeration",
}

_LAMBDA_FREE = frozenset(
    {
        IdentityId.EQ_1A_2A_ORTHO,
        IdentityId.EQ_3A_4A_ORTHO,
        IdentityId.STIRLING_ORTHO,
        IdentityId.LIMIT_LAMBDA0_SUITE,
        IdentityId.WHITNEY_ORACLE,
    }
)

_NUMERIC = frozenset({IdentityId.THM2_DOBINSKI})

_DOBINSKI_GRID = (Q(1, 10), Q(1, 3), Q(1, 2))
_DOBINSKI_TERMS = 200
_DOBINSKI_TOLERANCE = 1e-8
_M_VALUES = (1, 2, 3)
_K_VALUES = (0, 1, 2, 3)
_R_VALUES = (0, 1, 2)
_ENUMERATION_CAP = 8


def lambda_degree_bound(identity, n: int) -> int:
    """Conservative bound on the lam-degree of the identity at size n.

    4n dominates every exact identity in the inventory (each side is a
    product of at most three triangle or falling factors, each of
    lam-degree at most n).  Identities with no lam dependence are
    degree 0, as is the numeric tag, which never certifies anyway.
    """
    identity = _as_identity(identity)
    if identity in _LAMBDA_FREE or identity in _NUMERIC:
        return 0
    return 4 * n


def default_lambda_samples(count: int) -> tuple:
    """Deterministic sample points for the deformation parameter.

    Seeded with small fixed rationals, then filled from the family s/7
    (7 not dividing s, alternating signs).  No sample is 0, an integer,
    or an integer multiple of any small m, so no grid point collapses a
    kernel into a degenerate special case.
    """
    seeds = [
        Q(1, 7), Q(-1, 7), Q(1, 3), Q(-1, 3),
        Q(1, 2), Q(2, 5), Q(3, 4), Q(5, 3),
    ]
    out = []
    for s in seeds:
        if len(out) >= count:
            break
        out.append(s)
    s = 2
    while len(out) < count:
        if s % 7:
            for cand in (Q(s, 7), Q(-s, 7)):
                if cand not in out and len(out) < count:
                    out.append(cand)
        s += 1
    return tuple(out)


@dataclass(frozen=True)
class SuiteConfig:
    """The size, the lam samples (None for the default grid; stored as a
    tuple) and THM9's seed.  A negative size or an empty sample list
    raises ``ValueError``, as either would pass with no evidence.  The
    rest of the grid is fixed: m in {1, 2, 3}, k in {0, ..., 3}, r in
    {0, 1, 2}, enumeration cap 8, and 200 Dobinski terms at 1e-8."""

    n_max: int = 8
    lambda_samples: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if self.lambda_samples is not None:
            object.__setattr__(self, "lambda_samples", tuple(self.lambda_samples))
            if not self.lambda_samples:
                raise ValueError("empty sample list")

    def samples(self) -> tuple:
        if self.lambda_samples is not None:
            return tuple(Q(v) for v in self.lambda_samples)
        return default_lambda_samples(4 * self.n_max + 1)


@dataclass
class PointResult:
    n: int | None = None
    lam: object = None
    m: int | None = None
    k: int | None = None
    r: int | None = None
    ok: bool = True
    detail: str = ""

    def to_dict(self) -> dict:
        d = {
            "n": self.n,
            "lambda": None if self.lam is None else format_rational(self.lam),
            "m": self.m,
            "k": self.k,
            "r": self.r,
            "ok": self.ok,
        }
        if self.detail:
            d["detail"] = self.detail
        return d


@dataclass
class VerificationReport:
    identity: IdentityId
    n_max: int
    points: list = field(default_factory=list)
    passed: bool = True
    witness: dict | None = None
    lambda_degree_bound: int = 0
    distinct_passing_lambda_samples: int = 0
    certified_polynomial_in_lambda: bool = False
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "identity": self.identity.value,
            "description": IDENTITY_DESCRIPTIONS[self.identity],
            "n_max": self.n_max,
            "passed": self.passed,
            "witness": self.witness,
            "lambda_degree_bound": self.lambda_degree_bound,
            "distinct_passing_lambda_samples": self.distinct_passing_lambda_samples,
            "certified_polynomial_in_lambda": self.certified_polynomial_in_lambda,
            "notes": self.notes,
            "points_total": len(self.points),
            "grid": [p.to_dict() for p in self.points],
        }


def _fmt(value) -> str:
    if isinstance(value, PolyX):
        return "[" + ", ".join(format_rational(c) for c in value.coeffs) + "]"
    if isinstance(value, float):
        return repr(value)
    return format_rational(value)


def _fail(point: PointResult, lhs, rhs, context: str = ""):
    point.ok = False
    prefix = context + ": " if context else ""
    point.detail = "%slhs=%s rhs=%s" % (prefix, _fmt(lhs), _fmt(rhs))


class _Workspace:
    """Per-run memo: ``ws(fn, *args)`` is ``fn(*args)``, built once per run.

    The key is ``(fn, *args)``.  Checkers look ``fn`` up on its module
    when they call, so a substituted (or corrupted) constructor is a new
    key and is honored.  ``pair`` adds the cap every pair constructor
    takes; ``bell`` and ``dowling`` are ``families.falling_basis_rows`` on
    the memoized triangle, keyed by name because a triangle is unhashable.
    The workspace never outlives the verification call that created it.
    """

    def __init__(self, n_max: int):
        self.n_max = n_max
        self._memo = {}

    def _get(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def __call__(self, fn, *args):
        return self._get((fn,) + args, lambda: fn(*args))

    def pair(self, ctor, *args):
        """ctor(*args, cap), with the cap at least 1, the least a pair
        accepts, so the checkers also run at n_max = 0."""
        return self(ctor, *args, max(self.n_max, 1))

    def bell(self, lam):
        tri = self(triangles.degenerate_stirling2, self.n_max, lam)
        return self._get(("bell", lam), lambda: families.falling_basis_rows(tri, lam))

    def dowling(self, m, lam):
        tri = self(triangles.degenerate_whitney2, self.n_max, m, lam)
        return self._get(
            ("dowling", m, lam), lambda: families.falling_basis_rows(tri, lam)
        )


# ---------------------------------------------------------------------------
# checkers


def _triangle_product(a, b, n_max):
    """Rows of the lower-triangular product: entry (n, k) is
    sum_{j=k}^{n} a(n, j) b(j, k)."""
    return [
        [
            sum((a[n, j] * b[j, k] for j in range(k, n + 1)), QZERO)
            for k in range(n + 1)
        ]
        for n in range(n_max + 1)
    ]


def _binomial_contraction(numbers, tri, n_max):
    """Rows of the closed sides of THM5, THM7 and THM10: entry (n, k) is
    sum_{l=k}^{n} C(n, l) numbers[n - l] T(l, k) for the triangle T."""
    closed = []
    for n in range(n_max + 1):
        row = binom_row(n)
        closed.append(
            [
                sum((row[l] * numbers[n - l] * tri[l, k] for l in range(k, n + 1)), QZERO)
                for k in range(n + 1)
            ]
        )
    return closed


def _check_inverse_pair(points, first, second, n_max, lam=None, m=None, r=None):
    """Both products of the two triangles must be the identity."""
    forward = _triangle_product(first, second, n_max)
    reverse = _triangle_product(second, first, n_max)
    for n in range(n_max + 1):
        for k in range(n + 1):
            want = QONE if n == k else QZERO
            point = PointResult(n=n, lam=lam, m=m, k=k, r=r)
            if forward[n][k] != want:
                _fail(point, forward[n][k], want, "forward product")
            elif reverse[n][k] != want:
                _fail(point, reverse[n][k], want, "reverse product")
            points.append(point)


def _check_rows(points, lhs, rhs, n_max, **where):
    """Row n of one route equals row n of the other, for every n."""
    for n in range(n_max + 1):
        point = PointResult(n=n, **where)
        if lhs[n] != rhs[n]:
            _fail(point, lhs[n], rhs[n])
        points.append(point)


def _check_connection(points, source, target, closed, basis, expected, n_max, **where):
    """One connection identity: the closed-form rows equal the engine's
    connection coefficients from the source pair to the target pair, and
    combining row n against the target family rebuilds ``expected[n]``."""
    engine = umbral.connection_coefficients(source, target, n_max)
    for n in range(n_max + 1):
        point = PointResult(n=n, **where)
        engine_row = [engine[n, k] for k in range(n + 1)]
        if closed[n] != engine_row:
            _fail(point, PolyX(closed[n]), PolyX(engine_row), "coefficients")
        else:
            rebuilt = umbral.combine_basis(closed[n], basis)
            if rebuilt != expected[n]:
                _fail(point, rebuilt, expected[n], "reconstruction")
        points.append(point)


def check_stirling_ortho(ws: _Workspace, cfg: SuiteConfig):
    n_max = cfg.n_max
    points = []
    _check_inverse_pair(
        points, ws(triangles.stirling1, n_max), ws(triangles.stirling2, n_max), n_max
    )
    return points


def check_deg_stirling_ortho(ws: _Workspace, cfg: SuiteConfig):
    n_max = cfg.n_max
    points = []
    for lam in cfg.samples():
        _check_inverse_pair(
            points, ws(triangles.degenerate_stirling1, n_max, lam),
            ws(triangles.degenerate_stirling2, n_max, lam), n_max, lam=lam,
        )
    return points


def check_eq_1a_2a(ws: _Workspace, cfg: SuiteConfig):
    n_max = cfg.n_max
    points = []
    for m in _M_VALUES:
        _check_inverse_pair(
            points, ws(triangles.r_whitney1, n_max, m, 1),
            ws(triangles.r_whitney2, n_max, m, 1), n_max, m=m,
        )
    return points


def check_eq_3a_4a(ws: _Workspace, cfg: SuiteConfig):
    n_max = cfg.n_max
    points = []
    for m in _M_VALUES:
        for r in _R_VALUES:
            _check_inverse_pair(
                points, ws(triangles.r_whitney1, n_max, m, r),
                ws(triangles.r_whitney2, n_max, m, r), n_max, m=m, r=r,
            )
    return points


def check_lemma1(ws: _Workspace, cfg: SuiteConfig):
    """Triangle-sum Bell polynomials against the composed series route."""
    n_max = cfg.n_max
    points = []
    for lam in cfg.samples():
        # the last argument is limit_mode: a lam = 0 sample is the classical limit
        inner = ws(kernels.degenerate_exp, QONE, lam, n_max, True) - 1
        series = ws(kernels.degenerate_exp, PolyX.x(), lam, n_max, True).compose(inner)
        gf = [as_poly(series.a[n]) for n in range(n_max + 1)]
        _check_rows(points, ws.bell(lam), gf, n_max, lam=lam)
    return points


def check_thm3_gf(ws: _Workspace, cfg: SuiteConfig):
    """Triangle-sum Dowling polynomials against the composed series route."""
    n_max = cfg.n_max
    points = []
    for lam in cfg.samples():
        for m in _M_VALUES:
            inner = (ws(kernels.degenerate_exp, Q(m), lam, n_max, True) - 1) * Q(1, m)
            series = ws(kernels.degenerate_exp, QONE, lam, n_max, True) * ws(
                kernels.degenerate_exp, PolyX.x(), lam, n_max, True
            ).compose(inner)
            gf = [as_poly(series.a[n]) for n in range(n_max + 1)]
            _check_rows(points, ws.dowling(m, lam), gf, n_max, lam=lam, m=m)
    return points


def check_thm2_dobinski(ws: _Workspace, cfg: SuiteConfig):
    """Floated truncation against the exact value, x = 1."""
    points = []
    for lam in _DOBINSKI_GRID:
        for n in range(cfg.n_max + 1):
            approx, reference = families.dobinski_eval(
                n, lam, QONE, _DOBINSKI_TERMS
            )
            denom = abs(reference) if reference else 1.0
            err = abs(approx - reference) / denom
            point = PointResult(n=n, lam=lam)
            if not err < _DOBINSKI_TOLERANCE:
                _fail(point, approx, reference, "rel err %.3e" % err)
            points.append(point)
    return points


def check_eq25_addition(ws: _Workspace, cfg: SuiteConfig):
    """phi_n(x + y) is the binomial convolution of the family with itself.

    Both sides are polynomials in y of degree at most n, so agreement at
    n + 1 integer values of y settles the bivariate identity at this lam.
    """
    points = []
    for lam in cfg.samples():
        polys = ws.bell(lam)
        for n in range(cfg.n_max + 1):
            row = binom_row(n)
            point = PointResult(n=n, lam=lam)
            for y in range(n + 1):
                shifted = as_poly(polys[n](PolyX((Q(y), QONE))))
                acc = umbral.combine_basis(
                    [row[l] * polys[n - l](Q(y)) for l in range(n + 1)], polys
                )
                if shifted != acc:
                    _fail(point, shifted, acc, "y=%d" % y)
                    break
            points.append(point)
    return points


def check_thm5(ws: _Workspace, cfg: SuiteConfig):
    """Bernoulli-to-Bell coefficients: binomial convolution of Bernoulli
    numbers with the first-kind triangle."""
    n_max = cfg.n_max
    points = []
    for lam in cfg.samples():
        bern = ws(families.degenerate_bernoulli_polys, n_max, lam)
        closed = _binomial_contraction(
            [p.coeff(0) for p in bern], ws(triangles.degenerate_stirling1, n_max, lam),
            n_max,
        )
        _check_connection(
            points, ws.pair(umbral.bernoulli_pair, lam), ws.pair(umbral.bell_pair, lam),
            closed, ws.bell(lam), bern, n_max, lam=lam,
        )
    return points


def check_thm6(ws: _Workspace, cfg: SuiteConfig):
    """Falling factorials expand in the Bell basis through the
    first-kind triangle itself."""
    n_max = cfg.n_max
    points = []
    for lam in cfg.samples():
        s1d = ws(triangles.degenerate_stirling1, n_max, lam)
        closed = [list(row) for row in s1d.rows]
        falling = [ws(kernels.lambda_falling, n, lam) for n in range(n_max + 1)]
        _check_connection(
            points, ws.pair(umbral.falling_pair, lam), ws.pair(umbral.bell_pair, lam),
            closed, ws.bell(lam), falling, n_max, lam=lam,
        )
    return points


def check_thm7(ws: _Workspace, cfg: SuiteConfig):
    """Polyexponential Bell to Bell: binomial convolution of the family's
    own constants with the first-kind triangle."""
    n_max = cfg.n_max
    points = []
    for lam in cfg.samples():
        s1d = ws(triangles.degenerate_stirling1, n_max, lam)
        for k_order in _K_VALUES:
            polys = ws(families.degenerate_poly_bell_polys, n_max, k_order, lam)
            closed = _binomial_contraction([p.coeff(0) for p in polys], s1d, n_max)
            _check_connection(
                points, ws.pair(umbral.poly_bell_pair, k_order, lam),
                ws.pair(umbral.bell_pair, lam), closed, ws.bell(lam), polys, n_max,
                lam=lam, k=k_order,
            )
    return points


def check_thm8(ws: _Workspace, cfg: SuiteConfig):
    """Bell polynomials in the second-kind Bernoulli basis.

    The constant coefficient contracts Bernoulli numbers against the
    second-kind triangle; higher coefficients are alternating double
    sums over evaluations of lower Bell polynomials at integers.
    """
    n_max = cfg.n_max
    points = []
    for lam in cfg.samples():
        s2d = ws(triangles.degenerate_stirling2, n_max, lam)
        numbers = [
            p.coeff(0) for p in ws(families.degenerate_bernoulli_polys, n_max, lam)
        ]
        bell = ws.bell(lam)
        bell_at = [[p(Q(l)) for l in range(n_max + 1)] for p in bell]
        ones = [kernels.lambda_falling_eval(QONE, d, lam) for d in range(n_max + 1)]
        closed = []
        for n in range(n_max + 1):
            rown = binom_row(n)
            row = [
                sum((numbers[l] * s2d[n, l] for l in range(n + 1)), QZERO)
            ]
            for k in range(1, n + 1):
                rowk = binom_row(k - 1)
                acc = QZERO
                for j in range(n):
                    outer = rown[j] * ones[n - j]
                    if not outer:
                        continue
                    inner = QZERO
                    for l in range(k):
                        term = rowk[l] * bell_at[j][l]
                        inner = inner - term if (k - 1 - l) % 2 else inner + term
                    acc = acc + outer * inner
                row.append(acc / factorial(k))
            closed.append(row)
        _check_connection(
            points, ws.pair(umbral.bell_pair, lam),
            ws.pair(umbral.bernoulli2_pair, lam), closed,
            ws(families.degenerate_bernoulli2_polys, n_max, lam), bell, n_max, lam=lam,
        )
    return points


def _random_test_polys(cfg):
    """One seeded random polynomial per degree for the expansion round
    trips, drawn once per run so every lam sample checks the same ones."""
    rng = random.Random("%d:thm9" % cfg.seed)
    out = []
    for n in range(cfg.n_max + 1):
        coeffs = [
            Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)
        ]
        lead = Q(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))
        out.append(PolyX(coeffs + [lead]))
    return out


def check_thm9_roundtrip(ws: _Workspace, cfg: SuiteConfig):
    """Expansion in the Bell and Dowling bases reconstructs the input."""
    points = []
    randoms = _random_test_polys(cfg)
    for lam in cfg.samples():
        # the falling factorial, the monomial and the random polynomial
        test_polys = [
            (ws(kernels.lambda_falling, n, lam), PolyX.monomial(n), randoms[n])
            for n in range(cfg.n_max + 1)
        ]
        for m in _M_VALUES:
            bases = (
                ("bell basis", ws.pair(umbral.bell_pair, lam), ws.bell(lam)),
                ("dowling basis", ws.pair(umbral.dowling_pair, m, lam),
                 ws.dowling(m, lam)),
            )
            for n in range(cfg.n_max + 1):
                point = PointResult(n=n, lam=lam, m=m)
                for p, (context, pair, basis) in product(test_polys[n], bases):
                    back = umbral.combine_basis(umbral.expand_in_basis(p, pair), basis)
                    if back != p:
                        _fail(point, back, p, context)
                        break
                points.append(point)
    return points


def check_thm10(ws: _Workspace, cfg: SuiteConfig):
    """Bernoulli polynomials in the Dowling basis: the quadruple sum over
    both Stirling kinds at two deformation scales.

    The inner (j, i) double sum does not depend on n, so it is built once
    per (lam, m) as the triangle
    T(l, k) = sum_j C(l, j) S1_{lam/m}(j, k) sum_i (-1)^i m^(l-k-i) S1(l-j, i)
    and contracted like THM5's.
    """
    n_max = cfg.n_max
    points = []
    s1c = ws(triangles.stirling1, n_max)
    for lam in cfg.samples():
        bern = ws(families.degenerate_bernoulli_polys, n_max, lam)
        numbers = [p.coeff(0) for p in bern]
        for m in _M_VALUES:
            s1dm = ws(triangles.degenerate_stirling1, n_max, Q(lam) / m)
            inner = []
            for l in range(n_max + 1):
                rowl = binom_row(l)
                row = []
                for k in range(l + 1):
                    acc = QZERO
                    for j in range(k, l + 1):
                        s1v = s1dm[j, k]
                        if not s1v:
                            continue
                        base = rowl[j] * s1v
                        for i in range(l - j + 1):
                            s1cv = s1c[l - j, i]
                            if not s1cv:
                                continue
                            term = base * Q(m) ** (l - k - i) * s1cv
                            acc = acc - term if i % 2 else acc + term
                    row.append(acc)
                inner.append(row)
            closed = _binomial_contraction(numbers, Triangle(inner), n_max)
            _check_connection(
                points, ws.pair(umbral.bernoulli_pair, lam),
                ws.pair(umbral.dowling_pair, m, lam), closed, ws.dowling(m, lam),
                bern, n_max, lam=lam, m=m,
            )
    return points


def check_thm11(ws: _Workspace, cfg: SuiteConfig):
    """Dowling polynomials in the Bell basis: first-kind triangle
    contracted against the Whitney triangle."""
    n_max = cfg.n_max
    points = []
    for lam in cfg.samples():
        s1d = ws(triangles.degenerate_stirling1, n_max, lam)
        for m in _M_VALUES:
            closed = _triangle_product(
                ws(triangles.degenerate_whitney2, n_max, m, lam), s1d, n_max
            )
            _check_connection(
                points, ws.pair(umbral.dowling_pair, m, lam),
                ws.pair(umbral.bell_pair, lam), closed, ws.bell(lam),
                ws.dowling(m, lam), n_max, lam=lam, m=m,
            )
    return points


def check_eq56_closing(ws: _Workspace, cfg: SuiteConfig):
    """Rescaled Bell polynomials as binomial sums of Dowling polynomials,
    with the engine route through the rescaled pair as cross-check.

    The m^-n factor of the identity moves to the rescaled side, so the
    closed rows do not depend on m.
    """
    points = []
    for lam in cfg.samples():
        minus_one = [
            kernels.lambda_falling_eval(-1, d, lam)
            for d in range(cfg.n_max + 1)
        ]
        closed = []
        for n in range(cfg.n_max + 1):
            row = binom_row(n)
            closed.append([row[k] * minus_one[n - k] for k in range(n + 1)])
        for m in _M_VALUES:
            rescaled = ws.bell(Q(lam) / m)
            sub = PolyX((QZERO, Q(1, m)))
            expected = [
                Q(m) ** n * as_poly(rescaled[n](sub))
                for n in range(cfg.n_max + 1)
            ]
            _check_connection(
                points, ws.pair(umbral.rescaled_bell_pair, m, lam),
                ws.pair(umbral.dowling_pair, m, lam), closed, ws.dowling(m, lam),
                expected, cfg.n_max, lam=lam, m=m,
            )
    return points


def check_polybell_k1(ws: _Workspace, cfg: SuiteConfig):
    n_max = cfg.n_max
    points = []
    for lam in cfg.samples():
        _check_rows(
            points, ws(families.degenerate_poly_bell_polys, n_max, 1, lam),
            ws(families.degenerate_bernoulli_polys, n_max, lam), n_max, lam=lam, k=1,
        )
    return points


def check_limit_suite(ws: _Workspace, cfg: SuiteConfig):
    """lam = 0 must reproduce the classical world, checked against
    independent classical constructions and brute-force counts."""
    n_max = cfg.n_max
    points = []
    zero = QZERO
    s1c, s2c = ws(triangles.stirling1, n_max), ws(triangles.stirling2, n_max)
    s1z = ws(triangles.degenerate_stirling1, n_max, zero)
    s2z = ws(triangles.degenerate_stirling2, n_max, zero)
    bell0 = ws.bell(zero)
    b2 = ws(families.degenerate_bernoulli2_polys, n_max, zero)
    bern0 = [p.coeff(0) for p in ws(families.degenerate_bernoulli_polys, n_max, zero)]
    poly1 = ws(families.degenerate_poly_bell_polys, n_max, 1, zero)
    classical = [QONE]
    for n in range(1, n_max + 1):
        row = binom_row(n + 1)
        acc = sum((row[j] * classical[j] for j in range(n)), QZERO)
        classical.append(-acc / row[n])
    enum_cap = min(n_max, _ENUMERATION_CAP)
    bell_numbers = [
        sum(1 for _ in triangles.set_partitions(range(n))) for n in range(enum_cap + 2)
    ]
    for n in range(n_max + 1):
        point = PointResult(n=n)
        checks = []
        if s1z.row(n) != s1c.row(n):
            checks.append(("first-kind row", PolyX(s1z.row(n)), PolyX(s1c.row(n))))
        if s2z.row(n) != s2c.row(n):
            checks.append(("second-kind row", PolyX(s2z.row(n)), PolyX(s2c.row(n))))
        for m in _M_VALUES:
            whitney = ws(triangles.degenerate_whitney2, n_max, m, zero).row(n)
            classical_whitney = ws(triangles.r_whitney2, n_max, m, 1).row(n)
            if whitney != classical_whitney:
                checks.append(
                    ("whitney row m=%d" % m, PolyX(whitney), PolyX(classical_whitney))
                )
        if n <= enum_cap:
            counted = bell_numbers[n]
            if bell0[n](QONE) != counted:
                checks.append(("bell count", bell0[n](QONE), Q(counted)))
            counted = bell_numbers[n + 1]
            dowling_at_one = families.degenerate_dowling(n, 1, zero)(QONE)
            if dowling_at_one != counted:
                checks.append(("dowling shift count", dowling_at_one, Q(counted)))
        if bern0[n] != classical[n]:
            checks.append(("bernoulli number", bern0[n], classical[n]))
        row = binom_row(n)
        bpoly = PolyX([row[j] * classical[n - j] for j in range(n + 1)])
        if poly1[n] != bpoly:
            checks.append(("order-1 polyexp family", poly1[n], bpoly))
        cauchy = sum(
            (s1c[n, k] / (k + 1) for k in range(n + 1)), QZERO
        )
        if b2[n].coeff(0) != cauchy:
            checks.append(("second-kind constant", b2[n].coeff(0), cauchy))
        if checks:
            name, lhs, rhs = checks[0]
            _fail(point, lhs, rhs, name)
        points.append(point)
    return points


def check_whitney_oracle(ws: _Workspace, cfg: SuiteConfig):
    """Triangular-solve Whitney numbers against colored-partition counts,
    plus the m = 1, r = 1 collapse onto shifted second-kind numbers."""
    points = []
    for r in _R_VALUES:
        for m in _M_VALUES:
            tri = ws(triangles.r_whitney2, cfg.n_max, m, r)
            for n in range(min(cfg.n_max, _ENUMERATION_CAP - r) + 1):
                for k in range(n + 1):
                    point = PointResult(n=n, m=m, k=k, r=r)
                    counted = triangles.enumerate_colored_partitions(
                        n, k, m, r, max_elements=_ENUMERATION_CAP
                    )
                    if tri[n, k] != counted:
                        _fail(point, tri[n, k], Q(counted))
                    elif m == 1 and r == 1:
                        shifted = triangles.count_partitions(n + 1, k + 1)
                        if tri[n, k] != shifted:
                            _fail(point, tri[n, k], Q(shifted), "shifted second kind")
                    points.append(point)
    return points


_CHECKERS = {
    IdentityId.EQ_1A_2A_ORTHO: check_eq_1a_2a,
    IdentityId.EQ_3A_4A_ORTHO: check_eq_3a_4a,
    IdentityId.LEMMA1: check_lemma1,
    IdentityId.THM2_DOBINSKI: check_thm2_dobinski,
    IdentityId.THM3_GF: check_thm3_gf,
    IdentityId.EQ25_ADDITION: check_eq25_addition,
    IdentityId.THM5: check_thm5,
    IdentityId.THM6: check_thm6,
    IdentityId.THM7: check_thm7,
    IdentityId.THM8: check_thm8,
    IdentityId.THM9_ROUNDTRIP: check_thm9_roundtrip,
    IdentityId.THM10: check_thm10,
    IdentityId.THM11: check_thm11,
    IdentityId.EQ56_CLOSING: check_eq56_closing,
    IdentityId.STIRLING_ORTHO: check_stirling_ortho,
    IdentityId.DEG_STIRLING_ORTHO: check_deg_stirling_ortho,
    IdentityId.POLYBELL_K1_IS_BERNOULLI: check_polybell_k1,
    IdentityId.LIMIT_LAMBDA0_SUITE: check_limit_suite,
    IdentityId.WHITNEY_ORACLE: check_whitney_oracle,
}


def _as_identity(identity) -> IdentityId:
    if isinstance(identity, IdentityId):
        return identity
    return IdentityId(str(identity).upper())


def _build_report(identity: IdentityId, cfg: SuiteConfig, points) -> VerificationReport:
    passed = all(p.ok for p in points)
    bound = lambda_degree_bound(identity, cfg.n_max)
    distinct = len({p.lam for p in points if p.ok and p.lam is not None})
    if identity in _NUMERIC:
        certified = False
        notes = (
            "numeric tolerance %.0e on the floated truncation; excluded "
            "from exact certification" % _DOBINSKI_TOLERANCE
        )
    elif identity in _LAMBDA_FREE:
        certified = passed
        notes = "no deformation dependence; exact on the whole grid"
    else:
        certified = passed and distinct > bound
        notes = ""
    witness = None
    for p in points:
        if not p.ok:
            witness = p.to_dict()
            break
    return VerificationReport(
        identity=identity,
        n_max=cfg.n_max,
        points=points,
        passed=passed,
        witness=witness,
        lambda_degree_bound=bound,
        distinct_passing_lambda_samples=distinct,
        certified_polynomial_in_lambda=certified,
        notes=notes,
    )


def verify(
    identity, n_max: int = 8, lambda_samples=None, *, seed: int = 0
) -> VerificationReport:
    """Run one identity's checker over its grid and report."""
    identity = _as_identity(identity)
    cfg = SuiteConfig(n_max=n_max, lambda_samples=lambda_samples, seed=seed)
    ws = _Workspace(cfg.n_max)
    points = _CHECKERS[identity](ws, cfg)
    return _build_report(identity, cfg, points)


def run_full_suite(config: SuiteConfig | None = None) -> list:
    """All identities in declaration order, sharing one workspace."""
    cfg = config or SuiteConfig()
    ws = _Workspace(cfg.n_max)
    return [
        _build_report(identity, cfg, _CHECKERS[identity](ws, cfg))
        for identity in IdentityId
    ]
