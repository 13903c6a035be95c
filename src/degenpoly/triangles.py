"""Stirling and Whitney number triangles, exact, with enumeration oracles.

Series-side constructors read triangle columns off powers of a base
series: column k of the triangle is the EGF coefficient row of
base^k / k!.  Basis-side constructors (the r-parameterized Whitney pair)
come from exact triangular solves between the monomial, falling
factorial, and shifted-monomial bases; no two-term recurrence is used
anywhere here, which keeps the two Whitney routes independent of each
other (and of the recurrence oracles in the tests) for cross-checking.

The combinatorial oracle ``enumerate_colored_partitions`` counts colored
set partitions directly and is deliberately brute force; it exists to
check the algebra, so it shares no code with it.  Its default size guard
(n + r <= 10) keeps accidental exponential blowups out of test runs.
"""

from __future__ import annotations

from . import kernels
from .algebra import (
    EgfSeries,
    PolyX,
    Triangle,
    factorial,
    to_lambda_falling_basis,
)
from .rationals import Q, QONE, QZERO


def column_power_triangle(n_max: int, base: EgfSeries, lead=None) -> Triangle:
    """The exponential Riordan array [lead, base]: T(n, k) = a[n] of
    lead * base^k / k! (lead defaults to 1).

    The array must be lower triangular, which base of order >= 1
    guarantees; an entry above the diagonal raises ValueError naming it.
    The deformed Stirling and Whitney triangles here and every array of
    the umbral module (a pair's Sheffer and probe arrays, connection
    coefficients) are built by it.
    """
    col = EgfSeries.one(n_max) if lead is None else lead
    cols = [col]
    for _ in range(n_max):
        col = col * base
        cols.append(col)
    for k, col in enumerate(cols):
        for n in range(k):
            if col.a[n]:
                raise ValueError(
                    "Riordan array not triangular at (n, k) = (%d, %d)" % (n, k)
                )
    rows = []
    for n in range(n_max + 1):
        rows.append([cols[k].a[n] / factorial(k) for k in range(n + 1)])
    return Triangle(rows)


def _check_n_max(n_max: int):
    if n_max < 0:
        raise ValueError("n_max must be >= 0")


def stirling1(n_max: int) -> Triangle:
    """Signed Stirling numbers of the first kind: coefficients of the
    falling factorial in the monomial basis."""
    _check_n_max(n_max)
    rows = []
    p = PolyX.one()
    x = PolyX.x()
    for n in range(n_max + 1):
        rows.append([p.coeff(k) for k in range(n + 1)])
        p = p * (x - n)
    return Triangle(rows)


def stirling2(n_max: int) -> Triangle:
    """Stirling numbers of the second kind, from the triangular solve
    expressing x^n in the falling-factorial basis."""
    _check_n_max(n_max)
    rows = []
    for n in range(n_max + 1):
        q = to_lambda_falling_basis(PolyX.monomial(n), QONE)
        rows.append(q + [QZERO] * (n + 1 - len(q)))
    return Triangle(rows)


def degenerate_stirling1(n_max: int, lam) -> Triangle:
    """First-kind triangle of the deformed logarithm's power columns."""
    _check_n_max(n_max)
    base = kernels.lambda_log_series(lam, n_max, limit_mode=True)
    return column_power_triangle(n_max, base)


def degenerate_stirling2(n_max: int, lam) -> Triangle:
    """Second-kind triangle of the deformed exponential's power columns."""
    _check_n_max(n_max)
    base = kernels.degenerate_exp(QONE, lam, n_max, limit_mode=True) - 1
    return column_power_triangle(n_max, base)


def degenerate_whitney2(n_max: int, m: int, lam) -> Triangle:
    """Deformed Whitney triangle: columns of ((e^m - 1)/m)^k with an extra
    deformed-exponential prefactor, e built at the same lam."""
    _check_n_max(n_max)
    if m < 1:
        raise ValueError("m must be >= 1")
    lead = kernels.degenerate_exp(QONE, lam, n_max, limit_mode=True)
    base = (kernels.degenerate_exp(Q(m), lam, n_max, limit_mode=True) - 1) * Q(1, m)
    return column_power_triangle(n_max, base, lead=lead)


def r_whitney2(n_max: int, m: int, r: int) -> Triangle:
    """W(n, k) defined by (m x + r)^n = sum_k W(n, k) m^k (x)_k,
    via the exact falling-factorial basis solve."""
    _check_n_max(n_max)
    if m < 1:
        raise ValueError("m must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    shifted = m * PolyX.x() + r
    rows = []
    p = PolyX.one()
    for n in range(n_max + 1):
        q = to_lambda_falling_basis(p, QONE)
        q = q + [QZERO] * (n + 1 - len(q))
        mk = QONE
        row = []
        for k in range(n + 1):
            row.append(q[k] / mk)
            mk = mk * m
        rows.append(row)
        p = p * shifted
    return Triangle(rows)


def r_whitney1(n_max: int, m: int, r: int) -> Triangle:
    """V(n, k) defined by m^n (x)_n = sum_k V(n, k) (m x + r)^k,
    via remainder elimination against the shifted-monomial basis."""
    _check_n_max(n_max)
    if m < 1:
        raise ValueError("m must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    shifted = m * PolyX.x() + r
    shifted_pows = [PolyX.one()]
    for _ in range(n_max):
        shifted_pows.append(shifted_pows[-1] * shifted)
    rows = []
    fall = PolyX.one()
    mn = QONE
    for n in range(n_max + 1):
        p = mn * fall
        row = [QZERO] * (n + 1)
        for k in range(n, -1, -1):
            c = p.coeff(k) / (Q(m) ** k)
            row[k] = c
            if c:
                p = p - c * shifted_pows[k]
        if p:
            raise AssertionError("shifted-basis solve left a remainder")
        rows.append(row)
        fall = fall * (PolyX.x() - n)
        mn = mn * m
    return Triangle(rows)


# ---------------------------------------------------------------------------
# brute-force oracles


def set_partitions(items):
    """Yield every partition of items into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def count_partitions(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k blocks, counted
    one partition at a time."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    return sum(1 for part in set_partitions(range(n)) if len(part) == k)


def enumerate_colored_partitions(
    n: int, k: int, m: int, r: int, max_elements: int = 10
) -> int:
    """Weighted count of colored partitions of {1, .., n + r}.

    Qualifying partitions have exactly k + r nonempty blocks with the r
    distinguished elements 1..r in pairwise distinct blocks.  Weight is
    m^e where e counts the colorable elements: those that are neither a
    block minimum nor sitting in a block that contains a distinguished
    element.  The size guard on n + r is a resource check, not
    mathematics; raise it explicitly if a bigger enumeration is really
    wanted.
    """
    if n < 0 or k < 0 or r < 0:
        raise ValueError("n, k, r must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    if n + r > max_elements:
        raise ValueError(
            "refusing to enumerate %d elements (cap %d)" % (n + r, max_elements)
        )
    distinguished = set(range(1, r + 1))
    total = 0
    for part in set_partitions(range(1, n + r + 1)):
        if len(part) != k + r:
            continue
        seen = 0
        ok = True
        colorable = 0
        for block in part:
            special = [v for v in block if v in distinguished]
            if len(special) > 1:
                ok = False
                break
            seen += len(special)
            if not special:
                colorable += len(block) - 1  # everyone but the minimum
        if ok and seen == r:
            total += m**colorable
    return total
