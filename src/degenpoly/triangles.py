"""Stirling and Whitney number triangles, exact, with enumeration oracles.

Series-side constructors read triangle columns off powers of a base
series: column k of the triangle is the EGF coefficient row of
base^k / k!, computed by the integer kernel algebra._riordan_columns.
Basis-side constructors (the r-parameterized Whitney pair and the
classical first kind) come from exact triangular solves between the
monomial, falling factorial, and shifted-monomial bases, run on integer
coefficient lists; no two-term recurrence is used anywhere here, which
keeps the two Whitney routes independent of each other (and of the
recurrence oracles in the tests) for cross-checking.  Every entry is
built once as a reduced rational.

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
    _falling_numerators,
    _riordan_columns,
    to_lambda_falling_basis,
)
from .rationals import Q, QONE, QZERO


def column_power_triangle(n_max: int, base: EgfSeries, lead=None) -> Triangle:
    """The exponential Riordan array [lead, base]: T(n, k) = a[n] of
    lead * base^k / k! (lead defaults to 1).

    The columns come from the integer kernel algebra._riordan_columns,
    and each entry is built once as a reduced rational.  The array must
    be lower triangular, which base of order >= 1 guarantees; an entry
    above the diagonal raises ValueError naming it, and so does a PolyX
    coefficient.  The deformed Stirling and Whitney triangles here and a
    pair's Sheffer array in the umbral module are built by it.
    """
    columns = [
        [Q(v, den) if v else QZERO for v in col]
        for col, den in _riordan_columns(n_max, base, lead)
    ]
    return Triangle._raw(
        tuple(
            tuple(columns[k][n - k] for k in range(n + 1))
            for n in range(n_max + 1)
        )
    )


def _check_n_max(n_max: int):
    if n_max < 0:
        raise ValueError("n_max must be >= 0")


def _check_m_r(m: int, r: int):
    if m < 1:
        raise ValueError("m must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")


def _rationals(nums) -> tuple:
    return tuple(Q(v) if v else QZERO for v in nums)


def _times_linear(p: list, c0: int, c1: int) -> list:
    """The integer coefficient list p times c1 x + c0."""
    return [c0 * u + c1 * v for u, v in zip(p + [0], [0] + p)]


def stirling1(n_max: int) -> Triangle:
    """Signed Stirling numbers of the first kind: coefficients of the
    falling factorial in the monomial basis, multiplied out on integers."""
    _check_n_max(n_max)
    rows = []
    fall = [1]
    for n in range(n_max + 1):
        rows.append(_rationals(fall))
        fall = _times_linear(fall, -n, 1)
    return Triangle._raw(tuple(rows))


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
    """W(n, k) defined by (m x + r)^n = sum_k W(n, k) m^k (x)_k.

    The integer coefficients of (m x + r)^n go through the synthetic
    division algebra._falling_numerators at lam = 1, and coordinate k is
    divided by m^k once, as the entry is built.
    """
    _check_n_max(n_max)
    _check_m_r(m, r)
    rows = []
    p = [1]
    for n in range(n_max + 1):
        nums, den = _falling_numerators(p, 1, QONE)
        rows.append(
            tuple(Q(v, den * m**k) if v else QZERO for k, v in enumerate(nums))
        )
        p = _times_linear(p, r, m)
    return Triangle._raw(tuple(rows))


def r_whitney1(n_max: int, m: int, r: int) -> Triangle:
    """V(n, k) defined by m^n (x)_n = sum_k V(n, k) (m x + r)^k.

    Remainder elimination on integer coefficient lists: from the top
    degree k = n down, V(n, k) is the x^k coefficient of what is left
    divided by m^k, the leading coefficient of (m x + r)^k, and that
    power is subtracted.  The division is exact; a remainder raises.
    """
    _check_n_max(n_max)
    _check_m_r(m, r)
    shifted_pows = [[1]]
    for _ in range(n_max):
        shifted_pows.append(_times_linear(shifted_pows[-1], r, m))
    rows = []
    fall = [1]
    for n in range(n_max + 1):
        p = [m**n * v for v in fall]
        row = [0] * (n + 1)
        for k in range(n, -1, -1):
            c, rem = divmod(p[k], m**k)
            if rem:
                raise AssertionError(
                    "shifted-basis solve is not integral at (n, k) = (%d, %d)"
                    % (n, k)
                )
            if c:
                row[k] = c
                p[: k + 1] = [u - c * v for u, v in zip(p, shifted_pows[k])]
        rows.append(_rationals(row))
        fall = _times_linear(fall, -n, 1)
    return Triangle._raw(tuple(rows))


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
