"""Exact truncated series algebra.

Three value types carry all the mathematics in this package:

* ``PolyX``     dense univariate polynomials over Q, symbol written x;
* ``EgfSeries`` truncated power series in EGF normalization, i.e. a
  series f is stored as the list a with f = sum_n a[n] t^n / n!;
* ``Triangle``  lower-triangular arrays T(n, k), 0 <= k <= n.

EgfSeries coefficients may themselves be PolyX values; that is how a
series with a symbolic parameter (the generating function of a polynomial
sequence) is represented, and the ring operations are written so the two
coefficient domains mix freely.

Everything is exact.  Binary series operations insist on equal truncation
caps rather than silently aligning them: a mismatch is a bug in the
caller's bookkeeping, not something to smooth over.  In EGF normalization
the ring product is the binomial convolution

    (f g).a[n] = sum_j C(n, j) f.a[j] g.a[n - j],

computed on integers: each operand is brought to one common
denominator, PolyX coefficients are split into x-degree slices, and the
integer numerators are convolved with Pascal-row weights before each
output coefficient is rebuilt once as a reduced rational.  Composition is
Horner evaluation of sum_k f.a[k]/k! g^k in the truncated ring (exact
because the inner series has positive order), and the compositional
inverse comes from Lagrange inversion, (f^-1).a[n] = ((t/f)^n).a[n - 1],
so it costs cap - 1 products and no composition.  The reciprocal solves
a * (1/a) = 1 on the integer numerators of a, with powers of the
constant term's numerator as denominators.

The exponential Riordan array [lead, base], T(n, k) = (lead base^k /
k!).a[n], is one integer kernel too (_riordan_columns): each column is a
list of integer numerators over one denominator, the next column is one
binomial convolution with base's numerators, and k! sits in the column
denominator.  Every deformed triangle and every Sheffer or probe array
of the package is such an array.

The change of basis into the generalized falling basis x (x - lam) ..
(x - (n-1) lam) runs on integers too.  With lam = a/b the substitution
y = b x makes every node j a an integer, so the cascade of synthetic
divisions that yields the falling coordinates is integer arithmetic over
one denominator known in advance; the way back multiplies by the integer
falling table.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd, lcm
from operator import add, mul

from .rationals import Q, QONE, QZERO

_PASCAL = [(1,)]
_FACT = [QONE]


def binom_row(n: int) -> tuple:
    """Row n of Pascal's triangle as plain ints."""
    while len(_PASCAL) <= n:
        prev = _PASCAL[-1]
        mid = [prev[i - 1] + prev[i] for i in range(1, len(prev))]
        _PASCAL.append((1, *mid, 1))
    return _PASCAL[n]


def factorial(n: int):
    while len(_FACT) <= n:
        _FACT.append(_FACT[-1] * len(_FACT))
    return _FACT[n]


def _coerce(value):
    """Coefficient intake: exact scalars pass through Q, PolyX as-is."""
    if isinstance(value, PolyX):
        return value
    return Q(value)


def _binomial_convolution(u: list, v: list) -> list:
    """sum_j C(n, j) u[j] v[n - j] for each n, on equal-length int lists."""
    v_rev = v[::-1]
    last = len(v) - 1
    return [
        sum(map(mul, binom_row(n), map(mul, u[: n + 1], v_rev[last - n :])))
        for n in range(len(u))
    ]


def _integer_slices(coeffs: tuple):
    """Series coefficients as x-degree slices of integers over one denominator.

    Returns (slices, den, nonzero, symbolic): coefficient n equals
    sum_d slices[d][n] x^d / den; bit n of the int nonzero is set when
    coefficient n is nonzero, and of symbolic when it is a nonzero PolyX.
    A scalar coefficient lives in slice 0.
    """
    nonzero = symbolic = 0
    for n, v in enumerate(coeffs):
        if v:
            nonzero |= 1 << n
            if isinstance(v, PolyX):
                symbolic |= 1 << n
    columns = [coeffs]
    if any(isinstance(v, PolyX) for v in coeffs):
        rows = [v._c if isinstance(v, PolyX) else (v,) for v in coeffs]
        columns = list(zip_longest(*rows, fillvalue=QZERO)) or [(QZERO,) * len(rows)]
    den = lcm(*(q.denominator for col in columns for q in col))
    slices = [
        [q.numerator * (den // q.denominator) for q in col] for col in columns
    ]
    return slices, den, nonzero, symbolic


class PolyX:
    """Dense univariate polynomial over Q in the symbol x.

    Immutable.  Coefficients are stored ascending with no trailing zeros,
    so the zero polynomial has an empty coefficient tuple and degree -1.
    Arithmetic mixes with exact scalars on either side, and calling the
    polynomial evaluates it by Horner's rule; the argument may itself be
    a PolyX, which is how substitutions like x -> x + c or x -> x/m are
    done.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        c = [_coerce(v) for v in coeffs]
        while c and not c[-1]:
            c.pop()
        self._c = tuple(c)

    @classmethod
    def _raw(cls, coeffs: tuple) -> "PolyX":
        # trusted fast path: coeffs already exact, already normalized
        p = object.__new__(cls)
        p._c = coeffs
        return p

    @classmethod
    def zero(cls) -> "PolyX":
        return cls._raw(())

    @classmethod
    def one(cls) -> "PolyX":
        return cls._raw((QONE,))

    @classmethod
    def x(cls) -> "PolyX":
        return cls._raw((QZERO, QONE))

    @classmethod
    def constant(cls, value) -> "PolyX":
        return cls((value,))

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "PolyX":
        return cls([QZERO] * degree + [coeff])

    @property
    def coeffs(self) -> tuple:
        return self._c

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    def coeff(self, i: int):
        return self._c[i] if 0 <= i < len(self._c) else QZERO

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def _normalized(self, c: list) -> "PolyX":
        while c and not c[-1]:
            c.pop()
        return PolyX._raw(tuple(c))

    def __add__(self, other):
        if isinstance(other, PolyX):
            a, b = self._c, other._c
            if len(a) < len(b):
                a, b = b, a
            c = list(a)
            for i, v in enumerate(b):
                c[i] = c[i] + v
            return self._normalized(c)
        if isinstance(other, str):
            return NotImplemented
        try:
            s = Q(other)
        except TypeError:
            return NotImplemented
        if not self._c:
            return PolyX((s,))
        c = list(self._c)
        c[0] = c[0] + s
        return self._normalized(c)

    __radd__ = __add__

    def __neg__(self):
        return PolyX._raw(tuple(-v for v in self._c))

    def __sub__(self, other):
        if isinstance(other, str):
            return NotImplemented
        return self + (-other if isinstance(other, PolyX) else -Q(other))

    def __rsub__(self, other):
        if isinstance(other, str):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PolyX):
            a, b = self._c, other._c
            if not a or not b:
                return PolyX._raw(())
            c = [QZERO] * (len(a) + len(b) - 1)
            for i, av in enumerate(a):
                if av:
                    for j, bv in enumerate(b):
                        if bv:
                            c[i + j] = c[i + j] + av * bv
            return self._normalized(c)
        if isinstance(other, str):
            return NotImplemented
        try:
            s = Q(other)
        except TypeError:
            return NotImplemented
        if not s:
            return PolyX._raw(())
        return PolyX._raw(tuple(v * s for v in self._c))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, str):
            return NotImplemented
        s = Q(scalar)
        return PolyX._raw(tuple(v / s for v in self._c))

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers take a nonnegative int")
        out = PolyX.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, value):
        """Evaluate by Horner; value may be a scalar or another PolyX."""
        if not self._c:
            return PolyX.zero() if isinstance(value, PolyX) else QZERO
        acc = self._c[-1]
        for v in reversed(self._c[:-1]):
            acc = acc * value + v
        if isinstance(value, PolyX) and not isinstance(acc, PolyX):
            return PolyX((acc,))
        return acc

    def __eq__(self, other):
        if isinstance(other, PolyX):
            return self._c == other._c
        try:
            s = Q(other)
        except (TypeError, ValueError, ZeroDivisionError):
            return NotImplemented  # not a number: unequal, never an error
        if not self._c:
            return not s
        return len(self._c) == 1 and self._c[0] == s

    def __hash__(self):
        return hash(self._c)

    def __repr__(self):
        return "PolyX([%s])" % ", ".join(str(v) for v in self._c)


def as_poly(value) -> PolyX:
    """A PolyX as itself, a scalar as the constant polynomial."""
    return value if isinstance(value, PolyX) else PolyX.constant(value)


class EgfSeries:
    """Truncated power series in EGF normalization.

    ``a[n]`` is the coefficient of t^n/n!; the truncation cap N is
    inclusive, so len(a) == N + 1 always.  Coefficients are exact scalars
    or PolyX values.  Mixing caps in a binary operation raises.
    """

    __slots__ = ("_a",)

    def __init__(self, order_cap: int, coeffs=()):
        if order_cap < 0:
            raise ValueError("order cap must be >= 0")
        c = [_coerce(v) for v in coeffs]
        if len(c) > order_cap + 1:
            raise ValueError("more coefficients than the cap allows")
        c.extend([QZERO] * (order_cap + 1 - len(c)))
        self._a = tuple(c)

    @classmethod
    def _raw(cls, coeffs: tuple) -> "EgfSeries":
        s = object.__new__(cls)
        s._a = coeffs
        return s

    @classmethod
    def zero(cls, order_cap: int) -> "EgfSeries":
        return cls._raw((QZERO,) * (order_cap + 1))

    @classmethod
    def one(cls, order_cap: int) -> "EgfSeries":
        return cls.constant(order_cap, QONE)

    @classmethod
    def constant(cls, order_cap: int, value) -> "EgfSeries":
        return cls(order_cap, (value,))

    @classmethod
    def t(cls, order_cap: int) -> "EgfSeries":
        return cls(order_cap, (QZERO, QONE))

    @classmethod
    def t_power(cls, order_cap: int, k: int) -> "EgfSeries":
        """The monomial t^k, i.e. a[k] = k!."""
        if k > order_cap:
            return cls.zero(order_cap)
        return cls(order_cap, [QZERO] * k + [factorial(k)])

    @property
    def a(self) -> tuple:
        return self._a

    @property
    def order_cap(self) -> int:
        return len(self._a) - 1

    def coeff(self, n: int):
        return self._a[n]

    def _match(self, other: "EgfSeries"):
        if len(self._a) != len(other._a):
            raise ValueError(
                "order caps differ: %d vs %d"
                % (len(self._a) - 1, len(other._a) - 1)
            )

    def __add__(self, other):
        if isinstance(other, EgfSeries):
            self._match(other)
            return EgfSeries._raw(
                tuple(u + v for u, v in zip(self._a, other._a))
            )
        v = _coerce(other)
        c = list(self._a)
        c[0] = c[0] + v
        return EgfSeries._raw(tuple(c))

    __radd__ = __add__

    def __neg__(self):
        return EgfSeries._raw(tuple(-v for v in self._a))

    def __sub__(self, other):
        if isinstance(other, EgfSeries):
            self._match(other)
            return EgfSeries._raw(
                tuple(u - v for u, v in zip(self._a, other._a))
            )
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, EgfSeries):
            v = _coerce(other)
            return EgfSeries._raw(tuple(u * v for u in self._a))
        self._match(other)
        f_slices, f_den, f_nonzero, f_symbolic = _integer_slices(self._a)
        g_slices, g_den, g_nonzero, g_symbolic = _integer_slices(other._a)
        sums = [None] * (len(f_slices) + len(g_slices) - 1)
        for d, u in enumerate(f_slices):
            for e, v in enumerate(g_slices):
                c = _binomial_convolution(u, v)
                k = d + e
                sums[k] = c if sums[k] is None else list(map(add, sums[k], c))
        # Coefficient n is a PolyX exactly when some term of its
        # convolution pairs a nonzero PolyX with a nonzero partner.
        symbolic = 0
        if f_symbolic or g_symbolic:
            for j in range(len(self._a)):
                if f_symbolic >> j & 1:
                    symbolic |= g_nonzero << j
                if g_symbolic >> j & 1:
                    symbolic |= f_nonzero << j
        den = f_den * g_den
        out = []
        for n, num in enumerate(sums[0]):
            if symbolic >> n & 1:
                c = [Q(s[n], den) if s[n] else QZERO for s in sums]
                while c and not c[-1]:
                    c.pop()
                out.append(PolyX._raw(tuple(c)))
            else:
                out.append(Q(num, den) if num else QZERO)
        return EgfSeries._raw(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """k-th ring power by repeated squaring."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("series powers take a nonnegative int")
        out = EgfSeries.one(self.order_cap)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, EgfSeries):
            return NotImplemented
        return len(self._a) == len(other._a) and all(
            u == v for u, v in zip(self._a, other._a)
        )

    def __repr__(self):
        return "EgfSeries(%d, [%s])" % (
            self.order_cap,
            ", ".join(str(v) for v in self._a),
        )

    def compose(self, inner: "EgfSeries") -> "EgfSeries":
        """self(inner(t)); requires inner to have no constant term.

        Truncation is exact because every dropped term of inner^k sits
        above the cap.
        """
        self._match(inner)
        if inner._a[0]:
            raise ValueError("composition needs an inner series of order >= 1")
        cap = self.order_cap
        acc = EgfSeries.constant(cap, self._a[cap] / factorial(cap))
        for k in range(cap - 1, -1, -1):
            acc = acc * inner
            ck = self._a[k]
            if ck:
                acc = acc + ck / factorial(k)
        return acc

    def comp_inverse(self) -> "EgfSeries":
        """Compositional inverse by Lagrange inversion.

        Requires order exactly 1.  With h = t/f, the inverse has
        [t^n] = (1/n) [t^(n-1)] h^n, which in EGF normalization reads
        a[n] = (h^n).a[n - 1]: cap - 1 products and no composition.
        """
        if len(self._a) < 2 or self._a[0] or not self._a[1]:
            raise ValueError("compositional inverse needs order exactly 1")
        h = self.shift_down().reciprocal()
        coeffs = [QZERO, h._a[0]]
        power = h
        for n in range(2, len(self._a)):
            power = power * h
            coeffs.append(power._a[n - 1])
        return EgfSeries._raw(tuple(coeffs))

    def reciprocal(self) -> "EgfSeries":
        """Multiplicative inverse; the coefficients must be scalars and the
        constant term nonzero.

        Computed on integers: with a = A / D (_scalar_row), 1/a = D (1/A),
        and (1/A).a[n] = C_n / A_0^(n+1) with C_0 = 1 and
        C_n = -sum_{j=1..n} C(n, j) A_j A_0^(j-1) C_(n-j).
        """
        a0 = self._a[0]
        if isinstance(a0, PolyX) or not a0:
            raise ValueError("not invertible: constant term must be a nonzero scalar")
        nums, den = _scalar_row(self._a)
        head = nums[0]
        weights = [0]  # weights[j] = A_j A_0^(j-1)
        power = 1
        for v in nums[1:]:
            weights.append(v * power)
            power *= head
        c = [1]
        for n in range(1, len(nums)):
            row = binom_row(n)
            c.append(-sum(row[j] * weights[j] * c[n - j] for j in range(1, n + 1)))
        out = []
        power = head
        for v in c:
            out.append(Q(v * den, power) if v else QZERO)
            power *= head
        return EgfSeries._raw(tuple(out))

    def shift_down(self) -> "EgfSeries":
        """Divide by t.  Requires order >= 1; the cap drops by one."""
        if self._a[0]:
            raise ValueError("not divisible by t: nonzero constant term")
        if self.order_cap == 0:
            raise ValueError("cannot shift below cap 0")
        return EgfSeries._raw(
            tuple(self._a[n] / n for n in range(1, len(self._a)))
        )

    def scale_argument(self, c) -> "EgfSeries":
        """Substitute t -> c t, i.e. a[n] -> c^n a[n]."""
        s = Q(c)
        out = []
        power = QONE
        for v in self._a:
            out.append(v * power)
            power = power * s
        return EgfSeries._raw(tuple(out))


def binomial_series(alpha, c, order_cap: int) -> EgfSeries:
    """(1 + c t)^alpha with exact rational alpha and c.

    EGF coefficients are the falling products a[n] = alpha (alpha-1)
    ... (alpha-n+1) c^n.
    """
    al = Q(alpha)
    sc = Q(c)
    out = [QONE]
    for n in range(1, order_cap + 1):
        out.append(out[-1] * (al - (n - 1)) * sc)
    return EgfSeries._raw(tuple(out))


def to_lambda_falling_basis(p: PolyX, lam) -> list:
    """Coefficients of p in the generalized falling-factorial basis.

    The basis polynomial of degree n is x (x - lam) ... (x - (n-1) lam).
    The coefficients come out of a cascade of synthetic divisions, run on
    integers after the substitution y = b x (lam = a/b), where the nodes
    j a are integers (_falling_numerators); no basis polynomial is ever
    expanded.  Returns a list of reduced rationals of length deg(p) + 1
    (empty for the zero polynomial).
    """
    nums, den = _falling_numerators(*_integer_row(p.coeffs), lam)
    return [Q(s, den) if s else QZERO for s in nums]


def _falling_numerators(nums: list, den: int, lam) -> tuple:
    """The polynomial sum_i nums[i] x^i / den in the generalized falling
    basis, as (integer numerators, one denominator).

    With lam = a/b and x = y/b, the degree-k basis polynomial is b^-k
    times y (y - a) .. (y - (k-1) a).  The integer polynomial
    P(y) = den b^n p(y/b), n = len(nums) - 1, is divided by y - j a for
    j = 0, 1, .. in turn; remainder k is the coordinate B_k of P in the
    integer-node basis, so p's coordinate k is B_k b^k / (den b^n).
    """
    if not nums:
        return [], den
    lam = Q(lam)
    a, b = lam.numerator, lam.denominator
    n = len(nums) - 1
    powers = [1]
    for _ in range(n):
        powers.append(powers[-1] * b)
    c = [v * powers[n - i] for i, v in enumerate(nums)]
    # Division j by y - j a, in place: c[j] becomes its remainder and
    # c[j + 1:] its quotient.  Division 0, by y, changes nothing.
    for j in range(1, n):
        node = j * a
        for i in range(n - 1, j - 1, -1):
            c[i] += node * c[i + 1]
    return [v * powers[k] for k, v in enumerate(c)], den * powers[n]


def lambda_falling_table(lam, n_max: int) -> tuple:
    """The generalized falling basis through degree n_max, on integers.

    F(k, i) is the x^i coefficient of x (x - lam) .. (x - (k-1) lam).
    The table comes in the column form of _riordan_columns: column i
    holds the numerators of F(i, i) .. F(n_max, i), all over q^n_max with
    lam = p/q, so a row of falling-basis coordinates times it
    (_times_columns) is the same polynomial in the monomial basis.
    """
    lam = Q(lam)
    p, q = lam.numerator, lam.denominator
    rows = [[1]]  # row k: q^k times the degree-k basis polynomial
    for k in range(n_max):
        row = [0] * (k + 2)
        for i, c in enumerate(rows[k]):
            row[i] -= k * p * c
            row[i + 1] += q * c
        rows.append(row)
    den = q**n_max
    return tuple(
        ([rows[k][i] * q ** (n_max - k) for k in range(i, n_max + 1)], den)
        for i in range(n_max + 1)
    )


def from_lambda_falling_basis(coeffs, lam) -> PolyX:
    """Inverse of to_lambda_falling_basis: coeffs times the falling table."""
    coeffs = list(coeffs)
    table = lambda_falling_table(lam, max(len(coeffs) - 1, 0))
    return PolyX(_times_columns(coeffs, table))


def _integer_row(values) -> tuple:
    """Rationals as (integer numerators, their least common denominator)."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _scalar_row(values) -> tuple:
    """_integer_row of series coefficients that must all be scalars."""
    if any(isinstance(v, PolyX) for v in values):
        raise ValueError("series coefficients must be scalars, not PolyX")
    return _integer_row(values)


def _riordan_columns(n_max: int, base: EgfSeries, lead=None) -> tuple:
    """The exponential Riordan array [lead, base] through row n_max, as
    columns of integer numerators over one denominator each.

    Column k is (numerators of T(k, k) .. T(n_max, k), den_k) with
    T(n, k) = (lead base^k / k!).a[n]; lead defaults to 1.  Column k + 1
    is the binomial convolution of column k's numerators with base's, over
    den_k times base's denominator times k + 1, reduced by one gcd.  The
    array must be lower triangular (base of order >= 1 guarantees it); an
    entry above the diagonal raises ValueError naming it, as do PolyX
    coefficients and caps that differ or stop short of n_max.
    """
    if lead is None:
        lead = EgfSeries.one(n_max)
    if n_max:
        lead._match(base)
    size = n_max + 1
    if len(base._a) < size:
        raise ValueError("cap %d cannot give row %d" % (base.order_cap, n_max))
    b, b_den = _scalar_row(base._a[:size])
    col, den = _scalar_row(lead._a[:size])
    columns = []
    for k in range(size):
        for n in range(k):
            if col[n]:
                raise ValueError(
                    "Riordan array not triangular at (n, k) = (%d, %d)" % (n, k)
                )
        columns.append((col[k:], den))
        if k < n_max:
            col = _binomial_convolution(col, b)
            den *= b_den * (k + 1)
            g = gcd(den, *col)
            if g > 1:
                col = [v // g for v in col]
                den //= g
    return tuple(columns)


def _times_columns(values, columns: tuple) -> list:
    """Rational row vector times a lower-triangular array given in the
    column form of _riordan_columns; entry k is
    sum_{j >= k} values[j] T(j, k), and the result is as long as values."""
    return _integer_times_columns(*_integer_row(values), columns)


def _integer_times_columns(nums, den, columns: tuple) -> list:
    """_times_columns for a row already given as integer numerators over
    one denominator: each entry is built once as a reduced rational."""
    out = []
    for k in range(len(nums)):
        col, col_den = columns[k]
        s = sum(map(mul, nums[k:], col))
        out.append(Q(s, den * col_den) if s else QZERO)
    return out


class Triangle:
    """Lower-triangular array T(n, k) with exact entries.

    Row n holds the n + 1 entries T(n, 0) .. T(n, n).  Indexing with
    tri[n, k] returns 0 for k > n (triangularity is a convention, not an
    error); a row index out of range raises.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows):
        packed = []
        for n, row in enumerate(rows):
            row = tuple(_coerce(v) for v in row)
            if len(row) != n + 1:
                raise ValueError("row %d must have %d entries" % (n, n + 1))
            packed.append(row)
        if not packed:
            raise ValueError("a triangle has at least row 0")
        self._rows = tuple(packed)

    @classmethod
    def _raw(cls, rows: tuple) -> "Triangle":
        # trusted fast path: rows already exact tuples of the right lengths
        t = object.__new__(cls)
        t._rows = rows
        return t

    @property
    def rows(self) -> tuple:
        return self._rows

    @property
    def n_max(self) -> int:
        return len(self._rows) - 1

    def row(self, n: int) -> tuple:
        return self._rows[n]

    def __getitem__(self, nk):
        n, k = nk
        if n < 0 or k < 0:
            raise IndexError("negative index (%d, %d)" % (n, k))
        row = self._rows[n]
        return row[k] if k < len(row) else QZERO

    def __eq__(self, other):
        if not isinstance(other, Triangle):
            return NotImplemented
        if len(self._rows) != len(other._rows):
            return False
        return all(
            u == v
            for r, s in zip(self._rows, other._rows)
            for u, v in zip(r, s)
        )

    def __repr__(self):
        return "Triangle(n_max=%d)" % self.n_max
