"""Operator calculus: the evaluation pairing, basis generation from a
pair of series, biorthogonality, connection coefficients, and the
expansion round trip."""

import random

import pytest

import degenpoly.umbral as umbral
from degenpoly.algebra import (
    EgfSeries,
    PolyX,
    Triangle,
    _times_columns,
    to_lambda_falling_basis,
)
from degenpoly.families import (
    degenerate_bernoulli,
    degenerate_bernoulli2,
    fully_degenerate_bell,
    fully_degenerate_dowling,
)
from degenpoly.kernels import degenerate_exp, lambda_falling
from degenpoly.rationals import Q, QONE, QZERO
from degenpoly.triangles import (
    column_power_triangle,
    degenerate_stirling1,
    degenerate_stirling2,
    degenerate_whitney2,
)
from degenpoly.umbral import (
    ShefferPair,
    apply_lambda_diff_op,
    bell_pair,
    bernoulli2_pair,
    bernoulli_pair,
    combine_basis,
    connection_coefficients,
    dowling_pair,
    expand_in_basis,
    falling_pair,
    pair_functional,
    poly_bell_pair,
    rescaled_bell_pair,
    sheffer_generate,
)

CAP = 8


def fact(n):
    out = 1
    for j in range(2, n + 1):
        out *= j
    return out


def test_functional_duality_on_the_falling_basis():
    for lam in (Q(1, 2), Q(-1, 3)):
        for n in range(7):
            p = lambda_falling(n, lam)
            for k in range(7):
                want = Q(fact(n)) if n == k else QZERO
                assert pair_functional(EgfSeries.t_power(7, k), p, lam) == want


def test_functional_linearity():
    rng = random.Random(7)
    lam = Q(1, 3)
    for _ in range(30):
        f = EgfSeries(5, [Q(rng.randint(-5, 5)) for _ in range(6)])
        p = PolyX([Q(rng.randint(-5, 5)) for _ in range(5)])
        q = PolyX([Q(rng.randint(-5, 5)) for _ in range(5)])
        c = Q(rng.randint(-4, 4))
        assert pair_functional(f, p + q, lam) == pair_functional(
            f, p, lam
        ) + pair_functional(f, q, lam)
        assert pair_functional(f, c * p, lam) == c * pair_functional(f, p, lam)


def test_functional_cap_guard():
    with pytest.raises(ValueError):
        pair_functional(EgfSeries.t(2), PolyX.monomial(5), Q(1, 2))


def test_diff_op_action():
    lam = Q(1, 3)
    # t lowers the deformed basis as d/dx lowers powers:
    # t^k (x)_n = (n)_k (x)_{n-k}, and order zero is the identity
    for n in range(6):
        base = lambda_falling(n, lam)
        assert apply_lambda_diff_op(0, base, lam) == base
        for k in range(1, 8):
            got = apply_lambda_diff_op(k, base, lam)
            if k > n:
                assert got.is_zero()
            else:
                assert got == lambda_falling(n - k, lam) * (fact(n) // fact(n - k))
    # frozen: x^3 has deformed-basis coordinates (0, 1/9, 1, 1), so one
    # application leaves 1/9 + 2 (x)_1 + 3 (x)_2 = 1/9 + x + 3x^2
    got = apply_lambda_diff_op(1, PolyX.monomial(3), lam)
    assert got == PolyX([Q(1, 9), QONE, Q(3)])
    # the undeformed case is plain differentiation
    assert apply_lambda_diff_op(1, PolyX.monomial(3), QZERO) == PolyX.monomial(2, Q(3))
    assert apply_lambda_diff_op(4, PolyX.monomial(3), QZERO).is_zero()
    # degree drops by the order
    p = PolyX([QONE, Q(2), Q(3), Q(4)])
    assert apply_lambda_diff_op(2, p, lam).degree == 1


def test_diff_op_operator_law():
    # the sequence owned by (g, f) satisfies f(t) s_n = n s_{n-1}
    for lam in (Q(1, 3), Q(-2, 7)):
        for make in (bell_pair, bernoulli_pair, bernoulli2_pair):
            pair = make(lam, 7)
            polys = sheffer_generate(pair, 7)
            for n in range(8):
                got = PolyX.zero()
                for k in range(1, n + 1):
                    term = apply_lambda_diff_op(k, polys[n], lam)
                    got = got + pair.f.a[k] / fact(k) * term
                want = n * polys[n - 1] if n else PolyX.zero()
                assert got == want, (make.__name__, lam, n)


def test_pair_validation():
    lam = Q(1, 2)
    t = EgfSeries.t(4)
    one = EgfSeries.one(4)
    with pytest.raises(ValueError):
        ShefferPair(EgfSeries.zero(4), t, lam)  # invertible part missing
    with pytest.raises(ValueError):
        ShefferPair(one, one, lam)  # order must be exactly 1
    with pytest.raises(ValueError):
        ShefferPair(one, EgfSeries(4, [QZERO, QZERO, QONE]), lam)
    with pytest.raises(ValueError):
        ShefferPair(EgfSeries.one(5), t, lam)  # caps must agree


def test_generate_falling_family():
    lam = Q(1, 3)
    polys = sheffer_generate(falling_pair(lam, CAP), CAP)
    for n in range(CAP + 1):
        assert polys[n] == lambda_falling(n, lam)


def test_generate_known_families():
    lam = Q(1, 2)
    got = sheffer_generate(bell_pair(lam, CAP), CAP)
    for n in range(CAP + 1):
        assert got[n] == fully_degenerate_bell(n, lam)
    got = sheffer_generate(bernoulli_pair(lam, CAP), CAP)
    for n in range(CAP + 1):
        assert got[n] == degenerate_bernoulli(n, lam)
    got = sheffer_generate(bernoulli2_pair(lam, CAP), CAP)
    for n in range(CAP + 1):
        assert got[n] == degenerate_bernoulli2(n, lam)
    for m in (1, 2, 3):
        got = sheffer_generate(dowling_pair(m, lam, CAP), CAP)
        for n in range(CAP + 1):
            assert got[n] == fully_degenerate_dowling(n, m, lam)


def test_generated_families_are_biorthogonal():
    # <g f^k | s_n> = n! delta, checked through the public pairing
    for lam in (Q(1, 2), Q(-1, 3), Q(2, 7), QZERO):
        for pair in (bell_pair(lam, 6), bernoulli_pair(lam, 6)):
            polys = sheffer_generate(pair, 6)
            probe = pair.g
            for k in range(7):
                for n in range(7):
                    want = Q(fact(n)) if n == k else QZERO
                    assert pair_functional(probe, polys[n], lam) == want
                probe = probe * pair.f


def test_connection_reproduces_triangles():
    lam = Q(1, 3)
    # expanding the falling family in the composed basis recovers the
    # first-kind triangle; the reverse direction recovers the second kind
    tri = connection_coefficients(falling_pair(lam, CAP), bell_pair(lam, CAP), CAP)
    assert tri.rows == degenerate_stirling1(CAP, lam).rows
    tri = connection_coefficients(bell_pair(lam, CAP), falling_pair(lam, CAP), CAP)
    assert tri.rows == degenerate_stirling2(CAP, lam).rows


def test_connection_dowling_to_bell():
    lam = Q(2, 7)
    for m in (1, 2, 3):
        tri = connection_coefficients(
            dowling_pair(m, lam, CAP), bell_pair(lam, CAP), CAP
        )
        s1d = degenerate_stirling1(CAP, lam)
        wd = degenerate_whitney2(CAP, m, lam)
        for n in range(CAP + 1):
            for k in range(n + 1):
                want = sum(
                    (s1d[j, k] * wd[n, j] for j in range(k, n + 1)), QZERO
                )
                assert tri[n, k] == want


def test_connection_matches_expansion_of_source_family():
    lam = Q(1, 2)
    source = dowling_pair(2, lam, 6)
    target = bell_pair(lam, 6)
    tri = connection_coefficients(source, target, 6)
    polys = sheffer_generate(source, 6)
    for n in range(7):
        coeffs = expand_in_basis(polys[n], target)
        assert coeffs == [tri[n, k] for k in range(n + 1)]


def test_expand_round_trip():
    rng = random.Random(11)
    lam = Q(1, 2)
    target = bell_pair(lam, CAP)
    basis = sheffer_generate(target, CAP)
    for _ in range(25):
        p = PolyX([Q(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(CAP + 1)])
        coeffs = expand_in_basis(p, target)
        assert combine_basis(coeffs, basis) == p
    # expanding a basis element gives a delta row
    coeffs = expand_in_basis(basis[4], target)
    assert coeffs == [QZERO, QZERO, QZERO, QZERO, QONE]


def test_expand_guards():
    lam = Q(1, 2)
    target = bell_pair(lam, 3)
    with pytest.raises(ValueError):
        expand_in_basis(PolyX.monomial(5), target)
    basis = sheffer_generate(target, 3)
    with pytest.raises(ValueError):
        combine_basis([QONE] * 6, basis)
    for bad in (0.5, "1/2", PolyX.x()):
        with pytest.raises(TypeError):
            combine_basis([QONE, bad], basis)


def test_connection_lambda_mismatch_guard():
    with pytest.raises(ValueError):
        connection_coefficients(
            bell_pair(Q(1, 2), 4), bell_pair(Q(1, 3), 4), 4
        )


def test_rescaled_pair_polys():
    # the rescaled family evaluates the m-scaled argument: generated
    # polynomials are m^n phi_n(x/m) at deformation lam/m
    from degenpoly.umbral import rescaled_bell_pair

    lam, m = Q(1, 2), 2
    polys = sheffer_generate(rescaled_bell_pair(m, lam, 6), 6)
    sub = PolyX([QZERO, Q(1, m)])
    for n in range(7):
        base = fully_degenerate_bell(n, lam / m)
        want = Q(m) ** n * base(sub)
        want = want if isinstance(want, PolyX) else PolyX.constant(want)
        assert polys[n] == want


# ---------------------------------------------------------------------------
# the arrays a pair owns, against the per-call routes they replaced


def _reference_expand(p, pair):
    """C_k = <g f^k | p> / k!, rebuilding g f^k with one product per k."""
    q = to_lambda_falling_basis(p, pair.lam)
    out = []
    probe = pair.g
    for k in range(len(q)):
        acc = QZERO
        for j, qj in enumerate(q):
            acc = acc + probe.a[j] * qj
        out.append(acc / fact(k))
        probe = probe * pair.f
    return out


def _reference_generate(pair, n_max):
    """EGF coefficients of (1/g(fbar)) e^x(fbar), composed symbolically."""
    fbar = pair.f.comp_inverse()
    unit = pair.g.compose(fbar).reciprocal()
    sym = degenerate_exp(PolyX.x(), pair.lam, pair.order_cap, limit_mode=True)
    series = unit * sym.compose(fbar)
    return [
        p if isinstance(p, PolyX) else PolyX.constant(p)
        for p in series.a[: n_max + 1]
    ]


def _random_scalars(rng, count, nonzero=False):
    lo = 1 if nonzero else 0
    return [
        Q(rng.choice((-1, 1)) * rng.randint(lo, 6), rng.randint(1, 6))
        for _ in range(count)
    ]


def _random_poly(rng, degree):
    return PolyX(_random_scalars(rng, degree + 1))


def _random_pair(rng, lam, cap):
    g = _random_scalars(rng, 1, nonzero=True) + _random_scalars(rng, cap)
    f = [QZERO] + _random_scalars(rng, 1, nonzero=True) + _random_scalars(rng, cap - 1)
    return ShefferPair(EgfSeries(cap, g), EgfSeries(cap, f), lam)


def _standard_pairs(lam, cap):
    return [
        falling_pair(lam, cap),
        bell_pair(lam, cap),
        bernoulli_pair(lam, cap),
        bernoulli2_pair(lam, cap),
        poly_bell_pair(2, lam, cap),
        dowling_pair(2, lam, cap),
        rescaled_bell_pair(3, lam, cap),
    ]


def test_cached_arrays_match_per_call_routes_on_standard_pairs():
    rng = random.Random(23)
    cases = ((1, Q(-2, 5)), (4, Q(1, 3)), (9, QZERO), (12, Q(-5, 4)), (16, Q(3, 7)))
    for cap, lam in cases:
        for pair in _standard_pairs(lam, cap):
            assert sheffer_generate(pair, cap) == _reference_generate(pair, cap)
            for _ in range(3):
                p = _random_poly(rng, rng.randint(-1, cap))
                assert expand_in_basis(p, pair) == _reference_expand(p, pair)


def test_cached_arrays_match_per_call_routes_on_random_pairs():
    rng = random.Random(29)
    lams = (Q(1, 3), Q(-2, 5), Q(3, 7), Q(-5, 4), QZERO)
    for cap in range(1, 17):
        pair = _random_pair(rng, lams[cap % len(lams)], cap)
        n_max = rng.randint(0, cap)
        assert sheffer_generate(pair, n_max) == _reference_generate(pair, n_max)
        for degree in (0, cap // 2, cap):
            p = _random_poly(rng, degree)
            assert expand_in_basis(p, pair) == _reference_expand(p, pair)
    assert expand_in_basis(PolyX.zero(), pair) == []


def _reference_connection(source, target, n_max):
    """The compose route: the array [g_t(fbar) / g_s(fbar), f_t(fbar)],
    fbar the source's compositional inverse, built column by column."""
    fbar = source.f.comp_inverse()
    lead = source.g.compose(fbar).reciprocal()
    return column_power_triangle(
        n_max, target.f.compose(fbar), target.g.compose(fbar) * lead
    )


def test_connection_matches_the_compose_route():
    for cap in (1, 4, 8):
        for lam in (Q(1, 3), Q(-2, 5), QZERO, Q(5, 4)):
            pairs = _standard_pairs(lam, cap)
            for source in pairs:
                for target in pairs:
                    got = connection_coefficients(source, target, cap)
                    want = _reference_connection(source, target, cap)
                    assert got.rows == want.rows
                    short = connection_coefficients(source, target, cap // 2)
                    assert short.rows == got.rows[: cap // 2 + 1]


def test_connection_reads_only_the_cached_arrays(monkeypatch):
    lam, cap = Q(-2, 7), 8
    source, target = dowling_pair(2, lam, cap), bell_pair(lam, cap)
    source.sheffer_array, target.probe_array  # built on first use
    fresh = bell_pair(lam, cap)
    calls = []
    for name in ("compose", "__mul__", "comp_inverse", "reciprocal"):

        def counting(self, *args, _original=getattr(EgfSeries, name), _name=name):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(EgfSeries, name, counting)
    tri = connection_coefficients(source, target, cap)
    assert not calls
    assert tri.rows == connection_coefficients(source, target, cap).rows
    assert not calls
    # a target whose probe array is not built yet builds it from g and f
    # alone, on integers, and keeps it
    assert "probe_array" not in fresh.__dict__
    connection_coefficients(source, fresh, cap)
    assert not {"compose", "comp_inverse", "reciprocal"} & set(calls)
    assert "probe_array" in fresh.__dict__
    calls.clear()
    connection_coefficients(source, fresh, cap)
    assert not calls


def test_pair_needs_cap_one_for_order_one():
    # no series at cap 0 has order 1, so no pair exists there
    with pytest.raises(ValueError):
        ShefferPair(EgfSeries.one(0), EgfSeries.zero(0), Q(1, 3))


def test_pair_rejects_polyx_coefficients():
    lam = Q(1, 3)
    with pytest.raises(ValueError, match="scalar"):
        ShefferPair(EgfSeries(4, [QONE, PolyX.x()]), EgfSeries.t(4), lam)
    with pytest.raises(ValueError, match="scalar"):
        ShefferPair(EgfSeries.one(4), EgfSeries(4, [QZERO, QONE, PolyX.x()]), lam)
    with pytest.raises(ValueError, match="scalar"):
        ShefferPair(EgfSeries(4, [PolyX.one()]), EgfSeries.t(4), lam)


def test_expansion_reuses_the_probe_array(monkeypatch):
    calls = []
    original = EgfSeries.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(EgfSeries, "__mul__", counting)
    rng = random.Random(31)
    pair = dowling_pair(2, Q(-3, 7), 12)
    polys = [_random_poly(rng, 12) for _ in range(5)]
    expand_in_basis(polys[0], pair)
    assert calls  # the first call builds g f^k
    calls.clear()
    for p in polys:
        expand_in_basis(p, pair)
    assert not calls
    # a fresh pair rebuilds its own array: nothing is kept between pairs
    expand_in_basis(polys[0], dowling_pair(2, Q(-3, 7), 12))
    assert calls


def _corrupted(values, i):
    values = list(values)
    values[i] = values[i] + 1
    return values


def test_generation_certificate_catches_a_corrupted_array(monkeypatch):
    lam, cap = Q(2, 5), 4
    reference = sheffer_generate(bernoulli2_pair(lam, cap), cap)
    # every entry of the Sheffer array
    for n in range(cap + 1):
        for k in range(n + 1):
            pair = bernoulli2_pair(lam, cap)
            rows = [list(r) for r in pair.sheffer_array.rows]
            rows[n] = _corrupted(rows[n], k)
            pair.__dict__["sheffer_array"] = Triangle(rows)
            with pytest.raises(AssertionError):
                sheffer_generate(pair, cap)
    # every numerator of the probe array
    for k in range(cap + 1):
        for j in range(cap + 1 - k):
            pair = bernoulli2_pair(lam, cap)
            cols = list(pair.probe_array)
            nums, den = cols[k]
            cols[k] = (_corrupted(nums, j), den)
            pair.__dict__["probe_array"] = tuple(cols)
            with pytest.raises(AssertionError):
                sheffer_generate(pair, cap)
    # every numerator of the falling table
    table = umbral.lambda_falling_table
    for k in range(cap + 1):
        for j in range(cap + 1 - k):

            def corrupted_table(lam, n_max, k=k, j=j):
                cols = list(table(lam, n_max))
                nums, den = cols[k]
                cols[k] = (_corrupted(nums, j), den)
                return tuple(cols)

            monkeypatch.setattr(umbral, "lambda_falling_table", corrupted_table)
            with pytest.raises(AssertionError):
                sheffer_generate(bernoulli2_pair(lam, cap), cap)
    monkeypatch.undo()
    # a fresh pair is unaffected
    assert sheffer_generate(bernoulli2_pair(lam, cap), cap) == reference


# ---------------------------------------------------------------------------
# the integer change of basis, against the rational loops it replaced


def _reference_falling(p, lam):
    """Synthetic division by x - j lam, j = 0, 1, .., on rationals."""
    lam = Q(lam)
    cur = list(p.coeffs)
    out = []
    j = 0
    while cur:
        node = j * lam
        deg = len(cur) - 1
        quot = [QZERO] * deg
        acc = cur[deg]
        for i in range(deg - 1, -1, -1):
            quot[i] = acc
            acc = cur[i] + node * acc
        out.append(acc)
        cur = quot
        j += 1
    return out


def _reference_combine(coeffs, polys):
    """sum_k coeffs[k] polys[k], one PolyX product and sum per term."""
    acc = PolyX.zero()
    for c, p in zip(coeffs, polys):
        if c:
            acc = acc + c * p
    return acc


ROUND_TRIP_LAMS = (Q(1, 3), Q(-2, 5), QZERO, Q(5, 4), QONE)


def test_integer_falling_division_matches_the_rational_cascade():
    rng = random.Random(37)
    for lam in ROUND_TRIP_LAMS:
        pair = bell_pair(lam, 16)
        assert to_lambda_falling_basis(PolyX.zero(), lam) == []
        assert expand_in_basis(PolyX.zero(), pair) == []
        for degree in range(17):
            for p in (_random_poly(rng, degree), PolyX.monomial(degree, -3)):
                want = _reference_falling(p, lam)
                assert to_lambda_falling_basis(p, lam) == want
                assert expand_in_basis(p, pair) == _times_columns(
                    want, pair.probe_array
                )


def test_integer_combination_matches_the_polyx_loop():
    rng = random.Random(41)
    for lam in ROUND_TRIP_LAMS:
        bases = [
            sheffer_generate(dowling_pair(2, lam, 16), 16),
            [_random_poly(rng, rng.randint(-1, 16)) for _ in range(17)],
        ]
        for basis in bases:
            for count in (0, 1, 9, 17):
                rational = _random_scalars(rng, count)
                integer = [rng.randint(-5, 5) for _ in range(count)]
                for coeffs in (rational, integer, [QZERO] * count):
                    got = combine_basis(coeffs, basis)
                    assert got.coeffs == _reference_combine(coeffs, basis).coeffs
    # a combination that cancels is the zero polynomial, with no trailing zeros
    p = PolyX([Q(1, 3), Q(2, 5), Q(-7, 2)])
    q = PolyX([Q(1, 6), QZERO, Q(5)])
    got = combine_basis([Q(2), QONE, Q(-1), -2], [q, p, p, q])
    assert got == PolyX.zero() and got.coeffs == ()
    top = combine_basis([QONE, QONE], [p, PolyX([QZERO, QZERO, Q(7, 2)])])
    assert top.coeffs == (Q(1, 3), Q(2, 5))


def test_change_of_basis_makes_no_polyx_arithmetic(monkeypatch):
    rng = random.Random(43)
    pair = dowling_pair(2, Q(-2, 5), 12)
    basis = sheffer_generate(pair, 12)
    polys = [_random_poly(rng, 12) for _ in range(4)]
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):

        def counting(self, other, _original=getattr(PolyX, name), _name=name):
            calls.append(_name)
            return _original(self, other)

        monkeypatch.setattr(PolyX, name, counting)
    for p in polys:
        assert combine_basis(expand_in_basis(p, pair), basis) == p
    assert not calls
