"""Acceptance criteria.

Each test covers one criterion end to end at the stated sizes and time
budgets and prints a single status line (run with -s to see the lines
on a passing suite).
"""

import hashlib
import random
import time

import degenpoly.triangles as triangles
from degenpoly.algebra import EgfSeries, PolyX, Triangle
from degenpoly.families import (
    degenerate_bernoulli,
    degenerate_dowling,
    dobinski_eval,
    fully_degenerate_bell,
    fully_degenerate_dowling,
)
from degenpoly.kernels import degenerate_exp
from degenpoly.output import reports_to_json
from degenpoly.rationals import Q, QONE, QZERO
from degenpoly.triangles import (
    count_partitions,
    degenerate_stirling1,
    degenerate_stirling2,
    enumerate_colored_partitions,
    r_whitney1,
    r_whitney2,
    set_partitions,
    stirling1,
    stirling2,
)
from degenpoly.umbral import bell_pair, dowling_pair, pair_functional, sheffer_generate, ShefferPair
from degenpoly.verifier import SuiteConfig, run_full_suite, verify

LAMBDAS = (Q(1, 2), Q(-1, 3), Q(2, 5), Q(3, 4))


def announce(index, label, ok, t0, budget):
    elapsed = time.monotonic() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        "ACCEPTANCE %d %s %s (%.2fs of %.0fs budget)"
        % (index, status, label, elapsed, budget)
    )
    assert ok
    assert elapsed < budget, "budget exceeded: %.2fs" % elapsed


def test_acceptance_1_dual_route_families():
    t0 = time.monotonic()
    cap = 12
    ok = True
    for lam in LAMBDAS:
        inner = degenerate_exp(QONE, lam, cap) - 1
        series = degenerate_exp(PolyX.x(), lam, cap).compose(inner)
        for n in range(cap + 1):
            got = series.a[n]
            got = got if isinstance(got, PolyX) else PolyX.constant(got)
            ok = ok and fully_degenerate_bell(n, lam) == got
        for m in (1, 2, 3):
            inner = (degenerate_exp(Q(m), lam, cap) - 1) * Q(1, m)
            series = degenerate_exp(QONE, lam, cap) * degenerate_exp(
                PolyX.x(), lam, cap
            ).compose(inner)
            for n in range(cap + 1):
                got = series.a[n]
                got = got if isinstance(got, PolyX) else PolyX.constant(got)
                ok = ok and fully_degenerate_dowling(n, m, lam) == got
    announce(1, "triangle sums equal composed series through degree 12", ok, t0, 10)


def test_acceptance_2_triangle_inversion():
    t0 = time.monotonic()
    n_max = 12
    ok = True

    def inverse(a, b):
        good = True
        for n in range(n_max + 1):
            for k in range(n + 1):
                want = QONE if n == k else QZERO
                good = good and sum(
                    (a[n, j] * b[j, k] for j in range(k, n + 1)), QZERO
                ) == want
        return good

    ok = ok and inverse(stirling1(n_max), stirling2(n_max))
    for lam in LAMBDAS:
        ok = ok and inverse(
            degenerate_stirling1(n_max, lam), degenerate_stirling2(n_max, lam)
        )
    for m in (1, 2, 3):
        for r in (0, 1, 2):
            ok = ok and inverse(r_whitney1(n_max, m, r), r_whitney2(n_max, m, r))
            ok = ok and inverse(r_whitney2(n_max, m, r), r_whitney1(n_max, m, r))
    announce(2, "triangle pairs invert through degree 12", ok, t0, 10)


def test_acceptance_3_counting_oracle():
    t0 = time.monotonic()
    ok = True
    for m in (1, 2, 3):
        for r in (0, 1, 2):
            tri = r_whitney2(8, m, r)
            for n in range(8 - r + 1):
                for k in range(n + 1):
                    counted = enumerate_colored_partitions(n, k, m, r, max_elements=8)
                    ok = ok and tri[n, k] == counted
    tri = r_whitney2(7, 1, 1)
    for n in range(8):
        for k in range(n + 1):
            ok = ok and tri[n, k] == count_partitions(n + 1, k + 1)
    announce(3, "weighted enumeration matches the triangles", ok, t0, 30)


def test_acceptance_4_full_verification_suite():
    t0 = time.monotonic()
    reports = run_full_suite(SuiteConfig())
    ok = all(r.passed for r in reports)
    exact = [r for r in reports if r.identity.value != "THM2_DOBINSKI"]
    ok = ok and all(r.certified_polynomial_in_lambda for r in exact)
    ok = ok and len(reports) == 19
    announce(4, "full suite at size 8, every exact identity certified", ok, t0, 60)
    # the same bytes as the stdout of `degenpoly verify all --format json`
    out = reports_to_json(reports) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d31f69636f8699e76dd5618f98227c98e75b1ab130a0e646c31a89d91bc568b5"
    )


def test_acceptance_5_numeric_series():
    t0 = time.monotonic()
    ok = True
    for n in range(7):
        approx, reference = dobinski_eval(n, Q(1, 10), QONE, 200)
        denom = abs(reference) if reference else 1.0
        ok = ok and abs(approx - reference) / denom < 1e-8
    announce(5, "series summation at lam=1/10 within 1e-8", ok, t0, 1)


def test_acceptance_6_classical_limits():
    t0 = time.monotonic()
    bell = [1, 1, 2, 5, 15, 52, 203]
    ok = all(
        fully_degenerate_bell(n, QZERO)(QONE) == bell[n] for n in range(7)
    )
    counts = [sum(1 for _ in set_partitions(range(n))) for n in range(10)]
    ok = ok and counts[:7] == bell
    for n in range(9):
        ok = ok and degenerate_dowling(n, 1, QZERO)(QONE) == counts[n + 1]
    ok = ok and degenerate_bernoulli(1, QZERO)(QZERO) == Q(-1, 2)
    announce(6, "undeformed limits reproduce the classical values", ok, t0, 5)


def test_acceptance_7_biorthogonality():
    t0 = time.monotonic()
    cap = 10
    rng = random.Random(2024)
    pairs = [bell_pair(Q(1, 2), cap)]
    pairs += [dowling_pair(m, Q(-1, 3), cap) for m in (1, 2, 3)]
    for _ in range(20):
        lam = Q(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(2, 7))
        g = EgfSeries(
            cap,
            [Q(rng.choice([-1, 1]) * rng.randint(1, 3))]
            + [Q(rng.randint(-3, 3)) for _ in range(cap)],
        )
        f = EgfSeries(
            cap,
            [QZERO, Q(rng.choice([-1, 1]) * rng.randint(1, 3))]
            + [Q(rng.randint(-3, 3)) for _ in range(cap - 1)],
        )
        pairs.append(ShefferPair(g, f, lam))
    fact = [1]
    for n in range(1, cap + 1):
        fact.append(fact[-1] * n)
    ok = True
    for pair in pairs:
        polys = sheffer_generate(pair, cap)
        probe = pair.g
        for k in range(cap + 1):
            for n in range(cap + 1):
                want = Q(fact[n]) if n == k else QZERO
                ok = ok and pair_functional(probe, polys[n], pair.lam) == want
            if k < cap:
                probe = probe * pair.f
    announce(7, "24 generated bases are biorthogonal to degree 10", ok, t0, 10)


def test_acceptance_8_fault_injection(monkeypatch):
    t0 = time.monotonic()
    original = triangles.degenerate_stirling2

    def corrupted(n_max, lam):
        tri = original(n_max, lam)
        rows = [list(r) for r in tri.rows]
        if n_max >= 3:
            rows[3][2] = rows[3][2] + Q(1, 5)
        return Triangle(tuple(tuple(r) for r in rows))

    monkeypatch.setattr(triangles, "degenerate_stirling2", corrupted)
    broken = verify("LEMMA1", n_max=6)
    ok = not broken.passed and broken.witness is not None
    ok = ok and broken.witness["n"] == 3
    monkeypatch.undo()
    ok = ok and verify("LEMMA1", n_max=6).passed
    announce(8, "a corrupted triangle is detected and recovery is clean", ok, t0, 5)
