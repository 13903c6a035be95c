"""The identity checker itself: every tag passes on an honest grid, the
reports are deterministic and certify correctly, and a corrupted input
triangle or family is caught with a usable witness."""

import hashlib
from dataclasses import replace
from math import prod

import pytest

import degenpoly.families as families
import degenpoly.triangles as triangles
import degenpoly.umbral as umbral
import degenpoly.verifier as verifier
from degenpoly.algebra import EgfSeries, PolyX, Triangle
from degenpoly.cli import main
from degenpoly.kernels import lambda_falling
from degenpoly.output import reports_to_json
from degenpoly.rationals import Q
from degenpoly.verifier import (
    IDENTITY_DESCRIPTIONS,
    IdentityId,
    SuiteConfig,
    default_lambda_samples,
    lambda_degree_bound,
    run_full_suite,
    verify,
)

ALL_TAGS = list(IdentityId)


def test_manifest_is_complete():
    assert len(ALL_TAGS) == 19
    assert set(IDENTITY_DESCRIPTIONS) == set(ALL_TAGS)
    assert all(IDENTITY_DESCRIPTIONS[t].strip() for t in ALL_TAGS)
    # tags are stable strings, usable from the command line
    assert IdentityId("LEMMA1") is IdentityId.LEMMA1
    assert IdentityId.THM9_ROUNDTRIP.value == "THM9_ROUNDTRIP"


@pytest.mark.parametrize("tag", ALL_TAGS, ids=[t.value for t in ALL_TAGS])
def test_every_identity_passes(tag):
    report = verify(tag, n_max=4)
    assert report.passed, report.witness
    assert report.witness is None
    assert len(report.points) > 0


def test_degree_bound_policy():
    assert lambda_degree_bound(IdentityId.LEMMA1, 8) == 32
    assert lambda_degree_bound(IdentityId.THM10, 5) == 20
    assert lambda_degree_bound(IdentityId.STIRLING_ORTHO, 8) == 0
    assert lambda_degree_bound(IdentityId.WHITNEY_ORACLE, 8) == 0
    assert lambda_degree_bound(IdentityId.THM2_DOBINSKI, 8) == 0
    assert lambda_degree_bound("lemma1", 2) == 8  # accepts lowercase names


def test_default_samples_are_usable():
    samples = default_lambda_samples(33)
    assert len(samples) == 33
    assert len(set(samples)) == 33
    for s in samples:
        assert s != 0
        assert s.denominator != 1  # never an integer
        for m in (2, 3):
            assert (s / m).denominator != 1
    # deterministic and prefix-stable
    assert default_lambda_samples(33) == samples
    assert default_lambda_samples(5) == samples[:5]


def test_certification_requires_enough_samples():
    # bound at n_max=4 is 16; five samples pass but cannot certify
    few = verify("DEG_STIRLING_ORTHO", n_max=4, lambda_samples=default_lambda_samples(5))
    assert few.passed
    assert not few.certified_polynomial_in_lambda
    assert few.distinct_passing_lambda_samples == 5
    # the default grid clears the bound
    full = verify("DEG_STIRLING_ORTHO", n_max=4)
    assert full.certified_polynomial_in_lambda
    assert full.distinct_passing_lambda_samples > full.lambda_degree_bound


def test_numeric_tag_never_certifies():
    report = verify("THM2_DOBINSKI", n_max=4)
    assert report.passed
    assert not report.certified_polynomial_in_lambda
    assert "numeric" in report.notes


def test_lambda_free_tags_certify_without_samples():
    report = verify("STIRLING_ORTHO", n_max=6)
    assert report.passed and report.certified_polynomial_in_lambda
    assert report.lambda_degree_bound == 0


def test_reports_are_deterministic():
    a = reports_to_json([verify("THM9_ROUNDTRIP", n_max=3)])
    b = reports_to_json([verify("THM9_ROUNDTRIP", n_max=3)])
    assert a == b
    cfg = SuiteConfig(n_max=2)
    assert reports_to_json(run_full_suite(cfg)) == reports_to_json(run_full_suite(cfg))


def test_full_suite_report_bytes_are_pinned(capsys):
    # sha256 of the stdout of `degenpoly verify all --n-max 3 --format json`
    assert main(["verify", "all", "--n-max", "3", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "540271f4b340e3896ecf290564a62a3a06b6223830dd0e6f6603fc7a9425cd03"
    )


def test_full_suite_at_n_max_zero():
    reports = run_full_suite(SuiteConfig(n_max=0))
    assert [r.identity for r in reports] == ALL_TAGS
    assert all(r.passed for r in reports), [r.witness for r in reports]
    assert all(p.n == 0 for r in reports for p in r.points if p.n is not None)


def test_an_empty_grid_is_refused():
    with pytest.raises(ValueError):
        verify("LEMMA1", n_max=2, lambda_samples=())
    with pytest.raises(ValueError):
        SuiteConfig(lambda_samples=())
    # a negative size has no grid points, so it must not certify either
    for tag in ("LEMMA1", "THM10", "THM2_DOBINSKI"):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            verify(tag, n_max=-1)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        SuiteConfig(n_max=-1)
    # the m, k and r grids are fixed, so no caller can empty them either
    with pytest.raises(TypeError):
        verify("EQ_3A_4A_ORTHO", m_values=())
    reports = run_full_suite(SuiteConfig(n_max=0))
    assert all(r.to_dict()["points_total"] >= 1 for r in reports)
    # a one-shot iterable is read once, not once per checker
    reports = run_full_suite(SuiteConfig(n_max=1, lambda_samples=iter([Q(1, 3)])))
    assert all(r.points for r in reports)


def test_full_suite_order_and_size():
    reports = run_full_suite(SuiteConfig(n_max=2))
    assert [r.identity for r in reports] == ALL_TAGS
    assert all(r.passed for r in reports)


def test_report_serialization_shape():
    d = verify("LEMMA1", n_max=3).to_dict()
    assert d["identity"] == "LEMMA1"
    assert d["passed"] is True
    assert d["witness"] is None
    assert isinstance(d["grid"], list)
    point = d["grid"][0]
    assert set(point) >= {"n", "lambda", "m", "k", "r", "ok"}
    # rationals travel as strings
    assert isinstance(point["lambda"], str)


def _corrupting(original, n0, k0):
    def wrapper(n_max, lam):
        tri = original(n_max, lam)
        rows = [list(r) for r in tri.rows]
        if n_max >= n0:
            rows[n0][k0] = rows[n0][k0] + 1
        return Triangle(tuple(tuple(r) for r in rows))

    return wrapper


def test_fault_injection_is_caught(monkeypatch):
    monkeypatch.setattr(
        triangles,
        "degenerate_stirling2",
        _corrupting(triangles.degenerate_stirling2, 3, 1),
    )
    report = verify("LEMMA1", n_max=5)
    assert not report.passed
    assert not report.certified_polynomial_in_lambda
    assert report.witness is not None
    assert report.witness["n"] == 3  # first grid point touching the bad entry
    assert report.witness["detail"]
    # the corruption also breaks downstream identities that reuse the triangle
    assert not verify("THM6", n_max=5).passed
    assert not verify("THM8", n_max=5).passed
    monkeypatch.undo()

    # the same fault in the first-kind triangle reaches every closed side
    # built from it, and no identity that never reads it
    monkeypatch.setattr(
        triangles,
        "degenerate_stirling1",
        _corrupting(triangles.degenerate_stirling1, 3, 1),
    )
    for tag in ("THM5", "THM6", "THM7", "THM10", "THM11", "DEG_STIRLING_ORTHO"):
        report = verify(tag, n_max=4)
        assert not report.passed, tag
        assert report.witness["n"] == 3, tag
        assert report.witness["detail"], tag
    for tag in ("LEMMA1", "THM8"):
        assert verify(tag, n_max=4).passed, tag


def test_fault_injection_in_whitney_is_caught(monkeypatch):
    original = triangles.degenerate_whitney2

    def wrapper(n_max, m, lam):
        tri = original(n_max, m, lam)
        rows = [list(r) for r in tri.rows]
        if n_max >= 4 and m == 2:
            rows[4][2] = rows[4][2] - Q(1, 3)
        return Triangle(tuple(tuple(r) for r in rows))

    monkeypatch.setattr(triangles, "degenerate_whitney2", wrapper)
    report = verify("THM3_GF", n_max=5)
    assert not report.passed
    assert report.witness["m"] == 2
    assert report.witness["n"] == 4


def test_recovery_after_fault(monkeypatch):
    # caches never outlive a verification call, so clearing the patch
    # restores green without any other cleanup
    monkeypatch.setattr(
        triangles,
        "degenerate_stirling2",
        _corrupting(triangles.degenerate_stirling2, 2, 1),
    )
    assert not verify("LEMMA1", n_max=4).passed
    monkeypatch.undo()
    assert verify("LEMMA1", n_max=4).passed


def test_explicit_lambda_sample_override():
    report = verify("LEMMA1", n_max=3, lambda_samples=(Q(1, 2), Q(-1, 3)))
    lams = {p.lam for p in report.points}
    assert lams == {Q(1, 2), Q(-1, 3)}
    assert report.passed


def test_fault_injection_in_families_is_caught(monkeypatch):
    bernoulli = families.degenerate_bernoulli_polys

    def corrupted_bernoulli(n_max, lam):
        polys = list(bernoulli(n_max, lam))
        if n_max >= 2:
            polys[2] = polys[2] + PolyX((0, Q(1, 3)))
        return polys

    monkeypatch.setattr(families, "degenerate_bernoulli_polys", corrupted_bernoulli)
    for tag in ("THM5", "THM10", "POLYBELL_K1_IS_BERNOULLI"):
        report = verify(tag, n_max=3)
        assert not report.passed, tag
        assert report.witness["n"] == 2, tag
        assert report.witness["detail"], tag
    monkeypatch.undo()

    rows = families.falling_basis_rows

    def corrupted_rows(tri, lam):
        out = list(rows(tri, lam))
        if len(out) > 3:
            out[3] = out[3] + 1
        return out

    monkeypatch.setattr(families, "falling_basis_rows", corrupted_rows)
    report = verify("LEMMA1", n_max=3)
    assert not report.passed
    assert report.witness["n"] == 3
    assert report.witness["detail"]
    monkeypatch.undo()

    table = families.lambda_falling_table

    def corrupted_table(lam, n_max):
        cols = list(table(lam, n_max))
        if n_max >= 2:
            nums, den = cols[1]  # F(1, 1) .. F(n_max, 1)
            cols[1] = ([nums[0], nums[1] + 1, *nums[2:]], den)  # F(2, 1)
        return tuple(cols)

    monkeypatch.setattr(families, "lambda_falling_table", corrupted_table)
    for tag in ("LEMMA1", "THM6"):
        report = verify(tag, n_max=3)
        assert not report.passed, tag
        assert report.witness["n"] == 2, tag
        assert report.witness["detail"], tag
    monkeypatch.undo()

    for tag in ("THM5", "THM10", "POLYBELL_K1_IS_BERNOULLI", "LEMMA1", "THM6"):
        assert verify(tag, n_max=3).passed, tag


# Each umbral pair constructor, and the identities whose engine side reads
# the pair it builds.  A fault in either series of a pair must fail every
# one of them.
_PAIR_CONSUMERS = {
    "falling_pair": ("THM6",),
    "bell_pair": ("THM5", "THM6", "THM7", "THM8", "THM9_ROUNDTRIP", "THM11"),
    "bernoulli_pair": ("THM5", "THM10"),
    "bernoulli2_pair": ("THM8",),
    "poly_bell_pair": ("THM7",),
    "dowling_pair": ("THM9_ROUNDTRIP", "THM10", "THM11", "EQ56_CLOSING"),
    "rescaled_bell_pair": ("EQ56_CLOSING",),
}


@pytest.mark.parametrize("series", ["g", "f"])
@pytest.mark.parametrize("ctor", sorted(_PAIR_CONSUMERS))
def test_pair_fault_matrix(monkeypatch, ctor, series):
    original = getattr(umbral, ctor)

    def faulted(*args):
        pair = original(*args)
        parts = {"g": pair.g, "f": pair.f}
        a = list(parts[series].a)
        a[3] = a[3] + 1
        parts[series] = EgfSeries(pair.order_cap, a)
        return umbral.ShefferPair(parts["g"], parts["f"], pair.lam)

    monkeypatch.setattr(umbral, ctor, faulted)
    samples = (Q(1, 7), Q(-1, 3))
    failed = set()
    for tag in _PAIR_CONSUMERS[ctor]:
        report = verify(tag, n_max=3, lambda_samples=samples)
        if not report.passed:
            assert report.witness["detail"], tag
            failed.add(tag)
    assert failed == set(_PAIR_CONSUMERS[ctor])


def test_the_workspace_builds_each_input_once(monkeypatch):
    builds = {}
    for module, name in (
        (triangles, "degenerate_stirling1"),
        (families, "degenerate_bernoulli_polys"),
        (umbral, "bell_pair"),
        (umbral, "dowling_pair"),
    ):
        calls = builds[name] = []

        def counting(*args, _build=getattr(module, name), _calls=calls):
            _calls.append(args)
            return _build(*args)

        monkeypatch.setattr(module, name, counting)
    run_full_suite(SuiteConfig(n_max=2, lambda_samples=(Q(1, 7), Q(-1, 3))))
    # lam and lam/m for m = 1, 2, 3 at both samples, plus lam = 0
    assert len(builds["degenerate_stirling1"]) == 7
    assert len(builds["degenerate_bernoulli_polys"]) == 3
    assert len(builds["bell_pair"]) == 2
    assert len(builds["dowling_pair"]) == 6
    for name, calls in builds.items():
        assert len(set(calls)) == len(calls), name


def test_thm9_draws_its_random_polynomials_once_per_run(monkeypatch):
    expand = umbral.expand_in_basis
    seen = {}

    def recording(p, pair):
        seen.setdefault(pair.lam, set()).add(p)
        return expand(p, pair)

    monkeypatch.setattr(umbral, "expand_in_basis", recording)
    samples = (Q(1, 7), Q(-1, 3), Q(2, 5))
    assert verify("THM9_ROUNDTRIP", n_max=3, lambda_samples=samples).passed
    assert set(seen) == set(samples)
    randoms = []
    for lam, polys in seen.items():
        fixed = {lambda_falling(n, lam) for n in range(4)}
        fixed |= {PolyX.monomial(n) for n in range(4)}
        assert fixed <= polys
        randoms.append(polys - fixed)
    assert randoms[0]
    assert all(r == randoms[0] for r in randoms)


_AUDITED = (
    "THM5", "THM6", "THM7", "THM8", "THM9_ROUNDTRIP", "THM10", "THM11",
    "EQ25_ADDITION", "EQ56_CLOSING",
)


def _non_polynomial_entries(monkeypatch, tags, n_max=4):
    """Engine outputs that are not polynomials in lam of degree <= bound.

    Each identity runs once per lam in default_lambda_samples(bound + 2).
    Every output of connection_coefficients and combine_basis is recorded
    coefficient by coefficient, and each recorded entry must have a
    vanishing divided difference of order bound + 1 over those samples.
    Returns (tag, call index, coefficient index) for each entry that
    does not.
    """
    connect, combine = umbral.connection_coefficients, umbral.combine_basis
    record = []

    def connection(*args):
        tri = connect(*args)
        record.append([v for row in tri.rows for v in row])
        return tri

    def combination(*args):
        poly = combine(*args)
        record.append(list(poly.coeffs))
        return poly

    monkeypatch.setattr(umbral, "connection_coefficients", connection)
    monkeypatch.setattr(umbral, "combine_basis", combination)
    bad = []
    for tag in tags:
        lams = default_lambda_samples(lambda_degree_bound(tag, n_max) + 2)
        runs = []
        for lam in lams:
            record.clear()
            assert verify(tag, n_max=n_max, lambda_samples=(lam,)).passed, tag
            runs.append(list(record))
        assert len({len(run) for run in runs}) == 1, tag
        weights = [1 / prod(a - b for b in lams if b != a) for a in lams]
        for call, outputs in enumerate(zip(*runs)):
            for i in range(max(len(out) for out in outputs)):
                values = [out[i] if i < len(out) else 0 for out in outputs]
                if sum(w * v for w, v in zip(weights, values)):
                    bad.append((tag, call, i))
    return bad


def test_compared_values_are_polynomial_in_lambda(monkeypatch):
    assert _non_polynomial_entries(monkeypatch, _AUDITED) == []


def test_lambda_audit_catches_per_lambda_random_polynomials(monkeypatch):
    # THM9 drawing its random polynomials per lam sample, as it once did
    draw = verifier._random_test_polys
    monkeypatch.setattr(
        verifier,
        "_random_test_polys",
        lambda cfg: draw(replace(cfg, seed=hash(cfg.samples()))),
    )
    assert _non_polynomial_entries(monkeypatch, ("THM9_ROUNDTRIP",))
