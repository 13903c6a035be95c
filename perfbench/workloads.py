"""The three benchmark workloads.

Each workload is a closed loop of passes: one caller, the next call
starts when the previous one returns.  A pass is a fixed list of public
calls whose inputs come from ``random.Random("<seed>:<workload>:<pass>")``,
so the same seed always gives the same inputs.  ``run_pass`` times each
call; ``check_pass`` then checks the outputs outside the timed calls.

What passes share matters to any cache the program keeps between calls:
``verify-suite`` repeats one identical command every pass; ``tables``
draws fresh deformations every pass but repeats its deformation-free
commands (s1, s2, the r-Whitney triangles); ``sheffer`` shares nothing
between passes.

The workloads are built to separate the layers:

* ``verify-suite`` is the headline CLI command, ``verify all``: the only
  workload that runs the verifier and the only one with heavy reuse of
  each Sheffer pair inside one call.
* ``tables`` is many small CLI commands (triangles, family polynomials,
  one Dobinski trace).  Its time is in triangles, families, kernels and
  scalar-coefficient series products; it makes no umbral or verifier
  call, so changes to those must not move it.
* ``sheffer`` calls the umbral layer directly at a high truncation cap,
  where compositional inversion dominates and series carry polynomial
  (symbolic x) coefficients.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from degenpoly import cli, umbral
from degenpoly.algebra import PolyX, Triangle

_clock = time.perf_counter

# The one identity the verifier checks by float tolerance and never
# certifies; every other report must be certified exact.
NUMERIC_IDENTITIES = frozenset({"THM2_DOBINSKI"})


@dataclass
class PassRecord:
    """Latency of every timed call in one pass, plus what is needed to
    check the outputs afterwards."""

    op_s: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    wall_s: float = 0.0


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    results: int = 0
    digest: str = ""
    layer_counts: dict = field(default_factory=dict)


class _Timer:
    def __init__(self, record: PassRecord):
        self.record = record

    def __call__(self, fn, *args):
        start = _clock()
        out = fn(*args)
        self.record.op_s.append(_clock() - start)
        return out


def _lam(rng: random.Random, sign: int, upper=None, min_p=1):
    """A reduced rational p/q with 5 <= q <= 13, p >= ``min_p`` and
    0 < p/q < 1 (or at most ``upper``), times ``sign``.  Denominators are
    kept in a narrow band so coefficient heights, and with them costs,
    stay comparable from one seed to the next."""
    while True:
        q = rng.randint(5, 13)
        p = rng.randint(min_p, q - 1)
        if gcd(p, q) == 1 and (upper is None or Fraction(p, q) <= upper):
            return Fraction(sign * p, q)


def _run_cli(argv: list):
    """cli.main with stdout captured; argparse usage errors become exit 2."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def _digest_all(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(hashlib.sha256(text.encode("utf-8")).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------


class VerifySuite:
    """``degenpoly verify all --n-max N --format json --seed S --out FILE``."""

    name = "verify-suite"

    def __init__(self, seed: int, smoke: bool, scratch):
        self.seed = seed
        # n-max 4 takes about 1.5 s a call: a 30 s run then has about 19
        # passes, and its median is steadier than over the 9 of n-max 5.
        self.n_max = 2 if smoke else 4
        self.out = scratch / "verify-report.json"

    def inputs(self, index: int) -> list:
        # The report is a pure function of (n_max, seed): every pass
        # repeats the same user command and must write the same bytes.
        return ["verify", "all", "--n-max", str(self.n_max), "--format", "json",
                "--seed", str(self.seed), "--out", str(self.out)]

    def run_pass(self, index: int) -> PassRecord:
        rec = PassRecord()
        timer = _Timer(rec)
        start = _clock()
        code, _ = timer(_run_cli, self.inputs(index))
        rec.wall_s = _clock() - start
        rec.outputs.append((code, self.out.read_bytes()))
        return rec

    def check_pass(self, index: int, rec: PassRecord) -> CheckResult:
        code, raw = rec.outputs[0]
        res = CheckResult(attempted=1, digest=hashlib.sha256(raw).hexdigest())
        try:
            reports = json.loads(raw)
        except ValueError:
            reports = []
        ok = code == 0 and len(reports) == 19
        for r in reports:
            exact = r["identity"] not in NUMERIC_IDENTITIES
            if not r["passed"] or (exact and not r["certified_polynomial_in_lambda"]):
                ok = False
            else:
                res.results += 1
        res.failed = 0 if ok else 1
        res.layer_counts = {
            "verifier.points_total": sum(r["points_total"] for r in reports),
            # The certification grid: the most distinct lam samples any
            # identity passed on.
            "verifier.lambda_samples": max(
                (r["distinct_passing_lambda_samples"] for r in reports), default=0),
        }
        return res


class Tables:
    """About 136 ``triangle``/``poly``/``dobinski`` CLI commands per pass."""

    name = "tables"
    _FORMATS = ("json", "csv", "tex", "table")

    def __init__(self, seed: int, smoke: bool, scratch):
        self.seed = seed
        self.tri_n = 5 if smoke else 24
        self.poly_n = 3 if smoke else 20
        self.terms = 200 if smoke else 1000

    def inputs(self, index: int) -> list:
        """(argv, exact coefficients emitted) for one pass."""
        rng = random.Random("%d:tables:%d" % (self.seed, index))
        lam_pos = _lam(rng, 1)
        lam_neg = _lam(rng, -1)
        lams = (lam_pos, lam_neg)
        tri = str(self.tri_n)
        tri_cells = (self.tri_n + 1) * (self.tri_n + 2) // 2
        cmds = []
        for lam in lams:
            flag = "--lambda=%s" % lam
            cmds.append((["triangle", "s1deg", "--n-max", tri, flag,
                          "--format", "json"], tri_cells))
            cmds.append((["triangle", "s2deg", "--n-max", tri, flag,
                          "--format", "json"], tri_cells))
            for m in (1, 2, 3):
                cmds.append((["triangle", "whitney-deg", "--n-max", tri,
                              "--m", str(m), flag, "--format", "json"], tri_cells))
        fmt = 0
        for kind in ("whitney-r1", "whitney-r2"):
            for m in (1, 2, 3):
                for r in (0, 1, 2):
                    cmds.append((["triangle", kind, "--n-max", tri, "--m", str(m),
                                  "--r", str(r), "--format", self._FORMATS[fmt % 4]],
                                 tri_cells))
                    fmt += 1
        for kind in ("s1", "s2"):
            cmds.append((["triangle", kind, "--n-max", tri, "--format", "json"],
                         tri_cells))
        for n in range(self.poly_n + 1):
            flag = "--lambda=%s" % lams[n % 2]
            form = ["--format", self._FORMATS[n % 4]]
            common = ["--n", str(n), flag] + form
            cmds.append((["poly", "bell-full"] + common, n + 1))
            cmds.append((["poly", "dowling-full", "--m", str(1 + n % 3)] + common, n + 1))
            cmds.append((["poly", "bernoulli-deg"] + common, n + 1))
            cmds.append((["poly", "bernoulli2-deg"] + common, n + 1))
            cmds.append((["poly", "polybell", "--k", "2"] + common, n + 1))
        # The CLI accepts 0 < lam < 1, but the series only converges for
        # lam < 1/2 (its terms grow like (lam / (1 - lam))^k), and near 1
        # the partial sums overflow a float.  3/7 converges within 200
        # terms.
        dob_lam = _lam(rng, 1, upper=Fraction(3, 7))
        x = Fraction(rng.randint(1, 9), rng.randint(2, 9))
        cmds.append((["dobinski", "--n", "5", "--x", str(x),
                      "--lambda=%s" % dob_lam, "--terms", str(self.terms)], 1))
        return cmds

    def run_pass(self, index: int) -> PassRecord:
        rec = PassRecord()
        timer = _Timer(rec)
        cmds = self.inputs(index)
        start = _clock()
        for argv, _ in cmds:
            rec.outputs.append(timer(_run_cli, argv))
        rec.wall_s = _clock() - start
        return rec

    def check_pass(self, index: int, rec: PassRecord) -> CheckResult:
        cmds = self.inputs(index)
        res = CheckResult(attempted=len(cmds))
        deg = {}
        for (argv, cells), (code, text) in zip(cmds, rec.outputs):
            ok = code == 0 and bool(text.strip())
            if ok and argv[1] in ("s1deg", "s2deg"):
                deg[(argv[1], argv[4])] = _parse_triangle(text)
            if ok and argv[0] == "dobinski":
                ok = _dobinski_converged(text)
            if ok:
                res.results += cells
            else:
                res.failed += 1
        for flag in {flag for _, flag in deg}:
            s1, s2 = deg.get(("s1deg", flag)), deg.get(("s2deg", flag))
            if s1 is None or s2 is None or not _mutually_inverse(s1, s2):
                res.failed += 1
        res.digest = _digest_all(text for _, text in rec.outputs)
        return res


def _parse_triangle(text: str) -> list:
    return [[Fraction(v) for v in row] for row in json.loads(text)["rows"]]


def _mutually_inverse(a: list, b: list) -> bool:
    """Exact check that two lower-triangular arrays multiply to the
    identity, computed here rather than by the library."""
    n = len(a)
    for i in range(n):
        for j in range(i + 1):
            acc = sum(a[i][k] * b[k][j] for k in range(j, i + 1))
            if acc != (1 if i == j else 0):
                return False
    return True


def _dobinski_converged(text: str) -> bool:
    for line in text.splitlines():
        if line.startswith("rel_error"):
            return float(line.split()[1]) < 1e-8
    return False


class Sheffer:
    """Library calls on the umbral layer at a high truncation cap."""

    name = "sheffer"

    def __init__(self, seed: int, smoke: bool, scratch):
        self.seed = seed
        self.cap = 5 if smoke else 16
        self.polys = 2 if smoke else 20

    def inputs(self, index: int):
        rng = random.Random("%d:sheffer:%d" % (self.seed, index))
        # At lam = 1/q the pair constructors and connections, which set
        # op_p90_ms here, cost about 0.75 of what they cost at any other
        # lam with the same q (1/5: 54 ms, 4/5: 74 ms), so p starts at 2.
        lam = _lam(rng, rng.choice((-1, 1)), min_p=2)
        polys = []
        for _ in range(self.polys):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(self.cap)]
            lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            polys.append(PolyX(coeffs + [lead]))
        return lam, polys

    def run_pass(self, index: int) -> PassRecord:
        lam, polys = self.inputs(index)
        cap = self.cap
        rec = PassRecord()
        t = _Timer(rec)
        out = rec.outputs
        start = _clock()
        bell = t(umbral.bell_pair, lam, cap)
        dow = t(umbral.dowling_pair, 2, lam, cap)
        bern = t(umbral.bernoulli_pair, lam, cap)
        bern2 = t(umbral.bernoulli2_pair, lam, cap)
        pbell = t(umbral.poly_bell_pair, 2, lam, cap)
        gen_bell = t(umbral.sheffer_generate, bell, cap)
        gen_dow = t(umbral.sheffer_generate, dow, cap)
        gen_b2 = t(umbral.sheffer_generate, bern2, cap)
        out += [("generate", gen_bell), ("generate", gen_dow), ("generate", gen_b2)]
        for src, dst in ((bern, bell), (bell, bern2), (pbell, bell), (bern, dow)):
            out.append(("connect", t(umbral.connection_coefficients, src, dst, cap)))
        for p in polys:
            for pair, basis in ((bell, gen_bell), (dow, gen_dow)):
                # One timed operation: change of basis and back.  Timed
                # apart, the fast combine and the slower expand would put
                # the median latency on the gap between two clusters.
                coeffs, back = t(_round_trip, p, pair, basis)
                out.append(("expand", coeffs, back, p))
        rec.wall_s = _clock() - start
        return rec

    def check_pass(self, index: int, rec: PassRecord) -> CheckResult:
        res = CheckResult(attempted=len(rec.op_s))
        texts = []
        for item in rec.outputs:
            kind = item[0]
            if kind == "generate":
                ok = all(p.degree == n for n, p in enumerate(item[1]))
                res.results += sum(len(p.coeffs) for p in item[1])
                texts.append(_canon(item[1]))
            elif kind == "connect":
                ok = isinstance(item[1], Triangle) and item[1].n_max == self.cap
                res.results += sum(len(row) for row in item[1].rows)
                texts.append(_canon(item[1]))
            else:
                _, coeffs, back, p = item
                ok = back == p
                res.results += len(coeffs)
                texts.append(_canon(coeffs))
            if not ok:
                res.failed += 1
        res.digest = _digest_all(texts)
        return res


def _round_trip(p, pair, basis):
    coeffs = umbral.expand_in_basis(p, pair)
    return coeffs, umbral.combine_basis(coeffs, basis)


def _canon(value) -> str:
    """Exact text form of a result: rationals as p/q, nested by brackets."""
    if isinstance(value, Triangle):
        return _canon([list(row) for row in value.rows])
    if isinstance(value, PolyX):
        return _canon(list(value.coeffs))
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    return str(value)

WORKLOADS = {w.name: w for w in (VerifySuite, Tables, Sheffer)}
