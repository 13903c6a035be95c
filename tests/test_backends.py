"""Backend parity: gmpy2 and the fractions fallback must give the same
bytes for a verification report, a generated Sheffer basis, a change of
basis there and back, and the CLI's golden triangle and family outputs."""

import contextlib
import io
import random
import subprocess
import sys
from pathlib import Path

import pytest

import degenpoly
from degenpoly.cli import main
from degenpoly.algebra import PolyX
from degenpoly.output import poly_to_csv
from degenpoly.rationals import Q
from degenpoly.umbral import (
    combine_basis,
    dowling_pair,
    expand_in_basis,
    sheffer_generate,
)
from test_cli import GOLDEN_OUTPUTS

SRC = Path(degenpoly.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent

CHILD = """
import sys
sys.modules["gmpy2"] = None
sys.path[:0] = [{src!r}, {tests!r}]
from pathlib import Path
from degenpoly import rationals
assert rationals._BACKEND == "fractions", rationals._BACKEND
import test_backends
test_backends.write_outputs(Path({out!r}))
"""


def write_outputs(out_dir: Path) -> None:
    """The verify-all JSON report at n_max 4, a cap-16 generated basis,
    seeded polynomials expanded in that basis and combined back, and the
    stdout of each command in test_cli.GOLDEN_OUTPUTS."""
    code = main(
        ["verify", "all", "--n-max", "4", "--format", "json",
         "--out", str(out_dir / "verify.json")]
    )
    assert code == 0
    pair = dowling_pair(2, Q(-2, 5), 16)
    polys = sheffer_generate(pair, 16)
    (out_dir / "sheffer.csv").write_text("\n".join(poly_to_csv(p) for p in polys))
    rng = random.Random(16)
    lines = []
    for degree in range(-1, 17):
        p = PolyX([Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)])
        coeffs = expand_in_basis(p, pair)
        back = combine_basis(coeffs, polys)
        assert back == p
        lines += [poly_to_csv(PolyX(coeffs)), poly_to_csv(back)]
    (out_dir / "round_trip.csv").write_text("\n".join(lines))
    texts = []
    for argv, _ in GOLDEN_OUTPUTS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(argv)) == 0
        texts.append(buf.getvalue())
    (out_dir / "triangles.csv").write_text("".join(texts))


def test_gmpy2_and_fractions_backends_agree(tmp_path):
    try:
        import gmpy2  # noqa: F401
    except ImportError:
        pytest.skip("gmpy2 is absent: the fractions backend is the only one here")
    from degenpoly import rationals

    assert rationals._BACKEND == "gmpy2"
    native, fallback = tmp_path / "gmpy2", tmp_path / "fractions"
    native.mkdir()
    fallback.mkdir()
    write_outputs(native)
    script = CHILD.format(src=str(SRC), tests=str(TESTS), out=str(fallback))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("verify.json", "sheffer.csv", "round_trip.csv", "triangles.csv"):
        assert (native / name).read_bytes() == (fallback / name).read_bytes(), name
