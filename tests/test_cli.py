"""Command line behavior: golden outputs, serialization round trips,
exit codes, and file output."""

import hashlib
import json
import subprocess
import sys

import pytest

import degenpoly.triangles as triangles
from degenpoly.algebra import Triangle
from degenpoly.cli import main
from degenpoly.output import poly_from_json, triangle_from_json
from degenpoly.rationals import Q
from degenpoly.families import degenerate_bernoulli
from degenpoly.triangles import degenerate_stirling1


# sha256 of the stdout of `degenpoly <argv>` for outputs at the tables
# benchmark's size; every triangle constructor and one family polynomial
# built from a series reciprocal are among them.
GOLDEN_OUTPUTS = (
    (("triangle", "whitney-r1", "--n-max", "24", "--m", "3", "--r", "2",
      "--format", "json"),
     "b05971bde0cc3e6d64b65e3b2ff9eb02386a4dc16a32a75ecb9fd938a5485df8"),
    (("triangle", "whitney-r2", "--n-max", "24", "--m", "3", "--r", "2",
      "--format", "json"),
     "1dc6c34530fc7b071ddf85f359144e8d2d70c9e9dffc06a938e82a14e5f5ae6f"),
    (("triangle", "s1deg", "--n-max", "24", "--lambda=-5/11", "--format", "json"),
     "95bb63dd1db73f631078c1ac8e58367c73eca3e61bfc26815a42d778700f0128"),
    (("triangle", "whitney-deg", "--n-max", "24", "--m", "3", "--lambda=12/13",
      "--format", "json"),
     "e164d86758979db954fd4f8951fa69eb9849a0129256aaaa61ebf88b0b1e9bbe"),
    (("poly", "bernoulli-deg", "--n", "20", "--lambda=-5/11", "--format", "json"),
     "9cd1db1bee870cdfde9488b92ad31908c5a51bfd9f20810974d29fc95e80214a"),
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triangle_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "triangle", "s2", "--n-max", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1"
    assert lines[-1] == "0,1,7,6,1"


@pytest.mark.parametrize(
    "argv, sha", GOLDEN_OUTPUTS, ids=["-".join(a[:2]) for a, _ in GOLDEN_OUTPUTS]
)
def test_golden_output_bytes(capsys, argv, sha):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_triangle_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "triangle", "s1deg", "--n-max", "5", "--lambda", "1/2",
        "--format", "json",
    )
    assert code == 0
    tri, meta = triangle_from_json(out)
    assert meta["kind"] == "s1deg"
    assert meta["lambda"] == Q(1, 2)
    assert tri.rows == degenerate_stirling1(5, Q(1, 2)).rows


def test_triangle_table_and_tex(capsys):
    code, out, _ = run_cli(capsys, "triangle", "s2", "--n-max", "3")
    assert code == 0
    assert "n\\k" in out
    code, out, _ = run_cli(capsys, "triangle", "s2", "--n-max", "3", "--format", "tex")
    assert code == 0
    assert out.startswith("\\begin{array}")
    assert out.rstrip().endswith("\\end{array}")


def test_triangle_whitney_r_flag(capsys):
    code, out, _ = run_cli(
        capsys, "triangle", "whitney-r2", "--n-max", "3", "--m", "2", "--r", "0",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 2 and payload["r"] == 0
    # column 0 is r^n
    assert [row[0] for row in payload["rows"]] == ["1", "0", "0", "0"]


def test_poly_csv_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "poly", "bell-full", "--n", "2", "--lambda", "1/3", "--format", "csv"
    )
    assert code == 0
    assert out.strip() == "0,1/3,1"
    code, out, _ = run_cli(
        capsys, "poly", "bernoulli-deg", "--n", "3", "--lambda", "1/2",
        "--format", "json",
    )
    assert code == 0
    assert poly_from_json(out) == degenerate_bernoulli(3, Q(1, 2))
    payload = json.loads(out)
    assert payload["family"] == "bernoulli-deg"
    assert payload["lambda"] == "1/2"


def test_poly_table_output(capsys):
    code, out, _ = run_cli(capsys, "poly", "bell", "--n", "3")
    assert code == 0
    assert "x^3" in out
    assert "degree 3" in out


def test_verify_single_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma1", "--n-max", "3")
    assert code == 0
    assert "PASS" in out and "LEMMA1" in out
    assert "\x1b[" not in out  # no color when capture is not a tty


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--n-max", "2")
    assert code == 0
    assert "19/19 identities passed" in out


def test_verify_all_at_n_max_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--n-max", "0")
    assert code == 0
    assert "19/19 identities passed" in out


def test_verify_json_deterministic(capsys):
    args = ("verify", "thm6", "--n-max", "3", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload[0]["identity"] == "THM6"
    assert payload[0]["passed"] is True


def test_verify_single_lambda(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "lemma1", "--n-max", "3", "--lambda", "2/5"
    )
    assert code == 0
    # a single sample cannot clear the degree bound
    assert "lambda_samples=1/12" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    original = triangles.degenerate_stirling2

    def corrupted(n_max, lam):
        tri = original(n_max, lam)
        rows = [list(r) for r in tri.rows]
        if n_max >= 2:
            rows[2][1] = rows[2][1] + 1
        return Triangle(tuple(tuple(r) for r in rows))

    monkeypatch.setattr(triangles, "degenerate_stirling2", corrupted)
    code, out, _ = run_cli(capsys, "verify", "lemma1", "--n-max", "4")
    assert code == 1
    assert "FAIL" in out
    assert "witness" in out


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["triangle", "s2deg", "--n-max", "3"])  # missing --lambda
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["triangle", "nosuch"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not_a_tag"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["triangle", "s2", "--n-max", "900"])  # size cap
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["poly", "polybell", "--n", "2", "--lambda", "x"])  # bad rational
    assert exc.value.code == 2
    capsys.readouterr()


def test_domain_errors_exit_two(capsys):
    code, out, err = run_cli(
        capsys, "dobinski", "--n", "2", "--x", "1", "--lambda", "3/2"
    )
    assert code == 2
    assert not out
    assert "0 < lam < 1" in err


def test_dobinski_trace_output(capsys):
    code, out, _ = run_cli(
        capsys, "dobinski", "--n", "3", "--x", "1", "--lambda", "1/10",
        "--terms", "40",
    )
    assert code == 0
    assert "reference" in out and "rel_error" in out
    # converged: last checkpoint equals the final value text
    assert "final" in out


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "tri.json"
    code, out, _ = run_cli(
        capsys, "triangle", "s2", "--n-max", "3", "--format", "json",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""  # nothing on stdout when writing to a file
    tri, meta = triangle_from_json(target.read_text())
    assert meta["kind"] == "s2"
    assert tri[3, 2] == 3


def test_no_color_env(capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True, raising=False)
    code, out, _ = run_cli(capsys, "verify", "stirling_ortho", "--n-max", "3")
    assert code == 0
    assert "\x1b[" not in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "degenpoly", "triangle", "s2", "--n-max", "2",
         "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines() == ["1", "0,1", "0,1,1"]


def test_negative_rationals_after_a_space(capsys):
    spaced = run_cli(capsys, "poly", "bell-full", "--n", "3", "--lambda", "-1/3")
    joined = run_cli(capsys, "poly", "bell-full", "--n", "3", "--lambda=-1/3")
    assert spaced[0] == 0
    assert spaced == joined
    spaced = run_cli(
        capsys, "dobinski", "--n", "2", "--x", "-1/2", "--lambda", "1/3",
        "--terms", "20",
    )
    joined = run_cli(
        capsys, "dobinski", "--n", "2", "--x=-1/2", "--lambda", "1/3",
        "--terms", "20",
    )
    assert spaced[0] == 0
    assert spaced == joined
    spaced = run_cli(
        capsys, "verify", "lemma1", "--n-max", "2", "--lambda-samples", "-1/7,2/9",
    )
    joined = run_cli(
        capsys, "verify", "lemma1", "--n-max", "2", "--lambda-samples=-1/7,2/9",
    )
    assert spaced[0] == 0
    assert spaced == joined
    # decimals already worked through argparse and keep working
    code, out, _ = run_cli(capsys, "poly", "bell-full", "--n", "2", "--lambda", "-0.5")
    assert code == 0 and out == run_cli(
        capsys, "poly", "bell-full", "--n", "2", "--lambda", "-1/2"
    )[1]


def test_dobinski_float_overflow_is_a_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "dobinski", "--n", "4", "--x", "1", "--lambda", "12/13",
        "--terms", "1000",
    )
    assert code == 2
    assert not out
    assert err.startswith("error: dobinski partial sum overflows a float")
    assert "Traceback" not in err


def test_dobinski_divergent_series_is_a_domain_error(capsys):
    # the terms grow like (lam/(1 - lam))^k: both runs used to exit 0
    # with a huge rel_error
    for lam, x in (("1/2", "1/9"), ("3/5", "1/3")):
        code, out, err = run_cli(
            capsys, "dobinski", "--n", "3", "--lambda=" + lam, "--x=" + x,
            "--terms", "1000",
        )
        assert code == 2
        assert not out
        assert err.startswith("error: dobinski series diverges at lam=%s" % lam)
    # lam = 1/2 with x/lam = 2 terminates and stays accepted
    code, out, _ = run_cli(
        capsys, "dobinski", "--n", "3", "--lambda=1/2", "--x=1", "--terms", "100"
    )
    assert code == 0
    assert "rel_error  0.000e+00" in out
