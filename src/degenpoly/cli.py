"""Command line front end.

Thin dispatch only: parse arguments, call the library, render through
the output module.  Exit codes: 0 success, 1 verification failure,
2 usage or domain error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import families, output, triangles
from .rationals import parse_rational
from .verifier import IdentityId, SuiteConfig, run_full_suite, verify

N_MAX_LIMIT = 64


def _size(text: str) -> int:
    value = int(text)
    if not 0 <= value <= N_MAX_LIMIT:
        raise ValueError("size must be between 0 and %d" % N_MAX_LIMIT)
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("must be >= 0")
    return value


def _sample_list(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty sample list")
    return tuple(parse_rational(p) for p in parts)


# Options taking a rational.  argparse reads only tokens like -2 or -0.5
# as negative numbers, so a spaced "--lambda -1/3" would look like an
# unknown flag; main() joins such pairs into "--lambda=-1/3" first.
_RATIONAL_OPTIONS = ("--lambda", "--lambda-samples", "--x")
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _join_negative_values(argv: list) -> list:
    out = []
    for token in argv:
        if out and out[-1] in _RATIONAL_OPTIONS and _NEGATIVE_VALUE.match(token):
            out[-1] = "%s=%s" % (out[-1], token)
        else:
            out.append(token)
    return out


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _require(parser, args, flags):
    for flag, attr in flags:
        if getattr(args, attr) is None:
            parser.error("%s is required for %r" % (flag, args.kind))


# kind -> (required flags, builder).  Builders take the parsed args.
_TRIANGLE_KINDS = {
    "s1": ((), lambda a: triangles.stirling1(a.n_max)),
    "s2": ((), lambda a: triangles.stirling2(a.n_max)),
    "s1deg": (
        (("--lambda", "lam"),),
        lambda a: triangles.degenerate_stirling1(a.n_max, a.lam),
    ),
    "s2deg": (
        (("--lambda", "lam"),),
        lambda a: triangles.degenerate_stirling2(a.n_max, a.lam),
    ),
    "whitney-deg": (
        (("--m", "m"), ("--lambda", "lam")),
        lambda a: triangles.degenerate_whitney2(a.n_max, a.m, a.lam),
    ),
    "whitney-r1": (
        (("--m", "m"),),
        lambda a: triangles.r_whitney1(a.n_max, a.m, a.r),
    ),
    "whitney-r2": (
        (("--m", "m"),),
        lambda a: triangles.r_whitney2(a.n_max, a.m, a.r),
    ),
}

_POLY_FAMILIES = {
    "bell": ((), lambda a: families.bell_polynomial(a.n)),
    "bell-partial": (
        (("--lambda", "lam"),),
        lambda a: families.partial_degenerate_bell(a.n, a.lam),
    ),
    "bell-full": (
        (("--lambda", "lam"),),
        lambda a: families.fully_degenerate_bell(a.n, a.lam),
    ),
    "dowling": (
        (("--m", "m"),),
        lambda a: families.dowling_polynomial(a.n, a.m),
    ),
    "dowling-deg": (
        (("--m", "m"), ("--lambda", "lam")),
        lambda a: families.degenerate_dowling(a.n, a.m, a.lam),
    ),
    "dowling-full": (
        (("--m", "m"), ("--lambda", "lam")),
        lambda a: families.fully_degenerate_dowling(a.n, a.m, a.lam),
    ),
    "bernoulli-deg": (
        (("--lambda", "lam"),),
        lambda a: families.degenerate_bernoulli(a.n, a.lam),
    ),
    "bernoulli2-deg": (
        (("--lambda", "lam"),),
        lambda a: families.degenerate_bernoulli2(a.n, a.lam),
    ),
    "polybell": (
        (("--k", "k"), ("--lambda", "lam")),
        lambda a: families.degenerate_poly_bell(a.n, a.k, a.lam),
    ),
}


def _triangle_command(args, parser) -> int:
    required, build = _TRIANGLE_KINDS[args.kind]
    _require(parser, args, required)
    tri = build(args)
    uses_r = args.kind in ("whitney-r1", "whitney-r2")
    if args.format == "json":
        text = output.triangle_to_json(
            tri,
            args.kind,
            m=args.m,
            lam=args.lam,
            r=args.r if uses_r else None,
        )
    elif args.format == "csv":
        text = output.triangle_to_csv(tri)
    elif args.format == "tex":
        text = output.triangle_to_tex(tri)
    else:
        text = output.triangle_to_table(tri)
    _emit(text, args.out)
    return 0


def _poly_command(args, parser) -> int:
    required, build = _POLY_FAMILIES[args.kind]
    _require(parser, args, required)
    poly = build(args)
    if args.format == "json":
        text = output.poly_to_json(
            poly,
            family=args.kind,
            n=args.n,
            m=args.m,
            k=args.k,
            **{"lambda": args.lam},
        )
    elif args.format == "csv":
        text = output.poly_to_csv(poly)
    elif args.format == "tex":
        text = output.poly_to_tex(poly)
    else:
        text = output.poly_to_table(poly, name=args.kind)
    _emit(text, args.out)
    return 0


def _verify_command(args, parser) -> int:
    samples = None
    if args.lam is not None:
        samples = (args.lam,)
    elif args.lambda_samples is not None:
        samples = args.lambda_samples
    if args.identity == "all":
        cfg = SuiteConfig(n_max=args.n_max, lambda_samples=samples, seed=args.seed)
        reports = run_full_suite(cfg)
    else:
        reports = [
            verify(
                args.identity,
                n_max=args.n_max,
                lambda_samples=samples,
                seed=args.seed,
            )
        ]
    if args.format == "json":
        text = output.reports_to_json(reports)
        use_color = False
    else:
        use_color = (
            args.out is None
            and sys.stdout.isatty()
            and not os.environ.get("NO_COLOR")
        )
        text = output.reports_to_table(reports, use_color=use_color)
    _emit(text, args.out)
    return 0 if all(r.passed for r in reports) else 1


def _dobinski_command(args, parser) -> int:
    trace = families.dobinski_trace(args.n, args.lam, args.x, args.terms)
    lines = ["%6s  %s" % ("terms", "value")]
    for k, value in trace["checkpoints"]:
        lines.append("%6d  %.12e" % (k, value))
    lines.append("reference  %.12e" % trace["reference"])
    lines.append("final      %.12e" % trace["final"])
    lines.append("rel_error  %.3e" % trace["rel_error"])
    _emit("\n".join(lines), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenpoly",
        description=(
            "Exact special-number triangles, deformed polynomial families, "
            "and the identity verifier."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tri = sub.add_parser("triangle", help="emit a number triangle")
    tri.add_argument("kind", choices=sorted(_TRIANGLE_KINDS))
    tri.add_argument("--n-max", type=_size, default=8)
    tri.add_argument("--lambda", dest="lam", type=parse_rational, default=None)
    tri.add_argument("--m", type=_positive, default=None)
    tri.add_argument("--r", type=_nonnegative, default=1)
    tri.add_argument(
        "--format", choices=("json", "csv", "tex", "table"), default="table"
    )
    tri.add_argument("--out", default=None)
    tri.set_defaults(handler=_triangle_command)

    poly = sub.add_parser("poly", help="emit one family polynomial")
    poly.add_argument("kind", choices=sorted(_POLY_FAMILIES))
    poly.add_argument("--n", type=_size, required=True)
    poly.add_argument("--lambda", dest="lam", type=parse_rational, default=None)
    poly.add_argument("--m", type=_positive, default=None)
    poly.add_argument("--k", type=int, default=None)
    poly.add_argument(
        "--format", choices=("json", "csv", "tex", "table"), default="table"
    )
    poly.add_argument("--out", default=None)
    poly.set_defaults(handler=_poly_command)

    ver = sub.add_parser("verify", help="check identities on an exact grid")
    tags = sorted(t.value.lower() for t in IdentityId)
    ver.add_argument("identity", choices=tags + ["all"])
    ver.add_argument("--n-max", type=_size, default=8)
    group = ver.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=parse_rational, default=None)
    group.add_argument(
        "--lambda-samples", type=_sample_list, default=None,
        help="comma-separated rational sample points",
    )
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--format", choices=("table", "json"), default="table")
    ver.add_argument("--out", default=None)
    ver.set_defaults(handler=_verify_command)

    dob = sub.add_parser("dobinski", help="trace the numeric series summation")
    dob.add_argument("--n", type=_size, required=True)
    dob.add_argument("--x", type=parse_rational, required=True)
    dob.add_argument("--lambda", dest="lam", type=parse_rational, required=True)
    dob.add_argument("--terms", type=_nonnegative, default=200)
    dob.add_argument("--out", default=None)
    dob.set_defaults(handler=_dobinski_command)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_negative_values(argv))
    try:
        return args.handler(args, parser)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the pipe; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
