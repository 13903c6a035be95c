"""Rendering and serialization for triangles, polynomials, and reports.

Everything here is presentation only.  JSON output is deterministic
(sorted keys, fixed indentation) so identical inputs serialize to
identical bytes; rationals always travel as exact "p/q" strings.
"""

from __future__ import annotations

import json

from .algebra import PolyX, Triangle
from .rationals import format_rational, parse_rational


# ---------------------------------------------------------------------------
# triangles


def _triangle_payload(triangle: Triangle, kind: str, m=None, lam=None, r=None) -> dict:
    payload = {
        "kind": kind,
        "n_max": triangle.n_max,
        "rows": [[format_rational(v) for v in row] for row in triangle.rows],
    }
    if m is not None:
        payload["m"] = int(m)
    if lam is not None:
        payload["lambda"] = format_rational(lam)
    if r is not None:
        payload["r"] = int(r)
    return payload


def triangle_to_json(triangle: Triangle, kind: str, m=None, lam=None, r=None) -> str:
    return json.dumps(
        _triangle_payload(triangle, kind, m=m, lam=lam, r=r),
        indent=2,
        sort_keys=True,
    )


def triangle_from_json(text: str):
    """Inverse of triangle_to_json; returns (triangle, metadata)."""
    payload = json.loads(text)
    rows = tuple(
        tuple(parse_rational(v) for v in row) for row in payload["rows"]
    )
    meta = {k: v for k, v in payload.items() if k != "rows"}
    if "lambda" in meta:
        meta["lambda"] = parse_rational(meta["lambda"])
    return Triangle(rows), meta


def triangle_to_csv(triangle: Triangle) -> str:
    return "\n".join(
        ",".join(format_rational(v) for v in row) for row in triangle.rows
    )


def triangle_to_table(triangle: Triangle) -> str:
    cells = [[format_rational(v) for v in row] for row in triangle.rows]
    n_cols = triangle.n_max + 1
    widths = [len(str(k)) for k in range(n_cols)]
    for row in cells:
        for k, text in enumerate(row):
            widths[k] = max(widths[k], len(text))
    label = max(len("n\\k"), len(str(triangle.n_max)))
    header = "n\\k".rjust(label) + "  " + "  ".join(
        str(k).rjust(widths[k]) for k in range(n_cols)
    )
    lines = [header]
    for n, row in enumerate(cells):
        lines.append(
            str(n).rjust(label)
            + "  "
            + "  ".join(text.rjust(widths[k]) for k, text in enumerate(row))
        )
    return "\n".join(lines)


def _tex_rational(value) -> str:
    text = format_rational(value)
    if "/" not in text:
        return text
    num, den = text.split("/")
    sign = ""
    if num.startswith("-"):
        sign, num = "-", num[1:]
    return r"%s\frac{%s}{%s}" % (sign, num, den)


def triangle_to_tex(triangle: Triangle) -> str:
    n_cols = triangle.n_max + 1
    lines = [r"\begin{array}{%s}" % ("r" * n_cols)]
    for row in triangle.rows:
        padded = [_tex_rational(v) for v in row] + [""] * (n_cols - len(row))
        lines.append(" & ".join(padded) + r" \\")
    lines.append(r"\end{array}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# polynomials


def _join_terms(poly: PolyX, var: str, rational, power_fmt: str, times: str) -> str:
    """Nonzero terms highest degree first, each coefficient written by
    ``rational``, with the sign of each later term as ' + ' or ' - '."""
    if poly.is_zero():
        return "0"
    parts = []
    for k in range(poly.degree, -1, -1):
        c = poly.coeff(k)
        if not c:
            continue
        text = rational(c)
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        if k == 0:
            body = text
        else:
            power = var if k == 1 else power_fmt % (var, k)
            body = power if text == "1" else text + times + power
        if not parts:
            parts.append("-" + body if negative else body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


def format_poly(poly: PolyX, var: str = "x") -> str:
    """Human form, highest degree first: '3/2*x^2 - x + 1'."""
    return _join_terms(poly, var, format_rational, "%s^%d", "*")


def poly_to_json(poly: PolyX, **meta) -> str:
    payload = {"coeffs": [format_rational(c) for c in poly.coeffs]}
    for key, value in meta.items():
        if value is None:
            continue
        payload[key] = format_rational(value) if key == "lambda" else value
    return json.dumps(payload, indent=2, sort_keys=True)


def poly_from_json(text: str) -> PolyX:
    payload = json.loads(text)
    return PolyX([parse_rational(v) for v in payload["coeffs"]])


def poly_to_csv(poly: PolyX) -> str:
    return ",".join(format_rational(c) for c in poly.coeffs)


def poly_to_tex(poly: PolyX, var: str = "x") -> str:
    return _join_terms(poly, var, _tex_rational, "%s^{%d}", "")


def poly_to_table(poly: PolyX, name: str = "p") -> str:
    lines = ["%s(x) = %s" % (name, format_poly(poly))]
    lines.append("degree %d" % poly.degree)
    lines.append(
        "coeffs " + ", ".join(format_rational(c) for c in poly.coeffs)
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# verification reports

_GREEN = "\x1b[32m"
_RED = "\x1b[31m"
_RESET = "\x1b[0m"


def reports_to_json(reports) -> str:
    return json.dumps(
        [r.to_dict() for r in reports], indent=2, sort_keys=True
    )


def reports_to_table(reports, use_color: bool = False) -> str:
    width = max(len(r.identity.value) for r in reports)
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        if use_color:
            paint = _GREEN if r.passed else _RED
            status = paint + status + _RESET
        cert = "certified" if r.certified_polynomial_in_lambda else "checked"
        lines.append(
            "%s  %s  %s  points=%d  lambda_samples=%d/%d"
            % (
                status,
                r.identity.value.ljust(width),
                cert.ljust(9),
                len(r.points),
                r.distinct_passing_lambda_samples,
                r.lambda_degree_bound,
            )
        )
        if r.notes:
            lines.append("      note: %s" % r.notes)
        if r.witness is not None:
            params = ", ".join(
                "%s=%s" % (key, r.witness[key])
                for key in ("n", "lambda", "m", "k", "r")
                if r.witness.get(key) is not None
            )
            lines.append("      witness: %s" % params)
            if r.witness.get("detail"):
                lines.append("      %s" % r.witness["detail"])
    total = sum(1 for r in reports if r.passed)
    lines.append("%d/%d identities passed" % (total, len(reports)))
    return "\n".join(lines)
