"""Per-layer tracing for the traced benchmark run.

The program itself has no spans yet, so this module records them from
the outside: it replaces public functions and methods of each degenpoly
module with wrappers that open a span on entry and close it on exit.
Every span knows its parent (the span open when it started), which is
what self time needs: a span's self time is its duration minus the time
covered by its direct children.  Spans are folded into per-name totals
as they close instead of being stored one by one; the hot algebra
methods run millions of times per pass.

Hooks are looked up by name.  A name that no longer exists (a later
refactor may remove it) is skipped with a warning on stderr and its
metrics read 0, so the traced run keeps working after the code under
test changes shape.
"""

from __future__ import annotations

import sys
import time
import types
from dataclasses import dataclass, field

_clock = time.perf_counter


@dataclass(frozen=True)
class Hook:
    """One traced name.

    ``metric`` is the per-layer metric prefix the span feeds; several
    hooks may share one (aliases such as ``__rmul__``, or the seven
    standard pair constructors).  ``owner`` is a module name, or
    ``module:Class`` for a method.
    """

    metric: str
    owner: str
    attr: str


def _hooks() -> list:
    alg = "degenpoly.algebra"
    egf, polyx = alg + ":EgfSeries", alg + ":PolyX"
    hooks = [
        Hook("algebra.egf_mul", egf, "__mul__"),
        Hook("algebra.egf_mul", egf, "__rmul__"),
        Hook("algebra.egf_compose", egf, "compose"),
        Hook("algebra.egf_comp_inverse", egf, "comp_inverse"),
        Hook("algebra.egf_reciprocal", egf, "reciprocal"),
        Hook("algebra.polyx_mul", polyx, "__mul__"),
        Hook("algebra.polyx_mul", polyx, "__rmul__"),
        Hook("algebra.polyx_add", polyx, "__add__"),
        Hook("algebra.polyx_add", polyx, "__radd__"),
        Hook("algebra.polyx_eval", polyx, "__call__"),
        Hook("algebra.to_falling_basis", alg, "to_lambda_falling_basis"),
    ]
    for name in ("degenerate_exp", "lambda_log_series", "lambda_falling"):
        hooks.append(Hook("kernels." + name, "degenpoly.kernels", name))
    for name in TRIANGLE_FUNCS:
        hooks.append(Hook("triangles." + name, "degenpoly.triangles", name))
    for name in FAMILY_FUNCS:
        hooks.append(Hook("families." + name, "degenpoly.families", name))
    for name in ("sheffer_generate", "connection_coefficients",
                 "expand_in_basis", "combine_basis"):
        hooks.append(Hook("umbral." + name, "degenpoly.umbral", name))
    for name in PAIR_CTORS:
        hooks.append(Hook("umbral.pair_ctor", "degenpoly.umbral", name))
    for name in RENDER_FUNCS:
        hooks.append(Hook("output.render", "degenpoly.output", name))
    hooks.append(Hook("cli.main", "degenpoly.cli", "main"))
    return hooks


TRIANGLE_FUNCS = (
    "stirling1", "stirling2", "degenerate_stirling1", "degenerate_stirling2",
    "degenerate_whitney2", "r_whitney1", "r_whitney2",
    "enumerate_colored_partitions",
)
FAMILY_FUNCS = (
    "fully_degenerate_bell", "fully_degenerate_dowling",
    "degenerate_bernoulli", "degenerate_bernoulli2", "degenerate_poly_bell",
    "dobinski_eval", "dobinski_trace",
)
PAIR_CTORS = (
    "falling_pair", "bell_pair", "bernoulli_pair", "bernoulli2_pair",
    "poly_bell_pair", "dowling_pair", "rescaled_bell_pair",
)
RENDER_FUNCS = (
    "triangle_to_json", "triangle_to_csv", "triangle_to_table",
    "triangle_to_tex", "poly_to_json", "poly_to_csv", "poly_to_tex",
    "poly_to_table", "reports_to_json", "reports_to_table",
)
IDENTITIES = (
    "EQ_1A_2A_ORTHO", "EQ_3A_4A_ORTHO", "LEMMA1", "THM2_DOBINSKI", "THM3_GF",
    "EQ25_ADDITION", "THM5", "THM6", "THM7", "THM8", "THM9_ROUNDTRIP",
    "THM10", "THM11", "EQ56_CLOSING", "STIRLING_ORTHO", "DEG_STIRLING_ORTHO",
    "POLYBELL_K1_IS_BERNOULLI", "LIMIT_LAMBDA0_SUITE", "WHITNEY_ORACLE",
)

# (metric prefix, suffixes) for every name-derived per-layer metric.
_ALGEBRA = ("egf_mul", "egf_compose", "egf_comp_inverse", "egf_reciprocal",
            "polyx_mul", "polyx_add", "polyx_eval", "to_falling_basis")
SPAN_METRICS = (
    [("algebra." + n, ("calls", "self_s")) for n in _ALGEBRA]
    + [("kernels." + n, ("calls", "s"))
       for n in ("degenerate_exp", "lambda_log_series", "lambda_falling")]
    + [("triangles." + n, ("calls", "s")) for n in TRIANGLE_FUNCS]
    + [("families." + n, ("calls", "s")) for n in FAMILY_FUNCS]
    + [("umbral." + n, ("calls", "s"))
       for n in ("sheffer_generate", "connection_coefficients",
                 "expand_in_basis", "combine_basis", "pair_ctor")]
    + [("output.render", ("calls", "s")), ("cli.main", ("calls", "self_s"))]
)

_SAMPLE_EVERY = 97
_SAMPLE_CAP = 256


@dataclass
class _Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class _Frame:
    metric: str
    layer: str
    child: float = 0.0


@dataclass
class Tracer:
    """Span stack plus per-metric totals for one traced process."""

    stats: dict = field(default_factory=dict)
    stack: list = field(default_factory=list)
    open_by_metric: dict = field(default_factory=dict)
    open_by_layer: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    scalars: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    _undo: list = field(default_factory=list)
    _warned: bool = False
    _seen_mul: int = 0

    # -- span bookkeeping -------------------------------------------------

    def _count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _enter(self, metric: str) -> _Frame:
        layer = metric.split(".", 1)[0]
        if layer == "triangles" and self.open_by_layer.get("families"):
            self._count("triangle_builds_under_family")
        if metric == "algebra.egf_mul" and self.open_by_metric.get(
            "umbral.expand_in_basis"
        ):
            self._count("egf_mul_under_expand")
        frame = _Frame(metric, layer)
        self.stack.append(frame)
        self.open_by_metric[metric] = self.open_by_metric.get(metric, 0) + 1
        self.open_by_layer[layer] = self.open_by_layer.get(layer, 0) + 1
        return frame

    def _exit(self, frame: _Frame, elapsed: float):
        self.stack.pop()
        self.open_by_metric[frame.metric] -= 1
        self.open_by_layer[frame.layer] -= 1
        if self.stack:
            self.stack[-1].child += elapsed
        stat = self.stats.get(frame.metric)
        if stat is None:
            stat = self.stats[frame.metric] = _Stat()
        stat.calls += 1
        stat.total += elapsed
        stat.self_time += elapsed - frame.child
        if frame.metric == "algebra.egf_comp_inverse" and self.open_by_layer.get(
            "umbral"
        ):
            self._count("comp_inverse_under_umbral_s", elapsed)
        if frame.layer == "umbral" and not self.open_by_layer["umbral"]:
            self._count("umbral_outer_s", elapsed)

    def _wrap(self, metric: str, fn):
        tracer = self
        enter, leave = self._enter, self._exit
        if metric == "algebra.egf_mul":
            def traced(*args, **kwargs):
                symbolic = tracer._has_polyx(args)
                frame = enter(metric)
                start = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = _clock() - start
                    leave(frame, elapsed)
                    if symbolic:
                        tracer._count("egf_mul_polyx")
                        tracer._count("egf_mul_polyx_s", elapsed)
                tracer._sample(result)
                return result
        elif metric == "output.render":
            def traced(*args, **kwargs):
                frame = enter(metric)
                start = _clock()
                try:
                    text = fn(*args, **kwargs)
                finally:
                    leave(frame, _clock() - start)
                tracer._count("output_bytes", len(text.encode("utf-8")))
                return text
        else:
            def traced(*args, **kwargs):
                frame = enter(metric)
                start = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame, _clock() - start)
        traced.__name__ = getattr(fn, "__name__", metric)
        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _has_polyx(args) -> bool:
        polyx = sys.modules["degenpoly.algebra"].PolyX
        return any(
            isinstance(v, polyx)
            for operand in args[:2]
            for v in getattr(operand, "a", ())
        )

    def _sample(self, result):
        """Keep a deterministic sample of product coefficients; they feed
        the scalar multiply-add timing."""
        self._seen_mul += 1
        if self._seen_mul % _SAMPLE_EVERY or len(self.scalars) >= _SAMPLE_CAP:
            return
        coeffs = getattr(result, "a", ())
        if not coeffs:
            return
        value = coeffs[len(coeffs) // 2]
        inner = getattr(value, "coeffs", None)
        if inner is not None:
            value = inner[len(inner) // 2] if inner else None
        if value:
            self.scalars.append(value)

    # -- installing hooks -------------------------------------------------

    def _resolve(self, owner: str):
        module_name, _, class_name = owner.partition(":")
        module = sys.modules.get(module_name)
        if module is None or not class_name:
            return module
        return getattr(module, class_name, None)

    def _replace(self, target, attr: str, new):
        old = vars(target)[attr]
        setattr(target, attr, new)
        self._undo.append((target, attr, old))

    def install(self):
        """Wrap every hooked name, including aliases of it bound by value
        in other degenpoly modules (``from .algebra import ...``)."""
        self.missing = []
        wrapped = {}
        for hook in _hooks():
            target = self._resolve(hook.owner)
            if target is None or hook.attr not in vars(target):
                self.missing.append("%s.%s" % (hook.owner, hook.attr))
                continue
            original = vars(target)[hook.attr]
            if id(original) not in wrapped:
                wrapped[id(original)] = (original, self._wrap(hook.metric, original))
            self._replace(target, hook.attr, wrapped[id(original)][1])
        for name, module in list(sys.modules.items()):
            if not name.startswith("degenpoly") or not isinstance(module, types.ModuleType):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    self._replace(module, attr, entry[1])
        self._wrap_checkers()
        if not self._warned:
            for name in self.missing:
                print("perfbench: hook %s not found; its metrics read 0" % name,
                      file=sys.stderr)
            self._warned = True

    def _wrap_checkers(self):
        verifier = sys.modules.get("degenpoly.verifier")
        table = getattr(verifier, "_CHECKERS", None)
        if not isinstance(table, dict):
            self.missing.append("degenpoly.verifier._CHECKERS")
            return
        for key, checker in list(table.items()):
            ident = getattr(key, "value", str(key))
            table[key] = self._wrap("verifier." + ident, checker)
            self._undo.append((table, key, checker))

    def uninstall(self):
        while self._undo:
            target, attr, old = self._undo.pop()
            if isinstance(target, dict):
                target[attr] = old
            else:
                setattr(target, attr, old)

    # -- results ----------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-pass per-layer metrics from everything traced so far."""
        out = {}
        per = max(passes, 1)

        def stat(metric):
            return self.stats.get(metric, _Stat())

        for metric, suffixes in SPAN_METRICS:
            s = stat(metric)
            values = {"calls": s.calls / per, "s": s.total / per,
                      "self_s": s.self_time / per}
            for suffix in suffixes:
                out["%s.%s" % (metric, suffix)] = values[suffix]
        for ident in IDENTITIES:
            out["verifier.%s.s" % ident] = stat("verifier." + ident).total / per
        c = self.counters
        # The share of products with symbolic-x operands, by count and
        # by time: most products are cheap scalar ones, so a few slow
        # PolyX-coefficient products can carry much of the time.
        out["algebra.egf_mul.polyx_coeff_frac"] = _ratio(
            c.get("egf_mul_polyx", 0), stat("algebra.egf_mul").calls)
        out["algebra.egf_mul.polyx_time_frac"] = _ratio(
            c.get("egf_mul_polyx_s", 0.0), stat("algebra.egf_mul").total)
        family_polys = sum(
            stat("families." + n).calls
            for n in FAMILY_FUNCS if not n.startswith("dobinski")
        )
        out["families.triangle_builds_per_poly"] = _ratio(
            c.get("triangle_builds_under_family", 0), family_polys)
        out["umbral.expand_in_basis.egf_mul_per_call"] = _ratio(
            c.get("egf_mul_under_expand", 0), stat("umbral.expand_in_basis").calls)
        out["umbral.comp_inverse_share"] = _ratio(
            c.get("comp_inverse_under_umbral_s", 0.0), c.get("umbral_outer_s", 0.0))
        out["output.bytes"] = c.get("output_bytes", 0) / per
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def muladd_ns(scalars: list, rounds: int = 15) -> float:
    """Median time of one exact multiply-add over pairs of sampled
    coefficients, in nanoseconds."""
    if len(scalars) < 2:
        return 0.0
    pairs = list(zip(scalars, scalars[1:] + scalars[:1]))
    zero = scalars[0] - scalars[0]
    times = []
    for _ in range(rounds):
        acc = zero
        start = _clock()
        for a, b in pairs:
            acc = acc + a * b
        times.append((_clock() - start) / len(pairs))
    times.sort()
    return times[len(times) // 2] * 1e9
