"""degenpoly benchmark.

One workload per process:

    python3 perfbench/run.py --workload tables --seed 3 --seconds 30 --trace 0

runs the workload as a single-threaded closed loop for ``--seconds`` of
timed calls, checks every output, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The end-to-end times are given at a fixed reference speed.  The host's
speed drifts by up to a factor of two over minutes, so raw times of the
same code move with the host's load more than with the code.  A
reference kernel (exact rational series products and a triangle
recurrence, using only the standard library, so no change to degenpoly
can move it) is timed before the first pass and after every pass; each
pass's times are multiplied by ``REF_KERNEL_S`` over the mean of the
kernel's two timings around it, and each set-up time likewise.  The
raw median pass time and the kernel's median are printed on the
``samples:`` line.  Per-layer times stay raw: they compare layers
within one run.

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones, from
a run that first times some passes untraced and then the same passes
with every public degenpoly function wrapped in spans (see tracer.py).

    python3 perfbench/run.py --workload all [--smoke]

runs every workload untraced and then traced, each in a fresh process,
and prints every metric by name with its unit; its last stdout line is
the whole summary as JSON, run metadata included (perfbench/baseline.json
is that line of a seed-0 run, indented).  ``--smoke`` shrinks all
sizes so the whole benchmark finishes in seconds (perfbench/test_smoke.py
uses it).  ``--workload all --write-digests`` re-records the reference
digests of the default seed; do that only on purpose, after checking the
outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "reference_digests.json"
WORKLOAD_NAMES = ("verify-suite", "tables", "sheffer")
DEFAULT_SEED = 0
SETUP_REPEATS = 7
# Reference digests cover this many passes of the default seed; later
# passes are still checked exactly, just not byte for byte.
DIGEST_PASSES = 24
CHILD_TIMEOUT_S = 900
# The reference kernel's time at the reference speed: about its median on
# the 2-vCPU Xeon virtual machine the baseline was recorded on.
REF_KERNEL_S = 0.1
REF_KERNEL_TERMS = 24
REF_KERNEL_ROUNDS = 16

_clock = time.perf_counter

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "results_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


_LAYER_UNITS = {"calls": "count", "points_total": "count",
                "lambda_samples": "count", "s": "s", "self_s": "s",
                "muladd_ns": "ns", "bytes": "B"}


def per_layer_unit(name: str) -> str:
    return _LAYER_UNITS.get(name.rsplit(".", 1)[-1], "ratio")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--write-digests", action="store_true")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up


def setup(args, scratch: Path):
    """Everything a run needs before its first timed call: the package
    import, the workload's inputs for the first pass, reference digests."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.smoke, scratch)
    workload.inputs(0)
    refs = []
    if args.seed == DEFAULT_SEED and not args.smoke and DIGESTS.is_file():
        refs = json.loads(DIGESTS.read_text()).get(args.workload, [])
    return workload, refs


def measure_setup(args) -> list:
    """CPU time of a fresh interpreter doing the set-up and exiting,
    repeated and scaled to the reference speed; process start-up is part
    of what a user waits for.  CPU rather than wall time, because on a
    shared machine the wall time of a 0.1 s process jumps by whole
    scheduler slices."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        argv.append("--smoke")
    times = []
    kernel_before = reference_kernel_s()
    for _ in range(SETUP_REPEATS):
        before = _children_cpu_s()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL,
                       timeout=CHILD_TIMEOUT_S)
        cpu = _children_cpu_s() - before
        kernel_after = reference_kernel_s()
        times.append(cpu * _scale(kernel_before, kernel_after))
        kernel_before = kernel_after
    return times


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------------
# the reference speed


def reference_kernel_s() -> float:
    """Wall time of a fixed amount of exact rational work like the
    program's own inner loops, done with the standard library alone:
    truncated series products with binomial weights, and the recurrence
    of a degenerate Stirling triangle.  The cyclic collector is off
    while it runs, so the program's heap cannot slow it."""
    n = REF_KERNEL_TERMS
    a = [Fraction(1, k + 2) for k in range(n)]
    b = [Fraction(-(k + 1), 2 * k + 3) for k in range(n)]
    binom = [[comb(m, i) for i in range(m + 1)] for m in range(n)]
    lam = Fraction(5, 11)
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = _clock()
        for _ in range(REF_KERNEL_ROUNDS):
            [sum(binom[m][i] * a[i] * b[m - i] for i in range(m + 1))
             for m in range(n)]
            row = [Fraction(1)]
            for m in range(n):
                new = [Fraction(0)] * (m + 2)
                for k, v in enumerate(row):
                    new[k + 1] += v
                    new[k] += (k - m * lam) * v
                row = new
        return _clock() - start
    finally:
        if enabled:
            gc.enable()


def _scale(kernel_before: float, kernel_after: float) -> float:
    """Factor that turns a time measured between two kernel timings into
    a time at the reference speed."""
    return REF_KERNEL_S * 2 / (kernel_before + kernel_after)


# ---------------------------------------------------------------------------
# the closed loop


class Totals:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.pass_results = []
        self.pass_wall = []
        self.pass_scale = []
        self.kernel_s = []
        self.op_s = []
        self.layer_counts = {}


def run_loop(workload, refs, seconds: float, totals: Totals, tracer=None):
    """Run passes 0, 1, ... until ``seconds`` of timed calls have passed
    (at least one pass).  Checks run after each pass, outside the timed
    calls and with tracing removed.  A pass that raises ends the loop and
    counts as one failed operation.  The reference kernel runs before
    the first pass and after each pass, outside the timed calls."""
    busy = 0.0
    index = 0
    kernel_before = reference_kernel_s()
    totals.kernel_s.append(kernel_before)
    while True:
        try:
            if tracer is None:
                rec = workload.run_pass(index)
            else:
                tracer.install()
                try:
                    rec = workload.run_pass(index)
                finally:
                    tracer.uninstall()
        except Exception:
            traceback.print_exc()
            totals.attempted += 1
            totals.failed += 1
            return
        kernel_after = reference_kernel_s()
        totals.kernel_s.append(kernel_after)
        scale = _scale(kernel_before, kernel_after)
        kernel_before = kernel_after
        check = workload.check_pass(index, rec)
        if index < len(refs) and check.digest != refs[index]:
            print("perfbench: pass %d output digest differs from the reference"
                  % index, file=sys.stderr)
            check.failed = max(check.failed, 1)
        totals.attempted += check.attempted
        totals.failed += check.failed
        totals.pass_results.append(check.results)
        totals.pass_wall.append(rec.wall_s)
        totals.pass_scale.append(scale)
        totals.op_s.extend(t * scale for t in rec.op_s)
        for key, value in check.layer_counts.items():
            totals.layer_counts[key] = totals.layer_counts.get(key, 0) + value
        busy += rec.wall_s
        index += 1
        if busy >= seconds:
            return


def _quantile(values: list, q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _scaled_walls(totals: Totals) -> list:
    return [w * f for w, f in zip(totals.pass_wall, totals.pass_scale)]


def end_to_end_metrics(totals: Totals, setup_times: list) -> dict:
    """Every time here is at the reference speed (see the module doc)."""
    ops_ms = [t * 1e3 for t in totals.op_s]
    walls = _scaled_walls(totals)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "results_per_s": statistics.median(
            r / w for r, w in zip(totals.pass_results, walls)),
        "op_p50_ms": _quantile(ops_ms, 50),
        "op_p90_ms": _quantile(ops_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(workload, refs, seconds: float, totals: Totals) -> dict:
    """Untraced passes for a third of the time, then the same passes
    traced.  Per-layer figures are per traced pass; the overhead compares
    each traced pass with the untraced run of the same inputs."""
    import tracer as tracing

    untraced = Totals()
    run_loop(workload, refs, seconds / 3, untraced)
    tracer = tracing.Tracer()
    run_loop(workload, refs, seconds * 2 / 3, totals, tracer)
    totals.attempted += untraced.attempted
    totals.failed += untraced.failed
    passes = len(totals.pass_wall)
    metrics = tracer.metrics(passes)
    for key in ("verifier.points_total", "verifier.lambda_samples"):
        metrics[key] = totals.layer_counts.get(key, 0) / max(passes, 1)
    metrics["rationals.muladd_ns"] = tracing.muladd_ns(tracer.scalars)
    pairs = list(zip(_scaled_walls(untraced), _scaled_walls(totals)))
    metrics["trace.overhead_frac"] = (
        statistics.median((t - u) / u for u, t in pairs) if pairs else 0.0)
    return dict(sorted(metrics.items()))


@contextlib.contextmanager
def scratch_dir():
    """A private directory inside the checkout for files the program
    writes (the verify report), removed afterwards."""
    path = ROOT / ".bench_build" / ("perfbench-%d" % os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_one(args) -> int:
    with scratch_dir() as scratch:
        if args.setup_only:
            setup(args, scratch)
            return 0
        setup_times = measure_setup(args) if not args.trace else []
        workload, refs = setup(args, scratch)
        totals = Totals()
        if args.trace:
            values = traced_metrics(workload, refs, args.seconds, totals)
        else:
            run_loop(workload, refs, args.seconds, totals)
    if not totals.pass_wall:
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    if args.trace:
        units = {k: per_layer_unit(k) for k in values}
    else:
        values = end_to_end_metrics(totals, setup_times)
        units = E2E_UNITS
    samples = {"passes": len(totals.pass_wall), "ops": len(totals.op_s),
               "setup_runs": len(setup_times),
               "raw_wall_s": statistics.median(totals.pass_wall),
               "reference_kernel_s": statistics.median(totals.kernel_s)}
    print("samples: " + json.dumps(samples))
    print(json.dumps({
        "correct": totals.failed == 0,
        "attempted": max(totals.attempted, 1),
        "failed": totals.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# every workload, and the reference digests


def _child(args, workload: str, trace: int):
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace)]
    if args.smoke:
        argv.append("--smoke")
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise RuntimeError("%s (trace %d) failed with exit code %d"
                           % (workload, trace, proc.returncode))
    samples = json.loads(lines[-2].split(":", 1)[1])
    return json.loads(lines[-1]), samples


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def run_all(args) -> int:
    from degenpoly.rationals import _BACKEND

    results = {}
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            result, samples = _child(args, name, trace)
            entry = results.setdefault(name, {})
            entry["traced" if trace else "untraced"] = result["metrics"]
            entry.setdefault("samples", {})["traced" if trace else "untraced"] = samples
            entry["attempted"] = entry.get("attempted", 0) + result["attempted"]
            entry["failed"] = entry.get("failed", 0) + result["failed"]
    for name, entry in results.items():
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        print("== %s  (failed_frac %s of %d operations)"
              % (name, entry["failed_frac"], entry["attempted"]))
        for part in ("untraced", "traced"):
            for metric, m in entry[part].items():
                print("  %-48s %18.6g %s" % (metric, m["value"], m["unit"]))
    summary = {
        "meta": {
            "rational_backend": _BACKEND,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_commit": _git_commit(),
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
        },
        "workloads": results,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if all(e["failed"] == 0 for e in results.values()) else 1


def write_digests(args) -> int:
    from workloads import WORKLOADS

    out = {}
    with scratch_dir() as scratch:
        for name in WORKLOAD_NAMES:
            workload = WORKLOADS[name](DEFAULT_SEED, False, scratch)
            digests = []
            for index in range(DIGEST_PASSES):
                check = workload.check_pass(index, workload.run_pass(index))
                if check.failed:
                    raise RuntimeError("%s pass %d fails its checks" % (name, index))
                digests.append(check.digest)
            out[name] = digests
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "degenpoly" / "__init__.py").is_file():
        print("perfbench: no degenpoly sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.write_digests:
        return write_digests(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
