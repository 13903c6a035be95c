"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced through ``run.py --workload all
--smoke`` and checks the result against BENCHMARK.json: each metric it
names is emitted with its unit, and no output fails its check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_metric_emitted_with_its_unit_and_nothing_fails():
    spec = _spec()
    proc = subprocess.run(
        RUN + ["--workload", "all", "--smoke", "--seconds", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = summary["workloads"]
    assert set(workloads) == {w["name"] for w in spec["workloads"]}
    for name, entry in workloads.items():
        assert entry["failed"] == 0 and entry["failed_frac"] == 0, name
        untraced = {k: v["unit"] for k, v in entry["untraced"].items()}
        traced = {k: v["unit"] for k, v in entry["traced"].items()}
        assert untraced == end_to_end, name
        assert traced == per_layer, name
        assert all(v["value"] > 0 for v in entry["untraced"].values()), name
    tables = workloads["tables"]["traced"]
    for metric, value in tables.items():
        if metric.startswith(("umbral.", "verifier.")):
            assert value["value"] == 0, metric


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    shutil.copy(HERE / "reference_digests.json", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
