"""Smoke test of the benchmark itself, at reduced input size (--size smoke).

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every end-to-end and per-layer metric of BENCHMARK.json is
printed with its unit on every workload, that no operation fails, that the
work counts of two traced runs repeat exactly, that another seed changes the
output without breaking the run, and that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = (
    "potential.cells",
    "solver.grid_points",
    "solver.segments",
    "solver.propagate_exact.calls",
    "verifier.points_checked",
    "verifier.sample_lemma31.accept_ratio",
    "verifier.skipped",
)


@functools.cache
def bench(workload, seed, trace, repeat=0):
    """stdout lines and the parsed result line of one smoke-size run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def assert_metrics(lines, result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], lines
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert any(line.startswith("error_rate 0 (0 of") for line in lines)
    units = {m["name"]: m["unit"] for m in specs}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines, result = bench(workload, 1, 0)
    assert_metrics(lines, result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counts(workload):
    lines, result = bench(workload, 1, 1)
    assert_metrics(lines, result, SPEC["per_layer"])
    again_lines, again = bench(workload, 1, 1, repeat=1)
    for name in EXACT_COUNTS:
        assert again["metrics"][name]["value"] == result["metrics"][name]["value"], name
    lemma = [line for line in lines if line.startswith("lemma31 accepted/attempts")]
    assert lemma and lemma == [l for l in again_lines if l.startswith("lemma31 accepted/attempts")]
    if workload == "transfer_long":
        verifier = [v["value"] for k, v in result["metrics"].items()
                    if k.startswith("verifier.") and k.endswith(".self_s")]
        assert verifier and not any(verifier)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_output_not_health(workload):
    def digests(lines):
        return [line for line in lines if line.startswith("output_sha256 ")]

    lines, _ = bench(workload, 1, 0)
    other_lines, other = bench(workload, 2, 0)
    assert other["correct"] and other["failed"] == 0
    assert len(digests(lines)) == 1 == len(digests(other_lines))
    assert digests(lines) != digests(other_lines)
    assert digests(lines) == digests(bench(workload, 1, 1)[0])


def test_refuses_to_run_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
