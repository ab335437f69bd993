"""Smoke test of the benchmark: tiny inputs through the same code path.

    python3 -m pytest perfbench/test_smoke.py

Checks that every workload prints every end-to-end metric (by its
BENCHMARK.json slot and by its per-workload name), that a traced run
prints every per-layer metric, that no operation fails, and that the
benchmark refuses to run without the galcodes sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]

PRINTED = {
    "count_stream": ("count.queries_per_s", "count.p50_ms", "count.p99_ms"),
    "ideal_enum": ("enum.ideals_per_s", "enum.duals_per_s"),
    "spectral_build": ("spectral.roundtrip_p50_ms", "spectral.roundtrip_p99_ms",
                       "spectral.reps_per_s", "spectral.constructs_per_s"),
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def printed_values(stdout: str) -> dict:
    out = {}
    for text in stdout.splitlines()[:-1]:
        match = re.match(r"^([a-z]\S*)(?: \[\S+\])?\s+(\S+) ", text)
        if match:
            out[match.group(1)] = float(match.group(2))
    return out


def check_result(done: subprocess.CompletedProcess, metrics) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert printed_values(done.stdout)["failed_ratio"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    done = run(workload, 0)
    result = check_result(done, CONFIG["end_to_end"])
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    printed = printed_values(done.stdout)
    for name in PRINTED[workload] + ("setup_s", "peak_rss_mb"):
        assert name in printed, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result = check_result(run(workload, 1), CONFIG["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["trace.spans"] > 0
    if workload == "count_stream":
        assert metrics["counting.provider.brute-force.calls"] == 0
        assert metrics["counting.product_count.calls"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
