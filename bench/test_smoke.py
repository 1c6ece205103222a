"""Smoke test of the benchmark: every workload at a tiny size, traced and not.

Run from the repository root (it is outside the tier-1 ``tests`` path):

    python -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

    work = "steps_per_s" if workload.startswith("sim") else "certs_per_s"
    summary = ["fail_ratio"] if trace else [
        "setup_s", "ref_latency_p50_s", "ref_work_per_s", "peak_rss_mb",
        "latency_p50_s", "latency_tail_s", work, "fail_ratio"]
    for name in summary:
        assert f"  {name} " in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
