"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 -m pytest perfbench

Every workload runs untraced and traced, every check passes, and the result
line names exactly the metrics of BENCHMARK.json with their units. Without
the ebk sources the benchmark exits non-zero and prints no result.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args, timeout=300):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_runs_and_reports_every_metric(workload, trace):
    out = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
              "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert result["metrics"]["pass_frac"]["value"] == 1.0


def test_missing_sources_exit_nonzero_without_result():
    bare = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = run(bare, "--workload", "billiard", "--seed", "1", "--seconds", "1",
                  "--trace", "0", timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
