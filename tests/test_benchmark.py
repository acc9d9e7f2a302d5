"""Smoke test: the benchmark harness runs a shrunk workload end to end."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_qudit_scan_harness_smoke(tmp_path):
    # a copy, so the run's .perfbench_out/ stays out of the checkout
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qudit-scan", "--small",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # the hooks the tracer counts on stay visible to it
    assert metrics["witness.cells"] > 0
    assert metrics["witness.refine_probes"] > 0
