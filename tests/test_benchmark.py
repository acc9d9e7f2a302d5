"""Smoke test: the benchmark harness runs each shrunk workload end to end."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# per workload, the tracer counters that must stay visible to the harness
HOOKS = {
    "qudit-scan": ("witness.cells", "witness.refine_s", "witness.refine_probes"),
    "gauss": ("gaussian.dho_channel_calls", "gaussian.minimize_calls"),
}


@pytest.mark.parametrize("workload", sorted(HOOKS))
def test_harness_smoke(workload, tmp_path):
    # a copy, so the run's .perfbench_out/ stays out of the checkout
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--small",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for hook in HOOKS[workload]:
        assert metrics[hook] > 0, hook
