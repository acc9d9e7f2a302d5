"""Self-test of the benchmark, with every workload shrunk to about a second.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it checks that an untraced and a traced run report
every metric of BENCHMARK.json with its unit and no failure, and that a
run whose outputs were corrupted reports a failed operation. It also
checks that the benchmark exits non-zero without printing a result in a
directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(root: Path, *args: str) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check_result(label: str, code: int, result: dict | None, specs: list[dict],
                 expect_correct: bool) -> list[str]:
    if code != 0 or result is None or set(result) != RESULT_KEYS:
        return [f"{label}: exit code {code}, result {result}"]
    problems = []
    if result["correct"] is not expect_correct:
        problems.append(f"{label}: correct is {result['correct']}")
    if expect_correct and result["failed"] != 0:
        problems.append(f"{label}: {result['failed']} failed operations")
    if not expect_correct and result["failed"] < 1:
        problems.append(f"{label}: corrupted output not counted as a failed operation")
    if not 1 <= result["attempted"] or result["failed"] > result["attempted"]:
        problems.append(f"{label}: attempted {result['attempted']}, failed {result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != {s["name"] for s in specs}:
        problems.append(f"{label}: metrics {sorted(metrics)}")
    for spec in specs:
        got = metrics.get(spec["name"], {})
        value = got.get("value")
        if got.get("unit") != spec["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{label}: {spec['name']} reported as {got}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench(ROOT, "--workload", workload, "--small", "--seconds", "1",
                                 "--trace", str(trace))
            problems += check_result(f"{workload} trace {trace}", code, result, spec[key], True)
        code, result = bench(ROOT, "--workload", workload, "--small", "--seconds", "1",
                             "--corrupt")
        problems += check_result(f"{workload} corrupted", code, result, spec["end_to_end"], False)

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = bench(bare, "--workload", WORKLOADS[0], "--seconds", "1")
    shutil.rmtree(bare)
    if code == 0 or result is not None:
        problems.append(f"without sources: exit code {code}, result {result}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
