"""Benchmark of the qmemwitness CLI: end-to-end time, memory and oracle accuracy.

Usage (from the repository root):

    python3 perfbench/run.py --workload qudit-scan [--seed 0] [--seconds 55] [--trace 0]
    python3 perfbench/run.py --workload all          # every workload, summary on stderr

Workloads are defined in perfbench/workloads.py; metric names and units
in BENCHMARK.json. A run first imports the package in fresh interpreters
(set-up samples), then repeats the workload in fresh single-process
interpreters (perfbench/worker.py) while `--seconds` allows, then runs
an untimed oracle probe for the closed forms the workload does not
check itself (`qudit-trace --d 2`, `gauss-dho`). BLAS runs
single-threaded, so any parallelism comes from the program itself and
`proc.cpu_s` is not inflated by idle BLAS threads spinning.

End-to-end times are reported in reference seconds (per-layer times
are plain seconds of the traced repetitions). Every worker times a fixed
kernel of the benchmark's own (small complex eigensolves and products)
three times right after its import, and a timed repetition three times
more right after the workload. A time is scaled by REF_KERNEL_S over the
median of the kernel's times in the same process: `wall_ref_s` is the
median over the run's repetitions of the scaled workload time, `setup_s`
the median over every import of the scaled import time. A shared host's
speed drifts by tens of percent within minutes and moves the kernel as
it moves the program, so scaled times are steadier between runs than
seconds are, while a change to the program moves only the program's
time. The medians in plain seconds (`wall_s_median`, `setup_s_median`)
and the number of repetitions are kept in the record, and the summary
on stderr shows the wall time. Peak memory is the median over the
repetitions.

`--trace 0` reports the end-to-end metrics from untraced repetitions.
`--trace 1` alternates untraced and traced repetitions and reports the
per-layer metrics: self times and counts from the traced spans, and the
tracing overhead against the untraced ones.

A repetition fails when the CLI exits non-zero, an output check fails,
its file hashes differ from the run's first repetition, or (at the
default seed) its answers leave the tolerance of the recorded reference
fingerprint in perfbench/reference/. The last line of standard output is
`{"correct", "attempted", "failed", "metrics"}`; the full record
(provenance, every repetition, fingerprint) is written to
.perfbench_out/results/, spans of the last traced repetition to
.perfbench_out/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

IMPORT_SAMPLES = 2
# the calibration kernel's time on an unloaded 2.0 GHz Xeon vCPU, roughly
REF_KERNEL_S = 0.05
RUN_BUDGET_S = 170.0   # a run must end within 180 s


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(job: dict, deadline: float) -> dict:
    """One fresh interpreter; a crash or timeout is returned as a failure."""
    work = OUT / "work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job = {**job, "src": str(ROOT / "src")}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=work, env=_worker_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"failures": ["repetition timed out"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failures": [f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}"]}
    return json.loads(lines[-1])


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((ROOT / "src" / "qmemwitness").rglob("*.py")))


def ref_s(seconds: float, worker: dict) -> float:
    """Seconds scaled to the reference speed by the worker's calibration kernel times."""
    return seconds * REF_KERNEL_S / statistics.median(worker["calib_s"])


def _reference(workload: str) -> dict | None:
    path = HERE / "reference" / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, corrupt: bool = False) -> dict:
    """Set-up samples, timed repetitions and the oracle probe of one run."""
    plan = workloads.make_plan(name, seed, small)
    deadline = time.monotonic() + RUN_BUDGET_S
    spans_path = OUT / "spans" / f"{name}-seed{seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)

    run_worker({"mode": "import"}, deadline)   # warm-up: bytecode and file cache
    setup = [run_worker({"mode": "import"}, deadline) for _ in range(IMPORT_SAMPLES)]

    modes = ("plain", "traced") if trace else ("plain",)
    reps: list[dict] = []
    start, longest = time.monotonic(), 0.0
    while True:
        for mode in modes:
            t0 = time.monotonic()
            job = {"mode": mode, "plan": plan, "corrupt": corrupt}
            if mode == "traced":
                job["spans"] = str(spans_path)
            reps.append({**run_worker(job, deadline), "mode": mode})
            longest = max(longest, time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if (elapsed + longest * len(modes) > seconds
                or time.monotonic() + longest * len(modes) > deadline - 15.0
                or any("wall_s" not in r for r in reps)):
            break
    probe = run_worker({"mode": "probe", "plan": workloads.oracle_plan(plan)}, deadline)

    reference = None if small or seed != workloads.DEFAULT_SEED else _reference(name)
    first = next((r["fingerprint"] for r in reps if "fingerprint" in r), None)
    for rep in reps:
        fp = rep.get("fingerprint")
        if fp is None:
            continue
        if fp["sha256"] != first["sha256"]:
            rep["failures"].append("output hashes differ from the run's first repetition")
        if reference is not None:
            rep["failures"].extend(workloads.compare_fingerprints(reference, fp))
    ran = [r for r in reps if "wall_s" in r]
    plain = [r for r in ran if r["mode"] == "plain"]
    imports = [r for r in setup + reps if "calib_s" in r]
    metrics = {
        "wall_ref_s": statistics.median([ref_s(r["wall_s"], r) for r in plain]) if plain else None,
        "setup_s": statistics.median([ref_s(r["setup_s"], r) for r in imports]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]) if plain else None,
        **(ran[0]["oracle"] if ran else {}),
        **probe.get("oracle", {}),
    }
    if trace:
        traced = [r for r in ran if r["mode"] == "traced"]
        layers = {}
        for key in (traced[0]["layers"] if traced else {}):
            values = [r["layers"][key] for r in traced]
            if isinstance(values[0], int):      # counts must repeat exactly
                if len(set(values)) > 1:
                    for r in traced:
                        r["failures"].append(f"{key} differs between repetitions: {values}")
                layers[key] = values[0]
            else:
                layers[key] = statistics.median(values)
        traced_wall = (statistics.median([ref_s(r["wall_s"], r) for r in traced])
                       if traced else None)
        metrics = {
            **layers,
            "cli.bytes_out": ran[0]["bytes_out"] if ran else None,
            "proc.cpu_s": statistics.median([r["cpu_s"] for r in plain]) if plain else None,
            "trace.overhead_frac": (traced_wall / metrics["wall_ref_s"] - 1.0
                                    if traced and plain else None),
            "src_lines": src_lines(),
        }
    attempted = len(reps) + 1
    failed = sum(1 for r in reps + [probe] if r.get("failures"))
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "small": small, "corrupt": corrupt, "plan": plan,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "timed_repetitions": len(plain),
        "wall_s_median": statistics.median([r["wall_s"] for r in plain]) if plain else None,
        "setup_s_median": statistics.median([r["setup_s"] for r in imports]),
        "fingerprint": first, "setup_samples": setup,
        "repetitions": [{k: v for k, v in r.items() if k != "fingerprint"} for r in reps],
        "probe": {k: v for k, v in probe.items() if k != "provenance"},
        "provenance": {
            **probe.get("provenance", {}),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "git_commit": _git_commit(),
            "workload_seed": seed,
            "default_seed": workloads.DEFAULT_SEED,
            "src_lines": src_lines(),
        },
    }


def _metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _summarize(record: dict, specs: list[dict]) -> None:
    name = record["workload"]
    frac = record["failed"] / record["attempted"]
    print(f"{name}: seed {record['seed']}, {record['attempted']} attempted, "
          f"failed_frac {frac:.3g}; median wall time of {record['timed_repetitions']} "
          f"untraced repetitions {record['wall_s_median']} s", file=sys.stderr)
    for spec in specs:
        print(f"  {spec['name']:28s} {record['metrics'].get(spec['name'])!s:>24} {spec['unit']}",
              file=sys.stderr)
    for rep in record["repetitions"] + [record["probe"]]:
        for failure in rep.get("failures", []):
            print(f"  FAILED: {failure}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrink every workload to about a second per repetition")
    parser.add_argument("--corrupt", action="store_true",
                        help="flip a verdict in the outputs before checking (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qmemwitness" / "cli.py").is_file():
        print(f"error: no qmemwitness sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    specs = _metric_specs(bool(args.trace))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              args.small, args.corrupt)
        tag = "-small" if args.small else ""
        path = results / f"{name}-seed{args.seed}-trace{args.trace}{tag}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        _summarize(record, specs)
        records.append(record)

    metrics = {}
    for record in records:
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        for spec in specs:
            value = record["metrics"].get(spec["name"])
            if value is None:
                print(f"error: {record['workload']}: metric {spec['name']} was not measured",
                      file=sys.stderr)
                return 1
            metrics[prefix + spec["name"]] = {"value": value, "unit": spec["unit"]}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
