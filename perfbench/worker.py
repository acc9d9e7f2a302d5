"""One benchmark repetition in a fresh interpreter.

Usage: python3 perfbench/worker.py '<job JSON>'

The job names the source directory, the output directory (the working
directory of this process), the mode (`import`, `plain`, `traced` or
`probe`) and the workload plan. The last line of standard output is the
repetition's result as JSON. Only the standard library is imported
before `qmemwitness`, so `setup_s` covers numpy and scipy as a user's
first import does. Every mode times the calibration kernel after the
import, and a timed mode again after the workload (`calib_s`).
"""

import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _calibrate(np, samples: int = 3) -> list[float]:
    """Times of a fixed kernel of small complex eigensolves and products.

    The kernel is the benchmark's own code, so a change to the program
    leaves its time alone, while the host's speed moves both.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    h = a + a.conj().T
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        x = h
        for _ in range(1500):
            w, v = np.linalg.eigh(x)
            x = (v * np.tanh(w)) @ v.conj().T + 1e-3 * h
        times.append(time.perf_counter() - t0)
    return times


def _observe_cells(witness, observed: dict) -> None:
    """Record ordering_ok of every scanned cell; the scan CSV does not carry it."""
    inner = witness.witness_qudit_model

    def observed_cell(*args, **kwargs):
        result = inner(*args, **kwargs)
        observed.setdefault("ordering_ok", []).append(bool(result.ordering_ok))
        return result

    witness.witness_qudit_model = observed_cell


def _run_commands(plan: dict, cli, gaussian, tracer, observed: dict) -> list[str]:
    import workloads

    errors = []
    for argv in plan["commands"]:
        with tracer.span(f"bench.{argv[0]}") if tracer else nullcontext():
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        if code != 0:
            errors.append(f"{' '.join(argv)} exited with {code}")
    if plan["workload"] == "gauss":
        with tracer.span("bench.dho_channel_sweep") if tracer else nullcontext():
            observed["channel_objs"] = workloads.channel_sweep(gaussian, plan["dho_points"])
    return errors


def main() -> int:
    job = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    sys.path.insert(0, job["src"])
    import qmemwitness
    import qmemwitness.cli
    setup_s = time.perf_counter() - t0
    origin = Path(qmemwitness.__file__).resolve()
    if Path(job["src"]).resolve() not in origin.parents:
        print(f"qmemwitness imported from {origin}, not from {job['src']}", file=sys.stderr)
        return 2
    import numpy as np

    calib_s = _calibrate(np)
    result: dict = {"setup_s": setup_s, "calib_s": calib_s}
    if job["mode"] == "import":
        print(json.dumps(result))
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from qmemwitness import cli, gaussian, witness

    plan = job["plan"]
    tracer = None
    if job["mode"] == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    observed: dict = {}
    _observe_cells(witness, observed)

    cpu0, w0 = _cpu_s(), time.perf_counter()
    try:
        errors = _run_commands(plan, cli, gaussian, tracer, observed)
    except Exception:  # a crash is a failed repetition, reported with its traceback
        errors = [traceback.format_exc()]
    wall_s = time.perf_counter() - w0
    cpu_s = _cpu_s() - cpu0
    calib_s.extend(_calibrate(np))
    if tracer is not None:
        tracer.uninstall()

    channel_objs = observed.pop("channel_objs", None)
    if channel_objs is not None:
        observed["channels"] = [(t, ch.m.tolist(), ch.n.tolist(), gaussian.cp_check(ch))
                                for t, ch in channel_objs]
    out = Path.cwd()
    if job.get("corrupt"):
        workloads.corrupt(plan, out)
    checked = workloads.check_outputs(plan, out, observed)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update({
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": (own + kids) / 1024.0,  # ru_maxrss is in KiB on Linux
        "failures": errors + checked["failures"],
        "fingerprint": checked["fingerprint"],
        "oracle": checked["oracle"],
        "bytes_out": checked["bytes_out"],
    })
    if tracer is not None:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer, wall_s)
        if job.get("spans"):
            tracer.dump(job["spans"])
    if job["mode"] == "probe":
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        import scipy

        result["provenance"] = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "qmemwitness": qmemwitness.__version__,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
