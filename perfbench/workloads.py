"""Workloads of the qmemwitness benchmark: inputs, output checks, oracles, fingerprints.

Each workload drives the `qmemwitness` CLI in process through
`qmemwitness.cli.main` with arguments generated from the workload seed;
the program sees only those arguments. After a repetition the files the
CLI wrote are checked from the outside: verdict consistency, the
criterion-3 sign structure, closed-form oracles at the tier-1
tolerances, and a fingerprint of the answers and file hashes.

Why these workloads (the CLI defaults are too long to run 22 times, so
each keeps the per-cell work of the defaults and runs fewer cells; a
repetition of qudit-scan or gauss lasts a few seconds, so one run
takes the median of many repetitions):

* qudit-scan: 6 small independent cells (d = 2, 3). Per-point overhead
  (state validation, eigensolves), per-cell refinement and any
  parallelism over cells do most of their work here.
* qudit-trace-d8: one d=8 cell (128x128 joint states, 2001 points).
  Propagation and memory trace-out dominate and memory peaks; the
  control for per-call and over-cell changes. Not in BENCHMARK.json, so
  run by name (`--workload qudit-trace-d8`): its time follows the
  host's memory traffic, which the calibration kernel of run.py does
  not track, and neither its seconds nor its calibrated time held
  within the bound over ten runs on a shared 2-vCPU VM.
* gauss: only the gaussian layer works (21x21 lossy grid, DHO amplitude
  and channel sweep); the qudit layers are idle, so qudit optimizations
  should show no change here. Writes the most CSV bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("qudit-scan", "qudit-trace-d8", "gauss")
DEFAULT_SEED = 0

DETECTION_THRESHOLD = -1e-9
ENTROPY_ORACLE_TOL = 1e-7      # tier-1 tolerance of the d=2 closed form
AMPLITUDE_ORACLE_TOL = 1e-8    # tier-1 tolerance of the DHO closed form
# the CSVs carry 12 significant digits, so smaller oracle errors are not resolved
ORACLE_RESOLUTION = 1e-12
DELTA_S_TOL = 1e-6             # answers may move by this much between commits

QUDIT_T_MAX = 12.0
QUDIT_POINTS = 2001
TRACE_RATIO = 0.05
DHO = {"g2": 1.0, "kappa": 0.25, "omega": 1.0, "omega_big": 1.0}
DHO_T_MAX = 20.0
DHO_POINTS = 4001
CHANNEL_STRIDE = 10
LOSSY_ETA_POINTS = 21
LOSSY_R_RANGE = (1e-3, 6.0)


def _num(x: float) -> str:
    return repr(float(x))


def _trace_cmd(d: int, points: int, output: str) -> list[str]:
    return ["qudit-trace", "--d", str(d), "--gamma-over-omega", _num(TRACE_RATIO),
            "--t-max", _num(QUDIT_T_MAX), "--points", str(points), "--output", output]


def _dho_cmd(points: int) -> list[str]:
    return ["gauss-dho", "--g2", _num(DHO["g2"]), "--kappa", _num(DHO["kappa"]),
            "--omega", _num(DHO["omega"]), "--omega-big", _num(DHO["omega_big"]),
            "--t-max", _num(DHO_T_MAX), "--points", str(points), "--output", "dho.csv"]


def make_plan(workload: str, seed: int, small: bool = False) -> dict:
    """CLI argument lists and check parameters of one workload.

    The seed draws the scan's gamma/omega range and the fixed-r values;
    `small` shrinks every size so a repetition takes about a second.
    """
    rng = np.random.default_rng(seed)
    points = 401 if small else QUDIT_POINTS
    if workload == "qudit-scan":
        # ratios near 0.1, 0.3 and 0.5: spread over [0.01, 0.6], while the
        # integrator's work, which grows with the ratio, barely moves with the seed
        lo, hi = float(rng.uniform(0.08, 0.12)), float(rng.uniform(0.48, 0.52))
        d_list = [2, 3]
        n_ratio = 2 if small else 3
        commands = [
            ["qudit-scan", "--d-list", ",".join(map(str, d_list)),
             "--ratio-min", _num(lo), "--ratio-max", _num(hi),
             "--ratio-points", str(n_ratio), "--t-max", _num(QUDIT_T_MAX),
             "--points", str(points), "--output", "scan.csv"],
            _trace_cmd(2, points, "trace_d2.csv"),
        ]
        return {"workload": workload, "commands": commands, "points": points,
                "scan": {"d_list": d_list, "ratios": np.linspace(lo, hi, n_ratio).tolist()},
                "traces": {"trace_d2": 2}, "corrupt": "scan.csv"}
    if workload == "qudit-trace-d8":
        d = 4 if small else 8
        return {"workload": workload, "commands": [_trace_cmd(d, points, "trace_d8.csv")],
                "points": points, "traces": {"trace_d8": d}, "corrupt": "trace_d8.json"}
    if workload == "gauss":
        fixed_r = sorted(float(r) for r in rng.uniform(0.25, 3.0, size=1 if small else 3))
        eta_points = 11 if small else LOSSY_ETA_POINTS
        dho_points = 1001 if small else DHO_POINTS
        commands = [
            ["gauss-lossy", "--eta-points", str(eta_points),
             "--r-min", _num(LOSSY_R_RANGE[0]), "--r-max", _num(LOSSY_R_RANGE[1]),
             "--fixed-r", ",".join(_num(r) for r in fixed_r), "--output", "lossy.csv"],
            _dho_cmd(dho_points),
        ]
        return {"workload": workload, "commands": commands, "eta_points": eta_points,
                "fixed_r": fixed_r, "dho_points": dho_points, "corrupt": "dho.json"}
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")


def oracle_plan(plan: dict) -> dict:
    """Untimed commands for the oracles the workload does not check itself.

    Every workload reports both oracle errors: the d=2 entropies come from
    a `qudit-trace --d 2`, the DHO amplitude from a `gauss-dho`.
    """
    probe: dict = {"workload": "oracle", "commands": []}
    if 2 not in plan.get("traces", {}).values():
        probe["commands"].append(_trace_cmd(2, QUDIT_POINTS, "trace_d2.csv"))
        probe.update(points=QUDIT_POINTS, traces={"trace_d2": 2})
    if "dho_points" not in plan:
        probe["commands"].append(_dho_cmd(DHO_POINTS))
        probe["dho_points"] = DHO_POINTS
    return probe


def channel_sweep(gaussian, dho_points: int):
    """dho_channel at every CHANNEL_STRIDE-th time of the amplitude grid."""
    params = gaussian.DhoParams(**DHO)
    grid = np.linspace(0.0, DHO_T_MAX, dho_points)
    amplitude = gaussian.dho_amplitude(params, grid)
    return [(float(t), gaussian.dho_channel(amplitude, params, float(t), on_vanishing="full-loss"))
            for t in grid[::CHANNEL_STRIDE]]


# ---------------------------------------------------------------------------
# closed forms (the d=2 and DHO oracles of the tier-1 suite)


def _binary_entropy(q: np.ndarray) -> np.ndarray:
    out = np.zeros_like(q)
    for p in (q, 1.0 - q):
        safe = np.where(p > 1e-300, p, 1.0)
        out -= np.where(p > 1e-300, p * np.log(safe), 0.0)
    return out


def qubit_entropies(ts: np.ndarray, omega=1.0, gamma=TRACE_RATIO):
    """S_S and -S(S|A) of the d=2 model: amplitude damping with a damped exchange amplitude."""
    nu = math.sqrt(omega * omega - gamma * gamma / 16.0)
    u = np.exp(-gamma * ts / 4.0) * (np.cos(nu * ts) + (gamma / (4.0 * nu)) * np.sin(nu * ts))
    p = np.abs(u) ** 2
    return _binary_entropy(p / 2.0), math.log(2.0) - _binary_entropy((1.0 - p) / 2.0)


def dho_closed_form(ts: np.ndarray) -> np.ndarray:
    """Amplitude c_t of the exponential-kernel oscillator from its characteristic roots."""
    g2, kappa, omega, omega_big = DHO["g2"], DHO["kappa"], DHO["omega"], DHO["omega_big"]
    b = kappa + 1j * (omega + omega_big)
    c = g2 + 1j * omega * (kappa + 1j * omega_big)
    disc = np.sqrt(b * b - 4.0 * c + 0j)
    l1, l2 = (-b + disc) / 2.0, (-b - disc) / 2.0
    bb = (-1j * omega - l1) / (l2 - l1)
    return (1.0 - bb) * np.exp(l1 * ts) + bb * np.exp(l2 * ts)


# ---------------------------------------------------------------------------
# output checks


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _columns(path: Path, expected_header: list[str], n_rows: int, fail) -> dict | None:
    header, rows = _read_csv(path)
    if header != expected_header:
        fail(f"{path.name}: header {header}")
        return None
    if len(rows) != n_rows or any(len(r) != len(header) for r in rows):
        fail(f"{path.name}: {len(rows)} rows, expected {n_rows}")
        return None
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


def _floats(col: list[str]) -> np.ndarray:
    return np.array([float(v) for v in col])


def _bools(col: list[str]) -> np.ndarray:
    return np.array([v == "true" for v in col])


def _check_verdict(label, delta_s, detected, t1, t2, fail) -> None:
    if not math.isfinite(delta_s) or detected != (delta_s < DETECTION_THRESHOLD):
        fail(f"{label}: detected={detected} inconsistent with delta_s={delta_s}")
    if not t1 < t2:
        fail(f"{label}: t1={t1} not before t2={t2}")


def _check_trace(out: Path, stem: str, d: int, points: int, fail, fp: dict) -> dict | None:
    cols = _columns(out / f"{stem}.csv", ["t", "S_S", "neg_S_cond_SA", "neg_S_cond_AS"],
                    points, fail)
    sidecar = json.loads((out / f"{stem}.json").read_text())
    rep = sidecar.get("report")
    if rep is None:
        fail(f"{stem}: no witness report ({sidecar.get('error')})")
    else:
        _check_verdict(stem, rep["delta_s"], rep["quantum_memory_detected"],
                       rep["t1"], rep["t2"], fail)
        fp["cells"].append([d, TRACE_RATIO, rep["delta_s"], rep["t1"], rep["t2"],
                            rep["quantum_memory_detected"]])
    if sidecar.get("ordering_ok") is not True:
        fail(f"{stem}: ordering_ok is {sidecar.get('ordering_ok')}")
    if cols is None:
        return None
    arr = {k: _floats(v) for k, v in cols.items()}
    if not all(np.isfinite(v).all() for v in arr.values()):
        fail(f"{stem}: non-finite values")
    if np.abs(arr["t"] - np.linspace(0.0, QUDIT_T_MAX, points)).max() > 1e-9:
        fail(f"{stem}: time grid differs from the requested one")
    if arr["S_S"].min() < -1e-9 or arr["S_S"].max() > math.log(d) + 1e-9:
        fail(f"{stem}: S_S outside [0, ln d]")
    return arr


def _check_qudit(plan: dict, out: Path, observed: dict, fail, fp: dict, oracle: dict) -> None:
    scan = plan.get("scan")
    if scan is not None:
        expected = [(d, r) for d in scan["d_list"] for r in scan["ratios"]]
        cols = _columns(out / "scan.csv",
                        ["d", "gamma_over_omega", "t1", "t2", "delta_S", "detected", "error"],
                        len(expected), fail)
        if cols is not None:
            for k, (d, ratio) in enumerate(expected):
                label = f"scan cell d={d} ratio={ratio:.6g}"
                if cols["error"][k]:
                    fail(f"{label}: {cols['error'][k]}")
                    continue
                if int(cols["d"][k]) != d or abs(float(cols["gamma_over_omega"][k]) - ratio) > 1e-9:
                    fail(f"{label}: row {k} holds d={cols['d'][k]} "
                         f"ratio={cols['gamma_over_omega'][k]}")
                ds, t1, t2 = (float(cols[c][k]) for c in ("delta_S", "t1", "t2"))
                detected = cols["detected"][k] == "true"
                _check_verdict(label, ds, detected, t1, t2, fail)
                fp["cells"].append([d, ratio, ds, t1, t2, detected])
        ordering = observed.get("ordering_ok", [])
        if len(ordering) != len(expected) or not all(ordering):
            fail(f"scan: ordering_ok per cell is {ordering}")
    for stem, d in plan["traces"].items():
        arr = _check_trace(out, stem, d, plan["points"], fail, fp)
        if d == 2 and arr is not None:
            s_ref, neg_ref = qubit_entropies(arr["t"])
            err = max(np.abs(arr["S_S"] - s_ref).max(),
                      np.abs(arr["neg_S_cond_SA"] - neg_ref).max())
            oracle["oracle_err_entropy"] = max(float(err), ORACLE_RESOLUTION)
            if not err <= ENTROPY_ORACLE_TOL:
                fail(f"{stem}: d=2 entropies off the closed form by {err:.3e}")


def _check_lossy(plan: dict, out: Path, fail, fp: dict) -> None:
    n = plan["eta_points"]
    etas = np.linspace(0.0, 1.0, n)
    cols = _columns(out / "lossy.csv", ["eta1", "eta2", "delta_S_min", "r_star"], n * n, fail)
    if cols is not None:
        e1, e2, ds, r_star = (_floats(cols[c]) for c in ("eta1", "eta2", "delta_S_min", "r_star"))
        if (np.abs(e1 - np.repeat(etas, n)).max() > 1e-9
                or np.abs(e2 - np.tile(etas, n)).max() > 1e-9):
            fail("lossy.csv: eta grid differs from the requested one")
        # criterion 3: no detection without loss reversal, detection with a clear one
        if np.any(ds[e2 >= e1] < -1e-9):
            fail("lossy.csv: negative witness without loss reversal")
        if np.any(ds[e2 <= e1 - 0.05 + 1e-12] >= 0.0):
            fail("lossy.csv: loss reversal of 0.05 or more not detected")
        fp["lossy"] = {"cells": int(ds.size), "detected": int((ds < DETECTION_THRESHOLD).sum()),
                       "delta_s_sum": float(ds.sum())}
        lo, hi = LOSSY_R_RANGE
        if not (np.all(r_star >= lo * (1 - 1e-9)) and np.all(r_star <= hi * (1 + 1e-9))):
            fail("lossy.csv: r_star outside the search range")
    rs = plan["fixed_r"]
    cols = _columns(out / "lossy_fixed_r.csv", ["eta1", "eta2", "r", "delta_S", "negative"],
                    len(rs) * n * n, fail)
    if cols is not None:
        e1, e2, r, ds = (_floats(cols[c]) for c in ("eta1", "eta2", "r", "delta_S"))
        if np.abs(r - np.repeat(rs, n * n)).max() > 1e-9 * max(rs):
            fail("lossy_fixed_r.csv: r values differ from the requested ones")
        if np.any(_bools(cols["negative"]) != (ds < 0)):
            fail("lossy_fixed_r.csv: negative flag inconsistent with delta_S")
        if np.any(ds[e2 >= e1] < -1e-9):
            fail("lossy_fixed_r.csv: negative witness without loss reversal")


def _check_dho(plan: dict, out: Path, observed: dict, fail, fp: dict, oracle: dict) -> None:
    points = plan["dho_points"]
    header = ["t", "re_c", "im_c", "abs_c_sq", "eta", "gamma_t", "omega_t", "amplitude_vanished"]
    cols = _columns(out / "dho.csv", header, points, fail)
    sidecar = json.loads((out / "dho.json").read_text())
    pair = sidecar.get("pair")
    if sidecar.get("detected") is not True or pair is None:
        fail(f"dho.json: no detected loss reversal (detected={sidecar.get('detected')})")
    else:
        fp["dho_pair"] = pair
        if not (pair["t1"] < pair["t2"] and pair["eta1"] > pair["eta2"] and pair["delta_s"] < 0):
            fail(f"dho.json: inconsistent reversal pair {pair}")
    if cols is None:
        return
    t = _floats(cols["t"])
    c = _floats(cols["re_c"]) + 1j * _floats(cols["im_c"])
    eta = _floats(cols["eta"])
    if np.abs(t - np.linspace(0.0, DHO_T_MAX, points)).max() > 1e-9:
        fail("dho.csv: time grid differs from the requested one")
    err = float(np.abs(c - dho_closed_form(t)).max())
    oracle["oracle_err_amplitude"] = max(err, ORACLE_RESOLUTION)
    if not err <= AMPLITUDE_ORACLE_TOL:
        fail(f"dho.csv: amplitude off the closed form by {err:.3e}")
    if np.abs(eta - np.clip(1.0 - _floats(cols["abs_c_sq"]), 0.0, 1.0)).max() > 1e-9:
        fail("dho.csv: eta inconsistent with |c|^2")
    channels = observed.get("channels")
    if channels is None:
        return
    if len(channels) != len(t[::CHANNEL_STRIDE]):
        fail(f"dho_channel: {len(channels)} channels for {len(t[::CHANNEL_STRIDE])} times")
        return
    for (tc, m, nmat, cp_ok), eta_k in zip(channels, eta[::CHANNEL_STRIDE]):
        if not cp_ok or abs(2.0 * nmat[0][0] - eta_k) > 1e-9:
            fail(f"dho_channel at t={tc}: noise {nmat} or complete positivity "
                 f"inconsistent with eta={eta_k}")
            break


def check_outputs(plan: dict, out: Path, observed: dict) -> dict:
    """Check one repetition's files; return failures, fingerprint and oracle errors."""
    failures: list[str] = []
    fp: dict = {"cells": [], "dho_pair": None, "lossy": None, "sha256": {}}
    oracle: dict = {}
    try:
        if "traces" in plan:
            _check_qudit(plan, out, observed, failures.append, fp, oracle)
        if "eta_points" in plan:
            _check_lossy(plan, out, failures.append, fp)
        if "dho_points" in plan:
            _check_dho(plan, out, observed, failures.append, fp, oracle)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
    for path in sorted(out.iterdir()):
        fp["sha256"][path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    if "channels" in observed:
        fp["sha256"]["dho_channel"] = hashlib.sha256(
            json.dumps(observed["channels"]).encode()).hexdigest()
    return {"failures": failures, "fingerprint": fp, "oracle": oracle,
            "bytes_out": sum(p.stat().st_size for p in out.iterdir())}


def corrupt(plan: dict, out: Path) -> None:
    """Flip the first boolean of the workload's verdict file (self-test only)."""
    path = out / plan["corrupt"]
    text = path.read_text()
    i_true, i_false = text.find("true"), text.find("false")
    if i_false < 0 or 0 <= i_true < i_false:
        text = text.replace("true", "false", 1)
    else:
        text = text.replace("false", "true", 1)
    path.write_text(text)


def compare_fingerprints(reference: dict, got: dict) -> list[str]:
    """Answers must agree with the reference: delta_s within DELTA_S_TOL, verdicts identical.

    File hashes are not compared: a change may move answers within the tolerance.
    """
    failures = []
    ref_cells, cells = reference["cells"], got["cells"]
    if len(ref_cells) != len(cells):
        return [f"fingerprint: {len(cells)} cells, reference has {len(ref_cells)}"]
    for ref, cell in zip(ref_cells, cells):
        if ref[0] != cell[0] or abs(ref[1] - cell[1]) > 1e-9:
            failures.append(f"fingerprint: cell {cell[:2]} where reference has {ref[:2]}")
        elif abs(ref[2] - cell[2]) > DELTA_S_TOL or ref[5] != cell[5]:
            failures.append(f"fingerprint: cell {cell[:2]} delta_s={cell[2]} detected={cell[5]}, "
                            f"reference {ref[2]} {ref[5]}")
    ref_pair, pair = reference["dho_pair"], got["dho_pair"]
    if (ref_pair is None) != (pair is None) or (
            pair is not None and abs(ref_pair["delta_s"] - pair["delta_s"]) > DELTA_S_TOL):
        failures.append(f"fingerprint: DHO pair {pair}, reference {ref_pair}")
    ref_lossy, lossy = reference["lossy"], got["lossy"]
    if (ref_lossy is None) != (lossy is None) or lossy is not None and (
            lossy["cells"] != ref_lossy["cells"] or lossy["detected"] != ref_lossy["detected"]
            or abs(lossy["delta_s_sum"] - ref_lossy["delta_s_sum"]) > DELTA_S_TOL * lossy["cells"]):
        failures.append(f"fingerprint: lossy grid {lossy}, reference {ref_lossy}")
    return failures
