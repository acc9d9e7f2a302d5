"""Command-line front end.

Subcommands reproduce the library's headline data sets as CSV files
(plus JSON sidecars for structured reports) and expose one-off witness
evaluation on serialized states:

    qudit-trace   entropy curves of the qudit-memory model over time
    qudit-scan    witness value over (d, gamma/omega) cells
    gauss-lossy   minimized lossy-channel witness over an (eta1, eta2) grid
    gauss-dho     damped-oscillator amplitude, loss and rate trajectories
    witness-eval  witness report for two serialized snapshots

Output is deterministic: identical configuration produces byte-identical
files (floats printed with 12 significant digits, "\\n" line endings).
Progress goes to stderr only. Exit codes: 0 success, 2 configuration
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from . import gaussian
from .errors import ExtremumNotFoundError, QmemError
from .lindblad import LindbladModel
from .states import CONVENTIONS, DEFAULT_CONVENTION, DensityMatrix
from .witness import (
    DETECTION_THRESHOLD,
    evaluate_criterion,
    evaluate_criterion_gaussian,
    qudit_entropy_trajectory,
    scan_qudit,
    witness_from_trajectory,
)

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Invalid command configuration (maps to exit code 2)."""


def _fmt(value) -> str:
    """Fixed CSV formatting: 12 significant digits, lowercase booleans."""
    if value is None:
        return "nan"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        if v == 0.0:
            v = 0.0   # normalize -0.0
        return format(v, ".12g")
    return str(value)


# rows formatted and written per block, so no run holds its whole CSV
_CSV_BLOCK_ROWS = 4096


def _column_rows(*columns: np.ndarray) -> Iterable[tuple]:
    """Rows of equally long array columns, converted to Python scalars one
    `_CSV_BLOCK_ROWS` slice at a time."""
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        yield from zip(*(col[start:start + _CSV_BLOCK_ROWS].tolist() for col in columns))


def _write_csv(path: str, header: list[str], rows: Iterable) -> None:
    rows = iter(rows)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        while block := list(itertools.islice(rows, _CSV_BLOCK_ROWS)):
            fh.write("".join(",".join(_fmt(v) for v in row) + "\n" for row in block)
                     .encode("ascii"))


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=True)
    Path(path).write_bytes((text + "\n").encode("ascii"))


def _sidecar_path(csv_path: str) -> str:
    return str(Path(csv_path).with_suffix(".json"))


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# configuration handling


def _parse_list(text: str, kind: type) -> list:
    try:
        return [kind(p) for p in str(text).replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated {kind.__name__} list: {text!r}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    version = raw.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    return raw


def _merge_config(args: argparse.Namespace, spec: dict) -> dict:
    """Layer defaults < config file < explicit flags.

    A file value becomes the text its flag would take (a list joined with
    commas, a scalar through str), so both layers share each handler's
    conversion; None (a null in the file, an absent flag) keeps the layer below.
    """
    merged = {name: default for name, (default, _help) in spec.items()}
    for key, value in _load_config(getattr(args, "config", None)).items():
        if key not in merged:
            raise ConfigError(f"unknown config key {key!r}")
        if value is not None:
            merged[key] = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    for name in spec:
        if getattr(args, name) is not None:
            merged[name] = getattr(args, name)
    return merged


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


# Memory a command may plan for. Each command estimates its peak above
# import from its size flags (fitted to ru_maxrss with one BLAS thread)
# and is rejected before computing when the estimate exceeds the budget.
_MEMORY_BUDGET = 2 * 1024 ** 3
_KIB, _MIB = 1024, 1024 ** 2


def _require_memory(need: int, what: str, formula: str) -> None:
    _require(need <= _MEMORY_BUDGET,
             f"{what} needs about {need / 1024 ** 3:.3g} GiB (estimated as {formula}), over the "
             f"{_MEMORY_BUDGET // 1024 ** 3} GiB budget")


def _require_qudit_budget(d: int, points: int) -> None:
    # the (points, d^2, d^2) complex trajectory plus about 1024 matrices of
    # that size (stepping batch, propagator, Liouvillian, expm workspace)
    # and the output rows
    _require_memory(16 * d ** 4 * (points + 1024) + _KIB * points + 8 * _MIB,
                    f"d={d} with {points} points",
                    "16 d^4 (points + 1024) + 1 KiB points + 8 MiB")


# ---------------------------------------------------------------------------
# qudit-trace

_TRACE_SPEC = {
    "d": (4, "system dimension (>= 2)"),
    "gamma_over_omega": (0.05, "memory damping over coupling (dimensionless)"),
    "convention": (DEFAULT_CONVENTION, f"ladder convention, one of {CONVENTIONS}"),
    "t_max": (12.0, "trajectory end time in units of 1/omega (> 0)"),
    "points": (2001, "number of output grid points (>= 3)"),
    "output": ("qudit_trace.csv", "CSV output path (JSON sidecar alongside)"),
}


def _cmd_qudit_trace(cfg: dict) -> int:
    d = int(cfg["d"])
    ratio = float(cfg["gamma_over_omega"])
    convention = cfg["convention"]
    t_max = float(cfg["t_max"])
    points = int(cfg["points"])
    _require(d >= 2, "d must be >= 2")
    _require(math.isfinite(ratio) and ratio >= 0, "gamma_over_omega must be finite and >= 0")
    _require(convention in CONVENTIONS, f"convention must be one of {CONVENTIONS}")
    _require(math.isfinite(t_max) and t_max > 0, "t_max must be finite and > 0")
    _require(points >= 3, "points must be >= 3")
    _require_qudit_budget(d, points)

    model = LindbladModel(d=d, omega=1.0, gamma=ratio, convention=convention)
    _progress(f"qudit-trace: d={d} gamma/omega={ratio:g}")
    sidecar: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": "qudit-trace",
        "params": {"d": d, "gamma_over_omega": ratio, "convention": convention,
                   "t_max": t_max, "points": points},
    }
    ev, traj = qudit_entropy_trajectory(model, t_max=t_max, n_points=points)
    try:
        result = witness_from_trajectory(ev, traj)
        sidecar.update({
            "report": result.report.to_dict(),
            "revival_maxima": [list(p) for p in result.revival_maxima],
            "ordering_ok": result.ordering_ok,
        })
    except ExtremumNotFoundError as exc:
        # no witness pair on this window; still emit the entropy curves
        sidecar.update({"report": None, "error": str(exc)})
    rows = _column_rows(traj.times, traj.s_system, traj.neg_cond_sa, traj.neg_cond_as)
    _write_csv(cfg["output"], ["t", "S_S", "neg_S_cond_SA", "neg_S_cond_AS"], rows)
    _write_json(_sidecar_path(cfg["output"]), sidecar)
    return 0


# ---------------------------------------------------------------------------
# qudit-scan

_SCAN_SPEC = {
    "d_list": ("2,3,4,5", "comma-separated system dimensions"),
    "ratio_min": (0.01, "smallest gamma/omega (dimensionless)"),
    "ratio_max": (0.6, "largest gamma/omega"),
    "ratio_points": (60, "number of ratio grid points"),
    "convention": (DEFAULT_CONVENTION, f"ladder convention, one of {CONVENTIONS}"),
    "t_max": (12.0, "trajectory end time in units of 1/omega"),
    "points": (2001, "output grid points per trajectory"),
    "output": ("qudit_scan.csv", "CSV output path"),
}


def _cmd_qudit_scan(cfg: dict) -> int:
    d_list = _parse_list(cfg["d_list"], int)
    _require(len(d_list) > 0, "d list must not be empty")
    _require(all(int(d) >= 2 for d in d_list), "all dimensions must be >= 2")
    _require(0 <= float(cfg["ratio_min"]) < float(cfg["ratio_max"]) < math.inf,
             "need 0 <= ratio_min < ratio_max < inf")
    _require(int(cfg["ratio_points"]) >= 1, "ratio_points must be >= 1")
    _require(cfg["convention"] in CONVENTIONS, f"convention must be one of {CONVENTIONS}")
    _require(math.isfinite(float(cfg["t_max"])) and float(cfg["t_max"]) > 0,
             "t_max must be finite and > 0")
    _require(int(cfg["points"]) >= 3, "points must be >= 3")
    _require_qudit_budget(max(int(d) for d in d_list), int(cfg["points"]))

    ratios = np.linspace(float(cfg["ratio_min"]), float(cfg["ratio_max"]),
                         int(cfg["ratio_points"]))
    rows_out = []
    rows = scan_qudit(
        [int(d) for d in d_list], [float(r) for r in ratios],
        convention=cfg["convention"], t_max=float(cfg["t_max"]),
        n_points=int(cfg["points"]), progress=_progress,
    )
    n_failed = 0
    for row in rows:
        if row.error is not None:
            n_failed += 1
        message = "" if row.error is None else row.error.replace(",", ";")
        rows_out.append([
            row.d, row.gamma_over_omega, row.t1, row.t2, row.delta_s,
            row.detected, message,
        ])
    _write_csv(cfg["output"],
               ["d", "gamma_over_omega", "t1", "t2", "delta_S", "detected", "error"],
               rows_out)
    return 3 if rows and n_failed == len(rows) else 0


# ---------------------------------------------------------------------------
# gauss-lossy

_LOSSY_SPEC = {
    "eta_points": (101, "grid points per loss axis on [0, 1]"),
    "r_min": (1e-3, "lower end of the squeezing search range (> 0)"),
    "r_max": (6.0, "upper end of the squeezing search range"),
    "fixed_r": (None, "optional comma-separated squeezing values for sign sweeps"),
    "output": ("gauss_lossy.csv", "CSV output path"),
}


def _cmd_gauss_lossy(cfg: dict) -> int:
    n = int(cfg["eta_points"])
    r_min, r_max = float(cfg["r_min"]), float(cfg["r_max"])
    _require(n >= 2, "eta_points must be >= 2")
    r_bound = gaussian.SQUEEZING_MAX
    _require(0 < r_min < r_max <= r_bound,
             f"need 0 < r_min < r_max <= {r_bound:.6g} (cosh r overflows above)")
    fixed_r = _parse_list(cfg["fixed_r"] or "", float)
    _require(all(0 < r <= r_bound for r in fixed_r),
             f"fixed r values must lie in (0, {r_bound:.6g}] (cosh r overflows above)")
    # per cell the minimizer's (cells, 40) coarse-grid temporaries; per
    # fixed-r row its witness value and temporaries (rows are streamed)
    _require_memory(n * n * (3 * _KIB + 64 * len(fixed_r)) + 8 * _MIB,
                    f"eta_points={n} with {len(fixed_r)} fixed r values",
                    "eta_points^2 (3 KiB + 64 B fixed r values) + 8 MiB")

    _progress(f"gauss-lossy: {n}x{n} grid")
    etas = np.linspace(0.0, 1.0, n)
    e1, e2 = np.repeat(etas, n), np.tile(etas, n)   # eta1-major rows
    r_star, ds = gaussian.minimize_delta_S_over_r(e1, e2, r_min=r_min, r_max=r_max)
    _write_csv(cfg["output"], ["eta1", "eta2", "delta_S_min", "r_star"],
               _column_rows(e1, e2, ds, r_star))

    if fixed_r:
        rs = np.array(fixed_r, dtype=float)
        ds_r = gaussian.delta_S_lossy(e1, e2, rs[:, None])   # (r, cell)
        rows_r = itertools.chain.from_iterable(
            _column_rows(e1, e2, np.full(e1.size, r), ds_row, ds_row < 0)
            for r, ds_row in zip(rs, ds_r))
        stem = Path(cfg["output"])
        path_r = str(stem.with_name(stem.stem + "_fixed_r" + stem.suffix))
        _write_csv(path_r, ["eta1", "eta2", "r", "delta_S", "negative"], rows_r)
    return 0


# ---------------------------------------------------------------------------
# gauss-dho

_DHO_SPEC = {
    "g2": (1.0, "coupling strength |g|^2 (1/time^2, >= 0)"),
    "kappa": (0.25, "bath memory decay rate (1/time, > 0)"),
    "omega": (1.0, "oscillator frequency (1/time)"),
    "omega_big": (1.0, "bath central frequency (1/time)"),
    "t_max": (20.0, "trajectory end time (> 0)"),
    "points": (4001, "output grid points (>= 3)"),
    "r": (1.0, "squeezing parameter for the sidecar witness value"),
    "output": ("gauss_dho.csv", "CSV output path (JSON sidecar alongside)"),
}


def _cmd_gauss_dho(cfg: dict) -> int:
    g2, kappa = float(cfg["g2"]), float(cfg["kappa"])
    omega, omega_big = float(cfg["omega"]), float(cfg["omega_big"])
    t_max, points, r_probe = float(cfg["t_max"]), int(cfg["points"]), float(cfg["r"])
    _require(all(map(math.isfinite, (g2, kappa, omega, omega_big, t_max, r_probe))),
             "g2, kappa, omega, omega_big, t_max and r must be finite")
    _require(g2 >= 0, "g2 must be >= 0")
    _require(kappa > 0, "kappa must be > 0")
    _require(t_max > 0, "t_max must be > 0")
    _require(points >= 3, "points must be >= 3")
    _require(0 < r_probe <= gaussian.SQUEEZING_MAX,
             f"r must lie in (0, {gaussian.SQUEEZING_MAX:.6g}] (cosh r overflows above)")
    # the amplitude arrays and the output columns
    _require_memory(points * _KIB + 8 * _MIB, f"points={points}", "1 KiB points + 8 MiB")

    params = gaussian.DhoParams(g2=g2, kappa=kappa, omega=omega, omega_big=omega_big)
    _progress(f"gauss-dho: g2={g2:g} kappa={kappa:g}")
    grid = np.linspace(0.0, t_max, points)
    amp = gaussian.dho_amplitude(params, grid)
    abs_sq = np.abs(amp.c) ** 2
    # |c| may overshoot 1 by rounding; the loss stays in [0, 1]
    etas = np.clip(1.0 - abs_sq, 0.0, 1.0)
    columns = (amp.times, amp.c.real, amp.c.imag, abs_sq, etas, amp.gamma_t, amp.omega_t,
               np.isnan(amp.gamma_t))
    _write_csv(
        cfg["output"],
        ["t", "re_c", "im_c", "abs_c_sq", "eta", "gamma_t", "omega_t",
         "amplitude_vanished"],
        _column_rows(*columns),
    )

    pair = gaussian.first_loss_reversal(etas)
    sidecar: dict = {
        "schema_version": SCHEMA_VERSION,
        "command": "gauss-dho",
        "params": {"g2": g2, "kappa": kappa, "omega": omega, "omega_big": omega_big,
                   "t_max": t_max, "points": points, "r": r_probe},
    }
    if pair is None:
        sidecar.update({"detected": False, "pair": None})
    else:
        k1, k2 = pair
        eta1, eta2 = float(etas[k1]), float(etas[k2])
        ds = gaussian.delta_S_lossy(eta1, eta2, r_probe)
        sidecar.update({
            "detected": bool(ds < DETECTION_THRESHOLD),
            "pair": {
                "t1": float(grid[k1]), "t2": float(grid[k2]),
                "eta1": eta1, "eta2": eta2,
                "r": r_probe, "delta_s": float(ds),
            },
        })
    _write_json(_sidecar_path(cfg["output"]), sidecar)
    return 0


# ---------------------------------------------------------------------------
# witness-eval

_EVAL_SPEC = {
    "state_t1": (None, "JSON file with the earlier snapshot"),
    "state_t2": (None, "JSON file with the later snapshot"),
    "t1": (None, "optional time label of the earlier snapshot"),
    "t2": (None, "optional time label of the later snapshot"),
    "output": (None, "optional JSON output path (default: stdout)"),
}


def _load_state(path: str):
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read state file {path}: {exc}") from exc
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"state file {path}: schema_version must be {SCHEMA_VERSION}")
    kind = raw.get("kind")
    if kind == "density_matrix":
        try:
            data = np.array(raw["real"], dtype=float) + 1j * np.array(raw["imag"], dtype=float)
            dims = tuple(int(d) for d in raw["dims"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"state file {path}: malformed density matrix") from exc
        return DensityMatrix(data, dims)
    if kind == "covariance_blocks":
        try:
            return gaussian.TwoModeBlocks(
                alpha=np.array(raw["alpha"], dtype=float),
                beta=np.array(raw["beta"], dtype=float),
                gamma_block=np.array(raw["gamma"], dtype=float),
            )
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"state file {path}: malformed covariance blocks") from exc
    raise ConfigError(
        f"state file {path}: kind must be 'density_matrix' or 'covariance_blocks'"
    )


def _cmd_witness_eval(cfg: dict) -> int:
    _require(cfg["state_t1"] is not None and cfg["state_t2"] is not None,
             "witness-eval requires --state-t1 and --state-t2")
    t1 = None if cfg["t1"] is None else float(cfg["t1"])
    t2 = None if cfg["t2"] is None else float(cfg["t2"])
    if t1 is not None and t2 is not None:
        _require(t1 < t2, "t1 must be smaller than t2")
    s1 = _load_state(cfg["state_t1"])
    s2 = _load_state(cfg["state_t2"])
    if isinstance(s1, DensityMatrix) != isinstance(s2, DensityMatrix):
        raise ConfigError("both snapshots must be of the same kind")
    if isinstance(s1, DensityMatrix):
        report = evaluate_criterion(s1, s2, t1=t1, t2=t2)
    else:
        report = evaluate_criterion_gaussian(s1, s2, t1=t1, t2=t2)
    payload = {"schema_version": SCHEMA_VERSION, "command": "witness-eval",
               "report": report.to_dict()}
    if cfg["output"]:
        _write_json(cfg["output"], payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser assembly

_COMMANDS = {
    "qudit-trace": (_TRACE_SPEC, _cmd_qudit_trace,
                    "Entropy curves of the qudit-memory model over time."),
    "qudit-scan": (_SCAN_SPEC, _cmd_qudit_scan,
                   "Witness values over a (d, gamma/omega) grid."),
    "gauss-lossy": (_LOSSY_SPEC, _cmd_gauss_lossy,
                    "Minimized lossy-channel witness over an (eta1, eta2) grid."),
    "gauss-dho": (_DHO_SPEC, _cmd_gauss_dho,
                  "Damped-oscillator amplitude, loss and rate trajectories."),
    "witness-eval": (_EVAL_SPEC, _cmd_witness_eval,
                     "Witness report for two serialized snapshots."),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmemwitness",
        description="Quantum-memory witness computations for open-system dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (spec, _handler, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", default=None,
                       help="JSON config file (schema_version 1); flags override it")
        for param, (default, help_str) in spec.items():
            flag = "--" + param.replace("_", "-")
            p.add_argument(flag, default=None,
                           help=f"{help_str} [default: {default}]")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    spec, handler, _ = _COMMANDS[args.command]
    try:
        cfg = _merge_config(args, spec)
        return handler(cfg)
    except (ConfigError, ValueError) as exc:
        if isinstance(exc, QmemError):
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except QmemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
