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
from typing import Any, Callable, Iterable

import numpy as np

from . import gaussian
from .errors import ExtremumNotFoundError, QmemError
from .lindblad import CONVENTIONS, DEFAULT_CONVENTION, LindbladModel
from .states import DensityMatrix
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


# rows formatted and written per block, so no run holds its whole CSV
_CSV_BLOCK_ROWS = 4096

# per numpy dtype kind, a column's %-field and the Python values of a slice
_CSV_FIELDS = {
    "f": ("%.12g", lambda col: (col + 0.0).tolist()),   # + 0.0 turns -0.0 into 0.0
    "b": ("%s", lambda col: np.where(col, "true", "false").tolist()),
    "i": ("%d", np.ndarray.tolist),
    "U": ("%s", np.ndarray.tolist),
}


def _write_csv(path: str, header: list[str], blocks: Iterable[tuple]) -> None:
    """Write `header`, then the rows of each tuple of equally long float, bool,
    int or str columns in `blocks`: per `_CSV_BLOCK_ROWS` slice, each column
    is converted once and the slice is formatted by one %-template."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for columns in blocks:
            columns = [np.asarray(col) for col in columns]
            fields = [_CSV_FIELDS[col.dtype.kind] for col in columns]
            line = ",".join(field for field, _ in fields) + "\n"
            for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
                values = [convert(col[start:start + _CSV_BLOCK_ROWS])
                          for col, (_, convert) in zip(columns, fields)]
                fh.write(((line * len(values[0])) % tuple(
                    itertools.chain.from_iterable(zip(*values)))).encode("ascii"))


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=True)
    Path(path).write_bytes((text + "\n").encode("ascii"))


def _sidecar(command: str, cfg: dict) -> dict:
    """Sidecar header: the command and its resolved configuration minus the output path."""
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "params": {name: value for name, value in cfg.items() if name != "output"}}


def _sidecar_path(csv_path: str) -> str:
    return str(Path(csv_path).with_suffix(".json"))


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# configuration handling


def _checked(kind: type, domain: str, ok: Callable[[Any], bool]) -> Callable[[Any], Any]:
    """Converter of a flag's text to a `kind` value for which `ok` holds;
    any other text raises ValueError naming the flag's `domain`."""
    def convert(text):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise ValueError(f"must be {domain}, got {text!r}")
    return convert


def _at_least(low: int) -> Callable[[Any], int]:
    return _checked(int, f"an integer >= {low}", lambda v: v >= low)


def _list_of(item: Callable[[Any], Any]) -> Callable[[Any], list]:
    """Converter of comma-separated text to a list of `item` values."""
    return lambda text: [item(part) for part in str(text).replace(",", " ").split()]


_FINITE = _checked(float, "finite", math.isfinite)
_POSITIVE = _checked(float, "finite and > 0", lambda v: 0 < v < math.inf)
_NON_NEGATIVE = _checked(float, "finite and >= 0", lambda v: 0 <= v < math.inf)
_SQUEEZING = _checked(float, f"in (0, {gaussian.SQUEEZING_MAX:.6g}] (cosh r overflows above)",
                      lambda v: 0 < v <= gaussian.SQUEEZING_MAX)
_CONVENTION = _checked(str, f"one of {CONVENTIONS}", CONVENTIONS.__contains__)


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
    """Layer defaults < config file < explicit flags, then convert each value once.

    A file value becomes the text its flag would take (a list joined with
    commas, a scalar through str), so both layers pass through the flag's
    converter; None (a null in the file, an absent flag) keeps the layer
    below, and a None default stays None.
    """
    merged = {name: default for name, (default, _convert, _help) in spec.items()}
    for key, value in _load_config(args.config).items():
        if key not in merged:
            raise ConfigError(f"unknown config key {key!r}")
        if value is not None:
            merged[key] = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    for name in spec:
        if getattr(args, name) is not None:
            merged[name] = getattr(args, name)
    cfg = {}
    for name, (_default, convert, _help) in spec.items():
        try:
            cfg[name] = None if merged[name] is None else convert(merged[name])
        except ValueError as exc:
            raise ConfigError(f"{name} {exc}") from None
    return cfg


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
    # the (points, d, d, d) real Choi blocks with their validation
    # temporaries, the output rows, and the powers of a 4d-2 state sector;
    # the anchors that state_at caches later, 128 d (d+1) (d+2) / 6 bytes
    # each, at most 4 and more than one only within 64 MiB, fit in the
    # 24 KiB d^2 term for every admitted d
    _require_memory(10 * d ** 3 * points + _KIB * points + 24 * _KIB * d * d + 8 * _MIB,
                    f"d={d} with {points} points",
                    "10 d^3 points + 1 KiB points + 24 KiB d^2 + 8 MiB")


# ---------------------------------------------------------------------------
# qudit-trace

_TRACE_SPEC = {
    "d": (4, _at_least(2), "system dimension (>= 2)"),
    "gamma_over_omega": (0.05, _NON_NEGATIVE, "memory damping over coupling (dimensionless)"),
    "convention": (DEFAULT_CONVENTION, _CONVENTION,
                   f"ladder convention, one of {CONVENTIONS}"),
    "t_max": (12.0, _POSITIVE, "trajectory end time in units of 1/omega (> 0)"),
    "points": (2001, _at_least(3), "number of output grid points (>= 3)"),
    "output": ("qudit_trace.csv", str, "CSV output path (JSON sidecar alongside)"),
}


def _cmd_qudit_trace(cfg: dict) -> int:
    _require_qudit_budget(cfg["d"], cfg["points"])
    model = LindbladModel(d=cfg["d"], gamma=cfg["gamma_over_omega"], convention=cfg["convention"])
    _progress(f"qudit-trace: d={cfg['d']} gamma/omega={cfg['gamma_over_omega']:g}")
    sidecar = _sidecar("qudit-trace", cfg)
    ev, traj = qudit_entropy_trajectory(model, t_max=cfg["t_max"], n_points=cfg["points"])
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
    _write_csv(cfg["output"], ["t", "S_S", "neg_S_cond_SA", "neg_S_cond_AS"],
               [(traj.times, traj.s_system, traj.neg_cond_sa, traj.neg_cond_as)])
    _write_json(_sidecar_path(cfg["output"]), sidecar)
    return 0


# ---------------------------------------------------------------------------
# qudit-scan

_SCAN_SPEC = {
    "d_list": ("2,3,4,5", _list_of(_at_least(2)), "comma-separated system dimensions"),
    "ratio_min": (0.01, _NON_NEGATIVE, "smallest gamma/omega (dimensionless)"),
    "ratio_max": (0.6, _POSITIVE, "largest gamma/omega"),
    "ratio_points": (60, _at_least(1), "number of ratio grid points"),
    "convention": (DEFAULT_CONVENTION, _CONVENTION,
                   f"ladder convention, one of {CONVENTIONS}"),
    "t_max": (12.0, _POSITIVE, "trajectory end time in units of 1/omega"),
    "points": (2001, _at_least(3), "output grid points per trajectory"),
    "output": ("qudit_scan.csv", str, "CSV output path"),
}


def _cmd_qudit_scan(cfg: dict) -> int:
    _require(len(cfg["d_list"]) > 0, "d list must not be empty")
    _require(cfg["ratio_min"] < cfg["ratio_max"], "ratio_min must be smaller than ratio_max")
    _require_qudit_budget(max(cfg["d_list"]), cfg["points"])

    ratios = np.linspace(cfg["ratio_min"], cfg["ratio_max"], cfg["ratio_points"])
    rows = scan_qudit(cfg["d_list"], ratios.tolist(), convention=cfg["convention"],
                      t_max=cfg["t_max"], n_points=cfg["points"], progress=_progress)
    # None (a failed cell) becomes NaN and prints as nan
    floats = np.array([(row.gamma_over_omega, row.t1, row.t2, row.delta_s) for row in rows],
                      dtype=float)
    _write_csv(cfg["output"],
               ["d", "gamma_over_omega", "t1", "t2", "delta_S", "detected", "error"],
               [([row.d for row in rows], *floats.T,
                 [{None: "nan", True: "true", False: "false"}[row.detected] for row in rows],
                 ["" if row.error is None else row.error.replace(",", ";") for row in rows])])
    return 3 if all(row.error is not None for row in rows) else 0


# ---------------------------------------------------------------------------
# gauss-lossy

_LOSSY_SPEC = {
    "eta_points": (101, _at_least(2), "grid points per loss axis on [0, 1]"),
    "r_min": (1e-3, _SQUEEZING, "lower end of the squeezing search range (> 0)"),
    "r_max": (6.0, _SQUEEZING, "upper end of the squeezing search range"),
    "fixed_r": (None, _list_of(_SQUEEZING),
                "optional comma-separated squeezing values for sign sweeps"),
    "output": ("gauss_lossy.csv", str, "CSV output path"),
}


def _cmd_gauss_lossy(cfg: dict) -> int:
    n, fixed_r = cfg["eta_points"], cfg["fixed_r"] or []
    _require(cfg["r_min"] < cfg["r_max"], "r_min must be smaller than r_max")
    # per cell the minimizer's (cells, 40) coarse-grid temporaries; per
    # fixed-r row its witness value and temporaries (rows are streamed)
    _require_memory(n * n * (3 * _KIB + 64 * len(fixed_r)) + 8 * _MIB,
                    f"eta_points={n} with {len(fixed_r)} fixed r values",
                    "eta_points^2 (3 KiB + 64 B fixed r values) + 8 MiB")

    _progress(f"gauss-lossy: {n}x{n} grid")
    etas = np.linspace(0.0, 1.0, n)
    e1, e2 = np.repeat(etas, n), np.tile(etas, n)   # eta1-major rows
    r_star, ds = gaussian.minimize_delta_S_over_r(e1, e2, r_min=cfg["r_min"],
                                                  r_max=cfg["r_max"])
    _write_csv(cfg["output"], ["eta1", "eta2", "delta_S_min", "r_star"], [(e1, e2, ds, r_star)])

    if fixed_r:
        rs = np.array(fixed_r, dtype=float)
        ds_r = gaussian.delta_S_lossy(e1, e2, rs[:, None])   # (r, cell)
        # one block of columns per r, made as it is written
        blocks_r = ((e1, e2, np.full(e1.size, r), ds_row, ds_row < 0)
                    for r, ds_row in zip(rs, ds_r))
        stem = Path(cfg["output"])
        path_r = str(stem.with_name(stem.stem + "_fixed_r" + stem.suffix))
        _write_csv(path_r, ["eta1", "eta2", "r", "delta_S", "negative"], blocks_r)
    return 0


# ---------------------------------------------------------------------------
# gauss-dho

_DHO_SPEC = {
    "g2": (1.0, _NON_NEGATIVE, "coupling strength |g|^2 (1/time^2, >= 0)"),
    "kappa": (0.25, _POSITIVE, "bath memory decay rate (1/time, > 0)"),
    "omega": (1.0, _FINITE, "oscillator frequency (1/time)"),
    "omega_big": (1.0, _FINITE, "bath central frequency (1/time)"),
    "t_max": (20.0, _POSITIVE, "trajectory end time (> 0)"),
    "points": (4001, _at_least(3), "output grid points (>= 3)"),
    "r": (1.0, _SQUEEZING, "squeezing parameter for the sidecar witness value"),
    "output": ("gauss_dho.csv", str, "CSV output path (JSON sidecar alongside)"),
}


def _cmd_gauss_dho(cfg: dict) -> int:
    points, r_probe = cfg["points"], cfg["r"]
    # the amplitude arrays and the output columns
    _require_memory(points * _KIB + 8 * _MIB, f"points={points}", "1 KiB points + 8 MiB")

    params = gaussian.DhoParams(g2=cfg["g2"], kappa=cfg["kappa"], omega=cfg["omega"],
                                omega_big=cfg["omega_big"])
    _progress(f"gauss-dho: g2={cfg['g2']:g} kappa={cfg['kappa']:g}")
    grid = np.linspace(0.0, cfg["t_max"], points)
    amp = gaussian.dho_amplitude(params, grid)
    abs_sq = np.abs(amp.c) ** 2
    # |c| may overshoot 1 by rounding; the loss stays in [0, 1]
    etas = np.clip(1.0 - abs_sq, 0.0, 1.0)
    columns = (amp.times, amp.c.real, amp.c.imag, abs_sq, etas, amp.gamma_t, amp.omega_t,
               np.isnan(amp.gamma_t))
    _write_csv(cfg["output"], ["t", "re_c", "im_c", "abs_c_sq", "eta", "gamma_t", "omega_t",
                               "amplitude_vanished"], [columns])

    pair = gaussian.first_loss_reversal(etas)
    sidecar = _sidecar("gauss-dho", cfg)
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
    "state_t1": (None, str, "JSON file with the earlier snapshot"),
    "state_t2": (None, str, "JSON file with the later snapshot"),
    "t1": (None, _FINITE, "optional time label of the earlier snapshot"),
    "t2": (None, _FINITE, "optional time label of the later snapshot"),
    "output": (None, str, "optional JSON output path (default: stdout)"),
}


def _numbers(raw: dict, key: str, kinds: str = "iuf") -> np.ndarray:
    """The array under `key`; KeyError when absent, ValueError unless every
    entry is a number of one of the numpy `kinds` (integers or reals)."""
    arr = np.array(raw[key])
    if arr.dtype.kind not in kinds:
        raise ValueError(f"{key} has entries of the wrong type")
    return arr


def _load_state(path: str):
    """The snapshot in a state file.

    A file that cannot be read as its kind is a ConfigError; a readable
    snapshot that is not a physical state fails in its constructor with a
    QmemError.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read state file {path}: {exc}") from exc
    if not isinstance(raw, dict) or raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"state file {path} must hold a JSON object with "
                          f"schema_version {SCHEMA_VERSION}")
    kind = raw.get("kind")
    try:
        if kind == "density_matrix":
            real, imag = _numbers(raw, "real"), _numbers(raw, "imag")
            dims = tuple(int(d) for d in _numbers(raw, "dims", "iu"))
            n = math.prod(dims)
            if min(dims, default=0) < 1 or real.shape != (n, n) or imag.shape != (n, n):
                raise ValueError(f"real and imag must be {n}x{n} for dims {list(dims)}")
            return DensityMatrix(real + 1j * imag, dims)
        if kind == "covariance_blocks":
            blocks = [_numbers(raw, key) for key in ("alpha", "beta", "gamma")]
            if any(block.shape != (2, 2) for block in blocks):
                raise ValueError("alpha, beta and gamma must be 2x2")
            return gaussian.TwoModeBlocks(*blocks)
    except QmemError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"state file {path}: malformed {kind}: {exc}") from exc
    raise ConfigError(
        f"state file {path}: kind must be 'density_matrix' or 'covariance_blocks'"
    )


def _cmd_witness_eval(cfg: dict) -> int:
    _require(cfg["state_t1"] is not None and cfg["state_t2"] is not None,
             "witness-eval requires --state-t1 and --state-t2")
    t1, t2 = cfg["t1"], cfg["t2"]
    _require(t1 is None or t2 is None or t1 < t2, "t1 must be smaller than t2")
    s1 = _load_state(cfg["state_t1"])
    s2 = _load_state(cfg["state_t2"])
    if isinstance(s1, DensityMatrix) != isinstance(s2, DensityMatrix):
        raise ConfigError("both snapshots must be of the same kind")
    if isinstance(s1, DensityMatrix):
        if len(s1.dims) != 2 or s1.dims != s2.dims:
            raise ConfigError(f"snapshots must share bipartite dims, got {s1.dims} and {s2.dims}")
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


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of all five commands, where only `command`'s subparser
    has its flags: the others are listed but never parsed in this call."""
    parser = argparse.ArgumentParser(
        prog="qmemwitness",
        description="Quantum-memory witness computations for open-system dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (spec, _handler, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        if name != command:
            continue
        p.add_argument("--config", default=None,
                       help="JSON config file (schema_version 1); flags override it")
        for param, (default, _convert, help_str) in spec.items():
            flag = "--" + param.replace("_", "-")
            p.add_argument(flag, default=None,
                           help=f"{help_str} [default: {default}]")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser has no flag but --help, so a command comes first
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    spec, handler, _ = _COMMANDS[args.command]
    try:
        return handler(_merge_config(args, spec))
    except (QmemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
