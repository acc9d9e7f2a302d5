import copy
import json
import math
import os
import string
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qmemwitness
from qmemwitness import DensityMatrix, cli, delta_S_lossy, minimize_delta_S_over_r
from qmemwitness.cli import _COMMANDS, _write_csv, main
from qmemwitness.gaussian import SQUEEZING_MAX
from qmemwitness.witness import DETECTION_THRESHOLD
from oracles import max_entangled

BELL = DensityMatrix(max_entangled(2), (2, 2))


def run(argv):
    return main([str(a) for a in argv])


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def write_dm_state(path, rho):
    payload = {
        "schema_version": 1,
        "kind": "density_matrix",
        "dims": list(rho.dims),
        "real": rho.data.real.tolist(),
        "imag": rho.data.imag.tolist(),
    }
    path.write_text(json.dumps(payload))


def write_cov_state(path, alpha, beta, gamma):
    payload = {
        "schema_version": 1,
        "kind": "covariance_blocks",
        "alpha": np.asarray(alpha).tolist(),
        "beta": np.asarray(beta).tolist(),
        "gamma": np.asarray(gamma).tolist(),
    }
    path.write_text(json.dumps(payload))


def test_public_surface():
    # what the CLI, the benchmark and the criteria call, and no more
    assert sorted(qmemwitness.__all__) == [
        "CONVENTIONS", "CONVENTION_SPIN", "CONVENTION_TRUNCATED", "ChoiEvolution",
        "DEFAULT_CONVENTION", "DETECTION_THRESHOLD", "DensityMatrix", "DhoAmplitude",
        "DhoParams", "DomainError", "EntropyTrajectory", "ExtremumNotFoundError",
        "GaussianChannel", "InvalidStateError", "LindbladModel", "QmemError",
        "QuditScanRow", "QuditWitnessResult", "TwoModeBlocks", "WitnessReport",
        "choi_entropy_arrays", "cp_check", "delta_S_lossy", "dense_choi", "dho_amplitude",
        "dho_channel", "entropy_arrays", "entropy_gaussian", "evaluate_criterion",
        "evaluate_criterion_gaussian", "evolve_choi", "find_critical_ratio",
        "find_witness_times", "first_loss_reversal", "h", "minimize_delta_S_over_r",
        "ordering_check", "qudit_entropy_trajectory", "scan_qudit", "von_neumann_entropy",
        "witness_from_trajectory", "witness_qudit_model",
    ]
    exported = [getattr(qmemwitness, name) for name in qmemwitness.__all__]
    errors = [e for e in exported if isinstance(e, type) and issubclass(e, BaseException)]
    assert sorted(e.__name__ for e in errors) == [
        "DomainError", "ExtremumNotFoundError", "InvalidStateError", "QmemError"]
    assert all(issubclass(e, qmemwitness.QmemError) for e in errors)
    assert issubclass(qmemwitness.DomainError, ValueError)
    assert issubclass(qmemwitness.InvalidStateError, ValueError)


def test_value_types_with_array_fields_compare_by_identity():
    # == on ndarray fields is elementwise, so these types compare and hash
    # by identity; before, == raised ValueError and hash() TypeError
    q = qmemwitness
    traj = q.EntropyTrajectory(*np.zeros((4, 3)))
    report = q.WitnessReport(0.5, 0.2, 0.1, 1.0, 2.0)
    values = [
        q.DensityMatrix(np.eye(4) / 4, (2, 2)),
        q.GaussianChannel(np.eye(2), np.zeros((2, 2))),
        q.TwoModeBlocks(np.eye(2) / 2, np.eye(2) / 2, np.zeros((2, 2))),
        q.dho_amplitude(q.DhoParams(1.0, 0.25, 1.0, 1.0), [0.0, 1.0]),
        traj,
        q.QuditWitnessResult(report, traj, (), True),
    ]
    for x in values:
        assert x == x and x != copy.copy(x)
        assert x in {x} and copy.copy(x) not in {x}
    # the types without array fields keep value equality
    assert report == q.WitnessReport(0.5, 0.2, 0.1, 1.0, 2.0)
    assert q.DhoParams(1.0, 0.25, 1.0, 1.0) == q.DhoParams(1.0, 0.25, 1.0, 1.0)
    assert q.LindbladModel(d=3, gamma=0.1) == q.LindbladModel(d=3, gamma=0.1)


def test_import_loads_no_ode_solver():
    # importing scipy.integrate made importing the package about 430 ms slower
    env = {**os.environ, "PYTHONPATH": str(Path(qmemwitness.__file__).resolve().parents[1])}
    code = "import sys, qmemwitness.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_loads_no_scipy():
    # scipy.linalg was about 70% of the package's import time and 28 MB of RSS
    env = {**os.environ, "PYTHONPATH": str(Path(qmemwitness.__file__).resolve().parents[1])}
    code = "import sys, qmemwitness.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_csv_rows_stream_in_blocks(tmp_path):
    # columns longer than two blocks give the same bytes as joining every line
    out = tmp_path / "x.csv"
    k = np.arange(10000)
    _write_csv(out, ["k", "third", "odd"], [(k, k / 3, k % 2 == 1)])
    lines = ["k,third,odd"] + [f"{k},{k / 3:.12g},{str(k % 2 == 1).lower()}"
                               for k in range(10000)]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")


def test_csv_list_column_is_converted_per_slice(tmp_path):
    # one long message widens the str array of its own 64-row slice only:
    # converted whole, the column would be an 8193 x 1000-character array (32 MB)
    out = tmp_path / "x.csv"
    messages = ["short"] * 8192 + ["x" * 1000]
    tracemalloc.start()
    try:
        with mock.patch.object(cli, "_CSV_BLOCK_ROWS", 64):
            _write_csv(out, ["error"], [(messages,)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert out.read_bytes() == ("\n".join(["error", *messages]) + "\n").encode("ascii")


def _old_csv_value(value) -> str:
    """The per-value CSV rule the columnar writer must reproduce."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value + 0.0, ".12g")
    return str(value)


_CSV_KINDS = {
    "float": st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                       -1e-308, 1e308, math.nan, -math.inf]),
    "bool": st.booleans(),
    "int": st.integers(-2 ** 63, 2 ** 63 - 1),
    "str": st.text(string.ascii_letters + string.digits + " ;%-._()", max_size=12),
}


@st.composite
def _csv_blocks(draw):
    """Column kinds, then blocks of rows of those kinds (as columns and as
    rows); each column is an array or, as the scan passes some, a list."""
    kinds = draw(st.lists(st.sampled_from(sorted(_CSV_KINDS)), min_size=1, max_size=6))
    as_list = draw(st.lists(st.booleans(), min_size=len(kinds), max_size=len(kinds)))
    blocks = draw(st.lists(st.lists(st.tuples(*(_CSV_KINDS[k] for k in kinds)), max_size=12),
                           min_size=1, max_size=3))
    dtypes = {"float": float, "bool": bool, "int": np.int64, "str": str}
    columns = [tuple([row[i] for row in rows] if listed
                     else np.array([row[i] for row in rows], dtype=dtypes[kind])
                     for i, (kind, listed) in enumerate(zip(kinds, as_list)))
               for rows in blocks if rows]
    return kinds, blocks, columns


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_csv_blocks())
def test_csv_columns_follow_the_per_value_rule(tmp_path, case):
    # NaN, +-inf, -0.0, subnormals and extreme magnitudes, mixed with bools,
    # ints and strings holding "%", across slices of 5 rows
    kinds, blocks, columns = case
    out = tmp_path / "x.csv"
    with mock.patch.object(cli, "_CSV_BLOCK_ROWS", 5):
        _write_csv(out, kinds, columns)
    lines = [",".join(kinds)] + [",".join(map(_old_csv_value, row))
                                 for rows in blocks for row in rows]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")


def test_csv_block_size_leaves_every_command_unchanged(tmp_path, monkeypatch):
    # slices of 7 rows cut the trace, the scan, each fixed-r block and the
    # DHO columns elsewhere than the default block size does
    commands = [
        ["qudit-trace", "--d", 2, "--t-max", 8, "--points", 101, "--output", "trace.csv"],
        ["qudit-scan", "--d-list", "2,3", "--ratio-min", 0.05, "--ratio-max", 0.6,
         "--ratio-points", 5, "--t-max", 8, "--points", 101, "--output", "scan.csv"],
        ["gauss-lossy", "--eta-points", 5, "--fixed-r", "0.5,1,2", "--output", "lossy.csv"],
        ["gauss-dho", "--points", 101, "--output", "dho.csv"],
    ]
    written = {}
    for block_rows in (cli._CSV_BLOCK_ROWS, 7):
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
        out = tmp_path / str(block_rows)
        out.mkdir()
        for argv in commands:
            assert run(argv[:-1] + [out / argv[-1]]) == 0
        written[block_rows] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(written[7]) == 7   # four CSVs, the fixed-r CSV and two sidecars
    assert written[7] == written[cli._CSV_BLOCK_ROWS]


class TestQuditTrace:
    def test_default_model_detects(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run(["qudit-trace", "--d", 2, "--gamma-over-omega", 0.05,
                    "--t-max", 8, "--points", 401, "--output", out])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "S_S", "neg_S_cond_SA", "neg_S_cond_AS"]
        assert len(rows) == 401
        sidecar = json.loads((tmp_path / "trace.json").read_text())
        assert sidecar["report"]["quantum_memory_detected"] is True
        assert sidecar["ordering_ok"] is True

    def test_unitary_limit_still_reports(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run(["qudit-trace", "--d", 2, "--gamma-over-omega", 0.0,
                    "--t-max", 8, "--points", 401, "--output", out])
        assert code == 0
        sidecar = json.loads((tmp_path / "trace.json").read_text())
        assert sidecar["report"] is not None
        assert sidecar["report"]["delta_s"] < 1e-6

    def test_no_extrema_reports_curves_from_one_evolution(self, tmp_path, monkeypatch):
        from qmemwitness import witness

        calls = []
        inner = witness.evolve_choi

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(witness, "evolve_choi", counted)
        out = tmp_path / "trace.csv"
        code = run(["qudit-trace", "--d", 2, "--gamma-over-omega", 0.05,
                    "--t-max", 1.2, "--points", 121, "--output", out])
        assert code == 0
        sidecar = json.loads((tmp_path / "trace.json").read_text())
        assert sidecar["report"] is None and sidecar["error"]
        _, rows = read_csv(out)
        assert len(rows) == 121
        assert len(calls) == 1

    def test_non_finite_ratio_is_config_error(self, tmp_path):
        for ratio in ("nan", "inf"):
            assert run(["qudit-trace", "--gamma-over-omega", ratio,
                        "--output", tmp_path / "x.csv"]) == 2
            assert run(["qudit-scan", "--ratio-max", ratio,
                        "--output", tmp_path / "s.csv"]) == 2

    def test_zero_t_max_is_config_error(self, tmp_path):
        code = run(["qudit-trace", "--t-max", 0, "--output", tmp_path / "x.csv"])
        assert code == 2

    @pytest.mark.parametrize("t_max", ["inf", "nan"])
    def test_non_finite_t_max_is_config_error(self, tmp_path, t_max, capsys):
        out = tmp_path / "x.csv"
        assert run(["qudit-trace", "--t-max", t_max, "--output", out]) == 2
        assert "t_max must be finite" in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".json").exists()

    def test_over_memory_budget_is_config_error(self, tmp_path, capsys):
        # 10 d^3 points + 1 KiB points + 24 KiB d^2 + 8 MiB: d=300 would
        # need 2.82 GiB
        out = tmp_path / "x.csv"
        assert run(["qudit-trace", "--d", 300, "--points", 3, "--output", out]) == 2
        assert "needs about 2.82 GiB" in capsys.readouterr().err
        assert not out.exists()

    def test_budget_counts_more_than_the_trajectory(self, tmp_path, capsys):
        # the Choi blocks alone (1.83 GiB) would fit, the run's working set would not
        out = tmp_path / "x.csv"
        assert run(["qudit-trace", "--d", 16, "--points", 60001, "--output", out]) == 2
        assert "d=16 with 60001 points needs about 2.36 GiB" in capsys.readouterr().err
        assert not out.exists()

    def test_scan_budget_counts_cells(self, tmp_path, capsys):
        # 1 KiB per cell: the ratio grid alone would not fit in any memory
        out = tmp_path / "s.csv"
        assert run(["qudit-scan", "--d-list", 2, "--ratio-points", 10 ** 15,
                    "--output", out]) == 2
        err = capsys.readouterr().err
        assert "a scan of 1000000000000000 cells needs about" in err
        assert "over the 2 GiB budget" in err
        assert not out.exists()

    def test_budget_admits_d16_and_rejects_oversize_d_before_computing(
            self, tmp_path, monkeypatch, capsys):
        reached = []

        def stop(model, **kwargs):
            reached.append(model.d)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "qudit_entropy_trajectory", stop)
        out = tmp_path / "x.csv"
        with pytest.raises(KeyboardInterrupt):
            run(["qudit-trace", "--d", 16, "--points", 2001, "--output", out])
        assert reached == [16]
        assert run(["qudit-trace", "--d", 48, "--points", 2001, "--output", out]) == 2
        assert "d=48 with 2001 points needs about 2.12 GiB" in capsys.readouterr().err
        assert reached == [16] and not out.exists()

    def test_budget_covers_the_anchor_cache(self):
        # the cached probe anchors (at most 16 Taylor terms of
        # sum_q (d-q)(d-q+1)/2 real entries each) fit in the 24 KiB d^2 term
        # for every d the budget admits at all
        from qmemwitness.lindblad import _ANCHOR_BYTES, _ANCHORS

        d = 2
        while True:
            try:
                cli._require_qudit_budget(d, 3)
            except cli.ConfigError:
                break
            anchor = 8 * 16 * d * (d + 1) * (d + 2) // 6
            cached = anchor * max(1, min(_ANCHORS, _ANCHOR_BYTES // anchor))
            assert cached <= 24 * 1024 * d * d
            d += 1
        assert d > 150

    def test_byte_identical_reruns(self, tmp_path):
        args = ["qudit-trace", "--d", 2, "--gamma-over-omega", 0.1,
                "--t-max", 6, "--points", 201]
        assert run(args + ["--output", tmp_path / "a.csv"]) == 0
        assert run(args + ["--output", tmp_path / "b.csv"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "d": 2, "gamma_over_omega": 0.1,
            "t_max": 6.0, "points": 201,
        }))
        out = tmp_path / "c.csv"
        code = run(["qudit-trace", "--config", cfg, "--points", 101,
                    "--output", out])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 101

    def test_bad_config_schema(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 2, "d": 2}))
        assert run(["qudit-trace", "--config", cfg,
                    "--output", tmp_path / "x.csv"]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "dd": 2}))
        assert run(["qudit-trace", "--config", cfg,
                    "--output", tmp_path / "x.csv"]) == 2

    @pytest.mark.parametrize("d", [2.9, True])
    def test_config_non_integer_d_is_config_error(self, tmp_path, d):
        # the file value takes the path of --d: int("2.9") fails instead of truncating
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "d": d}))
        out = tmp_path / "x.csv"
        assert run(["qudit-trace", "--config", cfg, "--points", 101, "--output", out]) == 2
        assert not out.exists() and not out.with_suffix(".json").exists()


class TestQuditScan:
    def test_config_scalar_d_list(self, tmp_path):
        # a scalar reads as a one-element list, like --d-list 3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "d_list": 3}))
        out = tmp_path / "scan.csv"
        assert run(["qudit-scan", "--config", cfg, "--ratio-min", 0.2, "--ratio-max", 0.5,
                    "--ratio-points", 1, "--t-max", 8, "--points", 401,
                    "--output", out]) == 0
        _, rows = read_csv(out)
        assert [row[0] for row in rows] == ["3"]

    def test_small_scan(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run(["qudit-scan", "--d-list", "2", "--ratio-min", 0.2,
                    "--ratio-max", 0.5, "--ratio-points", 2,
                    "--t-max", 8, "--points", 401, "--output", out])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["d", "gamma_over_omega", "t1", "t2", "delta_S",
                          "detected", "error"]
        assert len(rows) == 2
        for row in rows:
            assert row[5] == "true"
            assert float(row[4]) < 0

    def test_all_cells_failing_prints_nan_rows(self, tmp_path):
        # no cell finds a witness pair: every row prints nan and its error, exit 3
        out = tmp_path / "scan.csv"
        assert run(["qudit-scan", "--d-list", 2, "--ratio-min", 0, "--ratio-max", 50,
                    "--ratio-points", 3, "--t-max", 0.5, "--points", 11, "--output", out]) == 3
        assert out.read_text().splitlines()[1:] == [
            f"2,{ratio},nan,nan,nan,nan,no interior local minimum of s_system"
            for ratio in (0, 25, 50)]

    def test_empty_d_list_is_config_error(self, tmp_path):
        assert run(["qudit-scan", "--d-list", "", "--output",
                    tmp_path / "scan.csv"]) == 2

    @pytest.mark.parametrize("t_max", ["inf", "nan"])
    def test_non_finite_t_max_is_config_error(self, tmp_path, t_max, capsys):
        out = tmp_path / "scan.csv"
        assert run(["qudit-scan", "--d-list", "2", "--ratio-points", 1,
                    "--t-max", t_max, "--output", out]) == 2
        err = capsys.readouterr().err
        assert "t_max must be finite" in err and "Warning" not in err
        assert not out.exists()

    def test_over_memory_budget_is_config_error(self, tmp_path, capsys):
        # the largest d of the list sets the budget
        out = tmp_path / "scan.csv"
        assert run(["qudit-scan", "--d-list", "2,90", "--points", 2001,
                    "--output", out]) == 2
        assert "d=90 with 2001 points" in capsys.readouterr().err
        assert not out.exists()


class TestGaussLossy:
    def test_config_scalar_fixed_r(self, tmp_path):
        # a scalar reads as a one-element list, like --fixed-r 1.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "fixed_r": 1.0}))
        out = tmp_path / "lossy.csv"
        assert run(["gauss-lossy", "--config", cfg, "--eta-points", 3, "--output", out]) == 0
        _, rows_r = read_csv(tmp_path / "lossy_fixed_r.csv")
        assert len(rows_r) == 9 and {row[2] for row in rows_r} == {"1"}

    def test_grid_and_fixed_r(self, tmp_path):
        out = tmp_path / "lossy.csv"
        code = run(["gauss-lossy", "--eta-points", 6, "--fixed-r", "1,2",
                    "--output", out])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["eta1", "eta2", "delta_S_min", "r_star"]
        assert len(rows) == 36
        cells = {(row[0], row[1]): float(row[2]) for row in rows}
        for k in range(6):
            e = format(k / 5.0, ".12g")
            assert cells[(e, e)] >= -1e-9
        assert cells[(format(1.0, ".12g"), format(0.0, ".12g"))] < -0.6
        assert cells[(format(0.8, ".12g"), format(0.2, ".12g"))] < 0
        header_r, rows_r = read_csv(tmp_path / "lossy_fixed_r.csv")
        assert header_r == ["eta1", "eta2", "r", "delta_S", "negative"]
        assert len(rows_r) == 2 * 36
        for row in rows_r:
            assert row[4] == ("true" if float(row[3]) < 0 else "false")

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(["gauss-lossy", "--eta-points", 5, "--output", a]) == 0
        assert run(["gauss-lossy", "--eta-points", 5, "--output", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_range(self, tmp_path):
        assert run(["gauss-lossy", "--r-min", 2, "--r-max", 1,
                    "--output", tmp_path / "x.csv"]) == 2

    @pytest.mark.parametrize("flags", [["--r-max", "inf"], ["--r-min", "nan"],
                                       ["--r-max", "nan"], ["--fixed-r", "1,inf"],
                                       ["--fixed-r", "nan"]])
    def test_non_finite_flags_are_config_errors(self, tmp_path, flags):
        out = tmp_path / "x.csv"
        assert run(["gauss-lossy", "--eta-points", 3, *flags, "--output", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--r-max", "1000"], ["--fixed-r", "1,711"]])
    def test_squeezing_above_cosh_overflow_is_config_error(self, tmp_path, flags, capsys):
        out = tmp_path / "x.csv"
        assert run(["gauss-lossy", "--eta-points", 3, *flags, "--output", out]) == 2
        assert "cosh r overflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, need", [(["--eta-points", 3000], "3.23 GiB")])
    def test_over_memory_budget_is_config_error(self, tmp_path, flags, need, capsys):
        # 384 B eta_points^2 + 8 MiB
        out = tmp_path / "x.csv"
        assert run(["gauss-lossy", *flags, "--output", out]) == 2
        assert f"needs about {need}" in capsys.readouterr().err
        assert not out.exists()

    def test_fixed_r_rows_evaluated_one_r_at_a_time(self, tmp_path, monkeypatch):
        # no (r, cell) array is held: each r takes one delta_S_lossy call of
        # its own, besides the minimizer's calls on every cell
        calls = []

        def counted(eta1, eta2, r):
            calls.append(np.asarray(r).tolist())
            return delta_S_lossy(eta1, eta2, r)

        monkeypatch.setattr(cli.gaussian, "delta_S_lossy", counted)
        out = tmp_path / "lossy.csv"
        assert run(["gauss-lossy", "--eta-points", 4, "--fixed-r", "0.5,2,3",
                    "--output", out]) == 0
        assert [r for r in calls if not isinstance(r, list)] == [0.5, 2.0, 3.0]
        assert all(len(r) == 16 for r in calls if isinstance(r, list))

    def test_rows_match_per_cell_minimization(self, tmp_path):
        out = tmp_path / "lossy.csv"
        assert run(["gauss-lossy", "--eta-points", 4, "--r-min", 0.01, "--r-max", 5,
                    "--fixed-r", "0.5,2", "--output", out]) == 0
        _, rows = read_csv(out)
        etas = np.linspace(0.0, 1.0, 4)
        expected = []
        for e1 in etas:
            for e2 in etas:
                r_star, ds = minimize_delta_S_over_r(float(e1), float(e2), r_min=0.01, r_max=5.0)
                expected.append([format(float(v), ".12g") for v in (e1, e2, ds, r_star)])
        assert [row[:3] for row in rows] == [row[:3] for row in expected]
        for row, ref in zip(rows, expected):
            assert abs(float(row[3]) - float(ref[3])) <= 1e-6 * float(ref[3])
        _, rows_r = read_csv(tmp_path / "lossy_fixed_r.csv")
        expected_r = [[format(float(v), ".12g") for v in (e1, e2, r)]
                      + [format(delta_S_lossy(float(e1), float(e2), r), ".12g")]
                      for r in (0.5, 2.0) for e1 in etas for e2 in etas]
        assert [row[:4] for row in rows_r] == expected_r


class TestGaussDho:
    def test_default_parameters_detect(self, tmp_path):
        out = tmp_path / "dho.csv"
        code = run(["gauss-dho", "--t-max", 8, "--points", 801, "--output", out])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "re_c", "im_c", "abs_c_sq", "eta", "gamma_t",
                          "omega_t", "amplitude_vanished"]
        assert len(rows) == 801
        sidecar = json.loads((tmp_path / "dho.json").read_text())
        assert sidecar["detected"] is True
        pair = sidecar["pair"]
        assert pair["t1"] < pair["t2"]
        assert pair["eta2"] < pair["eta1"]
        assert pair["delta_s"] < 0

    def test_decoupled_never_detects(self, tmp_path):
        out = tmp_path / "dho.csv"
        code = run(["gauss-dho", "--g2", 0, "--t-max", 6, "--points", 301,
                    "--output", out])
        assert code == 0
        sidecar = json.loads((tmp_path / "dho.json").read_text())
        assert sidecar["detected"] is False
        _, rows = read_csv(out)
        for row in rows:
            assert abs(float(row[4])) < 1e-8   # eta stays 0

    def test_overdamped_never_detects(self, tmp_path):
        out = tmp_path / "dho.csv"
        code = run(["gauss-dho", "--kappa", 50, "--t-max", 20, "--points", 501,
                    "--output", out])
        assert code == 0
        sidecar = json.loads((tmp_path / "dho.json").read_text())
        assert sidecar["detected"] is False

    def test_rounding_level_reversal_not_detected(self, tmp_path):
        # the loss reverses, but delta_s sits above the detection threshold
        out = tmp_path / "dho.csv"
        assert run(["gauss-dho", "--g2", "0.029798371355155395", "--output", out]) == 0
        sidecar = json.loads((tmp_path / "dho.json").read_text())
        assert DETECTION_THRESHOLD < sidecar["pair"]["delta_s"] < 0
        assert sidecar["detected"] is False

    def test_bad_kappa(self, tmp_path):
        assert run(["gauss-dho", "--kappa", 0, "--output", tmp_path / "x.csv"]) == 2

    def test_overflow_is_numerical_error_without_warnings(self, tmp_path):
        # numpy's overflow warnings stayed on stderr ahead of the error
        env = {**os.environ, "PYTHONPATH": str(Path(qmemwitness.__file__).resolve().parents[1])}
        code = ("import sys; from qmemwitness.cli import main; sys.exit(main(['gauss-dho', "
                "'--g2', '1e300', '--t-max', '1e300', '--output', sys.argv[1]]))")
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "x.csv")], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 3
        assert "amplitude and its derivative must be finite" in out.stderr
        assert "RuntimeWarning" not in out.stderr

    def test_over_memory_budget_is_config_error(self, tmp_path, capsys):
        # 1 KiB per point + 8 MiB
        out = tmp_path / "x.csv"
        assert run(["gauss-dho", "--points", 10 ** 7, "--output", out]) == 2
        assert "points=10000000 needs about 9.54 GiB" in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".json").exists()

    @pytest.mark.parametrize("flag", ["--g2", "--kappa", "--omega", "--omega-big",
                                      "--t-max", "--r"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_flags_are_config_errors(self, tmp_path, flag, value):
        out = tmp_path / "x.csv"
        assert run(["gauss-dho", flag, value, "--output", out]) == 2
        assert not out.exists()


class TestWitnessEval:
    def test_density_matrix_pair(self, tmp_path, capsys):
        f1 = tmp_path / "s1.json"
        f2 = tmp_path / "s2.json"
        write_dm_state(f1, BELL)
        write_dm_state(f2, BELL)
        assert run(["witness-eval", "--state-t1", f1, "--state-t2", f2]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["quantum_memory_detected"] is False
        assert abs(payload["report"]["delta_s"]) < 1e-9

    def test_gaussian_pair_detects(self, tmp_path, capsys):
        r = 1.0
        ch, sh = math.cosh(r), math.sinh(r)
        f1 = tmp_path / "s1.json"
        f2 = tmp_path / "s2.json"
        # full loss at t1, untouched probe at t2
        write_cov_state(f1, np.eye(2) / 2, ch / 2 * np.eye(2), np.zeros((2, 2)))
        write_cov_state(f2, ch / 2 * np.eye(2), ch / 2 * np.eye(2),
                        sh / 2 * np.diag([1.0, -1.0]))
        code = run(["witness-eval", "--state-t1", f1, "--state-t2", f2,
                    "--t1", 1.0, "--t2", 2.0])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["quantum_memory_detected"] is True
        assert abs(payload["report"]["delta_s"] + 0.6594529591680367) < 1e-9

    def test_product_thermal_pair_not_detected(self, tmp_path, capsys):
        # vacua at t1, a product of thermal modes just above the vacuum at t2
        nu = 0.5 + 8e-7
        f1 = tmp_path / "s1.json"
        f2 = tmp_path / "s2.json"
        write_cov_state(f1, np.eye(2) / 2, np.eye(2) / 2, np.zeros((2, 2)))
        write_cov_state(f2, nu * np.eye(2), nu * np.eye(2), np.zeros((2, 2)))
        assert run(["witness-eval", "--state-t1", f1, "--state-t2", f2]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["quantum_memory_detected"] is False
        assert report["delta_s"] > 0.0

    def test_output_file(self, tmp_path):
        f1 = tmp_path / "s1.json"
        write_dm_state(f1, BELL)
        out = tmp_path / "report.json"
        assert run(["witness-eval", "--state-t1", f1, "--state-t2", f1,
                    "--output", out]) == 0
        assert json.loads(out.read_text())["command"] == "witness-eval"

    def test_mixed_kinds_rejected(self, tmp_path):
        f1 = tmp_path / "s1.json"
        f2 = tmp_path / "s2.json"
        write_dm_state(f1, BELL)
        write_cov_state(f2, np.eye(2) / 2, np.eye(2) / 2, np.zeros((2, 2)))
        assert run(["witness-eval", "--state-t1", f1, "--state-t2", f2]) == 2

    @pytest.mark.parametrize("dims1, dims2", [((4,), (4,)), ((2, 2), (3, 3))])
    def test_dims_mismatch_is_config_error(self, tmp_path, capsys, dims1, dims2):
        files = []
        for name, dims in (("s1.json", dims1), ("s2.json", dims2)):
            n = int(np.prod(dims))
            files.append(tmp_path / name)
            files[-1].write_text(json.dumps({
                "schema_version": 1, "kind": "density_matrix", "dims": list(dims),
                "real": (np.eye(n) / n).tolist(), "imag": np.zeros((n, n)).tolist()}))
        assert run(["witness-eval", "--state-t1", files[0], "--state-t2", files[1]]) == 2
        assert "snapshots must share bipartite dims" in capsys.readouterr().err

    def test_invalid_state_is_numerical_failure(self, tmp_path):
        f1 = tmp_path / "s1.json"
        bad = {
            "schema_version": 1, "kind": "density_matrix", "dims": [2],
            "real": [[0.25, 0.0], [0.0, 0.25]],
            "imag": [[0.0, 0.0], [0.0, 0.0]],
        }
        f1.write_text(json.dumps(bad))
        assert run(["witness-eval", "--state-t1", f1, "--state-t2", f1]) == 3

    def test_nan_snapshot_is_numerical_failure(self, tmp_path, capsys):
        f1 = tmp_path / "s1.json"
        nan = {"schema_version": 1, "kind": "density_matrix", "dims": [2, 2],
               "real": np.full((4, 4), np.nan).tolist(), "imag": np.zeros((4, 4)).tolist()}
        f1.write_text(json.dumps(nan))
        f2 = tmp_path / "s2.json"
        write_dm_state(f2, BELL)
        assert run(["witness-eval", "--state-t1", f1, "--state-t2", f2]) == 3
        assert run(["witness-eval", "--state-t1", f2, "--state-t2", f1]) == 3
        assert capsys.readouterr().out == ""

    def test_unordered_times_rejected(self, tmp_path):
        f1 = tmp_path / "s1.json"
        write_dm_state(f1, BELL)
        assert run(["witness-eval", "--state-t1", f1, "--state-t2", f1,
                    "--t1", 2.0, "--t2", 1.0]) == 2

    @pytest.mark.parametrize("payload", [
        [1, 2],
        {"kind": "density_matrix", "dims": [2, 2], "real": [[1.0]], "imag": [[0.0]]},
        {"kind": "density_matrix", "dims": [2], "real": [[1.0, 0.0]], "imag": [[0.0, 0.0]]},
        {"kind": "density_matrix", "dims": [2], "real": [[0.5, "a"], [0.0, 0.5]],
         "imag": [[0.0, 0.0], [0.0, 0.0]]},
        {"kind": "density_matrix", "dims": [2], "real": [[0.5, 0.0], [0.0, 0.5]]},
        {"kind": "density_matrix", "dims": "22", "real": (np.eye(4) / 4).tolist(),
         "imag": np.zeros((4, 4)).tolist()},
        {"kind": "density_matrix", "dims": [2.7, 2.2], "real": (np.eye(4) / 4).tolist(),
         "imag": np.zeros((4, 4)).tolist()},
        {"kind": "covariance_blocks", "alpha": np.eye(3).tolist(), "beta": np.eye(2).tolist(),
         "gamma": np.zeros((2, 2)).tolist()},
        {"kind": "covariance_blocks", "alpha": [[0.5, None], [None, 0.5]],
         "beta": np.eye(2).tolist(), "gamma": np.zeros((2, 2)).tolist()},
    ], ids=["not-an-object", "dims-mismatch", "not-square", "non-numeric", "missing-imag",
            "dims-string", "dims-fraction", "block-3x3", "null-entry"])
    def test_unreadable_snapshot_is_config_error(self, tmp_path, payload, capsys):
        # a file that cannot be read as its kind is a bad request, not a failed computation
        bad = tmp_path / "bad.json"
        if isinstance(payload, dict):
            payload = {"schema_version": 1, **payload}
        bad.write_text(json.dumps(payload))
        assert run(["witness-eval", "--state-t1", bad, "--state-t2", bad]) == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", [0.1 * np.eye(2), np.full((2, 2), np.nan)],
                             ids=["uncertainty-violated", "nan"])
    def test_unphysical_covariance_is_numerical_failure(self, tmp_path, alpha, capsys):
        # well-formed blocks that are no physical state fail like a bad density matrix
        f1 = tmp_path / "s1.json"
        write_cov_state(f1, alpha, np.eye(2) / 2, np.zeros((2, 2)))
        assert run(["witness-eval", "--state-t1", f1, "--state-t2", f1]) == 3
        assert capsys.readouterr().out == ""

    def test_bad_time_label_rejected_before_reading_states(self, tmp_path, monkeypatch, capsys):
        def unreachable(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli, "_load_state", unreachable)
        f1 = tmp_path / "s1.json"
        write_dm_state(f1, BELL)
        assert run(["witness-eval", "--state-t1", f1, "--state-t2", f1, "--t1", "nan"]) == 2
        assert "t1 must be finite" in capsys.readouterr().err


# A value just past the domain of every flag whose converter rejects "nan";
# flags without a bound beyond finiteness take -inf.
PAST_BOUND = {
    "d": 1, "gamma_over_omega": -5e-324, "convention": "bogus", "t_max": 0, "points": 2,
    "d_list": [2, 1], "ratio_min": -5e-324, "ratio_max": 0, "ratio_points": 0,
    "eta_points": 1, "r_min": 0, "r_max": float(np.nextafter(SQUEEZING_MAX, np.inf)),
    "fixed_r": [1.0, float(np.nextafter(SQUEEZING_MAX, np.inf))],
    "g2": -5e-324, "kappa": 0, "omega": -math.inf, "omega_big": -math.inf,
    "r": float(np.nextafter(SQUEEZING_MAX, np.inf)), "t1": -math.inf, "t2": -math.inf,
}

# small sizes, so that a missed check fails fast instead of running a default scan
SMALL = {
    "qudit-trace": {"d": 2, "t_max": 2, "points": 21},
    "qudit-scan": {"d_list": 2, "ratio_points": 1, "t_max": 2, "points": 21},
    "gauss-lossy": {"eta_points": 2},
    "gauss-dho": {"t_max": 1, "points": 11},
    "witness-eval": {},
}


def _checked_flags():
    for command, (spec, _handler, _help) in _COMMANDS.items():
        for name, (_default, convert, _help) in spec.items():
            try:
                convert("nan")
            except ValueError:
                yield command, name


def _flag_text(value):
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


class TestFlagDomains:
    def test_every_checked_flag_has_a_bound_case(self):
        assert {name for _command, name in _checked_flags()} == set(PAST_BOUND)

    @pytest.mark.parametrize("command, name", list(_checked_flags()))
    @pytest.mark.parametrize("case", ["nan", "inf", "past-bound"])
    def test_out_of_domain_is_config_error(self, tmp_path, command, name, case, capsys):
        value = PAST_BOUND[name] if case == "past-bound" else float(case)
        state = tmp_path / "s.json"
        write_dm_state(state, BELL)
        out = tmp_path / ("out.json" if command == "witness-eval" else "out.csv")
        small = {key: v for key, v in SMALL[command].items() if key != name}
        base = [command, "--output", out]
        if command == "witness-eval":
            base += ["--state-t1", state, "--state-t2", state]
        for key, v in small.items():
            base += ["--" + key.replace("_", "-"), v]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, name: value}))
        flag, text = "--" + name.replace("_", "-"), _flag_text(value)
        for argv in (base + [flag, text], base + [flag + "=" + text], base + ["--config", cfg]):
            assert run(argv) == 2, argv
            assert f"{name} must be" in capsys.readouterr().err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "s.json"]


class TestHelp:
    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())   # help text wraps
        for command, (_spec, _handler, help_text) in _COMMANDS.items():
            assert f"{command} {help_text}" in out

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_command_help_lists_every_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name, (default, _convert, _help) in _COMMANDS[command][0].items():
            assert "--" + name.replace("_", "-") in out
        assert "--config" in out


class TestArgvReader:
    def test_both_spellings_and_last_repeat_wins(self, tmp_path):
        out = tmp_path / "dho.csv"
        assert run(["gauss-dho", "--t-max=1", "--points", 11, "--points=13",
                    "--output", out]) == 0
        params = json.loads((tmp_path / "dho.json").read_text())["params"]
        assert (params["t_max"], params["points"]) == (1.0, 13)
        assert len(read_csv(out)[1]) == 13

    def test_negative_value_after_a_space(self, tmp_path):
        outputs = []
        for spelled in (["--omega", "-1e-3"], ["--omega=-1e-3"]):
            out = tmp_path / f"dho{len(outputs)}.csv"
            assert run(["gauss-dho", "--t-max", 1, "--points", 11, *spelled,
                        "--output", out]) == 0
            outputs.append((out.read_bytes(), json.loads(out.with_suffix(".json").read_text())))
        assert outputs[0] == outputs[1]
        assert outputs[0][1]["params"]["omega"] == -1e-3

    @pytest.mark.parametrize("argv, message", [
        ([], "expected a command"),
        (["gauss"], "expected a command"),
        (["gauss-dho", "--points", 11, "--bogus", 1], "unknown flag '--bogus'"),
        (["gauss-dho", "--point", 11], "unknown flag '--point'"),
        (["gauss-dho", "--t_max", 1], "unknown flag '--t_max'"),
        (["gauss-dho", "--points", 11, "stray"], "unexpected argument 'stray'"),
        (["gauss-dho", "--t-max", 1, "--points"], "--points needs a value"),
    ])
    def test_usage_error_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                    argv, message):
        monkeypatch.chdir(tmp_path)   # where the default output would go
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err
        assert list(tmp_path.iterdir()) == []

    def test_command_does_not_import_argparse(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(qmemwitness.__file__).resolve().parents[1])}
        code = ("import sys; from qmemwitness.cli import main; "
                "code = main(['gauss-dho', '--t-max', '1', '--points', '11', '--output', sys.argv[1]]); "
                "sys.exit(code or 'argparse' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "x.csv")], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
