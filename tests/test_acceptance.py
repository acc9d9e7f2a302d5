"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s` to see them as they complete).

Heavy intermediate results are shared forward through a module-level
cache so that each criterion's runtime budget covers exactly its own
work.
"""

import math
import time

import numpy as np

from qmemwitness import (
    DensityMatrix,
    DhoParams,
    LindbladModel,
    cp_check,
    delta_S_lossy,
    dense_choi,
    dho_amplitude,
    dho_channel,
    evaluate_criterion,
    evolve_choi,
    find_critical_ratio,
    h,
    minimize_delta_S_over_r,
    ordering_check,
    scan_qudit,
    von_neumann_entropy,
    witness_qudit_model,
)
from qmemwitness import witness
from oracles import (
    apply_kraus_choi,
    dho_closed_form,
    lossy_channel,
    max_entangled,
    random_kraus_set,
    random_pure_state,
)

RESONANT = DhoParams(g2=1.0, kappa=0.25, omega=1.0, omega_big=1.0)

_SHARED: dict = {}


def _line(num: int, description: str, ok: bool, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{status}] criterion {num}: {description} "
          f"({elapsed:.1f}s / limit {limit:.0f}s)")


def test_criterion_1_entropic_identities(rng):
    t0 = time.perf_counter()
    ok = True
    for d in range(2, 9):
        mixed = DensityMatrix(np.eye(d) / d, (d,))
        ok &= abs(von_neumann_entropy(mixed) - math.log(d)) < 1e-12
        ok &= von_neumann_entropy(max_entangled(d)) <= 1e-10
        for _ in range(3):
            pure = DensityMatrix(random_pure_state(rng, d * d), (d, d))
            ok &= von_neumann_entropy(pure) <= 1e-10
    elapsed = time.perf_counter() - t0
    _line(1, "entropic identities", ok, elapsed, 1.0)
    assert ok
    assert elapsed < 1.0


def test_criterion_2_lossy_closed_form():
    t0 = time.perf_counter()
    ok = True
    for r in (0.1, 1.0, 3.0):
        ok &= abs(delta_S_lossy(0.0, 0.0, r)) <= 1e-12
        ok &= abs(delta_S_lossy(1.0, 1.0, r)) <= 1e-12
        ok &= abs(delta_S_lossy(1.0, 0.0, r) + h(math.cosh(r) / 2.0)) <= 1e-12
    elapsed = time.perf_counter() - t0
    _line(2, "closed-form lossy witness anchors", ok, elapsed, 1.0)
    assert ok
    assert elapsed < 1.0


def test_criterion_3_lossy_grid():
    t0 = time.perf_counter()
    etas = np.linspace(0.0, 1.0, 21)
    e1, e2 = etas[:, None], etas[None, :]
    _, ds = minimize_delta_S_over_r(e1, e2)   # every cell of the grid in one search
    ok = bool(np.all(ds[e2 >= e1] >= -1e-9)) and bool(np.all(ds[e2 <= e1 - 0.05 + 1e-12] < 0.0))
    elapsed = time.perf_counter() - t0
    _line(3, "minimized lossy witness sign structure on 21x21 grid",
          ok, elapsed, 30.0)
    assert ok
    assert elapsed < 30.0


def test_criterion_4_qudit_trace_reproduction():
    t0 = time.perf_counter()
    model = LindbladModel(d=4, gamma=0.05)
    full = witness_qudit_model(model, t_max=12.0, n_points=2001)
    half = witness_qudit_model(model, t_max=12.0, n_points=1001)
    _SHARED["criterion4"] = (full, half)

    rep = full.report
    detection = rep.quantum_memory_detected and rep.delta_s < 0 and rep.t1 < rep.t2
    later_revivals = full.revival_maxima[1:]
    second_too_small = bool(later_revivals) and all(
        v < rep.s_sys_t1 for _, v in later_revivals
    )
    convergence = abs(rep.delta_s - half.report.delta_s) <= 1e-6

    ok = detection and second_too_small and convergence
    elapsed = time.perf_counter() - t0
    _line(4, "d=4 gamma/omega=0.05 trace: detection, weak second revival, "
             "grid-halving convergence", ok, elapsed, 60.0)
    assert detection, rep
    assert second_too_small, (rep.s_sys_t1, later_revivals)
    assert convergence, (rep.delta_s, half.report.delta_s)
    assert elapsed < 60.0


def test_criterion_5_critical_ratio_scan(monkeypatch):
    t0 = time.perf_counter()
    collected = []

    ratios_d2 = np.linspace(0.01, 1.0, 25)
    rows_d2 = scan_qudit([2], [float(r) for r in ratios_d2])
    d2_ok = all(row.error is None and row.delta_s < 0 and row.detected
                for row in rows_d2)

    def collecting(*args, **kwargs):
        # every cell the bisection evaluates, for criterion 9
        collected.append(witness_qudit_model(*args, **kwargs))
        return collected[-1]

    monkeypatch.setattr(witness, "witness_qudit_model", collecting)
    brackets = {3: (0.05, 0.5), 4: (0.01, 0.2), 5: (1e-3, 0.05)}
    critical = {}
    for d, (lo, hi) in brackets.items():
        critical[d] = find_critical_ratio(d, lo, hi)
    decreasing = critical[3] > critical[4] > critical[5] > 0.0
    finite = all(math.isfinite(v) for v in critical.values())

    _SHARED["criterion5"] = (rows_d2, collected)
    ok = d2_ok and decreasing and finite
    elapsed = time.perf_counter() - t0
    _line(5, f"critical gamma/omega {critical} strictly decreasing; "
             "d=2 always detects", ok, elapsed, 600.0)
    assert d2_ok, [(row.gamma_over_omega, row.delta_s, row.error) for row in rows_d2]
    assert finite and decreasing, critical
    assert elapsed < 600.0


def test_criterion_6_damped_oscillator_oracle():
    t0 = time.perf_counter()
    ts = np.linspace(0.0, 20.0, 2001)
    amp = dho_amplitude(RESONANT, ts)
    c_num = amp.c
    c_ref, _ = dho_closed_form(RESONANT.g2, RESONANT.kappa, RESONANT.omega, RESONANT.omega_big, ts)
    oracle_ok = np.abs(c_num - c_ref).max() <= 1e-8

    # damping-rate quadrature identity, on a window before the first
    # amplitude zero (the rate has a non-integrable pole at each zero)
    ts_q = np.linspace(0.0, 1.5, 6001)
    amp_q = dho_amplitude(RESONANT, ts_q)
    cs, cds = amp_q.c, amp_q.c_dot
    g_re = (-(cds + 1j * RESONANT.omega * cs) / cs).real
    gamma_acc = np.concatenate(
        [[0.0], np.cumsum((g_re[1:] + g_re[:-1]) * np.diff(ts_q))]
    )
    quad_ok = np.abs(gamma_acc - (-np.log(np.abs(cs) ** 2))).max() <= 1e-6

    eta = 1.0 - np.abs(c_num) ** 2
    i_max = int(np.argmax(eta))
    nonmono_ok = i_max < len(ts) - 1 and eta[i_max:].min() < eta[i_max] - 1e-3

    ok = oracle_ok and quad_ok and nonmono_ok
    elapsed = time.perf_counter() - t0
    _line(6, "damped-oscillator amplitude oracle, rate quadrature, "
             "non-monotonic loss", ok, elapsed, 5.0)
    assert oracle_ok
    assert quad_ok
    assert nonmono_ok
    assert elapsed < 5.0


def test_criterion_7_channel_validity(rng):
    t0 = time.perf_counter()
    choi_ok = True
    for d in (2, 3, 4):
        ev = evolve_choi(LindbladModel(d=d, gamma=0.05), 12.0, 2)
        for t in np.sort(rng.uniform(0.0, 12.0, size=20)):
            choi = dense_choi(ev.state_at(float(t)))
            choi_ok &= np.linalg.eigvalsh(choi).min() >= -1e-8

    gauss_ok = all(cp_check(lossy_channel(float(e)))
                   for e in np.linspace(0.0, 1.0, 50))
    ts = np.linspace(0.0, 20.0, 2001)
    amp = dho_amplitude(RESONANT, ts)
    for t in ts[::41][:50]:
        gauss_ok &= cp_check(dho_channel(amp, RESONANT, float(t), on_vanishing="full-loss"))

    ok = choi_ok and gauss_ok
    elapsed = time.perf_counter() - t0
    _line(7, "Choi positivity and Gaussian complete positivity sweeps",
          ok, elapsed, 60.0)
    assert choi_ok
    assert gauss_ok
    assert elapsed < 60.0


def test_criterion_8_classical_memory_negative_control():
    t0 = time.perf_counter()
    rng = np.random.default_rng(81523)
    ok = True
    for case in range(50):
        d = 2 if case % 2 == 0 else 3
        phi = max_entangled(d)
        k1 = random_kraus_set(rng, d, int(rng.integers(1, d * d + 1)))
        k2 = random_kraus_set(rng, d, int(rng.integers(1, d * d + 1)))
        rho1 = apply_kraus_choi(k1, phi, d)
        rho2 = apply_kraus_choi(k2, rho1, d)
        rep = evaluate_criterion(DensityMatrix(rho1, (d, d)),
                                 DensityMatrix(rho2, (d, d)))
        ok &= rep.delta_s >= -1e-9 and not rep.quantum_memory_detected
    elapsed = time.perf_counter() - t0
    _line(8, "divisible (classical-memory) pairs never trigger detection",
          ok, elapsed, 60.0)
    assert ok
    assert elapsed < 60.0


def test_criterion_9_conditional_entropy_ordering():
    t0 = time.perf_counter()
    assert "criterion4" in _SHARED and "criterion5" in _SHARED, \
        "criteria 4 and 5 must run first"
    full, half = _SHARED["criterion4"]
    rows_d2, collected = _SHARED["criterion5"]
    ok = ordering_check(full.trajectory) and ordering_check(half.trajectory)
    ok &= full.ordering_ok and half.ordering_ok
    ok &= all(row.ordering_ok for row in rows_d2)
    ok &= all(res.ordering_ok for res in collected)
    elapsed = time.perf_counter() - t0
    _line(9, "-S(S|A) >= -S(A|S) along every probe trajectory",
          ok, elapsed, 60.0)
    assert ok
