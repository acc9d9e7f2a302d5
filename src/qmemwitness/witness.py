"""Entropic quantum-memory criterion on state trajectories.

The witness compares two snapshots of a reduced dynamics probed with an
untouched ancilla: if the system entropy at the earlier time is strictly
smaller than the larger negative conditional entropy at the later time,

    S_S(t1) < max(-S(S|A)(t2), -S(A|S)(t2)),

no classical-memory realization of the pair of maps exists. The scalar

    delta_s = S_S(t1) - max(-S(S|A)(t2), -S(A|S)(t2))

is therefore a certificate: delta_s < 0 proves quantum memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import gaussian as _gaussian
from .errors import DomainError, ExtremumNotFoundError, InvalidStateError, QmemError
from .lindblad import DEFAULT_CONVENTION, ChoiEvolution, LindbladModel, evolve_choi
from .optimize import golden_section
from .states import DensityMatrix, choi_entropy_arrays, entropy_arrays

#: delta_s must undershoot zero by more than this before detection is
#: declared, so rounding noise never produces a false positive.
DETECTION_THRESHOLD = -1e-9

# extrema less prominent than this are noise; witness times are refined
# to this fraction of the grid span
_EXTREMUM_NOISE_FLOOR = 1e-10
_TIME_TOLERANCE = 1e-6


@dataclass(frozen=True)
class WitnessReport:
    """Result of one witness evaluation.

    `neg_cond_sa_t2` is -S(S|A) and `neg_cond_as_t2` is -S(A|S), both at
    the later snapshot; `delta_s` combines them with `s_sys_t1` as in the
    module docstring, and quantum memory is detected when it lies below
    DETECTION_THRESHOLD. Times are optional (None when the snapshots do
    not come from a trajectory). Every field must be finite
    (InvalidStateError otherwise) and t1 must precede t2 (DomainError).
    """

    s_sys_t1: float
    neg_cond_sa_t2: float
    neg_cond_as_t2: float
    t1: float | None = None
    t2: float | None = None

    def __post_init__(self):
        values = (self.s_sys_t1, self.neg_cond_sa_t2, self.neg_cond_as_t2)
        times = tuple(t for t in (self.t1, self.t2) if t is not None)
        if not all(map(math.isfinite, values + times)):
            # a NaN delta_s would read as "not detected"
            raise InvalidStateError(f"witness report fields must be finite, got {self}")
        if self.t1 is not None and self.t2 is not None and not self.t1 < self.t2:
            raise DomainError(f"t1={self.t1} must precede t2={self.t2}")

    @property
    def delta_s(self) -> float:
        return self.s_sys_t1 - max(self.neg_cond_sa_t2, self.neg_cond_as_t2)

    @property
    def quantum_memory_detected(self) -> bool:
        return self.delta_s < DETECTION_THRESHOLD

    def to_dict(self) -> dict:
        return {
            "t1": self.t1,
            "t2": self.t2,
            "s_sys_t1": self.s_sys_t1,
            "neg_cond_sa_t2": self.neg_cond_sa_t2,
            "neg_cond_as_t2": self.neg_cond_as_t2,
            "delta_s": self.delta_s,
            "quantum_memory_detected": self.quantum_memory_detected,
        }


def _report_on_pair(s_sys, s_anc, s_joint, t1, t2) -> WitnessReport:
    """Witness from the entropy arrays of two snapshots, the earlier one first."""
    return WitnessReport(float(s_sys[0]), float(s_anc[1] - s_joint[1]),
                         float(s_sys[1] - s_joint[1]), t1, t2)


def evaluate_criterion(
    rho_t1: DensityMatrix,
    rho_t2: DensityMatrix,
    t1: float | None = None,
    t2: float | None = None,
) -> WitnessReport:
    """Evaluate the witness on two bipartite snapshots with equal dims."""
    if len(rho_t1.dims) != 2 or rho_t1.dims != rho_t2.dims:
        raise DomainError(
            f"snapshots must share bipartite dims, got {rho_t1.dims} and {rho_t2.dims}"
        )
    pair = entropy_arrays(np.array([rho_t1.data, rho_t2.data]), rho_t1.dims)
    return _report_on_pair(*pair, t1, t2)


def evaluate_criterion_gaussian(
    state_t1: _gaussian.TwoModeBlocks,
    state_t2: _gaussian.TwoModeBlocks,
    t1: float | None = None,
    t2: float | None = None,
) -> WitnessReport:
    """Witness on two-mode Gaussian snapshots; every entropy, joint and
    single-mode alike, comes from `gaussian.entropy_gaussian`."""
    s_sys = _gaussian.entropy_gaussian(state_t1.alpha)
    s_joint = _gaussian.entropy_gaussian(state_t2.sigma)
    neg_sa = _gaussian.entropy_gaussian(state_t2.beta) - s_joint
    neg_as = _gaussian.entropy_gaussian(state_t2.alpha) - s_joint
    return WitnessReport(s_sys, neg_sa, neg_as, t1, t2)


@dataclass(frozen=True)
class EntropyTrajectory:
    """Entropies (nats) of a bipartite state along a time grid, as arrays.

    `s_system` and `s_ancilla` refer to the first and second tensor
    factor. The conditional entropies follow as
    S(S|A) = s_joint - s_ancilla and S(A|S) = s_joint - s_system.
    """

    times: np.ndarray
    s_system: np.ndarray
    s_ancilla: np.ndarray
    s_joint: np.ndarray

    @property
    def neg_cond_sa(self) -> np.ndarray:
        """-S(S|A) = s_ancilla - s_joint at every grid time; positive only for
        entangled states."""
        return self.s_ancilla - self.s_joint

    @property
    def neg_cond_as(self) -> np.ndarray:
        """-S(A|S) = s_system - s_joint at every grid time."""
        return self.s_system - self.s_joint


def _interior_extrema(values: np.ndarray, kind: str) -> np.ndarray:
    """Indices of interior local minima/maxima with prominence above noise.

    A point counts when it is <= both neighbours (plateaus included) and
    the larger neighbour exceeds it by more than _EXTREMUM_NOISE_FLOOR.
    """
    v = values if kind == "min" else -values
    mid, left, right = v[1:-1], v[:-2], v[2:]
    hit = (mid <= left) & (mid <= right) & (np.maximum(left, right) - mid > _EXTREMUM_NOISE_FLOOR)
    return np.flatnonzero(hit) + 1


def find_witness_times(
    traj: EntropyTrajectory,
    evaluate: Callable[[np.ndarray], EntropyTrajectory],
) -> tuple[float, float]:
    """Select the witness times on an entropy trajectory.

    t1 is the first interior local minimum of s_system, t2 the first
    local maximum of -S(S|A) after t1 (extrema less prominent than 1e-10
    are noise). Both times are refined by golden-section search down to
    1e-6 of the grid span on the entropies `evaluate` returns, a map from
    an array of times to their EntropyTrajectory (typically backed by
    exact off-grid states); the brackets are searched together, so each
    step makes one `evaluate` call.

    Raises ExtremumNotFoundError when either extremum is missing, e.g.
    on monotone trajectories (callers may extend the grid).
    """
    times = traj.times
    if times.size < 3:
        raise ExtremumNotFoundError("trajectory too short to contain extrema")
    tol = _TIME_TOLERANCE * (times[-1] - times[0])

    i_mins = _interior_extrema(traj.s_system, "min")
    if i_mins.size == 0:
        raise ExtremumNotFoundError("no interior local minimum of s_system")
    i1 = i_mins[0]
    # t1 refines inside (times[i1 - 1], times[i1 + 1]): maxima before i1
    # precede it and maxima after i1 follow it, but one at i1 follows it
    # only if t1 refines to its left, so the next one is searched as well
    i_maxs = _interior_extrema(traj.neg_cond_sa, "max")
    i_maxs = i_maxs[i_maxs >= i1][:1 + (i1 in i_maxs)]

    def objective(x, idx):
        e = evaluate(x)
        return np.where(idx == 0, e.s_system, -e.neg_cond_sa)

    centres = np.concatenate(([i1], i_maxs))
    a, b, *_ = golden_section(objective, times[centres - 1], times[centres + 1], tol)
    t1, *t_maxs = (float(t) for t in 0.5 * (a + b))
    after = np.flatnonzero(times[i_maxs] > t1)
    if after.size == 0:
        raise ExtremumNotFoundError("no local maximum of -S(S|A) after t1")
    i2, t2 = i_maxs[after[0]], t_maxs[after[0]]
    if not t2 > t1:
        # adjacent extrema refined across each other; keep the grid value
        t2 = float(times[i2])
    return t1, t2


def ordering_check(traj: EntropyTrajectory) -> bool:
    """True iff -S(S|A) >= -S(A|S) - 1e-9 at every grid time.

    Meaningful for trajectories started from a maximally entangled
    system-ancilla probe, where the ancilla marginal stays maximally
    mixed.
    """
    return bool(np.all(traj.neg_cond_sa >= traj.neg_cond_as - 1e-9))


def qudit_entropy_trajectory(
    model: LindbladModel,
    t_max: float = 12.0,
    n_points: int = 2001,
) -> tuple[ChoiEvolution, EntropyTrajectory]:
    """Extended qudit evolution on a uniform grid and its entropy arrays."""
    ev = evolve_choi(model, t_max, n_points)
    return ev, EntropyTrajectory(ev.times, *choi_entropy_arrays(ev.states))


@dataclass(frozen=True)
class QuditWitnessResult:
    """Full outcome of one qudit-model witness run."""

    report: WitnessReport
    trajectory: EntropyTrajectory
    revival_maxima: tuple[tuple[float, float], ...]
    ordering_ok: bool


def witness_from_trajectory(ev: ChoiEvolution, traj: EntropyTrajectory) -> QuditWitnessResult:
    """Select (t1, t2) on a trajectory from `qudit_entropy_trajectory` and
    evaluate the witness. The times are refined on exact off-grid states to
    1e-6 of the grid span, so delta_s does not depend on the output grid.
    `revival_maxima` lists every interior local maximum of -S(S|A) after t1
    as (time, value); entries beyond the first show whether later revivals
    could still detect. Raises ExtremumNotFoundError like `find_witness_times`.
    """

    def entropies_at(ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return choi_entropy_arrays(np.array([ev.state_at(t) for t in ts]))

    t1, t2 = find_witness_times(traj, lambda ts: EntropyTrajectory(ts, *entropies_at(ts)))
    report = _report_on_pair(*entropies_at((t1, t2)), t1, t2)
    neg_sa = traj.neg_cond_sa
    revivals = tuple((float(traj.times[i]), float(neg_sa[i]))
                     for i in _interior_extrema(neg_sa, "max")
                     if traj.times[i] > t1)
    return QuditWitnessResult(report, traj, revivals, ordering_check(traj))


def witness_qudit_model(
    model: LindbladModel,
    t_max: float = 12.0,
    n_points: int = 2001,
) -> QuditWitnessResult:
    """Run the full pipeline for one qudit model.

    Extends a maximally entangled probe, evolves it on a uniform grid of
    `n_points` over [0, t_max], selects (t1, t2) and evaluates the
    witness (see `witness_from_trajectory`).
    """
    return witness_from_trajectory(*qudit_entropy_trajectory(model, t_max, n_points))


@dataclass(frozen=True)
class QuditScanRow:
    """One cell of a (d, gamma/omega) scan; `error` is None on success."""

    d: int
    gamma_over_omega: float
    t1: float | None
    t2: float | None
    delta_s: float | None
    detected: bool | None
    ordering_ok: bool | None
    error: str | None


def scan_qudit(
    d_list: Sequence[int],
    gamma_over_omega_grid: Sequence[float],
    convention: str = DEFAULT_CONVENTION,
    t_max: float = 12.0,
    n_points: int = 2001,
    progress: Callable[[str], None] | None = None,
) -> list[QuditScanRow]:
    """Witness scan over dimensions and damping-to-coupling ratios.

    Each ratio is the model's gamma (times in units of 1/omega). Failing
    cells are recorded in their row and the scan continues; rows come out
    ordered by (d, ratio).
    """
    rows = []
    for d in d_list:
        for ratio in gamma_over_omega_grid:
            if progress is not None:
                progress(f"d={d} gamma/omega={ratio:g}")
            try:
                model = LindbladModel(d=d, gamma=float(ratio), convention=convention)
                res = witness_qudit_model(model, t_max=t_max, n_points=n_points)
                rep = res.report
                rows.append(QuditScanRow(model.d, float(ratio), rep.t1, rep.t2, rep.delta_s,
                                         rep.quantum_memory_detected, res.ordering_ok, None))
            except QmemError as exc:   # d as given, which int() may not take
                rows.append(QuditScanRow(d, float(ratio), *[None] * 5, str(exc)))
    return rows


def find_critical_ratio(
    d: int,
    ratio_lo: float,
    ratio_hi: float,
    convention: str = DEFAULT_CONVENTION,
    t_max: float = 12.0,
    n_points: int = 2001,
) -> float:
    """Damping ratio at which the witness stops detecting, by log-bisection
    down to a ratio bracket of 1.02; it must detect (delta_s below
    DETECTION_THRESHOLD) at ratio_lo and not at ratio_hi, with
    0 < ratio_lo < ratio_hi finite (DomainError otherwise).
    """
    lo, hi = float(ratio_lo), float(ratio_hi)
    if not (0.0 < lo < hi and math.isfinite(hi)):
        raise DomainError(f"need finite 0 < ratio_lo < ratio_hi, got {ratio_lo} and {ratio_hi}")

    def delta_at(ratio: float) -> float:
        model = LindbladModel(d=d, gamma=ratio, convention=convention)
        return witness_qudit_model(model, t_max=t_max, n_points=n_points).report.delta_s

    f_lo, f_hi = delta_at(lo), delta_at(hi)
    if not (f_lo < DETECTION_THRESHOLD <= f_hi):
        raise ExtremumNotFoundError(
            f"need detection at {lo} and none at {hi}: delta_s = {f_lo:.4g}, {f_hi:.4g}")
    while hi / lo > 1.02:
        mid = math.sqrt(lo) * math.sqrt(hi)   # lo * hi can underflow to 0
        if delta_at(mid) < DETECTION_THRESHOLD:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo) * math.sqrt(hi)
