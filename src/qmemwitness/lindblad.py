"""Qudit + damped-memory-qubit master equation and channel extraction.

The model couples a d-level system S to a memory qubit M through an
excitation-exchange Hamiltonian

    H = omega * (J_- (x) sigma_+ + J_+ (x) sigma_-),

while M is damped at rate gamma by a single zero-temperature dissipator
D[1_S (x) sigma_-].

The generator does not depend on time, so the reduced map on S is exact:

    Lambda_t(X) = Tr_M exp(L t) (X (x) |0><0|_M),

with the memory starting in its ground state and L the Liouvillian on
S (x) M (size 4d^2 x 4d^2, row-major vec).
Propagators come from `scipy.linalg.expm` (scaling and squaring, Al-Mohy
& Higham, SIAM J. Matrix Anal. Appl. 31, 2009). On the uniform output
grid the d^2 matrix units |i><j| (x) |0><0|_M are stepped with the one
propagator exp(L dt) and traced over M in batches; off-grid queries apply
exp(L t) to the matrix units directly. L is never diagonalized: under the
spin convention it is (nearly) defective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import InvalidDimensionError, InvalidSubsystemError
from .states import DEFAULT_CONVENTION, CONVENTIONS, ladder_operators

# grid steps stepped before each batched trace-out; bounds the joint
# S (x) M states held at once to one more than this many copies of the
# matrix units
_STEP_BATCH = 64


@dataclass(frozen=True)
class LindbladModel:
    """Parameters of the qudit-memory model.

    d : system dimension (>= 2)
    omega : exchange coupling rate (1/time), finite and > 0
    gamma : memory damping rate (1/time), finite and >= 0
    convention : ladder convention for the system operators
    """

    d: int
    omega: float = 1.0
    gamma: float = 0.0
    convention: str = DEFAULT_CONVENTION

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 2:
            raise InvalidDimensionError(f"d must be an integer >= 2, got {self.d}")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise InvalidDimensionError(f"omega must be finite and > 0, got {self.omega}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise InvalidDimensionError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.convention not in CONVENTIONS:
            raise InvalidDimensionError(f"unknown convention {self.convention!r}")
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "gamma", float(self.gamma))

    def hamiltonian_sm(self) -> np.ndarray:
        """Exchange Hamiltonian on S (x) M, shape (2d, 2d)."""
        j_plus, j_minus = ladder_operators(self.d, self.convention)
        s_plus, s_minus = ladder_operators(2)
        return self.omega * (np.kron(j_minus, s_plus) + np.kron(j_plus, s_minus))

    def liouvillian(self) -> np.ndarray:
        """Generator on S (x) M acting on row-major vec, shape (4d^2, 4d^2).

        vec(d rho / dt) = L vec(rho) for
        d rho / dt = -i [H, rho] + gamma * D[1_S (x) sigma_-] rho,
        with D[X] rho = X rho X^dag - (X^dag X rho + rho X^dag X) / 2.
        Row-major vec turns A rho B into (A (x) B^T) vec(rho).
        """
        h = self.hamiltonian_sm()
        one = np.eye(h.shape[0])
        x = np.kron(np.eye(self.d), ladder_operators(2)[1])
        xdx = x.conj().T @ x
        return (-1j * (np.kron(h, one) - np.kron(one, h.T))
                + self.gamma * (np.kron(x, x.conj())
                                - 0.5 * (np.kron(xdx, one) + np.kron(one, xdx.T))))


def _matrix_units(d: int) -> np.ndarray:
    """Columns vec(|i><j| (x) |0><0|_M) for column i*d + j, shape (4d^2, d^2)."""
    units = np.zeros((d, 2, d, 2, d * d), dtype=complex)
    units[:, 0, :, 0] = np.eye(d * d).reshape(d, d, d * d)
    return units.reshape(4 * d * d, d * d)


def _trace_out_memory(joint: np.ndarray, d: int) -> np.ndarray:
    """Superoperators from evolved matrix units: (..., 4d^2, d^2) -> (..., d^2, d^2).

    Column i*d + j of the result holds vec Tr_M of the evolved |i><j| (x) |0><0|_M.
    """
    lead = joint.shape[:-2]
    r = joint.reshape(lead + (d, 2, d, 2, d * d))
    return (r[..., :, 0, :, 0, :] + r[..., :, 1, :, 1, :]).reshape(lead + (d * d, d * d))


def _choi(superop: np.ndarray, d: int) -> np.ndarray:
    """Normalized Choi matrices of a stack of superoperators, same leading shape."""
    lead = superop.shape[:-2]
    s4 = superop.reshape(lead + (d, d, d, d))
    return s4.swapaxes(-3, -2).reshape(lead + (d * d, d * d)) / d


class ChoiEvolution:
    """System-ancilla Choi states of the reduced dynamics, time-resolved.

    Produced by `evolve_choi`. `states[k]` (array of shape (T, d^2, d^2))
    is the state obtained by sending half of |Phi+>_SA through the map at
    `times[k]`, with S (x) A ordering; `state_at` answers any time in the
    span exactly. The states are not validated here: `entropy_arrays`
    validates them where their entropies are taken.
    """

    def __init__(self, model, times, states, generator, units):
        self.model = model
        self.times = times
        self.states = states
        self._generator = generator
        self._units = units

    def state_at(self, t: float) -> np.ndarray:
        """S-A joint state, shape (d^2, d^2), at any time within the grid span."""
        t = float(t)
        if not -1e-13 <= t <= self.times[-1] + 1e-13:
            raise InvalidSubsystemError(f"t={t} outside the evolved span")
        d = self.model.d
        k = np.searchsorted(self.times, t)
        for kk in (k - 1, k):
            if 0 <= kk < self.times.size and abs(self.times[kk] - t) < 1e-12:
                return self.states[kk].copy()
        joint = expm(self._generator * t) @ self._units
        return _choi(_trace_out_memory(joint, d), d)


def evolve_choi(model: LindbladModel, t_max: float, n_points: int) -> ChoiEvolution:
    """Evolve |Phi+>_SA (x) |0><0|_M on `n_points` uniform times over
    [0, t_max] and trace out M.

    The S-A state at time t equals the channel at time t applied to one
    half of the maximally entangled pair. t_max must be finite and > 0
    and n_points an integer >= 2 (InvalidSubsystemError otherwise).
    """
    t_max = float(t_max)
    if not (math.isfinite(t_max) and t_max > 0 and float(n_points).is_integer()
            and n_points >= 2):
        raise InvalidSubsystemError(
            f"need finite t_max > 0 and integer n_points >= 2, got {t_max} and {n_points}")
    d, n = model.d, int(n_points)
    grid = np.linspace(0.0, t_max, n)
    generator = model.liouvillian()
    units = _matrix_units(d)
    step = expm(generator * (t_max / (n - 1)))
    states = np.empty((n, d * d, d * d), dtype=complex)
    states[0] = _choi(_trace_out_memory(units, d), d)
    # slot 0 carries the last state of the previous batch
    batch = np.empty((min(n, _STEP_BATCH + 1),) + units.shape, dtype=complex)
    batch[0] = units
    for start in range(1, n, _STEP_BATCH):
        m = min(_STEP_BATCH, n - start)
        for k in range(m):
            np.matmul(step, batch[k], out=batch[k + 1])
        states[start:start + m] = _choi(_trace_out_memory(batch[1:m + 1], d), d)
        batch[0] = batch[m]
    return ChoiEvolution(model, grid, states, generator, units)


def channel_superoperator(model: LindbladModel, t: float) -> np.ndarray:
    """Superoperator matrix of the reduced map on S at time t.

    Row-major vectorization: column i*d + j holds vec of the image of the
    matrix unit |i><j|, evolved jointly with the memory (no ancilla, memory
    starting in |0><0|) and traced over M. At t = 0 this is the identity on d^2 components.
    """
    t = float(t)
    if not (math.isfinite(t) and t >= 0):
        raise InvalidSubsystemError(f"t must be finite and >= 0, got {t}")
    joint = expm(model.liouvillian() * t) @ _matrix_units(model.d)
    return _trace_out_memory(joint, model.d)


def choi_from_superoperator(superop: np.ndarray) -> np.ndarray:
    """Normalized Choi matrix (trace 1) of a superoperator on S.

    Index layout matches the extended-evolution states: row (a, i) and
    column (b, j) give <a| E(|i><j|) |b> / d, i.e. the state obtained by
    sending half of |Phi+> through the map.
    """
    n2 = superop.shape[0]
    d = int(round(n2 ** 0.5))
    if d * d != n2 or superop.shape != (n2, n2):
        raise InvalidSubsystemError(f"superoperator shape {superop.shape} is not (d^2, d^2)")
    return _choi(superop, d)
