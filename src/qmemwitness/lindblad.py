"""Qudit + damped-memory-qubit master equation and channel extraction.

A d-level system S exchanges excitations with a memory qubit M,
H = omega (J_- (x) sigma_+ + J_+ (x) sigma_-), and M is damped at rate gamma
by D[1_S (x) sigma_-]; the reduced map Lambda_t(X) = Tr_M exp(L t)
(X (x) |0><0|_M) is exact. L conserves the coherence order q = N_ket - N_bra,
N = n_S + n_M, so it splits into blocks L_q of at most 4d - 2 states (Buca &
Prosen, New J. Phys. 14, 073007 (2012)). |i><j| (x) |0><0|_M lies in sector
i - j and the sectors q < 0 are the adjoints of q > 0, so only q = 0..d-1
are evolved, with an in-package degree-13 Pade exponential (scaling and
squaring, Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)): `evolve_choi`
steps a uniform grid with exp(L_q dt). `ChoiEvolution.state_at` evaluates
any single t >= 0 from the nearest anchor k h on the lattice
h = 1 / max_q ||L_q||_1: the anchor holds the Taylor terms
L_q^j exp(L_q k h) / j! of the evolved columns, traced over M, so a probe is
one polynomial in t - k h (the truncated-Taylor action of the exponential,
Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)). No L_q is
diagonalized (L is nearly defective under the spin convention).

The map is phase covariant, so the S (x) A Choi state is block diagonal in
k = n_S - n_A. It is kept as padded blocks (..., 2d-1, d, d): block k + d - 1
holds <a, a-k| rho |b, b-k> at row a, column b <= a, and zeros elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, InvalidSubsystemError
from .states import DEFAULT_CONVENTION, CONVENTIONS, ladder_operators

# stacked propagator powers P^0 .. P^(_POWERS - 1) produce up to that many
# grid states of a sector with one product
_POWERS = 64

# a probe's Taylor series is cut where the next term's bound,
# (||L_q|| |t - k h|)^(J+1) / (J+1)! <= (1/2)^(J+1) / (J+1)!, is below
# _TAYLOR_TOL (J = 15); a ChoiEvolution keeps the terms of its most recently
# used anchors, at most _ANCHORS of them and _ANCHOR_BYTES together, but
# always the last one
_TAYLOR_TOL = 1e-18
_ORDER = next(j for j in range(32) if 0.5 ** (j + 1) / math.factorial(j + 1) <= _TAYLOR_TOL)
_ANCHORS = 4
_ANCHOR_BYTES = 64 * 1024 ** 2

# the degree-13 Pade approximant (V - U)^-1 (V + U) of exp(A), with backward
# error below the unit roundoff for ||A||_1 <= _THETA13 (Higham 2005):
# U = A (A6 (b13 A6 + b11 A4 + b9 A2) + b7 A6 + b5 A4 + b3 A2 + b1 I) and
# V = A6 (b12 A6 + b10 A4 + b8 A2) + b6 A6 + b4 A4 + b2 A2 + b0 I; the rows
# weigh I, A2, A4, A6 into the four parts in parentheses and after them
_B = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
      129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
      40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_PADE_WEIGHTS = np.array([[0.0, _B[9], _B[11], _B[13]], [_B[1], _B[3], _B[5], _B[7]],
                          [0.0, _B[8], _B[10], _B[12]], [_B[0], _B[2], _B[4], _B[6]]])
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a finite square matrix: the degree-13 Pade approximant of
    exp(a / 2^s), squared s times, with s the least that brings ||a||_1 / 2^s
    to _THETA13 or below."""
    n = len(a)
    norm = float(np.abs(a).sum(axis=0).max())
    if norm == 0.0:
        return np.eye(n, dtype=a.dtype)   # solving b0 I against b0 I rounds
    s = max(0, math.ceil(math.log2(norm / _THETA13)))
    a = a / 2.0 ** s
    powers = np.empty((4, n, n), dtype=a.dtype)   # I, A2, A4, A6
    powers[0] = np.eye(n)
    np.matmul(a, a, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    u_hi, u_lo, v_hi, v_lo = (_PADE_WEIGHTS @ powers.reshape(4, -1)).reshape(4, n, n)
    u = a @ (powers[3] @ u_hi + u_lo)
    v = powers[3] @ v_hi + v_lo
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


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

    def sector(self, q: int) -> tuple[np.ndarray, np.ndarray]:
        """(ket, bra) pairs of basis indices 2 n_S + n_M in sector q, shape
        (n, 2) in row-major vec order, and the generator L_q on them:
        d rho / dt = -i [H, rho] + gamma (X rho X^dag - {X^dag X, rho} / 2)."""
        d, n = self.d, 2 * self.d
        s = np.arange(d - 1)
        # H - i gamma/2 |1><1|_M, and the jump X = sum_s |s,0><s,1|
        h_eff = np.diag(np.tile([0.0, -0.5j * self.gamma], d))
        j_plus = ladder_operators(d, self.convention)[0]
        h_eff[2 * s + 2, 2 * s + 1] = h_eff[2 * s + 1, 2 * s + 2] = self.omega * j_plus[s + 1, s]
        jump = np.eye(n, k=1) * (np.arange(n) % 2 == 0)[:, None]
        excitations = np.arange(n) // 2 + np.arange(n) % 2
        ket, bra = np.nonzero(excitations[:, None] - excitations == q)
        k, b = ket[:, None], bra[:, None]
        return np.stack([ket, bra], axis=1), (
            -1j * h_eff[k, ket] * (b == bra) + 1j * (k == ket) * h_eff[b, bra].conj()
            + self.gamma * jump[k, ket] * jump[b, bra])


def _sectors(model: LindbladModel) -> list[tuple]:
    """Per sector q = 0..d-1: L_q, the positions of |j+q,0><j,0| (the
    evolved columns), of |a,0><a-q,0| and |a,1><a-q,1| (summed over M), and
    of <a| Lambda(|j+q><j|) |a-q> in the flat padded blocks (rows a, columns j)."""
    d = model.d
    out = []
    for q in range(d):
        pairs, generator = model.sector(q)
        pos = np.full((2 * d, 2 * d), -1)
        pos[pairs[:, 0], pairs[:, 1]] = np.arange(len(pairs))
        j, a = np.arange(d - q), np.arange(q, d)
        row = a[:, None]
        out.append((generator, pos[2 * (j + q), 2 * j],
                    (pos[2 * a, 2 * (a - q)], pos[2 * a + 1, 2 * (a - q) + 1]),
                    (((row - j - q + d - 1) * d + row) * d + row - q).ravel()))
    return out


def dense_choi(blocks: np.ndarray) -> np.ndarray:
    """Dense S (x) A matrices (..., d^2, d^2) from padded Choi blocks
    (..., 2d-1, d, d); the upper triangle is filled by Hermiticity."""
    d = blocks.shape[-1]
    k = np.arange(2 * d - 1)[:, None] - (d - 1)
    level = (np.arange(d) >= k) & (np.arange(d) < d + k)   # a - k is a level of A
    blk, a, b = np.nonzero(level[:, :, None] & level[:, None, :])
    hermitian = blocks + np.tril(blocks, -1).swapaxes(-1, -2).conj()
    dense = np.zeros(blocks.shape[:-3] + (d * d, d * d), dtype=complex)
    dense[..., a * (d + 1) - blk + d - 1, b * (d + 1) - blk + d - 1] = hermitian[..., blk, a, b]
    return dense


class ChoiEvolution:
    """Choi states (padded blocks) of the reduced dynamics, from `evolve_choi`:
    `states[k]`, shape (T, 2d-1, d, d), is half of |Phi+>_SA sent through the
    map at `times[k]`; `state_at` evaluates the map exactly at any t >= 0,
    on the grid, between its points or beyond it, and caches what it
    builds, so one evolution is not to be probed from several threads at
    once. The states are validated where their entropies are taken."""

    def __init__(self, model, times, states, sectors, norm):
        self.model = model
        self.times = times
        self.states = states
        self._target = np.concatenate([target for *_, target in sectors])
        # the anchors k h lie on h = 1 / norm, norm = max_q ||L_q||_1 > 0; kept
        # as norm, since 1 / norm overflows for a subnormal omega
        self._norm = norm
        self._sectors = [sector[:3] for sector in sectors]
        anchor_bytes = 16 * (_ORDER + 1) * len(self._target)
        self._capacity = max(1, min(_ANCHORS, _ANCHOR_BYTES // anchor_bytes))
        self._anchors = {}   # k -> terms, least recently used first

    def state_at(self, t: float) -> np.ndarray:
        """S-A state as padded blocks (2d-1, d, d) at time t, summed from the
        Taylor terms of the nearest anchor; t must be >= 0 with ||L|| t finite
        and the map at t representable (InvalidSubsystemError otherwise)."""
        t = float(t)
        if not (math.isfinite(t * self._norm) and t >= 0):
            raise InvalidSubsystemError(f"t must be >= 0 with ||L|| t finite, got {t}")
        k = round(t * self._norm)
        # the terms are a function of k alone, so the result does not
        # depend on the cache
        terms = self._anchors.pop(k, None)
        if terms is None:
            while len(self._anchors) >= self._capacity:   # evict before building
                del self._anchors[next(iter(self._anchors))]
            with np.errstate(over="ignore", invalid="ignore"):   # checked below
                terms = _anchor_terms(self._sectors, k / self._norm, self.model.d)
            if not np.isfinite(terms).all():   # exp(L_q k h) overflowed; not cached
                raise InvalidSubsystemError(f"the map at t = {t} overflows")
        self._anchors[k] = terms
        d = self.model.d
        blocks = np.zeros((2 * d - 1) * d * d, dtype=complex)
        blocks[self._target] = (t - k / self._norm) ** np.arange(len(terms)) @ terms
        return blocks.reshape(2 * d - 1, d, d)


def _anchor_terms(sectors, t: float, d: int) -> np.ndarray:
    """Taylor terms L_q^j exp(L_q t)[:, units] / j!, j = 0.._ORDER, traced
    over M and divided by d, for the (L_q, units, rows) of every sector, in
    their concatenated target order."""
    terms = np.empty((_ORDER + 1, sum(len(rows[0]) * len(units) for _, units, rows in sectors)),
                     dtype=complex)
    start = 0
    for generator, units, rows in sectors:
        series = [_expm(generator * t)[:, units]]
        for j in range(1, _ORDER + 1):
            series.append(generator @ series[-1] / j)
        series = np.array(series)
        traced = series[:, rows[0]] + series[:, rows[1]]
        terms[:, start:start + traced[0].size] = traced.reshape(_ORDER + 1, -1) / d
        start += traced[0].size
    return terms


def evolve_choi(model: LindbladModel, t_max: float, n_points: int) -> ChoiEvolution:
    """Evolve |Phi+>_SA (x) |0><0|_M on `n_points` uniform times over [0, t_max]
    and trace out M, giving the channel at each time applied to half of
    |Phi+>. t_max must be finite and > 0 and n_points an integer >= 2
    (InvalidSubsystemError otherwise)."""
    t_max = float(t_max)
    if not (math.isfinite(t_max) and t_max > 0 and float(n_points).is_integer()
            and n_points >= 2):
        raise InvalidSubsystemError(
            f"need finite t_max > 0 and integer n_points >= 2, got {t_max} and {n_points}")
    d, n = model.d, int(n_points)
    # a power of two keeps the doubling below unclipped; a shorter stack is a
    # prefix of the full one, so the states do not depend on its length
    batch = min(_POWERS, 1 << (n - 1).bit_length())
    n_batch = -(-n // batch)
    sectors = _sectors(model)
    dt = t_max / (n - 1)   # Python floats overflow to inf silently
    norm = float(max(np.abs(generator).sum(axis=0).max() for generator, *_ in sectors))
    if not math.isfinite(dt * norm):   # _expm's scaling takes log2(||L|| dt)
        raise InvalidSubsystemError(f"grid step {dt} overflows ||L|| dt (||L|| = {norm})")
    states = np.zeros((n, 2 * d - 1, d, d), dtype=complex)
    flat = states.reshape(n, -1)
    for generator, units, rows, target in sectors:
        size = len(generator)
        powers = np.empty((batch + 1, size, size), dtype=complex)
        powers[0], powers[1] = np.eye(size), _expm(generator * dt)
        m = 1
        while m < batch:   # P^(m+1) .. P^(2m) = (P^1 .. P^m) P^m
            np.matmul(powers[1:m + 1], powers[m], out=powers[m + 1:2 * m + 1])
            m *= 2
        # the columns at the start of every batch of grid steps
        starts = [np.eye(size, dtype=complex)[:, units]]
        for _ in range(n_batch - 1):
            starts.append(powers[batch] @ starts[-1])
        traced = (powers[:batch, rows[0]] + powers[:batch, rows[1]]) / d
        out = traced.reshape(-1, size) @ np.concatenate(starts, axis=1)
        out = out.reshape(batch, len(units), n_batch, len(units)).transpose(2, 0, 1, 3)
        flat[:, target] = out.reshape(n_batch * batch, -1)[:n]
    return ChoiEvolution(model, np.linspace(0.0, t_max, n), states, sectors, norm)

