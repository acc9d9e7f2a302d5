"""Qudit + damped-memory-qubit master equation and channel extraction.

A d-level system S exchanges excitations with a memory qubit M,
H = J_- (x) sigma_+ + J_+ (x) sigma_-, and M is damped at rate gamma by
D[1_S (x) sigma_-]; times are in units of 1/omega, the exchange rate, and
gamma stands for gamma/omega. The reduced map Lambda_t(X) = Tr_M exp(L t)
(X (x) |0><0|_M) is exact. L conserves the coherence order q = N_ket - N_bra,
N = n_S + n_M, so it splits into blocks L_q of at most 4d - 2 states (Buca &
Prosen, New J. Phys. 14, 073007 (2012)). |i><j| (x) |0><0|_M lies in sector
i - j and the sectors q < 0 are the adjoints of q > 0, so only q = 0..d-1
are evolved, each in the gauge rho -> V rho V^dag, V = i^(n_M), where L_q
is real: the units |j+q,0><j,0| and the rows summed over M have equal
memory levels on both sides, which V leaves unchanged, so the engine runs
in float64. An in-package degree-13 Pade exponential (scaling and squaring,
Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)) gives exp(L_q dt), with
which `evolve_choi` steps a uniform grid. `ChoiEvolution.state_at`
evaluates any single t >= 0 from the nearest anchor k h on the lattice
h = 1 / max_q ||L_q||_1: the anchor holds the Taylor terms
L_q^j exp(L_q k h) / j! of the evolved columns, traced over M, so a probe is
one polynomial in t - k h (the truncated-Taylor action of the exponential,
Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)). No L_q is
diagonalized (L is nearly defective under the spin convention).

The map is phase covariant, so the S (x) A Choi state is block diagonal in
n_S - n_A. H conserves n_S + n_M, the jump lowers n_M and M starts in |0>,
so <a| Lambda(|i><j|) |b> vanishes unless a <= i and b <= j: only the d
blocks m = n_A - n_S >= 0 fill. They are kept as real blocks (..., d, d, d):
block m holds <a, a+m| rho |b, b+m> at row a, column b <= a < d - m, and
zeros elsewhere (block d - 1 is a 1x1 corner).
"""

from __future__ import annotations

import functools
import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .errors import DomainError
from .states import TRACE_TOL

#: Ladder conventions for the d-level system: "spin" has the elements
#: <n+1|J_+|n> = sqrt((n+1)(d-1-n)) of the angular-momentum ladder for
#: j = (d-1)/2 (basis index n = m + j), "truncated-oscillator" the bosonic
#: sqrt(n+1) cut off at level d-1; both give sigma_+ = |1><0| for d = 2.
CONVENTION_SPIN = "spin"
CONVENTION_TRUNCATED = "truncated-oscillator"
CONVENTIONS = (CONVENTION_SPIN, CONVENTION_TRUNCATED)

#: Default convention. The spin ladder makes all exchange frequencies of the
#: qudit-memory model commensurate, which is what produces the strong
#: entanglement revivals the witness relies on for d > 2.
DEFAULT_CONVENTION = CONVENTION_SPIN

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
    """Parameters of the qudit-memory model, with times in units of 1/omega
    (omega the exchange rate).

    d : system dimension (>= 2)
    gamma : memory damping rate over omega, finite and >= 0 (keyword only)
    convention : ladder convention for the system operators (keyword only)
    """

    d: int
    _: KW_ONLY
    gamma: float = 0.0
    convention: str = DEFAULT_CONVENTION

    def __post_init__(self):
        if not (math.isfinite(self.d) and int(self.d) == self.d and self.d >= 2):
            raise DomainError(f"d must be an integer >= 2, got {self.d}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise DomainError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.convention not in CONVENTIONS:
            raise DomainError(f"unknown convention {self.convention!r}")
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "gamma", float(self.gamma))

    def sector(self, q: int) -> tuple[np.ndarray, np.ndarray]:
        """(ket, bra) pairs of basis indices 2 n_S + n_M in sector q, shape
        (n, 2) in row-major vec order (read-only), and the real generator
        L_q on them, d rho / dt = -i [H, rho] + gamma (X rho X^dag -
        {X^dag X, rho} / 2) in the gauge rho -> V rho V^dag, V = i^(n_M),
        which multiplies the entry of rho at pair (k, b) by i^(m_k) (-i)^(m_b)
        (m: memory levels)."""
        parts = _sector_parts(self.d, self.convention, q)
        return parts[0], _generator(parts, self.gamma)


def _read_only(*arrays: np.ndarray) -> tuple:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _sector_parts(d: int, convention: str, q: int) -> tuple:
    """The gamma-free parts of sector q: its (ket, bra) pairs, and the flat
    positions and values of the nonzero entries of the two parts of
    L_q = exchange + gamma * damping, read-only."""
    n, s = 2 * d, np.arange(d - 1)
    # -i V H V^dag, whose exchange carries the ladder elements <s+1|J_+|s>
    # of the convention; per unit gamma, the damping is -1/2 for memory
    # level 1 on either side plus the jump X = sum_s |s,0><s,1|, which V
    # leaves real
    rate = np.zeros((n, n))
    ladder = np.sqrt((s + 1.0) * (d - 1.0 - s) if convention == CONVENTION_SPIN else s + 1.0)
    rate[2 * s + 1, 2 * s + 2], rate[2 * s + 2, 2 * s + 1] = ladder, -ladder
    decay = np.diag(np.tile([0.0, -0.5], d))
    jump = np.eye(n, k=1) * (np.arange(n) % 2 == 0)[:, None]
    excitations = np.arange(n) // 2 + np.arange(n) % 2
    ket, bra = np.nonzero(excitations[:, None] - excitations == q)
    k, b = ket[:, None], bra[:, None]
    exchange = rate[k, ket] * (b == bra) + (k == ket) * rate[b, bra]
    damping = (decay[k, ket] * (b == bra) + (k == ket) * decay[b, bra]
               + jump[k, ket] * jump[b, bra])
    # no entry is nonzero in both parts, so each value is its part's alone
    return _read_only(np.stack([ket, bra], axis=1), np.flatnonzero(exchange),
                      exchange[exchange != 0], np.flatnonzero(damping), damping[damping != 0])


def _generator(parts: tuple, gamma: float) -> np.ndarray:
    """L_q from its `_sector_parts` at damping rate `gamma`. The damping
    entries are added onto +0.0, so gamma = 0 leaves them +0.0, as every
    entry without a nonzero term is."""
    pairs, exchange_at, exchange, damping_at, damping = parts
    generator = np.zeros((len(pairs), len(pairs)))
    generator.flat[exchange_at] = exchange
    generator.flat[damping_at] += gamma * damping
    return generator


@functools.lru_cache(maxsize=4)
def _sector_structure(d: int, convention: str) -> tuple:
    """Per sector q = 0..d-1: its `_sector_parts`, the positions of
    |j+q,0><j,0| (the evolved columns), of |a,0><a-q,0| and |a,1><a-q,1|
    (summed over M), the (a - q, j) pairs with a <= j + q, whose entries
    <a| Lambda(|j+q><j|) |a-q> are the ones that can fill, and their places
    in the flat blocks: block j + q - a, row a, column a - q. None of it
    depends on gamma, so models of one (d, convention) share it; the
    arrays are read-only, and only a few (d, convention) are kept, since
    the (a - q, j) pairs and their places take about 4 d^3 bytes."""
    out = []
    for q in range(d):
        parts = _sector_parts(d, convention, q)
        pairs = parts[0]
        pos = np.full((2 * d, 2 * d), -1)
        pos[pairs[:, 0], pairs[:, 1]] = np.arange(len(pairs))
        j, a = np.arange(d - q), np.arange(q, d)
        units = pos[2 * (j + q), 2 * j]
        rows = (pos[2 * a, 2 * (a - q)], pos[2 * a + 1, 2 * (a - q) + 1])
        row, col = np.triu_indices(d - q)
        target = ((col - row) * d + row + q) * d + row
        _read_only(units, *rows, row, col, target)
        out.append((parts, units, rows, (row, col), target))
    return tuple(out)


def _sectors(model: LindbladModel) -> list[tuple]:
    """Per sector q = 0..d-1: L_q and the index arrays of `_sector_structure`."""
    return [(_generator(parts, model.gamma), *layout)
            for parts, *layout in _sector_structure(model.d, model.convention)]


def dense_choi(blocks: np.ndarray) -> np.ndarray:
    """Dense S (x) A matrices (..., d^2, d^2) from the real Choi blocks
    (..., d, d, d); the upper triangle is filled by symmetry."""
    d = blocks.shape[-1]
    levels = np.arange(d)
    blk, a, b = np.nonzero(levels[:, None, None] + np.maximum.outer(levels, levels) < d)
    symmetric = blocks + np.tril(blocks, -1).swapaxes(-1, -2)
    dense = np.zeros(blocks.shape[:-3] + (d * d, d * d))
    dense[..., a * (d + 1) + blk, b * (d + 1) + blk] = symmetric[..., blk, a, b]
    return dense


class ChoiEvolution:
    """Choi states (real blocks) of the reduced dynamics, from `evolve_choi`:
    `states[k]`, shape (T, d, d, d), is half of |Phi+>_SA sent through the
    map at `times[k]`; `state_at` evaluates the map exactly at any t >= 0,
    on the grid, between its points or beyond it, and caches what it
    builds, so one evolution is not to be probed from several threads at
    once. The states are validated where their entropies are taken."""

    def __init__(self, model, times, states, sectors, norm):
        self.model = model
        self.times = times
        self.states = states
        self._target = np.concatenate([target for *_, target in sectors])
        # the anchors k h lie on h = 1 / norm, norm = max_q ||L_q||_1 > 0
        self._norm = norm
        self._sectors = [sector[:4] for sector in sectors]
        self._diagonal = len(sectors[0][-1])   # sector 0, first, holds the diagonal
        anchor_bytes = 8 * (_ORDER + 1) * len(self._target)
        self._capacity = max(1, min(_ANCHORS, _ANCHOR_BYTES // anchor_bytes))
        self._anchors = {}   # k -> terms, least recently used first

    def state_at(self, t: float) -> np.ndarray:
        """S-A state as real blocks (d, d, d) at time t, summed from the
        Taylor terms of the nearest anchor; t must be >= 0 with ||L|| t finite
        and the map at t representable (DomainError otherwise)."""
        t = float(t)
        if not (math.isfinite(t * self._norm) and t >= 0):
            raise DomainError(f"t must be >= 0 with ||L|| t finite, got {t}")
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
                raise DomainError(f"the map at t = {t} overflows")
            # the rounding of exp(L_q k h) grows with ||L|| k h and drains
            # the trace long before it overflows; such an anchor is not cached
            err = abs(terms[0, :self._diagonal].sum() - 1.0)
            if not err <= TRACE_TOL:
                raise DomainError(f"the map at t = {t} loses {err:.3e} of its trace")
        self._anchors[k] = terms
        d = self.model.d
        blocks = np.zeros(d ** 3)
        blocks[self._target] = (t - k / self._norm) ** np.arange(len(terms)) @ terms
        return blocks.reshape(d, d, d)


def _anchor_terms(sectors, t: float, d: int) -> np.ndarray:
    """Taylor terms L_q^j exp(L_q t)[:, units] / j!, j = 0.._ORDER, traced
    over M and divided by d, for the (L_q, units, rows, pairs) of every
    sector, in their concatenated target order."""
    terms = np.empty((_ORDER + 1, sum(len(row) for *_, (row, _col) in sectors)))
    start = 0
    for generator, units, rows, (row, col) in sectors:
        series = [_expm(generator * t)[:, units]]
        for j in range(1, _ORDER + 1):
            series.append(generator @ series[-1] / j)
        series = np.array(series)
        terms[:, start:start + len(row)] = (series[:, rows[0][row], col]
                                            + series[:, rows[1][row], col]) / d
        start += len(row)
    return terms


def evolve_choi(model: LindbladModel, t_max: float, n_points: int) -> ChoiEvolution:
    """Evolve |Phi+>_SA (x) |0><0|_M on `n_points` uniform times over [0, t_max]
    and trace out M, giving the channel at each time applied to half of
    |Phi+>. t_max must be finite and > 0 and n_points an integer >= 2
    (DomainError otherwise)."""
    t_max = float(t_max)
    if not (math.isfinite(t_max) and t_max > 0 and float(n_points).is_integer()
            and n_points >= 2):
        raise DomainError(
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
        raise DomainError(f"grid step {dt} overflows ||L|| dt (||L|| = {norm})")
    states = np.zeros((n, d, d, d))
    flat = states.reshape(n, -1)
    for generator, units, rows, (row, col), target in sectors:
        size, width = len(generator), len(units)
        powers = np.empty((batch + 1, size, size))
        powers[0], powers[1] = np.eye(size), _expm(generator * dt)
        m = 1
        while m < batch:   # P^(m+1) .. P^(2m) = (P^1 .. P^m) P^m
            np.matmul(powers[1:m + 1], powers[m], out=powers[m + 1:2 * m + 1])
            m *= 2
        # the columns at the start of every batch of grid steps
        starts = np.empty((n_batch, size, width))
        starts[0] = np.eye(size)[:, units]
        for i in range(1, n_batch):
            np.matmul(powers[batch], starts[i - 1], out=starts[i])
        traced = (powers[:batch, rows[0]] + powers[:batch, rows[1]]).reshape(-1, size) / d
        out = (traced @ starts).reshape(n_batch * batch, width, width)
        flat[:, target] = out[:n, row, col]
    return ChoiEvolution(model, np.linspace(0.0, t_max, n), states, sectors, norm)
