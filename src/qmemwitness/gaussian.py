"""Continuous-variable machinery: covariance matrices, Gaussian channels,
entropies from the symplectic (Williamson) spectrum, the lossy-channel
witness and the damped-harmonic-oscillator model.

Units: hbar = 1, quadratures q = (a + a^dag)/sqrt(2), p = i(a^dag - a)/sqrt(2),
so the vacuum covariance matrix is I/2. States are zero-mean throughout
(a mean shift is a local unitary and leaves every entropy unchanged).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, InvalidStateError
from .optimize import golden_section

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9
AMPLITUDE_CUTOFF = 1e-12

#: Largest squeezing parameter with a finite cosh(r), acosh(float max) ~ 710.48.
SQUEEZING_MAX = math.acosh(sys.float_info.max)

# points of the ln r grid that warm-starts the lossy-witness minimization
_COARSE_POINTS = 40

#: Single-mode symplectic form.
OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _asymmetric(x: np.ndarray) -> bool:
    """True when x - x^T exceeds SYMMETRY_TOL relative to max(1, largest |entry|),
    the rounding scale of a matrix built in floating point."""
    skew = np.abs(x - x.T).max()
    return bool(skew > SYMMETRY_TOL and skew > SYMMETRY_TOL * np.abs(x).max())


@dataclass(frozen=True)
class GaussianChannel:
    """Single-mode Gaussian channel sigma -> M^T sigma M + N.

    Only shapes and the symmetry of N are enforced here; complete
    positivity is a separate predicate (`cp_check`) so that candidate
    channels violating it can still be constructed and rejected later.
    """

    m: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        n = np.array(self.n, dtype=float)
        if m.shape != (2, 2) or n.shape != (2, 2):
            raise DomainError("channel matrices must be 2x2")
        if not (np.isfinite(m).all() and np.isfinite(n).all()):
            raise DomainError("channel matrices must be finite")
        if _asymmetric(n):
            raise DomainError("noise matrix N must be symmetric")
        m.setflags(write=False)
        n.setflags(write=False)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)


@dataclass(frozen=True)
class TwoModeBlocks:
    """Two-mode covariance matrix [[alpha, gamma], [gamma^T, beta]].

    alpha and beta are the reduced system/ancilla blocks, gamma_block the
    correlation block.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma_block: np.ndarray

    def __post_init__(self):
        a = np.array(self.alpha, dtype=float)
        b = np.array(self.beta, dtype=float)
        g = np.array(self.gamma_block, dtype=float)
        for blk, name in ((a, "alpha"), (b, "beta"), (g, "gamma_block")):
            if blk.shape != (2, 2):
                raise InvalidStateError(f"{name} must be 2x2, got {blk.shape}")
        if not all(np.isfinite(blk).all() for blk in (a, b, g)):
            raise InvalidStateError("covariance blocks must be finite")
        if _asymmetric(a) or _asymmetric(b):
            raise InvalidStateError("alpha and beta must be symmetric")
        sig = np.block([[a, g], [g.T, b]])
        lo = np.linalg.eigvalsh(sig + 0.5j * np.kron(np.eye(2), OMEGA_1)).min()
        if lo < -PHYSICALITY_TOL:
            raise InvalidStateError(f"two-mode state violates sigma + i Omega/2 >= 0 "
                                    f"(min eigenvalue {lo:.3e})")
        for blk in (a, b, g):
            blk.setflags(write=False)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma_block", g)

    @property
    def sigma(self) -> np.ndarray:
        return np.block([[self.alpha, self.gamma_block],
                         [self.gamma_block.T, self.beta]])


@dataclass(frozen=True)
class DhoParams:
    """Damped-oscillator parameters: coupling strength g2 = |g|^2 (1/time^2),
    bath memory decay rate kappa (1/time), oscillator frequency omega and
    bath central frequency omega_big (1/time); all finite."""

    g2: float
    kappa: float
    omega: float
    omega_big: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.g2, self.kappa, self.omega, self.omega_big))):
            raise DomainError(f"parameters must be finite, got {self}")
        if self.g2 < 0:
            raise DomainError(f"g2 must be >= 0, got {self.g2}")
        if not self.kappa > 0:
            raise DomainError(f"kappa must be > 0, got {self.kappa}")


def cp_check(ch: GaussianChannel) -> bool:
    """True iff N + (i/2) Omega - (i/2) M^T Omega M >= -1e-9."""
    cond = ch.n + 0.5j * OMEGA_1 - 0.5j * (ch.m.T @ OMEGA_1 @ ch.m)
    return bool(np.linalg.eigvalsh(cond).min() >= -PHYSICALITY_TOL)


def h(x):
    """Entropy (nats) of a single mode with symplectic eigenvalue x >= 1/2:

        h(x) = (x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2),

    continuously extended by h(1/2) = 0. Evaluated as
    log1p(m) + m log1p(1/m) with m = x - 1/2, which avoids the
    cancellation of the two terms at large x (relative error about 1e-16
    for every finite x). Accepts scalars or arrays; values within 1e-9
    below 1/2 are clamped to 1/2. Non-finite input raises DomainError.
    """
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("h(x) requires finite x")
    if (arr < 0.5 - 1e-9).any():
        raise DomainError(f"h(x) requires x >= 1/2, got min {arr.min()}")
    arr = np.maximum(arr, 0.5)
    m = arr - 0.5
    nz = m > 0.0
    out = np.log1p(m) + np.where(nz, m * np.log1p(1.0 / np.where(nz, m, 1.0)), 0.0)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def entropy_gaussian(sigma) -> float:
    """Entropy (nats) of an n-mode Gaussian state with 2n x 2n covariance sigma.

    Williamson form in vacuum units: with R the symmetric square root of
    2 sigma, the eigenvalues of the Hermitian R (i Omega_n) R come in
    pairs +/- 2 nu_k, where nu_k are the symplectic eigenvalues, and the
    entropy is sum_k h(nu_k). The vacuum has R = I exactly, so it gives
    nu = 1/2 and entropy 0.0 with no rounding window. Non-finite, empty,
    non-square or odd-sized input raises InvalidStateError, and so do
    an asymmetry above 1e-12 max(1, largest |entry|) and any nu below 1/2
    by more than 1e-9.
    """
    sig = np.asarray(sigma, dtype=float)
    if sig.ndim != 2 or sig.shape[0] != sig.shape[1] or sig.shape[0] % 2 or sig.size == 0:
        raise InvalidStateError(f"covariance must be 2n x 2n with n >= 1, got {sig.shape}")
    if not np.isfinite(sig).all():
        raise InvalidStateError("covariance must be finite")
    if _asymmetric(sig):
        raise InvalidStateError("covariance must be symmetric")
    w, v = np.linalg.eigh(2.0 * sig)
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    modes = sig.shape[0] // 2
    nu = np.linalg.eigvalsh(root @ (1j * np.kron(np.eye(modes), OMEGA_1)) @ root)[modes:] / 2.0
    if nu[0] < 0.5 - PHYSICALITY_TOL:
        raise InvalidStateError(f"symplectic eigenvalue {nu[0]} below the vacuum bound 1/2")
    return float(np.sum(h(nu)))


def delta_S_lossy(eta1, eta2, r):
    """Closed form of the witness for two lossy snapshots on a two-mode
    squeezed probe:

        h((eta1 + (1-eta1) cosh r)/2) + h((1-eta2 + eta2 cosh r)/2)
          - h(cosh(r)/2).

    Vectorizes over any of the arguments; NaN or out-of-range input
    raises DomainError, and so does r > SQUEEZING_MAX, where cosh r
    overflows.
    """
    e1 = np.asarray(eta1, dtype=float)
    e2 = np.asarray(eta2, dtype=float)
    if not (((e1 >= 0) & (e1 <= 1)).all() and ((e2 >= 0) & (e2 <= 1)).all()):
        raise DomainError("loss parameters must lie in [0, 1]")
    rr = np.asarray(r, dtype=float)
    bad = ~((rr > 0) & (rr <= SQUEEZING_MAX))
    if bad.any():
        raise DomainError(f"squeezing parameter r must lie in (0, {SQUEEZING_MAX:.6g}], "
                          f"where cosh r is finite; got r = {rr[bad].flat[0]}")
    c = np.cosh(rr)
    out = h((e1 + (1.0 - e1) * c) / 2.0) + h((1.0 - e2 + e2 * c) / 2.0) - h(c / 2.0)
    if all(np.ndim(a) == 0 for a in (eta1, eta2, r)):
        return float(out)
    return out


def minimize_delta_S_over_r(eta1, eta2, r_min: float = 1e-3, r_max: float = 6.0):
    """Minimize the lossy-channel witness over the squeezing parameter.

    Golden-section search on ln r, warm-started from a 40-point grid, for
    every cell of the broadcast (eta1, eta2) at once. Returns
    (r_star, delta_S_star) as arrays of the broadcast shape, or as two
    floats for scalar input. The minimum is never positive-biased:
    values below the coarse grid's best are always explored around it.
    """
    if not 0.0 < r_min < r_max <= SQUEEZING_MAX:
        raise DomainError(f"need 0 < r_min < r_max <= {SQUEEZING_MAX:.6g} (cosh r overflows "
                          f"above), got r_min = {r_min}, r_max = {r_max}")
    e1, e2 = np.broadcast_arrays(np.asarray(eta1, dtype=float), np.asarray(eta2, dtype=float))
    shape, e1, e2 = e1.shape, e1.ravel(), e2.ravel()
    grid = np.linspace(math.log(r_min), math.log(r_max), _COARSE_POINTS)
    # exp(ln r_max) can round one ulp above r_max
    vals = delta_S_lossy(e1[:, None], e2[:, None], np.minimum(np.exp(grid), r_max))
    k = np.argmin(vals, axis=1)
    _, _, c, d, fc, fd = golden_section(
        lambda u, idx: delta_S_lossy(e1[idx], e2[idx], np.exp(u)),
        grid[np.maximum(k - 1, 0)], grid[np.minimum(k + 1, _COARSE_POINTS - 1)], 1e-9,
    )
    best_grid = vals[np.arange(k.size), k]
    on_grid = best_grid < np.minimum(fc, fd)
    u_star = np.where(on_grid, grid[k], np.where(fc < fd, c, d)).reshape(shape)
    f_star = np.where(on_grid, best_grid, np.minimum(fc, fd)).reshape(shape)
    if u_star.ndim == 0:
        return math.exp(u_star), float(f_star)
    return np.exp(u_star), f_star


@dataclass(frozen=True)
class DhoAmplitude:
    """Oscillator amplitude c_t and its derivative c_dot at `times`, with
    the master-equation coefficients of the amplitude flow

        G = -(c_dot + i omega c) / c,
        gamma_t = 2 Re G,   omega_t = omega + Im G,

    (NaN where |c| is at or below the cutoff, since they diverge at
    amplitude zeros), for the oscillator `params`.
    """

    times: np.ndarray
    c: np.ndarray
    c_dot: np.ndarray
    gamma_t: np.ndarray
    omega_t: np.ndarray
    params: DhoParams

    @classmethod
    def from_arrays(cls, times, c, c_dot, params: DhoParams) -> "DhoAmplitude":
        """Amplitude samples on a grid plus the coefficients they give for
        `params`; non-finite c or c_dot raises DomainError."""
        times = np.asarray(times, dtype=float)
        c, c_dot = np.asarray(c, dtype=complex), np.asarray(c_dot, dtype=complex)
        if not (np.isfinite(c).all() and np.isfinite(c_dot).all()):
            raise DomainError("amplitude and its derivative must be finite")
        ok = np.abs(c) > AMPLITUDE_CUTOFF
        gamma_t, omega_t = np.full(times.shape, np.nan), np.full(times.shape, np.nan)
        g = -(c_dot[ok] + 1j * params.omega * c[ok]) / c[ok]
        gamma_t[ok] = 2.0 * g.real
        omega_t[ok] = params.omega + g.imag
        return cls(times, c, c_dot, gamma_t, omega_t, params)


def dho_amplitude(params: DhoParams, t_grid: Sequence[float]) -> DhoAmplitude:
    """Oscillator amplitude c_t and its derivative on the output grid.

    Solves the time-local equation

        c'' + (kappa + i omega + i omega_big) c'
            + [g2 + i omega (kappa + i omega_big)] c = 0

    with c(0) = 1, c'(0) = -i omega, which encodes an exponentially
    decaying bath memory kernel, in closed form: (c, c') at t is
    exp(A t) (1, -i omega) for the companion matrix A = [[0, 1], [-c0, -b]].
    With s = tr A / 2, mu = sqrt(s^2 - det A) (principal root, Re mu >= 0)
    and phi(z) = (1 - e^{-z}) / z, phi(0) = 1,

        exp(A t) = e^{lambda_+ t} [(1 + e^{-2 mu t}) / 2 I + t phi(2 mu t) (A - s I)],

    where lambda_+ = s + mu = det A / (s - mu). The form needs no branch
    at degenerate roots (mu = 0) and has no factor that overflows under
    strong damping. Returns a `DhoAmplitude`.
    """
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or abs(grid[0]) > 1e-14 or not np.isfinite(grid).all():
        raise DomainError("time grid must be 1-d, finite and start at 0")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise DomainError("time grid must be strictly increasing")
    b = params.kappa + 1j * (params.omega + params.omega_big)
    c0 = params.g2 + 1j * params.omega * (params.kappa + 1j * params.omega_big)
    s = -b / 2.0
    mu = np.sqrt(complex(s * s - c0))
    z = 2.0 * mu * grid
    nz = z != 0.0
    t_phi = np.where(nz, -np.expm1(-z) / np.where(nz, z, 1.0), 1.0) * grid
    half_sum = (1.0 + np.exp(-z)) / 2.0
    # lambda_+ = s + mu cancels when |det A| << |s|^2 (strong damping);
    # det A / lambda_- does not, since Re s < 0 <= Re mu
    lam = s + mu if abs(s + mu) >= abs(s) / 2.0 else c0 / (s - mu)
    growth = np.exp(lam * grid)
    # (A - s I) (1, -i omega) = (-i omega - s, -c0 - i omega s)
    w = -1j * params.omega
    c = growth * (half_sum + t_phi * (w - s))
    c_dot = growth * (half_sum * w + t_phi * (-c0 + w * s))
    return DhoAmplitude.from_arrays(grid, c, c_dot, params)


def dho_channel(amplitude: DhoAmplitude, params: DhoParams, t: float,
                on_vanishing: str = "raise") -> GaussianChannel:
    """Gaussian channel of the damped oscillator at grid time t:

        M_t = |c_t| R(Phi_t) = [[Re c_t, Im c_t], [-Im c_t, Re c_t]],
        N_t = (1 - |c_t|^2) I / 2,

    where the accumulated phase Phi_t = int_0^t omega_s ds equals
    -arg c_t, so M_t follows c_t through its zeros (the rotation never
    affects the witness). `amplitude` must have been computed for
    `params` (DomainError otherwise), and t must coincide with one of its
    grid times. on_vanishing is "raise" (DomainError where the amplitude
    vanishes) or "full-loss" (the full-loss channel M = 0, N = I/2 there).
    """
    if on_vanishing not in ("raise", "full-loss"):
        raise DomainError(f"on_vanishing must be 'raise' or 'full-loss', got {on_vanishing!r}")
    if amplitude.params != params:
        raise DomainError(f"amplitude was computed for {amplitude.params}, not {params}")
    times = amplitude.times
    span = max(times[-1], 1.0)
    k = int(np.argmin(np.abs(times - t)))
    if not abs(times[k] - t) <= 1e-9 * span:
        raise DomainError(f"t={t} is not a grid time of the amplitude trajectory")
    c_t = complex(amplitude.c[k])
    if abs(c_t) <= AMPLITUDE_CUTOFF:
        if on_vanishing == "full-loss":
            return GaussianChannel(m=np.zeros((2, 2)), n=0.5 * np.eye(2))
        raise DomainError(f"amplitude vanished at t={times[k]:.6g}")
    return GaussianChannel(
        m=np.array([[c_t.real, c_t.imag], [-c_t.imag, c_t.real]]),
        n=0.5 * (1.0 - abs(c_t) ** 2) * np.eye(2),
    )


def first_loss_reversal(eta) -> tuple[int, int] | None:
    """First loss reversal (k1, k2) on a sampled loss curve, or None.

    k1 is the first interior local maximum of eta (>= both neighbours, so
    a plateau counts at its first point) after which eta drops by more
    than 1e-9 (a noise margin); k2 is the first index of the minimum
    of eta from k1 on. A monotone loss gives None; a non-finite eta raises
    DomainError (NaN would otherwise read as "no reversal").
    """
    e = np.asarray(eta, dtype=float)
    if not np.isfinite(e).all():
        raise DomainError("loss curve must be finite")
    mid = e[1:-1]
    tail_min = np.minimum.accumulate(e[::-1])[::-1]
    hits = np.flatnonzero((mid >= e[:-2]) & (mid >= e[2:]) & (tail_min[1:-1] < mid - 1e-9))
    if hits.size == 0:
        return None
    k = int(hits[0]) + 1
    return k, int(np.argmin(e[k:])) + k
