"""Continuous-variable machinery: covariance matrices, Gaussian channels,
entropies from the symplectic (Williamson) spectrum, the lossy-channel
witness and the damped-harmonic-oscillator model.

Units: hbar = 1, quadratures q = (a + a^dag)/sqrt(2), p = i(a^dag - a)/sqrt(2),
so the vacuum covariance matrix is I/2. States are zero-mean throughout
(a mean shift is a local unitary and leaves every entropy unchanged).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, InvalidStateError
from .optimize import safeguarded_newton

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9
AMPLITUDE_CUTOFF = 1e-12

#: Largest squeezing parameter with a finite cosh(r), acosh(float max) ~ 710.48.
SQUEEZING_MAX = math.acosh(sys.float_info.max)

#: Single-mode symplectic form.
OMEGA_1 = np.array([[0.0, 1.0], [-1.0, 0.0]])

# the identity that scales the DHO noise matrix, shared by every channel
_EYE_2 = np.eye(2)
_EYE_2.setflags(write=False)


def _asymmetric(x: np.ndarray) -> bool:
    """True when x - x^T exceeds SYMMETRY_TOL relative to max(1, largest |entry|),
    the rounding scale of a matrix built in floating point. x must be
    finite; a 2x2 x is read as four Python floats, which gives the same
    skew and scale without numpy's per-operation cost."""
    if x.shape == (2, 2):
        (a, b), (c, d) = x.tolist()
        skew, scale = abs(b - c), max(abs(a), abs(b), abs(c), abs(d))
    else:
        skew, scale = np.abs(x - x.T).max(), np.abs(x).max()
    return bool(skew > SYMMETRY_TOL and skew > SYMMETRY_TOL * scale)


def _block_2x2(x, name: str, error: type[Exception]) -> np.ndarray:
    """Read-only float copy of x; `error` unless it is 2x2 and finite,
    checked on its four entries as Python floats."""
    blk = np.array(x, dtype=float)
    if blk.shape != (2, 2):
        raise error(f"{name} must be 2x2, got {blk.shape}")
    if not all(map(math.isfinite, itertools.chain(*blk.tolist()))):
        raise error(f"{name} must be finite")
    blk.setflags(write=False)
    return blk


@dataclass(frozen=True, eq=False)   # identity ==: arrays compare elementwise
class GaussianChannel:
    """Single-mode Gaussian channel sigma -> M^T sigma M + N.

    Only shapes and the symmetry of N are enforced here; complete
    positivity is a separate predicate (`cp_check`) so that candidate
    channels violating it can still be constructed and rejected later.
    """

    m: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        m = _block_2x2(self.m, "channel matrix M", DomainError)
        n = _block_2x2(self.n, "noise matrix N", DomainError)
        if _asymmetric(n):
            raise DomainError("noise matrix N must be symmetric")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)


@dataclass(frozen=True, eq=False)   # identity ==: arrays compare elementwise
class TwoModeBlocks:
    """Two-mode covariance matrix sigma = [[alpha, gamma], [gamma^T, beta]].

    alpha and beta are the reduced system/ancilla blocks, gamma_block the
    correlation block; all four arrays are read-only.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma_block: np.ndarray
    sigma: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a, b, g = (_block_2x2(getattr(self, name), name, InvalidStateError)
                   for name in ("alpha", "beta", "gamma_block"))
        if _asymmetric(a) or _asymmetric(b):
            raise InvalidStateError("alpha and beta must be symmetric")
        sig = np.block([[a, g], [g.T, b]])
        lo = np.linalg.eigvalsh(sig + 0.5j * np.kron(np.eye(2), OMEGA_1)).min()
        if lo < -PHYSICALITY_TOL:
            raise InvalidStateError(f"two-mode state violates sigma + i Omega/2 >= 0 "
                                    f"(min eigenvalue {lo:.3e})")
        sig.setflags(write=False)
        for name, x in (("alpha", a), ("beta", b), ("gamma_block", g), ("sigma", sig)):
            object.__setattr__(self, name, x)


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


def _mode_entropy(m):
    """h(1/2 + m) as log1p(m) + m log1p(1/m), whose terms never cancel
    (relative error about 1e-16 for every finite m >= 0), and log1p(1/m),
    taken as 0 where m is below the smallest normal float."""
    ok = m >= sys.float_info.min
    g = np.where(ok, np.log1p(1.0 / np.where(ok, m, 1.0)), 0.0)
    return np.log1p(m) + m * g, g


def h(x):
    """Entropy (nats) of a single mode with symplectic eigenvalue x >= 1/2:

        h(x) = (x + 1/2) ln(x + 1/2) - (x - 1/2) ln(x - 1/2),

    continuously extended by h(1/2) = 0, evaluated by `_mode_entropy` at
    m = x - 1/2. Accepts scalars or arrays; values within 1e-9 below 1/2
    are clamped to 1/2. Non-finite input raises DomainError.
    """
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("h(x) requires finite x")
    if (arr < 0.5 - 1e-9).any():
        raise DomainError(f"h(x) requires x >= 1/2, got min {arr.min()}")
    out, _ = _mode_entropy(np.maximum(arr, 0.5) - 0.5)
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

    Each argument of h is 1/2 + m_i, m_i = c_i s with c = (1-eta1, eta2, 1)
    and s = sinh(r/2)^2, so cosh r - 1 is never formed. Vectorizes over
    any of the arguments; NaN or out-of-range input raises DomainError,
    and so does r > SQUEEZING_MAX, where cosh r overflows.
    """
    e1 = np.asarray(eta1, dtype=float)
    e2 = np.asarray(eta2, dtype=float)
    if not all(((0 <= e) & (e <= 1)).all() for e in (e1, e2)):
        raise DomainError("loss parameters must lie in [0, 1]")
    rr = np.asarray(r, dtype=float)
    bad = ~((rr > 0) & (rr <= SQUEEZING_MAX))
    if bad.any():
        raise DomainError(f"squeezing parameter r must lie in (0, {SQUEEZING_MAX:.6g}], "
                          f"where cosh r is finite; got r = {rr[bad].flat[0]}")
    s = np.square(np.sinh(0.5 * rr))
    out = _mode_entropy((1.0 - e1) * s)[0] + _mode_entropy(e2 * s)[0] - _mode_entropy(s)[0]
    if all(np.ndim(a) == 0 for a in (eta1, eta2, r)):
        return float(out)
    return out


def _lossy_slope(e1, e2, u):
    """Slope F of `delta_S_lossy` in u = ln r over its positive factor
    r sinh(r)/2, and dF/du. With the m_i and s of `delta_S_lossy`,
    F = c_1 g_1 + c_2 g_2 - g_3 with g_i = log1p(1/m_i) from
    `_mode_entropy`, and dF/du = r coth(r/2) (1/(s+1) - c_1/(m_1+1) -
    c_2/(m_2+1)). Finite and warning-free up to SQUEEZING_MAX: r/2 is
    taken at least 5e-9, below which x/tanh x rounds to 1.
    """
    half = np.maximum(0.5 * np.exp(u), 5e-9)
    s = np.square(np.sinh(half))
    f, df = -_mode_entropy(s)[1], 1.0 / (s + 1.0)
    for c in (1.0 - e1, e2):
        m = c * s
        f = f + c * _mode_entropy(m)[1]
        df = df - c / (m + 1.0)
    return f, 2.0 * half / np.tanh(half) * df


def minimize_delta_S_over_r(eta1, eta2, r_min: float = 1e-3, r_max: float = 6.0):
    """Minimize the lossy-channel witness over the squeezing parameter.

    One safeguarded Newton search (`optimize.safeguarded_newton`) per cell
    of the broadcast (eta1, eta2), all in lockstep, finds the zero of the
    closed-form slope in u = ln r on [ln r_min, ln r_max] to 1e-9, or the
    end the witness descends to, returned as r_min or r_max exactly.
    Returns (r_star, delta_S_star), arrays of the broadcast shape or two
    floats for scalar input. The zero is the global minimum: with
    c = (1-eta1, eta2) and t = 1/sinh(r/2)^2, which falls as r grows, the
    slope has the sign of F(t) = c1 ln(1 + t/c1) + c2 ln(1 + t/c2) -
    ln(1 + t), F(0) = 0, and the numerator of F'(t),
    (c1 + c2 - 1) t^2 + 2 c1 c2 t + c1 c2, has at most one positive root.
    So F >= 0 if eta2 >= eta1 (r* = r_min); F < 0 if c1 c2 = 0 <
    1 - c1 - c2 (r* = r_max); otherwise F rises from 0, then falls to
    -inf: the witness falls, then rises in r.
    """
    if not 0.0 < r_min < r_max <= SQUEEZING_MAX:
        raise DomainError(f"need 0 < r_min < r_max <= {SQUEEZING_MAX:.6g} (cosh r overflows "
                          f"above), got r_min = {r_min}, r_max = {r_max}")
    e1, e2 = np.broadcast_arrays(np.asarray(eta1, dtype=float), np.asarray(eta2, dtype=float))
    if not all(((0 <= e) & (e <= 1)).all() for e in (e1, e2)):
        raise DomainError("loss parameters must lie in [0, 1]")
    shape, e1, e2 = e1.shape, e1.ravel(), e2.ravel()
    lo, hi = math.log(r_min), math.log(r_max)
    u = safeguarded_newton(lambda u, idx: _lossy_slope(e1[idx], e2[idx], u),
                           np.full(e1.size, lo), np.full(e1.size, hi), 1e-9)
    # exp(ln r) can round one ulp outside [r_min, r_max]
    r = np.where(u == lo, r_min, np.where(u == hi, r_max, np.clip(np.exp(u), r_min, r_max)))
    r_star, f_star = r.reshape(shape), delta_S_lossy(e1, e2, r).reshape(shape)
    if r_star.ndim == 0:
        return float(r_star), float(f_star)
    return r_star, f_star


@dataclass(frozen=True, eq=False)   # identity ==: arrays compare elementwise
class DhoAmplitude:
    """Oscillator amplitude c_t and its derivative c_dot at `times`, with
    the master-equation coefficients of the amplitude flow

        G = -(c_dot + i omega c) / c,
        gamma_t = 2 Re G,   omega_t = omega + Im G,

    (NaN where |c| is at or below the cutoff, since they diverge at
    amplitude zeros), for the oscillator `params`. DomainError unless
    times, c and c_dot are 1-d arrays of equal, non-zero length, the times
    finite and strictly increasing, and c and c_dot finite. The arrays are
    read-only copies, so the grid stays what was checked.
    """

    times: np.ndarray
    c: np.ndarray
    c_dot: np.ndarray
    params: DhoParams
    gamma_t: np.ndarray = field(init=False)
    omega_t: np.ndarray = field(init=False)

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        c, c_dot = np.array(self.c, dtype=complex), np.array(self.c_dot, dtype=complex)
        if times.ndim != 1 or not times.shape == c.shape == c_dot.shape:
            raise DomainError(f"times, c and c_dot must be 1-d arrays of equal length, got "
                              f"shapes {times.shape}, {c.shape} and {c_dot.shape}")
        if times.size == 0:
            raise DomainError("time grid must be non-empty")
        if not np.isfinite(times).all():
            raise DomainError("time grid must be finite")
        if np.any(np.diff(times) <= 0):
            raise DomainError("time grid must be strictly increasing")
        if not (np.isfinite(c).all() and np.isfinite(c_dot).all()):
            raise DomainError("amplitude and its derivative must be finite")
        ok = np.abs(c) > AMPLITUDE_CUTOFF
        gamma_t, omega_t = np.full(times.shape, np.nan), np.full(times.shape, np.nan)
        g = -(c_dot[ok] + 1j * self.params.omega * c[ok]) / c[ok]
        gamma_t[ok] = 2.0 * g.real
        omega_t[ok] = self.params.omega + g.imag
        for name, x in (("times", times), ("c", c), ("c_dot", c_dot),
                        ("gamma_t", gamma_t), ("omega_t", omega_t)):
            x.setflags(write=False)
            object.__setattr__(self, name, x)


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
    strong damping. Returns a `DhoAmplitude`; DomainError for a grid that
    does not start at 0 or that the amplitude type rejects.
    """
    grid = np.asarray(t_grid, dtype=float)
    b = params.kappa + 1j * (params.omega + params.omega_big)
    c0 = params.g2 + 1j * params.omega * (params.kappa + 1j * params.omega_big)
    s = -b / 2.0
    # past overflow the amplitude is not finite, which DhoAmplitude rejects
    with np.errstate(over="ignore", invalid="ignore"):
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
    amp = DhoAmplitude(grid, c, c_dot, params)
    if not abs(amp.times[0]) <= 1e-14:
        raise DomainError("time grid must start at 0")
    return amp


def dho_channel(amplitude: DhoAmplitude, params: DhoParams, t: float,
                on_vanishing: str = "raise") -> GaussianChannel:
    """Gaussian channel of the damped oscillator at grid time t:

        M_t = |c_t| R(Phi_t) = [[Re c_t, Im c_t], [-Im c_t, Re c_t]],
        N_t = (1 - |c_t|^2) I / 2,

    where the accumulated phase Phi_t = int_0^t omega_s ds equals
    -arg c_t, so M_t follows c_t through its zeros (the rotation never
    affects the witness). `amplitude` must have been computed for
    `params` (DomainError otherwise), and t must lie within
    1e-9 max(t_end, 1) of one of its grid times (DomainError otherwise,
    also for NaN and +-inf); the nearest one is used, the earlier of two
    equally near. The lookup is a binary search plus a neighbour compare,
    O(log T) on the T grid times, and relies on the grid being finite and
    strictly increasing, which every `DhoAmplitude` guarantees.
    on_vanishing is "raise" (DomainError where the amplitude vanishes) or
    "full-loss" (the full-loss channel M = 0, N = I/2 there).
    """
    if on_vanishing not in ("raise", "full-loss"):
        raise DomainError(f"on_vanishing must be 'raise' or 'full-loss', got {on_vanishing!r}")
    if amplitude.params != params:
        raise DomainError(f"amplitude was computed for {amplitude.params}, not {params}")
    times = amplitude.times
    k = int(np.searchsorted(times, t))   # first grid time >= t; len(times) for NaN
    if k == len(times) or (k and abs(times[k - 1] - t) <= abs(times[k] - t)):
        k -= 1
    dist = abs(times[k] - t)
    while k and abs(times[k - 1] - t) == dist:   # argmin's first index if distances round equal
        k -= 1
    if not dist <= 1e-9 * max(times[-1], 1.0):
        raise DomainError(f"t={t} is not a grid time of the amplitude trajectory")
    c_t = complex(amplitude.c[k])
    if abs(c_t) <= AMPLITUDE_CUTOFF:
        if on_vanishing == "full-loss":
            return GaussianChannel(m=np.zeros((2, 2)), n=0.5 * _EYE_2)
        raise DomainError(f"amplitude vanished at t={times[k]:.6g}")
    return GaussianChannel(
        m=np.array([[c_t.real, c_t.imag], [-c_t.imag, c_t.real]]),
        n=0.5 * (1.0 - abs(c_t) ** 2) * _EYE_2,
    )


def first_loss_reversal(eta) -> tuple[int, int] | None:
    """First loss reversal (k1, k2) on a sampled loss curve, or None.

    k1 is the first interior local maximum of eta (>= both neighbours, so
    a plateau counts at its first point) after which eta drops by more
    than 1e-9 (a noise margin); k2 is the first index of the minimum
    of eta from k1 on. A monotone loss gives None; an eta that is not 1-d
    or not finite raises DomainError (NaN would otherwise read as "no
    reversal", and k1 index a flattened array).
    """
    e = np.asarray(eta, dtype=float)
    if e.ndim != 1:
        raise DomainError(f"loss curve must be 1-d, got shape {e.shape}")
    if not np.isfinite(e).all():
        raise DomainError("loss curve must be finite")
    mid = e[1:-1]
    tail_min = np.minimum.accumulate(e[::-1])[::-1]
    hits = np.flatnonzero((mid >= e[:-2]) & (mid >= e[2:]) & (tail_min[1:-1] < mid - 1e-9))
    if hits.size == 0:
        return None
    k = int(hits[0]) + 1
    return k, int(np.argmin(e[k:])) + k
