"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch (explicit loops,
np.kron chains, eigensolvers, characteristic roots) so that agreement
with the package is a genuine two-path check rather than a tautology.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from qmemwitness import DomainError, GaussianChannel, TwoModeBlocks, cp_check
from qmemwitness.gaussian import SQUEEZING_MAX, SYMMETRY_TOL

SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)   # |1><0|
SIGMA_MINUS = SIGMA_PLUS.conj().T


def max_entangled(d: int) -> np.ndarray:
    """|Phi+><Phi+| with |Phi+> = sum_l |ll> / sqrt(d), a d^2 x d^2 array."""
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / math.sqrt(d)
    return np.outer(psi, psi.conj())


def reduced_state(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every subsystem of `dims` not listed in `keep`; the kept
    ones stay in their original order whatever the order of `keep`."""
    dims = tuple(dims)
    data = np.asarray(rho).reshape(dims + dims)
    remaining = len(dims)
    for idx in sorted(set(range(len(dims))) - set(keep), reverse=True):
        data = np.trace(data, axis1=idx, axis2=idx + remaining)
        remaining -= 1
    side = math.prod(dims[i] for i in sorted(set(keep)))
    return data.reshape(side, side)


def partial_trace_out_memory_loops(rho_sma: np.ndarray, d: int) -> np.ndarray:
    """Contract the middle qubit of an S-M-A state by explicit index loops."""
    out = np.zeros((d * d, d * d), dtype=complex)
    for s in range(d):
        for a in range(d):
            for sp in range(d):
                for ap in range(d):
                    acc = 0.0 + 0.0j
                    for m in range(2):
                        acc += rho_sma[(s * 2 + m) * d + a, (sp * 2 + m) * d + ap]
                    out[s * d + a, sp * d + ap] = acc
    return out


def ladder_matrix(d: int, convention: str) -> np.ndarray:
    j = np.zeros((d, d), dtype=complex)
    for n in range(d - 1):
        if convention == "spin":
            j[n + 1, n] = math.sqrt((n + 1) * (d - 1 - n))
        else:
            j[n + 1, n] = math.sqrt(n + 1)
    return j


def qudit_generator_dense(d, omega, gamma, convention, rho):
    """Master-equation right-hand side from explicit kron-built operators."""
    jp = ladder_matrix(d, convention)
    jm = jp.conj().T
    h = omega * (np.kron(np.kron(jm, SIGMA_PLUS), np.eye(d))
                 + np.kron(np.kron(jp, SIGMA_MINUS), np.eye(d)))
    x = np.kron(np.kron(np.eye(d), SIGMA_MINUS), np.eye(d))
    xdx = x.conj().T @ x
    return (-1j * (h @ rho - rho @ h)
            + gamma * (x @ rho @ x.conj().T - 0.5 * (xdx @ rho + rho @ xdx)))


def liouvillian_dense(d, omega, gamma, convention):
    """Kron-built generator on S (x) M acting on row-major vec, shape (4d^2, 4d^2).

    vec(d rho / dt) = L vec(rho) for
    d rho / dt = -i [H, rho] + gamma * D[1_S (x) sigma_-] rho;
    row-major vec turns A rho B into (A (x) B^T) vec(rho).
    """
    jp = ladder_matrix(d, convention)
    h = omega * (np.kron(jp.conj().T, SIGMA_PLUS) + np.kron(jp, SIGMA_MINUS))
    one = np.eye(2 * d)
    x = np.kron(np.eye(d), SIGMA_MINUS)
    xdx = x.conj().T @ x
    return (-1j * (np.kron(h, one) - np.kron(one, h.T))
            + gamma * (np.kron(x, x.conj()) - 0.5 * (np.kron(xdx, one) + np.kron(one, xdx.T))))


def choi_via_dense_liouvillian(d, omega, gamma, convention, t):
    """Normalized S (x) A Choi state at time t: expm of the kron-built
    generator applied to each matrix unit |i,0><j,0|, traced over M by loops."""
    prop = expm(liouvillian_dense(d, omega, gamma, convention) * t)
    n = 2 * d
    out = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            image = prop[:, 2 * i * n + 2 * j].reshape(n, n)
            for a in range(d):
                for b in range(d):
                    out[a * d + i, b * d + j] = (image[2 * a, 2 * b]
                                                 + image[2 * a + 1, 2 * b + 1]) / d
    return out


def choi_blocks_via_sector_expm(model, t):
    """Real Choi blocks (d, d, d) at time t from one scipy expm(L_q t) per
    sector q = 0..d-1 of the kron-built generator (complex, ungauged), with
    no Taylor series: <a| Lambda(|j+q><j|) |a-q> / d, summed over M by loops,
    goes to block j + q - a, row a, column a - q for every a <= j + q."""
    d, n = model.d, 2 * model.d
    dense = liouvillian_dense(d, 1.0, model.gamma, model.convention)
    orders = coherence_orders(d)
    blocks = np.zeros((d, d, d), dtype=complex)
    for q in range(d):
        flat = np.flatnonzero(orders == q)
        pos = {v: p for p, v in enumerate(flat)}
        prop = expm(dense[np.ix_(flat, flat)] * t)
        for j in range(d - q):
            image = prop[:, pos[2 * (j + q) * n + 2 * j]]
            for a in range(q, j + q + 1):
                blocks[j + q - a, a, a - q] = sum(
                    image[pos[(2 * a + m) * n + 2 * (a - q) + m]] for m in (0, 1)) / d
    assert not blocks.imag.any()
    return blocks.real


def sector_phase(pairs: np.ndarray) -> np.ndarray:
    """i^(m_ket) (-i)^(m_bra) of each (ket, bra) pair of S (x) M basis indices
    2 n_S + n_M, exactly: the sector generator's gauge is p L p^*."""
    memory = pairs % 2
    return np.where(memory[:, 0], 1j, 1.0) * np.where(memory[:, 1], -1j, 1.0)


def coherence_orders(d: int) -> np.ndarray:
    """q = N_ket - N_bra (N = n_S + n_M) of every row-major vec index on S (x) M."""
    n = np.array([s + m for s in range(d) for m in range(2)])
    return (n[:, None] - n[None, :]).ravel()


def qudit_dop853_states(d, omega, gamma, convention, rho0, ts):
    """Integrate `qudit_generator_dense` from rho0 (S-M-A) with DOP853.

    An adaptive Runge-Kutta path, independent of the package's matrix
    exponentials; rtol 1e-12 / atol 1e-14. Returns the states at ts.
    """
    n = rho0.shape[0]

    def rhs(t, y):
        return qudit_generator_dense(d, omega, gamma, convention, y.reshape(n, n)).ravel()

    ts = np.asarray(ts, dtype=float)
    sol = solve_ivp(rhs, (0.0, float(ts[-1])), np.asarray(rho0, dtype=complex).ravel(),
                    method="DOP853", t_eval=ts, rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    return sol.y.T.reshape(ts.size, n, n)


def qubit_damping_amplitude(omega, gamma, ts):
    """Survival amplitude of the d=2 exchange model with memory damping.

    Solves u'' + (gamma/2) u' + omega^2 u = 0, u(0)=1, u'(0)=0 in closed
    form (underdamped branch, gamma < 4 omega).
    """
    ts = np.asarray(ts, dtype=float)
    nu = math.sqrt(omega * omega - gamma * gamma / 16.0)
    return np.exp(-gamma * ts / 4.0) * (
        np.cos(nu * ts) + (gamma / (4.0 * nu)) * np.sin(nu * ts)
    )


def binary_entropy(q: float) -> float:
    total = 0.0
    for p in (q, 1.0 - q):
        if p > 1e-300:
            total -= p * math.log(p)
    return total


def h_reference(x: float) -> float:
    if x <= 0.5:
        return 0.0
    return (x + 0.5) * math.log(x + 0.5) - (x - 0.5) * math.log(x - 0.5)


def symplectic_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    """Symplectic spectrum via |eig(i Omega sigma)| (Williamson route)."""
    modes = sigma.shape[0] // 2
    omega = np.kron(np.eye(modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    ev = np.sort(np.abs(np.linalg.eigvals(1j * omega @ sigma)))
    return ev[::2]


def two_mode_entropy_williamson(sigma: np.ndarray) -> float:
    return float(sum(h_reference(nu) for nu in symplectic_eigenvalues(sigma)))


def random_symplectic(rng, modes: int) -> np.ndarray:
    omega = np.kron(np.eye(modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    a = rng.normal(size=(2 * modes, 2 * modes))
    a = (a + a.T) / 2.0
    return expm(omega @ a * 0.3)


def random_two_mode_sigma(rng, nu_lo=0.55, nu_hi=3.0):
    """Random physical two-mode covariance with a known symplectic spectrum."""
    nu1, nu2 = rng.uniform(nu_lo, nu_hi, size=2)
    d = np.diag([nu1, nu1, nu2, nu2])
    s = random_symplectic(rng, 2)
    return s.T @ d @ s, (nu1, nu2)


def two_mode_squeezed(r: float) -> TwoModeBlocks:
    """Pure two-mode squeezed state with squeezing parameter
    0 < r <= SQUEEZING_MAX (DomainError otherwise):

        alpha = beta = cosh(r) I / 2,   gamma = sinh(r) sigma_z / 2.
    """
    if not 0 < r <= SQUEEZING_MAX:
        raise DomainError(f"squeezing parameter must lie in (0, {SQUEEZING_MAX:.6g}], "
                          f"where cosh r is finite; got {r}")
    ch, sh = math.cosh(r), math.sinh(r)
    return TwoModeBlocks(
        alpha=0.5 * ch * np.eye(2),
        beta=0.5 * ch * np.eye(2),
        gamma_block=0.5 * sh * np.diag([1.0, -1.0]),
    )


def lossy_channel(eta: float) -> GaussianChannel:
    """Pure-loss channel mixing the mode with vacuum at loss eta in [0, 1]:

        M = sqrt(1 - eta) I,   N = eta I / 2.
    """
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"loss parameter must lie in [0, 1], got {eta}")
    return GaussianChannel(m=math.sqrt(1.0 - eta) * np.eye(2), n=0.5 * eta * np.eye(2))


def apply_channel(state: TwoModeBlocks, ch: GaussianChannel) -> TwoModeBlocks:
    """Act with the channel on the system mode, leaving the ancilla alone:

        alpha' = M^T alpha M + N,   gamma' = M^T gamma,   beta' = beta.
    """
    if not cp_check(ch):
        raise DomainError("channel violates complete positivity")
    return TwoModeBlocks(
        alpha=ch.m.T @ state.alpha @ ch.m + ch.n,
        beta=state.beta,
        gamma_block=ch.m.T @ state.gamma_block,
    )


def dho_closed_form(g2, kappa, omega, omega_big, ts):
    """Amplitude of the exponential-kernel oscillator via characteristic roots."""
    ts = np.asarray(ts, dtype=float)
    b = kappa + 1j * (omega + omega_big)
    c = g2 + 1j * omega * (kappa + 1j * omega_big)
    disc = np.sqrt(b * b - 4.0 * c + 0j)
    l1 = (-b + disc) / 2.0
    l2 = (-b - disc) / 2.0
    if abs(l1 - l2) < 1e-12:
        raise ValueError("degenerate roots; closed form not applicable")
    bb = (-1j * omega - l1) / (l2 - l1)
    aa = 1.0 - bb
    c_t = aa * np.exp(l1 * ts) + bb * np.exp(l2 * ts)
    cd_t = aa * l1 * np.exp(l1 * ts) + bb * l2 * np.exp(l2 * ts)
    return c_t, cd_t


def dho_expm(g2, kappa, omega, omega_big, ts):
    """Amplitude and its derivative as exp(A t) (1, -i omega), one dense
    matrix exponential per time, for any roots (degenerate ones too)."""
    b = kappa + 1j * (omega + omega_big)
    c = g2 + 1j * omega * (kappa + 1j * omega_big)
    a = np.array([[0.0, 1.0], [-c, -b]])
    y = np.array([expm(a * t) @ np.array([1.0, -1j * omega]) for t in ts])
    return y[:, 0], y[:, 1]


def dho_channel_by_argmin(times, c, t, on_vanishing="raise"):
    """(M, N) of the damped-oscillator channel at grid time t, with the grid
    index taken as argmin |times - t| over the whole grid (the lookup
    `dho_channel` made before its binary search). Raises DomainError with
    the messages of `dho_channel` for a time off the grid and a vanished
    amplitude."""
    times = np.asarray(times, dtype=float)
    span = max(times[-1], 1.0)
    k = int(np.argmin(np.abs(times - t)))
    if not abs(times[k] - t) <= 1e-9 * span:
        raise DomainError(f"t={t} is not a grid time of the amplitude trajectory")
    c_t = complex(c[k])
    if abs(c_t) <= 1e-12:
        if on_vanishing == "full-loss":
            return np.zeros((2, 2)), 0.5 * np.eye(2)
        raise DomainError(f"amplitude vanished at t={times[k]:.6g}")
    return (np.array([[c_t.real, c_t.imag], [-c_t.imag, c_t.real]]),
            0.5 * (1.0 - abs(c_t) ** 2) * np.eye(2))


def channel_accepted_by_numpy(m, n) -> bool:
    """Whether 2x2 channel matrices pass the array rule: every entry finite,
    and max |N - N^T| within SYMMETRY_TOL max(1, largest |entry of N|)."""
    m, n = np.asarray(m, dtype=float), np.asarray(n, dtype=float)
    if not (np.isfinite(m).all() and np.isfinite(n).all()):
        return False
    with np.errstate(over="ignore"):
        skew = np.abs(n - n.T).max()
    return not (skew > SYMMETRY_TOL and skew > SYMMETRY_TOL * np.abs(n).max())


def random_unitary(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density_matrix(rng, dims, rank=None):
    n = int(np.prod(dims))
    r = rank or n
    g = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
    m = g @ g.conj().T
    return m / m.trace()


def random_pure_state(rng, n: int) -> np.ndarray:
    """|v><v| for a random unit vector v of length n."""
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_kraus_set(rng, d: int, k: int) -> list[np.ndarray]:
    """k Kraus operators of a random channel on dimension d (isometry slices)."""
    g = rng.normal(size=(k * d, d)) + 1j * rng.normal(size=(k * d, d))
    q, _ = np.linalg.qr(g)
    return [q[i * d:(i + 1) * d, :] for i in range(k)]


def apply_kraus_choi(kraus, rho_sa, d):
    """Apply a channel on the system half of a d x d bipartite state."""
    out = np.zeros_like(rho_sa)
    for kk in kraus:
        full = np.kron(kk, np.eye(d))
        out += full @ rho_sa @ full.conj().T
    return out
