"""Property tests: the sector engine against the kron-built dense generator,
the Gaussian witness on product states, and the fast paths of the
damped-oscillator channel against their whole-array references."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import block_diag

from qmemwitness import (
    CONVENTIONS,
    DhoAmplitude,
    DhoParams,
    DomainError,
    GaussianChannel,
    LindbladModel,
    TwoModeBlocks,
    choi_entropy_arrays,
    dense_choi,
    dho_channel,
    entropy_arrays,
    entropy_gaussian,
    evaluate_criterion_gaussian,
    evolve_choi,
)
from qmemwitness.gaussian import SYMMETRY_TOL
from oracles import channel_accepted_by_numpy, choi_via_dense_liouvillian, dho_channel_by_argmin

T_MAX = 10.0
POINTS = 11


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(2, 5), gamma=st.floats(0.0, 4.0), convention=st.sampled_from(CONVENTIONS),
       t=st.floats(0.0, 2 * T_MAX), k=st.integers(0, POINTS - 1))
def test_sector_state_matches_dense_generator(d, gamma, convention, t, k):
    # t ranges beyond the evolved span: state_at is exact at any t >= 0
    model = LindbladModel(d=d, gamma=gamma, convention=convention)
    ev = evolve_choi(model, T_MAX, POINTS)
    assert np.abs(ev.state_at(ev.times[k]) - ev.states[k]).max() <= 1e-13
    blocks = ev.state_at(t)
    state = dense_choi(blocks)
    assert np.abs(state - choi_via_dense_liouvillian(d, 1.0, gamma, convention, t)).max() <= 1e-12
    from_blocks = np.array(choi_entropy_arrays(blocks[None]))
    from_dense = np.array(entropy_arrays(state[None], (d, d)))
    assert np.abs(from_blocks - from_dense).max() <= 1e-12
    rho_a = np.trace(state.reshape(d, d, d, d), axis1=0, axis2=2)
    assert np.abs(rho_a - np.eye(d) / d).max() <= 1e-12
    assert np.linalg.eigvalsh(state).min() >= -1e-12


# a rotated, squeezed thermal mode: symplectic eigenvalue nu in [1/2, 3],
# often within 1e-6 of the vacuum, squeezing up to e^6 in the variances
_MODE = st.tuples(st.one_of(st.floats(0.5, 3.0), st.floats(0.5, 0.5 + 1e-6)),
                  st.floats(0.0, 3.0), st.floats(0.0, math.pi))


def _mode_covariance(nu, squeeze, angle):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return nu * rot @ np.diag([math.exp(2 * squeeze), math.exp(-2 * squeeze)]) @ rot.T


@settings(max_examples=200, deadline=None, derandomize=True)
@given(modes=st.lists(_MODE, min_size=4, max_size=4))
def test_product_gaussian_pairs_never_detect(modes):
    # -S(S|A) = -S_S <= 0 for a product state, so no product t2 can detect
    a1, b1, a2, b2 = (_mode_covariance(*m) for m in modes)
    zero = np.zeros((2, 2))
    rep = evaluate_criterion_gaussian(TwoModeBlocks(a1, b1, zero), TwoModeBlocks(a2, b2, zero))
    assert not rep.quantum_memory_detected
    assert abs(entropy_gaussian(block_diag(a2, b2))
               - entropy_gaussian(a2) - entropy_gaussian(b2)) <= 1e-12


_DHO = DhoParams(g2=1.0, kappa=0.25, omega=1.0, omega_big=1.0)
# steps within the 1e-9 grid tolerance (where two grid times can match a
# query), moderate and long ones, so grids span below and above 1; dyadic
# steps put midpoints exactly halfway, and a 1e-30 step from 0 makes
# distances to two grid times round to the same value
_STEP = st.one_of(st.floats(1e-10, 2e-9), st.floats(1e-4, 0.1), st.floats(0.1, 30.0),
                  st.sampled_from([1e-30, 2.0 ** -30, 2.0 ** -31]))
# amplitudes: vanished ones, and |c| > 1, where N has negative zeros off the diagonal
_AMPLITUDE = st.one_of(st.just(0j), st.just(1e-13 + 0j),
                       st.complex_numbers(max_magnitude=1.5, allow_nan=False,
                                          allow_infinity=False))


def _outcome(call):
    """Bytes of (M, N), or the DomainError message."""
    try:
        m, n = call()
    except DomainError as exc:
        return "DomainError: " + str(exc)
    return m.tobytes() + n.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(start=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
       steps=st.lists(_STEP, max_size=30), data=st.data())
def test_channel_lookup_matches_argmin(start, steps, data):
    # one grid point, uneven spacing, spans below and above 1; queries at
    # each grid time, +-0.5e-9 of the span beside it, midpoints, beyond both
    # ends, NaN and +-inf: bit-identical M and N, or the same DomainError
    times = np.cumsum([start, *steps])
    assume(np.all(np.diff(times) > 0))
    cs = data.draw(st.lists(_AMPLITUDE, min_size=times.size, max_size=times.size))
    amp = DhoAmplitude(times, cs, np.zeros(times.size), _DHO)
    eps = 0.5e-9 * max(times[-1], 1.0)
    queries = [*times, *(times + eps), *(times - eps), *((times[1:] + times[:-1]) / 2),
               times[0] - 1.0, times[-1] + 1.0, times[-1] + 3 * eps, math.nan, math.inf,
               -math.inf]
    for t in map(float, queries):
        for mode in ("raise", "full-loss"):
            def fast():
                ch = dho_channel(amp, _DHO, t, on_vanishing=mode)
                return ch.m, ch.n
            assert _outcome(fast) == _outcome(lambda: dho_channel_by_argmin(times, cs, t, mode))


def _accepted(m, n) -> bool:
    try:
        GaussianChannel(m=m, n=n)
    except DomainError:
        return False
    return True


_ENTRY = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([0.0, -0.0, 1e-3, 1.0, 1e300, math.nan, math.inf]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=st.lists(_ENTRY, min_size=4, max_size=4), n=st.lists(_ENTRY, min_size=3, max_size=3),
       skew=st.floats(0.0, 3.0), sign=st.sampled_from([1.0, -1.0]))
def test_channel_checks_match_numpy_rule(m, n, skew, sign):
    # N's lower entry is its upper one moved by skew tolerances, so N is
    # often near the symmetry limit
    upper = n[1]
    scale = max(1.0, *map(abs, n)) if all(map(math.isfinite, n)) else 1.0
    lower = upper + sign * skew * SYMMETRY_TOL * scale
    m_arr = np.array(m).reshape(2, 2)
    n_arr = np.array([[n[0], upper], [lower, n[2]]])
    assert _accepted(m_arr, n_arr) == channel_accepted_by_numpy(m_arr, n_arr)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", range(8))
def test_channel_rejects_non_finite_entry(entry, bad):
    mats = np.array([np.eye(2), 0.5 * np.eye(2)])
    mats.flat[entry] = bad
    assert not channel_accepted_by_numpy(*mats)
    with pytest.raises(DomainError, match="finite"):
        GaussianChannel(m=mats[0], n=mats[1])


@pytest.mark.parametrize("lower", [False, True])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e300])
@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
def test_channel_symmetry_limit(factor, scale, lower):
    # a skew of half, exactly and twice SYMMETRY_TOL max(1, largest |entry|)
    n = scale * np.array([[1.0, 0.0], [0.0, 0.5]])
    n[int(lower), 1 - int(lower)] = factor * SYMMETRY_TOL * max(1.0, scale)
    assert channel_accepted_by_numpy(np.eye(2), n) == (factor <= 1)
    assert _accepted(np.eye(2), n) == (factor <= 1)
