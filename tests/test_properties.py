"""Property tests: the sector engine against the kron-built dense generator,
and the Gaussian witness on product states."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag

from qmemwitness import (
    CONVENTIONS,
    LindbladModel,
    TwoModeBlocks,
    choi_entropy_arrays,
    dense_choi,
    entropy_arrays,
    entropy_gaussian,
    evaluate_criterion_gaussian,
    evolve_choi,
)
from oracles import choi_via_dense_liouvillian

T_MAX = 10.0
POINTS = 11


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(2, 5), gamma=st.floats(0.0, 4.0), convention=st.sampled_from(CONVENTIONS),
       t=st.floats(0.0, 2 * T_MAX), k=st.integers(0, POINTS - 1))
def test_sector_state_matches_dense_generator(d, gamma, convention, t, k):
    # t ranges beyond the evolved span: state_at is exact at any t >= 0
    model = LindbladModel(d=d, omega=1.0, gamma=gamma, convention=convention)
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
