"""Property tests of the sector engine against the kron-built dense generator."""

import numpy as np
from hypothesis import given, settings, strategies as st

from qmemwitness import (
    CONVENTIONS,
    LindbladModel,
    choi_entropy_arrays,
    dense_choi,
    entropy_arrays,
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
