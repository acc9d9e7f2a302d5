import math

import numpy as np
import pytest

from qmemwitness import (
    DensityMatrix,
    DomainError,
    InvalidStateError,
    LindbladModel,
    choi_entropy_arrays,
    dense_choi,
    entropy_arrays,
    evolve_choi,
    von_neumann_entropy,
)
from qmemwitness.states import _check_entropies, _hermitian_spectra
from oracles import (
    max_entangled,
    random_density_matrix,
    random_pure_state,
    random_unitary,
    reduced_state,
)


def entropies(rho: DensityMatrix) -> tuple[float, float, float]:
    """(s_system, s_ancilla, s_joint) of one bipartite state, via a stack of one."""
    s_sys, s_anc, s_joint = entropy_arrays(rho.data[None], rho.dims)
    return float(s_sys[0]), float(s_anc[0]), float(s_joint[0])


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidStateError):
            DensityMatrix(m, (2,))

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.eye(2), (2,))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(InvalidStateError):
            DensityMatrix(m, (2,))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.eye(4) / 4, (2, 3))

    @pytest.mark.parametrize("dims", [(2.5, 2), (2, 1.5), (math.inf, 1), (math.nan, 1), (4, 1, 0)])
    def test_rejects_non_integer_dims(self, dims):
        # int() truncated 2.5 to 2 and raised OverflowError at inf
        with pytest.raises(DomainError, match="must be integers"):
            DensityMatrix(np.eye(4) / 4, dims)

    def test_accepts_eigenvalue_noise(self):
        m = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        dm = DensityMatrix(m, (2,))
        assert dm.data.shape == (2, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_matrix(self, bad):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.full((2, 2), bad), (2,))
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(InvalidStateError):
            DensityMatrix(m, (2,))


class TestMaxEntangledState:
    """The probe |Phi+><Phi+|, which the library holds as the t = 0 Choi state."""

    @staticmethod
    def probe(d: int) -> np.ndarray:
        return evolve_choi(LindbladModel(d), 1.0, 2).states[0]

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_pure_and_joint_entropy_zero(self, d):
        rho = dense_choi(self.probe(d))
        purity = np.trace(rho @ rho).real
        assert abs(purity - 1.0) < 1e-12
        assert von_neumann_entropy(rho) < 1e-10

    def test_bell_reduced_states_are_maximally_mixed(self):
        rho = dense_choi(self.probe(2))
        for keep in ({0}, {1}):
            red = reduced_state(rho, (2, 2), keep)
            assert np.abs(red - np.eye(2) / 2).max() < 1e-12

    def test_d4_system_entropy_is_ln4(self):
        s_sys, _, _ = choi_entropy_arrays(self.probe(4)[None])
        assert abs(s_sys[0] - math.log(4)) < 1e-12

    def test_rejects_small_d(self):
        with pytest.raises(DomainError):
            LindbladModel(d=1)


class TestPartialTrace:
    """The partial-trace oracle that the marginal checks compare against."""

    def test_traces_ancilla_to_maximally_mixed(self):
        for d in (2, 3, 4):
            red = reduced_state(max_entangled(d), (d, d), {0})
            assert np.abs(red - np.eye(d) / d).max() < 1e-12

    def test_product_state_recovers_factor(self, rng):
        a = random_density_matrix(rng, [2])
        b = random_density_matrix(rng, [3])
        c = random_density_matrix(rng, [2])
        rho = np.kron(np.kron(a, b), c)
        assert np.abs(reduced_state(rho, (2, 3, 2), {1}) - b).max() < 1e-12
        # tensor-then-trace returns each factor (keep order independent)
        assert np.abs(reduced_state(rho, (2, 3, 2), [2, 0]) - np.kron(a, c)).max() < 1e-12

    def test_trace_preserved_and_psd(self, rng):
        rho = random_density_matrix(rng, [2, 2, 3])
        red = reduced_state(rho, (2, 2, 3), {0, 2})
        assert abs(np.trace(red) - 1.0) < 1e-12
        assert red.shape == (6, 6)
        assert np.linalg.eigvalsh(red).min() > -1e-12

    def test_keep_all_is_identity(self, rng):
        rho = random_density_matrix(rng, [2, 3])
        assert np.abs(reduced_state(rho, (2, 3), {0, 1}) - rho).max() == 0.0


class TestVonNeumannEntropy:
    def test_pure_state_zero(self, rng):
        for dims in ([2], [3], [2, 2]):
            n = int(np.prod(dims))
            rho = DensityMatrix(random_pure_state(rng, n), dims)
            assert von_neumann_entropy(rho) < 1e-10

    @pytest.mark.parametrize("d", range(2, 9))
    def test_maximally_mixed(self, d):
        rho = DensityMatrix(np.eye(d) / d, (d,))
        assert abs(von_neumann_entropy(rho) - math.log(d)) < 1e-12

    def test_frozen_two_level_value(self):
        # -0.25 ln 0.25 - 0.75 ln 0.75, evaluated independently
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert abs(expected - 0.5623351446188083) < 1e-15
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex), (2,))
        assert abs(von_neumann_entropy(rho) - expected) < 1e-14

    def test_rejects_non_hermitian_matrix(self):
        with pytest.raises(InvalidStateError):
            von_neumann_entropy(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))

    def test_rejects_nan_matrix(self):
        with pytest.raises(InvalidStateError):
            von_neumann_entropy(np.full((2, 2), np.nan, dtype=complex))

    def test_rejects_deep_negative_eigenvalue(self):
        with pytest.raises(InvalidStateError):
            von_neumann_entropy(np.diag([1.0 + 5e-8, -5e-8]).astype(complex))

    def test_clamps_shallow_negative_eigenvalue(self):
        val = von_neumann_entropy(np.diag([1.0 + 5e-10, -5e-10]).astype(complex))
        assert abs(val) < 1e-9

    def test_unitary_invariance(self, rng):
        for _ in range(20):
            rho = random_density_matrix(rng, [4], rank=3)
            u = random_unitary(rng, 4)
            s1 = von_neumann_entropy(rho)
            s2 = von_neumann_entropy(u @ rho @ u.conj().T)
            assert abs(s1 - s2) < 1e-9


class TestEntropyTriple:
    """Entropies of single bipartite states and the checks on them."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_max_entangled(self, d):
        s_sys, s_anc, s_joint = entropies(DensityMatrix(max_entangled(d), (d, d)))
        assert abs(s_sys - math.log(d)) < 1e-10
        assert abs(s_anc - math.log(d)) < 1e-10
        assert s_joint < 1e-10
        assert abs((s_anc - s_joint) - math.log(d)) < 1e-10

    def test_product_of_maximally_mixed_qubits(self):
        s_sys, s_anc, s_joint = entropies(DensityMatrix(np.eye(4) / 4, (2, 2)))
        assert abs(s_sys - math.log(2)) < 1e-12
        assert abs(s_anc - math.log(2)) < 1e-12
        assert abs(s_joint - 2 * math.log(2)) < 1e-12

    def test_rejects_non_bipartite(self, rng):
        rho = DensityMatrix(random_density_matrix(rng, [2, 2, 2]), (2, 2, 2))
        with pytest.raises(DomainError):
            entropies(rho)

    def test_schmidt_symmetry_on_pure_states(self, rng):
        for _ in range(20):
            rho = DensityMatrix(random_pure_state(rng, 12), (3, 4))
            s_sys, s_anc, s_joint = entropies(rho)
            assert abs(s_sys - s_anc) < 1e-9
            assert s_joint < 1e-10

    def test_subadditivity_on_random_states(self, rng):
        for _ in range(20):
            rho = DensityMatrix(random_density_matrix(rng, [2, 3]), (2, 3))
            s_sys, s_anc, s_joint = entropies(rho)   # entropy_arrays validates both bounds
            assert s_joint <= s_sys + s_anc + 1e-8

    def test_invariant_violation_rejected(self):
        with pytest.raises(InvalidStateError):
            _check_entropies(np.array([1.0]), np.array([0.0]), np.array([0.1]))

    def test_nan_rejected(self):
        with pytest.raises(InvalidStateError):
            _check_entropies(np.array([math.nan]), np.array([0.5]), np.array([0.5]))


class TestEntropyArrays:
    def test_matches_per_state_entropies(self, rng):
        stack = np.array([random_density_matrix(rng, [2, 3], rank=r) for r in (1, 2, 3, 6)])
        s_sys, s_anc, s_joint = entropy_arrays(stack, (2, 3))
        for k, rho in enumerate(stack):
            dm = DensityMatrix(rho, (2, 3))
            assert abs(s_sys[k] - von_neumann_entropy(reduced_state(rho, (2, 3), {0}))) < 1e-12
            assert abs(s_anc[k] - von_neumann_entropy(reduced_state(rho, (2, 3), {1}))) < 1e-12
            assert abs(s_joint[k] - von_neumann_entropy(dm)) < 1e-12

    def test_accepts_eigenvalue_noise(self):
        stack = np.array([np.diag([0.5 + 5e-10, 0.5, 0.0, -5e-10]).astype(complex)])
        _, _, s_joint = entropy_arrays(stack, (2, 2))
        assert abs(s_joint[0] - math.log(2)) < 1e-8

    @pytest.mark.parametrize("bad", [
        np.array([[0.5, 0.3], [0.0, 0.5]]),   # not Hermitian
        np.eye(2),                            # trace 2
        np.diag([1.2, -0.2]),                 # negative eigenvalue
        np.full((2, 2), np.nan),              # not finite
    ])
    def test_rejects_any_invalid_point(self, bad):
        # one bad state anywhere in the stack rejects the stack, as
        # DensityMatrix would reject it on its own
        good = np.eye(4, dtype=complex) / 4
        stack = np.array([good, np.kron(bad, np.eye(2) / 2), good], dtype=complex)
        with pytest.raises(InvalidStateError):
            entropy_arrays(stack, (2, 2))

    def test_blocks_match_one_stacked_eigensolve(self, rng):
        stack = np.array([random_density_matrix(rng, [2, 3], rank=r % 6 + 1)
                          for r in range(150)])
        adj = stack.conj().swapaxes(-1, -2)
        assert np.array_equal(_hermitian_spectra(stack),
                              np.linalg.eigvalsh((stack + adj) / 2))
        # a bad state deep in the stack still rejects the stack
        stack[130] = np.diag([1.2, -0.2, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(InvalidStateError):
            entropy_arrays(stack, (2, 3))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            entropy_arrays(np.array([np.eye(4) / 4]), (2, 3))
        with pytest.raises(DomainError):
            entropy_arrays(np.eye(4) / 4, (2, 2))
        with pytest.raises(DomainError):
            entropy_arrays(np.array([np.eye(8) / 8]), (2, 2, 2))

    @pytest.mark.parametrize("dims", [(2.5, 2), (2, 1.5), (math.inf, 1), (math.nan, 1)])
    def test_rejects_non_integer_dims(self, dims):
        with pytest.raises(DomainError, match="must be integers"):
            entropy_arrays(np.array([np.eye(4) / 4]), dims)


def max_entangled_blocks(d: int) -> np.ndarray:
    """|Phi+><Phi+| as Choi blocks: block m = 0 is the all-ones matrix / d."""
    blocks = np.zeros((1, d, d, d))
    blocks[0, 0] = np.tril(np.ones((d, d))) / d
    return blocks


def damped_blocks(d: int) -> np.ndarray:
    """Choi blocks of full damping, Lambda(X) = Tr(X) |0><0|: |0><0| (x) I/d,
    1/d at row 0 of every block m = 0..d-1."""
    blocks = np.zeros((1, d, d, d))
    blocks[0, :, 0, 0] = 1.0 / d
    return blocks


def decay_blocks(d: int) -> np.ndarray:
    """Choi blocks of the channel |i><j| -> delta_ij (|0><0| + .. + |i><i|) / (i + 1):
    1/(d (a + m + 1)) on every diagonal entry <a, a+m| rho |a, a+m> of the true blocks."""
    blocks = np.zeros((1, d, d, d))
    for m in range(d):
        for a in range(d - m):
            blocks[0, m, a, a] = 1.0 / (d * (a + m + 1))
    return blocks


class TestChoiEntropyArrays:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_extreme_states(self, d):
        ent = np.array(choi_entropy_arrays(max_entangled_blocks(d)))[:, 0]
        assert np.abs(ent - [math.log(d), math.log(d), 0.0]).max() < 1e-14
        ent = np.array(choi_entropy_arrays(damped_blocks(d)))[:, 0]
        assert np.abs(ent - [0.0, math.log(d), math.log(d)]).max() < 1e-14

    def test_matches_dense_entropies(self):
        for conv in ("spin", "truncated-oscillator"):
            ev = evolve_choi(LindbladModel(d=3, gamma=0.3, convention=conv), 6.0, 61)
            blocks = choi_entropy_arrays(ev.states)
            dense = entropy_arrays(dense_choi(ev.states), (3, 3))
            assert np.abs(np.array(blocks) - np.array(dense)).max() < 1e-12
        for d in (2, 3, 5):
            blocks = decay_blocks(d)
            expected = entropy_arrays(dense_choi(blocks), (d, d))
            assert np.abs(np.array(choi_entropy_arrays(blocks)) - np.array(expected)).max() < 1e-14

    def test_upper_triangle_is_not_read(self, rng):
        blocks = max_entangled_blocks(3)
        noisy = blocks + np.triu(rng.normal(size=(3, 3, 3)), 1)
        assert np.array_equal(np.array(choi_entropy_arrays(noisy)),
                              np.array(choi_entropy_arrays(blocks)))

    def test_padding_is_not_read(self, rng):
        # entries outside block m's levels 0 .. d - m - 1, the diagonal
        # included, change neither the entropies nor the checks
        d = 3
        outside = np.maximum.outer(np.arange(d), np.arange(d)) >= d - np.arange(d)[:, None, None]
        blocks = decay_blocks(d)
        noisy = blocks + outside * rng.normal(size=(3, 3, 3))
        assert np.abs(noisy - blocks)[0].diagonal(axis1=-2, axis2=-1).max() > 0.1
        assert np.array_equal(np.array(choi_entropy_arrays(noisy)),
                              np.array(choi_entropy_arrays(blocks)))

    @pytest.mark.parametrize("corrupt", [
        # <0,0|rho|0,0> up, <0,1|rho|0,1> down: same trace and rho_S, rho_A != I/d
        lambda b: (b.__setitem__((0, 0, 0), b[0, 0, 0] + 1e-6),
                   b.__setitem__((1, 0, 0), b[1, 0, 0] - 1e-6)),
        lambda b: b.__setitem__((0, 1, 0), 1.0),           # negative eigenvalue
        lambda b: b.__imul__(1.0 + 2e-9),                  # trace
        lambda b: b.__setitem__((0, 2, 2), np.nan),        # not finite
        # the 1x1 corner block <0,2|rho|0,2> at -1e-6, its weight moved to
        # <1,2|rho|1,2>: same trace and rho_A, rho_S stays positive
        lambda b: (b.__setitem__((1, 1, 1), b[1, 1, 1] + b[2, 0, 0] + 1e-6),
                   b.__setitem__((2, 0, 0), -1e-6)),
    ], ids=["ancilla", "negative", "trace", "nan", "negative-low-corner"])
    def test_rejects_invalid_state(self, corrupt):
        # one bad state anywhere in the stack rejects the stack
        blocks = np.concatenate([decay_blocks(3)] * 3)
        corrupt(blocks[1])
        with pytest.raises(InvalidStateError):
            choi_entropy_arrays(blocks)

    @pytest.mark.parametrize("imag", [0.0, 1e-300, 2e-10])
    def test_rejects_complex_stack(self, imag):
        # an imaginary part is never dropped, however small, nor a zero one
        blocks = decay_blocks(3).astype(complex)
        blocks[0, 1, 1, 1] += 1j * imag
        with pytest.raises(DomainError, match="is not real"):
            choi_entropy_arrays(blocks)

    def test_accepts_rounding_noise(self):
        # a trace 0.5e-9 off 1 lies inside the 1e-9 tolerance
        noisy = np.array(choi_entropy_arrays(decay_blocks(3) * (1.0 + 0.5e-9)))
        assert np.abs(noisy - np.array(choi_entropy_arrays(decay_blocks(3)))).max() < 1e-8

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            choi_entropy_arrays(decay_blocks(3)[0])
        with pytest.raises(DomainError):
            choi_entropy_arrays(np.zeros((1, 5, 3, 3)))
        with pytest.raises(DomainError):
            choi_entropy_arrays(np.zeros((1, 1, 1, 1)))


def exchange_entries(model: LindbladModel) -> np.ndarray:
    """(omega <s+1|J_+|s>, its mirror entry) for s = 0..d-2, as the model's
    generator carries them: the entries between |s,1><0,0| and |s+1,0><0,0|
    in sector s + 1 (basis index 2 n_S + n_M), the first into |s,1><0,0|."""
    out = []
    for s in range(model.d - 1):
        pairs, generator = model.sector(s + 1)
        row = {tuple(p): i for i, p in enumerate(pairs.tolist())}
        up, down = row[(2 * s + 1, 0)], row[(2 * s + 2, 0)]
        out.append((generator[up, down], generator[down, up]))
    return np.array(out)


class TestLadderOperators:
    """The ladder conventions, read from the model that owns them."""

    @pytest.mark.parametrize("convention", ["spin", "truncated-oscillator"])
    def test_d2_is_sigma_pm(self, convention):
        model = LindbladModel(2, convention=convention)
        assert np.array_equal(exchange_entries(model)[:, 0], [1.0])

    def test_d3_truncated(self):
        model = LindbladModel(3, convention="truncated-oscillator")
        assert np.abs(exchange_entries(model)[:, 0] - [1.0, math.sqrt(2)]).max() < 1e-15

    def test_d3_spin(self):
        # j = 1: raising from m = -1 and from m = 0 both carry sqrt(2)
        model = LindbladModel(3, convention="spin")
        assert np.abs(exchange_entries(model)[:, 0] - math.sqrt(2)).max() < 1e-15

    def test_adjoint_pairing(self):
        # J_- = J_+^dag makes -i H real antisymmetric in the memory gauge
        for d in (2, 4, 6):
            for conv in ("spin", "truncated-oscillator"):
                entries = exchange_entries(LindbladModel(d, convention=conv))
                assert np.array_equal(entries[:, 1], -entries[:, 0])
                assert (entries[:, 0] > 0).all()

    def test_errors(self):
        with pytest.raises(DomainError):
            LindbladModel(1)
        with pytest.raises(DomainError):
            LindbladModel(3, convention="bosonic")
