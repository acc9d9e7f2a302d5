import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from qmemwitness import (
    DensityMatrix,
    DomainError,
    LindbladModel,
    dense_choi,
    entropy_arrays,
    evolve_choi,
    qudit_entropy_trajectory,
    von_neumann_entropy,
)
from oracles import (
    binary_entropy,
    choi_blocks_via_sector_expm,
    choi_via_dense_liouvillian,
    coherence_orders,
    liouvillian_dense,
    max_entangled,
    partial_trace_out_memory_loops,
    qubit_damping_amplitude,
    qudit_dop853_states,
    qudit_generator_dense,
    random_density_matrix,
    reduced_state,
    sector_phase,
)


def extended_initial(d: int) -> DensityMatrix:
    """|Phi+>_SA (x) |0><0|_M arranged as S (x) M (x) A."""
    phi = max_entangled(d).reshape(d, d, d, d)
    mem = np.zeros((2, 2), dtype=complex)
    mem[0, 0] = 1.0
    rho = np.einsum("mn,sapq->smapnq", mem, phi)
    return DensityMatrix(rho.reshape(2 * d * d, 2 * d * d), (d, 2, d))


def assembled_liouvillian(model: LindbladModel) -> np.ndarray:
    """The package's generator on S (x) M, assembled from its sectors q = -d..d."""
    n = 2 * model.d
    full = np.zeros((n * n, n * n), dtype=complex)
    for q in range(-model.d, model.d + 1):
        pairs, generator = model.sector(q)
        flat = pairs[:, 0] * n + pairs[:, 1]
        full[np.ix_(flat, flat)] = generator
    return full


def apply_generator(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """The package's Liouvillian on S (x) M, applied to an S-M-A state (1 on A),
    both in the memory gauge rho -> V rho V^dag."""
    d = model.d
    n = 2 * d
    blocks = np.asarray(rho).reshape(n, d, n, d).transpose(1, 3, 0, 2).reshape(d, d, n * n)
    out = blocks @ assembled_liouvillian(model).T
    return out.reshape(d, d, n, n).transpose(2, 0, 3, 1).reshape(n * d, n * d)


class TestModelValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            LindbladModel(d=1)
        with pytest.raises(DomainError):
            LindbladModel(d=2, gamma=-0.1)
        with pytest.raises(DomainError):
            LindbladModel(d=2, convention="nope")

    @pytest.mark.parametrize("d, gamma", [
        (2, math.nan), (2, math.inf), (math.nan, 0.1), (math.inf, 0.1), (2.5, 0.1),
    ])
    def test_rejects_non_finite_parameters(self, d, gamma):
        # int() of an infinite or NaN d raises OverflowError or ValueError
        with pytest.raises(DomainError, match="^(d must be an integer >= 2|gamma must be)"):
            LindbladModel(d=d, gamma=gamma)

    def test_rates_are_keyword_only(self):
        # times are in units of 1/omega, so gamma is the only rate; a
        # positional one must not be read as another
        assert [f.name for f in dataclasses.fields(LindbladModel)] == ["d", "gamma", "convention"]
        with pytest.raises(TypeError):
            LindbladModel(4, 0.05)


def gauged(rho: np.ndarray, d: int) -> np.ndarray:
    """V rho V^dag for an S-M-A matrix, V = 1_S (x) i^(n_M) (x) 1_A, the
    gauge the package's sectors are taken in."""
    v = np.kron(np.kron(np.eye(d), np.diag([1.0, 1j])), np.eye(d))
    return v @ rho @ v.conj().T


class TestGenerator:
    def test_matches_dense_oracle(self, rng):
        for d, conv in ((2, "spin"), (3, "truncated-oscillator"), (4, "spin")):
            model = LindbladModel(d=d, gamma=0.05, convention=conv)
            rho = random_density_matrix(rng, [d, 2, d])
            expected = gauged(qudit_generator_dense(d, 1.0, 0.05, conv, rho), d)
            assert np.abs(apply_generator(model, gauged(rho, d)) - expected).max() < 1e-12

    def test_matches_oracle_on_extended_initial_state(self):
        # V leaves the initial state (memory in |0>) unchanged
        model = LindbladModel(d=2, gamma=0.05)
        rho0 = extended_initial(2)
        assert np.array_equal(gauged(rho0.data, 2), rho0.data)
        expected = gauged(qudit_generator_dense(2, 1.0, 0.05, "spin", rho0.data), 2)
        assert np.abs(apply_generator(model, rho0.data) - expected).max() < 1e-12

    def test_traceless_and_hermiticity_preserving(self, rng):
        model = LindbladModel(d=3, gamma=0.0)
        rho = random_density_matrix(rng, [3, 2, 3])
        deriv = apply_generator(model, rho)
        assert abs(np.trace(deriv)) < 1e-12
        assert np.abs(deriv - deriv.conj().T).max() < 1e-12

    def test_ground_state_is_stationary(self, rng):
        d = 3
        model = LindbladModel(d=d, gamma=0.4)
        ground_sm = np.zeros((2 * d, 2 * d), dtype=complex)
        ground_sm[0, 0] = 1.0
        rho = np.kron(ground_sm, random_density_matrix(rng, [d]))
        assert np.abs(apply_generator(model, rho)).max() < 1e-12
        step = expm(assembled_liouvillian(model) * 2.5) @ ground_sm.ravel()
        assert np.abs(step - ground_sm.ravel()).max() < 1e-12


SECTOR_CASES = [(d, conv) for d in range(2, 7) for conv in ("spin", "truncated-oscillator")]


class TestSectors:
    @pytest.mark.parametrize("d, conv", SECTOR_CASES)
    def test_sector_is_dense_generator_restricted(self, d, conv):
        # in the gauge p L p^*, p = i^(m_ket) (-i)^(m_bra), the generator is real
        model = LindbladModel(d=d, gamma=0.3, convention=conv)
        dense = liouvillian_dense(d, 1.0, 0.3, conv)
        orders, n = coherence_orders(d), 2 * d
        for q in range(-d, d + 1):
            pairs, generator = model.sector(q)
            flat = pairs[:, 0] * n + pairs[:, 1]
            assert np.array_equal(flat, np.flatnonzero(orders == q))
            phase = sector_phase(pairs)
            expected = phase[:, None] * dense[np.ix_(flat, flat)] * phase.conj()
            assert generator.dtype == np.float64 and not expected.imag.any()
            assert np.abs(generator - expected).max() <= 1e-14
        assert len(model.sector(0)[0]) == 4 * d - 2

    @pytest.mark.parametrize("d, conv", SECTOR_CASES)
    def test_dense_generator_has_no_entries_between_sectors(self, d, conv):
        dense = liouvillian_dense(d, 0.8, 0.3, conv)
        orders = coherence_orders(d)
        assert not dense[orders[:, None] != orders[None, :]].any()

    @pytest.mark.parametrize("d, conv", SECTOR_CASES)
    def test_negative_sectors_are_adjoints(self, d, conv):
        # step the units |j><j+q| (x) |0><0|_M of sector -q explicitly with
        # the ungauged generator (units and traced entries have phase 1) and
        # compare with the upper triangle, which the blocks fill by adjoint
        model = LindbladModel(d=d, gamma=0.15, convention=conv)
        ev = evolve_choi(model, 4.0, 41)
        states = dense_choi(ev.states) * d
        for q in range(1, d):
            pairs, generator = model.sector(-q)
            pos = {(u, v): p for p, (u, v) in enumerate(pairs)}
            x = np.zeros((len(pairs), d - q), dtype=complex)
            for j in range(d - q):
                x[pos[2 * j, 2 * (j + q)], j] = 1.0
            phase = sector_phase(pairs)
            step = expm(phase.conj()[:, None] * generator * phase * 0.1)
            for k in range(41):
                # <c| Lambda(|j><j+q|) |c+q>, summed over the memory levels
                for j in range(d - q):
                    for c in range(d - q):
                        entry = sum(x[pos[2 * c + m, 2 * (c + q) + m], j] for m in (0, 1))
                        assert abs(entry - states[k, c * d + j, (c + q) * d + j + q]) <= 1e-14
                x = step @ x


class TestExcitationNeverRises:
    """The kron-built oracle's Choi states hold nothing in the blocks
    n_S - n_A > 0 the package does not store, and no imaginary part."""

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("conv", ["spin", "truncated-oscillator"])
    def test_dense_oracle_blocks_are_real_and_never_raise(self, d, conv):
        levels = np.arange(d)
        # <a, i| rho |b, j> with a > i or b > j: S above A on either side
        raised = ((levels[:, None] > levels)[:, :, None, None]
                  | (levels[:, None] > levels)[None, None]).reshape(d * d, d * d)
        for gamma in (0.0, 0.05, 1.0):
            model = LindbladModel(d=d, gamma=gamma, convention=conv)
            ev = evolve_choi(model, 12.0, 5)
            for t in (0.7, 5.0, 12.0):
                exact = choi_via_dense_liouvillian(d, 1.0, gamma, conv, t)
                assert not exact.imag.any()
                assert not exact[raised].any()
                assert np.abs(dense_choi(ev.state_at(t)) - exact).max() <= 1e-12


class TestExponential:
    """The in-package Pade exponential of every real sector generator against
    scipy's of the complex, ungauged one, conjugated back. scipy's own real
    path is no reference: at t = 12 it sits 2e-14 to 3.4e-13 from 40-digit
    mpmath (d = 5, 8, gamma = 0), its complex path within 6.6e-15."""

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    @pytest.mark.parametrize("conv", ["spin", "truncated-oscillator"])
    def test_matches_scipy_expm(self, d, conv):
        from qmemwitness.lindblad import _expm

        for gamma in (0.0, 0.01, 0.3, 1.0):
            model = LindbladModel(d=d, gamma=gamma, convention=conv)
            for q in range(d):
                pairs, generator = model.sector(q)
                phase = sector_phase(pairs)
                ungauged = phase.conj()[:, None] * generator * phase
                for t in (12.0 / 2000, 0.37, 3.0, 12.0, 40.0, 120.0):
                    reference = phase[:, None] * expm(ungauged * t) * phase.conj()
                    err = np.abs(_expm(generator * t) - reference).max()
                    assert err <= (1e-13 if t <= 12.0 else 1e-12), (gamma, q, t, err)

    def test_zero_gives_identity_exactly(self):
        from qmemwitness.lindblad import _expm

        for n in (1, 4, 6):
            for dtype in (float, complex):
                assert np.array_equal(_expm(np.zeros((n, n), dtype=dtype)), np.eye(n))


class TestEvolve:
    def test_t0_returns_initial_state_exactly(self):
        model = LindbladModel(d=2, gamma=0.1)
        ev = evolve_choi(model, 1.0, 2)
        phi = np.zeros((4, 4))
        phi[np.ix_([0, 3], [0, 3])] = 1 / 2
        assert np.array_equal(dense_choi(ev.states[0]), phi)
        assert np.array_equal(dense_choi(ev.state_at(0.0)), phi)

    def test_rabi_swap_closed_form(self):
        # gamma = 0, d = 2: the single-excitation sector oscillates at
        # frequency omega; S population follows cos^2(omega t) / 2
        model = LindbladModel(d=2, gamma=0.0)
        ev = evolve_choi(model, math.pi, 41)
        mem = np.zeros((2, 2), dtype=complex)
        mem[0, 0] = 1.0
        rho0_sm = np.kron(np.eye(2) / 2, mem)
        generator = assembled_liouvillian(model)
        for t, state in zip(ev.times, dense_choi(ev.states)):
            rho_s = reduced_state(state, (2, 2), {0})
            assert abs(rho_s[1, 1].real - math.cos(t) ** 2 / 2) < 1e-8
            rho_sm = (expm(generator * t) @ rho0_sm.ravel()).reshape(4, 4)
            rho_m = reduced_state(rho_sm, (2, 2), {1})
            assert abs(rho_m[1, 1].real - math.sin(t) ** 2 / 2) < 1e-8

    def test_trace_and_positivity_along_flow(self, rng):
        model = LindbladModel(d=3, gamma=0.3)
        ts = np.linspace(0.0, 6.0, 61)
        for state in dense_choi(evolve_choi(model, 6.0, 61).states):
            assert abs(np.trace(state) - 1.0) < 1e-8
            assert np.linalg.eigvalsh(state).min() > -1e-8
        rho_sm = random_density_matrix(rng, [3, 2])
        generator = assembled_liouvillian(model)
        for t in ts:
            out = (expm(generator * t) @ rho_sm.ravel()).reshape(6, 6)
            assert abs(np.trace(out) - 1.0) < 1e-8
            assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() > -1e-8

    def test_grid_validation(self):
        model = LindbladModel(d=2)
        for t_max, n_points in ((0.0, 3), (-1.0, 3), (math.nan, 3), (math.inf, 3),
                                (2.0, 1), (2.0, 2.5), (2.0, math.nan), (2.0, math.inf),
                                (sys.float_info.max, 2)):   # ||L|| dt overflows
            with pytest.raises(DomainError):
                evolve_choi(model, t_max, n_points)

    @pytest.mark.parametrize("d, conv", SECTOR_CASES)
    def test_matches_dop853_oracle(self, d, conv):
        # grid states and exact off-grid probes against an adaptive
        # Runge-Kutta integration of the kron-built generator
        model = LindbladModel(d=d, gamma=0.15, convention=conv)
        ev = evolve_choi(model, 3.0, 31)
        grid = ev.times
        probes = [0.37, 1.555, 2.93]
        ts = np.sort(np.concatenate([grid, probes]))
        ref = qudit_dop853_states(d, 1.0, 0.15, conv, extended_initial(d).data, ts)
        ref_sa = {float(t): partial_trace_out_memory_loops(r, d) for t, r in zip(ts, ref)}
        for t, state in zip(grid, dense_choi(ev.states)):
            assert np.abs(state - ref_sa[float(t)]).max() < 1e-9
        for t in probes:
            assert np.abs(dense_choi(ev.state_at(t)) - ref_sa[t]).max() < 1e-9


class TestReducedChoiTrajectory:
    def test_t0_is_max_entangled(self):
        model = LindbladModel(d=3, gamma=0.2)
        ev = evolve_choi(model, 1.0, 2)
        assert ev.times[0] == 0.0
        assert np.abs(dense_choi(ev.states[0]) - max_entangled(3)).max() < 1e-12

    def test_trace_and_untouched_ancilla(self):
        d = 3
        model = LindbladModel(d=d, gamma=0.15)
        ev = evolve_choi(model, 5.0, 26)
        for state in dense_choi(ev.states):
            assert abs(np.trace(state) - 1.0) < 1e-8
            anc = reduced_state(state, (d, d), {1})
            assert np.abs(anc - np.eye(d) / d).max() < 1e-8

    def test_swap_revival_of_system_entropy(self):
        model = LindbladModel(d=2, gamma=0.0)
        ev = evolve_choi(model, math.pi, 81)
        s_sys, _, _ = entropy_arrays(dense_choi(ev.states), (2, 2))
        assert s_sys[40] < 1e-6                      # dip at t = pi/2
        assert abs(s_sys[-1] - math.log(2)) < 1e-6   # revival at t = pi

    def test_matches_amplitude_damping_closed_form(self):
        # for d = 2 the reduced map is amplitude damping with the damped
        # exchange amplitude; entropies follow in closed form
        omega, gamma = 1.0, 0.2
        model = LindbladModel(d=2, gamma=gamma)
        ev = evolve_choi(model, 8.0, 81)
        u = qubit_damping_amplitude(omega, gamma, ev.times)
        s_sys, s_anc, s_joint = entropy_arrays(dense_choi(ev.states), (2, 2))
        for k, ut in enumerate(u):
            s_sys_expected = binary_entropy(abs(ut) ** 2 / 2.0)
            neg_sa_expected = math.log(2) - binary_entropy((1.0 - abs(ut) ** 2) / 2.0)
            assert abs(s_sys[k] - s_sys_expected) < 1e-7
            assert abs((s_anc[k] - s_joint[k]) - neg_sa_expected) < 1e-7

    @pytest.mark.parametrize("gamma", [0.05, 0.2, 0.6])
    def test_default_grid_entropies_match_closed_form_tightly(self, gamma):
        # the exact propagator keeps the d = 2 entropies far below the
        # 1e-9 detection threshold over the whole default 2001-point grid
        _, traj = qudit_entropy_trajectory(LindbladModel(d=2, gamma=gamma))
        assert traj.times.size == 2001
        u = qubit_damping_amplitude(1.0, gamma, traj.times)
        s_ref = np.array([binary_entropy(abs(x) ** 2 / 2.0) for x in u])
        neg_ref = np.array([math.log(2) - binary_entropy((1.0 - abs(x) ** 2) / 2.0)
                            for x in u])
        assert np.abs(traj.s_system - s_ref).max() <= 1e-11
        assert np.abs(traj.neg_cond_sa - neg_ref).max() <= 1e-11

    def test_memory_trace_matches_loop_oracle(self):
        d = 3
        model = LindbladModel(d=d, gamma=0.25)
        full = qudit_dop853_states(d, 1.0, 0.25, "spin", extended_initial(d).data,
                                   [0.0, 1.7])[-1]
        loops = partial_trace_out_memory_loops(full, d)
        direct = reduced_state(full, (d, 2, d), {0, 2})
        assert np.abs(direct - loops).max() < 1e-12
        state = dense_choi(evolve_choi(model, 1.7, 2).states[-1])
        assert np.abs(state - loops).max() < 1e-9

    def test_dense_queries_match_grid(self):
        model = LindbladModel(d=2, gamma=0.1)
        ev = evolve_choi(model, 4.0, 41)
        grid = ev.times
        assert ev.states.shape == (41, 2, 2, 2)
        # real states, from real anchors
        assert ev.states.dtype == ev.state_at(1.3).dtype == np.float64
        assert all(terms.dtype == np.float64 for terms in ev._anchors.values())
        states = dense_choi(ev.states)
        assert states.shape == (41, 4, 4)
        st_query = dense_choi(ev.state_at(grid[20]))
        assert np.abs(states[20] - st_query).max() <= 1e-13
        # off-grid query sits between neighbours, consistent with both
        mid = 0.5 * (grid[20] + grid[21])
        st_mid = dense_choi(ev.state_at(mid))
        assert abs(np.trace(st_mid) - 1.0) < 1e-9
        assert np.abs(st_mid - states[20]).max() < 0.1
        assert np.abs(st_mid - states[21]).max() < 0.1

    def test_grid_states_match_exact_map(self):
        # up to 200 steps of one propagator per sector, with power stacks
        # sized to the grid and across up to four batches of 64 powers, stay
        # on the exponential of the kron-built generator at every grid time
        for conv in ("spin", "truncated-oscillator"):
            model = LindbladModel(d=3, gamma=0.2, convention=conv)
            for n in (2, 3, 5, 17, 33, 64, 65, 129, 201):
                ev = evolve_choi(model, 10.0, n)
                assert np.array_equal(ev.times, np.linspace(0.0, 10.0, n))
                for t, state in zip(ev.times, dense_choi(ev.states)):
                    exact = choi_via_dense_liouvillian(3, 1.0, 0.2, conv, t)
                    assert np.abs(state - exact).max() < 1e-12

    @pytest.mark.parametrize("conv", ["spin", "truncated-oscillator"])
    def test_short_grid_is_prefix_of_long_grid(self, conv):
        # a grid shorter than 64 steps stacks fewer powers of the same step
        model = LindbladModel(d=3, gamma=0.2, convention=conv)
        dt = 0.1
        short = evolve_choi(model, 2 * dt, 3).states
        assert np.array_equal(short, evolve_choi(model, 64 * dt, 65).states[:3])

    def test_one_propagator_per_evolution(self, monkeypatch):
        from qmemwitness import lindblad

        calls = []
        exponential = lindblad._expm

        def counted(a):
            calls.append(a.shape)
            return exponential(a)

        monkeypatch.setattr(lindblad, "_expm", counted)
        ev = evolve_choi(LindbladModel(d=2, gamma=0.1), 12.0, 2001)
        # one exp(L_q dt) per sector q = 0, 1: sizes 4d - 2 and 4
        assert len(ev.states) == 2001
        assert calls == [(6, 6), (4, 4)]


class TestChannelSuperoperator:
    """The reduced map at single times, read from `ChoiEvolution.state_at`."""

    def test_identity_at_t0(self):
        model = LindbladModel(d=3, gamma=0.2)
        phi = np.zeros((9, 9))
        phi[np.ix_([0, 4, 8], [0, 4, 8])] = 1 / 3
        assert np.array_equal(dense_choi(evolve_choi(model, 1.0, 2).state_at(0.0)), phi)

    def test_consistent_with_state_evolution(self, rng):
        d = 2
        model = LindbladModel(d=d, gamma=0.3)
        t = 1.3
        # row (a, i), column (b, j) of the Choi state hold <a| Lambda(|i><j|) |b> / d
        choi = dense_choi(evolve_choi(model, 12.0, 2).state_at(t)).reshape(d, d, d, d)
        rho_s = random_density_matrix(rng, [d])
        via_choi = d * np.einsum("aibj,ij->ab", choi, rho_s)
        # same map applied through the joint evolution with a spectator ancilla
        mem = np.zeros((2, 2), dtype=complex)
        mem[0, 0] = 1.0
        rho0 = np.kron(np.kron(rho_s, mem), np.eye(d) / d)
        final = qudit_dop853_states(d, 1.0, 0.3, "spin", rho0, [0.0, t])[-1]
        via_evolve = reduced_state(final, (d, 2, d), {0})
        assert np.abs(via_choi - via_evolve).max() < 1e-8

    def test_choi_positive_and_normalized(self):
        for d in (2, 3):
            ev = evolve_choi(LindbladModel(d=d, gamma=0.1), 12.0, 2)
            for t in (0.4, 2.1):
                choi = dense_choi(ev.state_at(t))
                assert abs(np.trace(choi) - 1.0) < 1e-8
                assert np.linalg.eigvalsh(choi).min() > -1e-8

    def test_choi_matches_extended_evolution(self):
        d = 3
        model = LindbladModel(d=d, gamma=0.2)
        t = 1.1
        # beyond the span of the evolution it is read from
        choi = dense_choi(evolve_choi(model, 0.5, 2).state_at(t))
        sa = dense_choi(evolve_choi(model, t, 2).states[-1])
        assert np.abs(choi - sa).max() < 1e-8

    def test_rejects_negative_time(self):
        ev = evolve_choi(LindbladModel(d=2), 2.0, 2)
        for t in (math.nan, -1.0, -1e-300, math.inf):
            with pytest.raises(DomainError):
                ev.state_at(t)

    def test_rejects_time_whose_anchor_index_overflows(self):
        # ||L|| t is infinite although t is finite: no anchor index exists
        ev = evolve_choi(LindbladModel(d=2, gamma=0.1), 2.0, 2)
        for t in (1e308, sys.float_info.max):
            with pytest.raises(DomainError, match="finite"):
                ev.state_at(t)

    def test_overflowing_anchor_is_rejected_and_not_cached(self):
        # at gamma = 0 the squarings of exp(L t) overflow long before ||L|| t does
        ev = evolve_choi(LindbladModel(d=2, gamma=0.0), 2.0, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows"):
                ev.state_at(1e200)
        assert ev._anchors == {}
        assert np.abs(ev.state_at(ev.times[4]) - ev.states[4]).max() <= 1e-13
        assert len(ev._anchors) == 1

    @pytest.mark.parametrize("gamma", [0.1, 1.0])
    def test_anchor_that_loses_trace_is_rejected_and_not_cached(self, gamma):
        # the rounding of exp(L t) grows with ||L|| t: at t = 1e12 the map
        # keeps 1 - 6e-5 of its trace, from t = 1e50 on none of it, with
        # every entry finite
        ev = evolve_choi(LindbladModel(d=2, gamma=gamma), 2.0, 11)
        for t in (1e12, 1e50, 1e300):
            with pytest.raises(DomainError, match="trace"):
                ev.state_at(t)
            assert ev._anchors == {}
        assert abs(np.trace(dense_choi(ev.state_at(1e6))) - 1.0) <= 1e-9
        assert len(ev._anchors) == 1


class TestAnchoredProbes:
    """`state_at` sums the Taylor terms of its nearest anchor."""

    @pytest.mark.parametrize("d, conv, points", [
        (2, "spin", 2001), (3, "truncated-oscillator", 301), (5, "spin", 101),
        (8, "spin", 5),   # coarse grid: anchors lie between the grid points
    ])
    def test_matches_sector_expm_oracle(self, d, conv, points, rng):
        model = LindbladModel(d=d, gamma=0.1, convention=conv)
        ev = evolve_choi(model, 12.0, points)
        dt = ev.times[1]
        ts = np.concatenate([[0.0], ev.times[[1, points // 2, -1]],
                             ev.times[[0, points // 3, -2]] + rng.uniform(0.0, dt, 3),
                             [12.0 + 0.37 * dt, 13.3, 20.0]])
        for t in ts:
            assert np.abs(ev.state_at(t) - choi_blocks_via_sector_expm(model, t)).max() <= 1e-13
        if points == 5:
            assert 1 / ev._norm < dt

    def test_probe_is_a_function_of_t_alone(self, rng):
        model = LindbladModel(d=4, gamma=0.1)
        ev = evolve_choi(model, 12.0, 201)
        # clusters of probes around a few anchors, and probes far apart
        ts = np.concatenate([rng.uniform(2.0, 2.1, 10), rng.uniform(7.0, 7.1, 10),
                             rng.uniform(0.0, 15.0, 10), ev.times[[0, 50, 200]]])
        fresh = [evolve_choi(model, 12.0, 201).state_at(t) for t in ts]
        for _ in range(2):
            for i in rng.permutation(len(ts)):
                assert np.array_equal(ev.state_at(ts[i]), fresh[i])

    def test_anchor_cache_is_bounded(self):
        from qmemwitness.lindblad import _ANCHORS

        ev = evolve_choi(LindbladModel(d=2, gamma=0.1), 12.0, 2001)
        ts = np.linspace(0.0, 1000.0, 1000)
        assert len({round(t * ev._norm) for t in ts}) == 1000
        for t in ts:
            ev.state_at(t)
        assert len(ev._anchors) == _ANCHORS

    @pytest.mark.parametrize("kept", [1, 3])
    def test_anchor_cache_is_bounded_in_bytes(self, monkeypatch, kept):
        # a limit of one byte keeps one anchor, as one anchor is kept even when
        # it alone is over the limit; a limit between 3 and 4 anchors keeps 3
        from qmemwitness import lindblad

        model = LindbladModel(d=4, gamma=0.1)
        ts = np.linspace(0.0, 13.0, 40)
        fresh = [evolve_choi(model, 12.0, 201).state_at(t) for t in ts]
        anchor = 8 * (lindblad._ORDER + 1) * len(evolve_choi(model, 12.0, 201)._target)
        monkeypatch.setattr(lindblad, "_ANCHOR_BYTES", 1 if kept == 1 else kept * anchor + 100)
        ev = evolve_choi(model, 12.0, 201)
        assert ev._capacity == kept
        for t, state in zip(ts, fresh):
            assert np.array_equal(ev.state_at(t), state)
            assert len(ev._anchors) <= kept
        assert len(ev._anchors) == kept


class TestGridConvergence:
    def test_entropy_agrees_on_shared_points_under_refinement(self):
        model = LindbladModel(d=2, gamma=0.05)
        coarse = dense_choi(evolve_choi(model, 6.0, 31).states)
        fine = dense_choi(evolve_choi(model, 6.0, 61).states)
        for k, state in enumerate(coarse):
            s_c = von_neumann_entropy(reduced_state(state, (2, 2), {0}))
            s_f = von_neumann_entropy(reduced_state(fine[2 * k], (2, 2), {0}))
            assert abs(s_c - s_f) < 1e-6
