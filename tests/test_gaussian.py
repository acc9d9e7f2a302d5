import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qmemwitness import (
    DhoAmplitude,
    DhoParams,
    DomainError,
    GaussianChannel,
    InvalidStateError,
    TwoModeBlocks,
    cp_check,
    delta_S_lossy,
    dho_amplitude,
    dho_channel,
    entropy_gaussian,
    evaluate_criterion_gaussian,
    first_loss_reversal,
    h,
    minimize_delta_S_over_r,
)
from qmemwitness import gaussian
from qmemwitness.gaussian import SQUEEZING_MAX
from qmemwitness.witness import DETECTION_THRESHOLD
from oracles import (
    apply_channel,
    dho_closed_form,
    dho_expm,
    h_reference,
    lossy_channel,
    random_two_mode_sigma,
    two_mode_entropy_williamson,
    two_mode_squeezed,
)

RESONANT = DhoParams(g2=1.0, kappa=0.25, omega=1.0, omega_big=1.0)
# off resonance omega_t moves with t, so the phase is not just omega * t
DETUNED = DhoParams(g2=1.0, kappa=0.25, omega=1.0, omega_big=1.6)


def delta_S_gaussian(state_t1, state_t2):
    """S[alpha_t1] + S[sigma_t2] - max(S[alpha_t2], S[beta_t2]) via the witness report."""
    return evaluate_criterion_gaussian(state_t1, state_t2).delta_s


class TestTypes:
    def test_covariance_state_validation(self):
        # single-mode physicality, checked on the system block of a product state
        vac, zero = np.eye(2) / 2, np.zeros((2, 2))
        TwoModeBlocks(alpha=vac, beta=vac, gamma_block=zero)
        with pytest.raises(InvalidStateError):
            TwoModeBlocks(alpha=np.eye(2) / 4, beta=vac, gamma_block=zero)   # below vacuum
        with pytest.raises(InvalidStateError):
            TwoModeBlocks(alpha=np.array([[0.5, 0.1], [0.0, 0.5]]), beta=vac, gamma_block=zero)
        with pytest.raises(InvalidStateError):
            TwoModeBlocks(alpha=np.full((2, 2), np.nan), beta=vac, gamma_block=zero)

    def test_two_mode_blocks_validation(self):
        with pytest.raises(InvalidStateError):
            TwoModeBlocks(alpha=np.eye(2) / 2, beta=np.eye(2) / 2,
                          gamma_block=np.eye(2))   # correlations too strong

    @staticmethod
    def squeezed_modes(nu):
        """nu R(theta) diag(e^10, e^-10) R(theta)^T at seeded angles: entries
        of order 1e4 whose rounding leaves an asymmetry of about 1e-11."""
        for theta in np.random.default_rng(7).uniform(0.0, math.pi, 300):
            c, s = math.cos(theta), math.sin(theta)
            rot = np.array([[c, -s], [s, c]])
            yield nu * rot @ np.diag([math.exp(10.0), math.exp(-10.0)]) @ rot.T

    @pytest.mark.parametrize("nu", [1.0, 3.0])
    def test_strongly_squeezed_blocks_accepted(self, nu):
        zero = np.zeros((2, 2))
        for mode in self.squeezed_modes(nu):
            TwoModeBlocks(alpha=mode, beta=np.eye(2) / 2, gamma_block=zero)
            TwoModeBlocks(alpha=np.eye(2) / 2, beta=mode, gamma_block=zero)
            GaussianChannel(m=np.eye(2), n=mode)

    def test_visibly_asymmetric_block_rejected(self):
        mode = next(self.squeezed_modes(1.0))
        skew = mode + np.array([[0.0, 1e-9], [0.0, 0.0]]) * np.abs(mode).max()
        vac, zero = np.eye(2) / 2, np.zeros((2, 2))
        with pytest.raises(InvalidStateError):
            TwoModeBlocks(alpha=skew, beta=vac, gamma_block=zero)
        with pytest.raises(InvalidStateError):
            TwoModeBlocks(alpha=vac, beta=skew, gamma_block=zero)
        with pytest.raises(DomainError):
            GaussianChannel(m=np.eye(2), n=skew)

    def test_channel_shape_validation(self):
        with pytest.raises(DomainError):
            GaussianChannel(m=np.eye(3), n=np.zeros((3, 3)))

    def test_channel_rejects_non_finite(self):
        with pytest.raises(DomainError):
            GaussianChannel(m=np.full((2, 2), np.nan), n=np.eye(2) / 2)
        with pytest.raises(DomainError):
            GaussianChannel(m=np.eye(2), n=np.diag([np.inf, 0.5]))

    def test_dho_params_validation(self):
        with pytest.raises(DomainError):
            DhoParams(g2=-1.0, kappa=0.5, omega=1.0, omega_big=0.0)
        with pytest.raises(DomainError):
            DhoParams(g2=1.0, kappa=0.0, omega=1.0, omega_big=0.0)

    @pytest.mark.parametrize("field", ["g2", "kappa", "omega", "omega_big"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_dho_params_reject_non_finite(self, field, value):
        fields = {"g2": 1.0, "kappa": 0.25, "omega": 1.0, "omega_big": 1.0, field: value}
        with pytest.raises(DomainError):
            DhoParams(**fields)


class TestEntropyFunctions:
    def test_h_anchors(self):
        assert h(0.5) == 0.0
        assert abs(h(1.5) - 2.0 * math.log(2)) < 1e-15
        x = math.cosh(1.0) / 2.0
        assert abs(h(x) - h_reference(x)) < 1e-15
        assert abs(h(x) - 0.6594529591680367) < 1e-12

    def test_h_vectorized_matches_scalar(self):
        xs = np.linspace(0.5, 5.0, 37)
        vec = h(xs)
        for xv, hv in zip(xs, vec):
            assert abs(h(float(xv)) - hv) < 1e-15

    def test_h_domain(self):
        assert h(0.5 - 5e-10) == 0.0   # clamped
        with pytest.raises(DomainError):
            h(0.4)

    def test_h_matches_high_precision_reference(self):
        def reference(x):
            # enough digits to survive the cancellation of the two terms
            with mpmath.workdps(40 + max(0, int(math.log10(x)))):
                x = mpmath.mpf(x)
                return float((x + 0.5) * mpmath.log(x + 0.5) - (x - 0.5) * mpmath.log(x - 0.5))

        xs = np.concatenate([0.5 + np.logspace(-15, 0, 31), np.logspace(0, 300, 61),
                             np.cosh([15.0, 20.0, 30.0]) / 2.0])
        refs = np.array([reference(float(x)) for x in xs])
        assert np.all(np.abs(h(xs) - refs) <= 1e-15 * refs)
        for x, ref in zip(xs, refs):
            assert abs(h(float(x)) - ref) <= 1e-15 * ref

    def test_h_large_x_series(self):
        # h(x) = ln x + 1 - 1/(24 x^2) + O(x^-4); the two-term form is off
        # by 3.8e-9 at x = cosh(20)/2 and by 4e-3 at cosh(30)/2
        xs = np.concatenate([np.logspace(4, 300, 60), np.cosh([20.0, 30.0, 700.0]) / 2.0])
        series = np.log(xs) + 1.0 - 1.0 / (24.0 * xs) / xs
        assert np.all(np.abs(h(xs) - series) <= 1e-15 * series)

    @pytest.mark.parametrize("x", [math.nan, math.inf, np.array([1.0, math.nan])])
    def test_h_rejects_non_finite(self, x):
        with pytest.raises(DomainError):
            h(x)

    def test_entropy_single_mode(self):
        assert entropy_gaussian(np.eye(2) / 2) == 0.0
        r = 1.0
        alpha = math.cosh(r) / 2.0 * np.eye(2)
        assert abs(entropy_gaussian(alpha) - h(math.cosh(r) / 2.0)) < 1e-14
        thermal = (1.0 + 0.5) * np.eye(2)   # nbar = 1
        assert abs(entropy_gaussian(thermal) - h(1.5)) < 1e-14
        with pytest.raises(InvalidStateError):
            entropy_gaussian(np.eye(2) / 4)

    @pytest.mark.parametrize("sigma", [
        np.full((2, 2), np.nan), np.diag([0.5, np.inf]), np.eye(3) / 2, np.ones((2, 4)),
        np.ones(4), np.zeros((0, 0)), np.array([[0.5, 0.1], [0.0, 0.5]]),
    ])
    def test_entropy_rejects_malformed_covariance(self, sigma):
        with pytest.raises(InvalidStateError):
            entropy_gaussian(sigma)

    @pytest.mark.parametrize("r", [0.2, 1.0, 2.0, 3.0, 6.0, 8.0])
    def test_two_mode_squeezed_is_pure(self, r):
        assert abs(entropy_gaussian(two_mode_squeezed(r).sigma)) < 1e-9

    def test_two_mode_squeezed_reads_pure_to_r_6_5(self):
        # the README's pattern: rounding grows unevenly with r, but every
        # r = 0.25, 0.5, ..., 6.5 reads within 1e-9 of the true 0 (at most
        # 1.1e-10 measured)
        z = np.diag([1.0, -1.0])
        for r in 0.25 * np.arange(1, 27):
            c, s = np.cosh(r) / 2, np.sinh(r) / 2
            sigma = np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]])
            assert 0.0 <= entropy_gaussian(sigma) < 1e-9, r

    def test_product_of_vacua(self):
        state = TwoModeBlocks(alpha=np.eye(2) / 2, beta=np.eye(2) / 2,
                              gamma_block=np.zeros((2, 2)))
        assert abs(entropy_gaussian(state.sigma)) < 1e-12

    def test_lossy_state_matches_williamson_oracle(self):
        state = apply_channel(two_mode_squeezed(1.0), lossy_channel(0.5))
        assert abs(entropy_gaussian(state.sigma)
                   - two_mode_entropy_williamson(state.sigma)) < 1e-8

    def test_random_states_match_williamson_oracle(self, rng):
        for _ in range(100):
            sigma, (nu1, nu2) = random_two_mode_sigma(rng)
            s_closed = entropy_gaussian(sigma)
            assert abs(s_closed - two_mode_entropy_williamson(sigma)) < 1e-8
            assert abs(s_closed - (h_reference(nu1) + h_reference(nu2))) < 1e-8


class TestTwoModeSqueezed:
    def test_small_r_limit_is_vacuum_product(self):
        state = two_mode_squeezed(1e-8)
        assert np.abs(state.alpha - np.eye(2) / 2).max() < 1e-15
        assert np.abs(state.gamma_block).max() < 1e-8

    def test_reduced_entropy(self):
        state = two_mode_squeezed(1.0)
        assert abs(entropy_gaussian(state.alpha) - h(math.cosh(1.0) / 2)) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            two_mode_squeezed(0.0)

    @pytest.mark.parametrize("r", [800.0, math.inf, math.nan])
    def test_squeezing_above_cosh_overflow_rejected(self, r):
        with pytest.raises(DomainError):
            two_mode_squeezed(r)


class TestChannels:
    def test_cp_check(self):
        for eta in (0.0, 0.5, 1.0):
            assert cp_check(lossy_channel(eta))
        amplifier = GaussianChannel(m=math.sqrt(2) * np.eye(2), n=np.zeros((2, 2)))
        assert not cp_check(amplifier)

    def test_identity_channel_leaves_state(self):
        state = two_mode_squeezed(0.8)
        out = apply_channel(state, lossy_channel(0.0))
        assert np.abs(out.sigma - state.sigma).max() < 1e-15

    def test_full_loss_maps_to_vacuum(self):
        out = apply_channel(two_mode_squeezed(1.2), lossy_channel(1.0))
        assert np.abs(out.alpha - np.eye(2) / 2).max() < 1e-15
        assert np.abs(out.gamma_block).max() < 1e-15

    def test_blocks_match_direct_formula(self):
        r, eta = 1.0, 0.3
        out = apply_channel(two_mode_squeezed(r), lossy_channel(eta))
        ch, sh = math.cosh(r), math.sinh(r)
        alpha = (eta + (1.0 - eta) * ch) / 2.0 * np.eye(2)
        gamma = math.sqrt(1.0 - eta) * sh / 2.0 * np.diag([1.0, -1.0])
        beta = ch / 2.0 * np.eye(2)
        assert np.abs(out.alpha - alpha).max() < 1e-12
        assert np.abs(out.gamma_block - gamma).max() < 1e-12
        assert np.abs(out.beta - beta).max() < 1e-12

    def test_loss_composition(self):
        state = apply_channel(two_mode_squeezed(0.9), lossy_channel(0.5))
        twice = apply_channel(state, lossy_channel(0.5))
        direct = apply_channel(two_mode_squeezed(0.9), lossy_channel(0.75))
        assert np.abs(twice.sigma - direct.sigma).max() < 1e-12

    def test_rejects_cp_violating_channel(self):
        bad = GaussianChannel(m=math.sqrt(2) * np.eye(2), n=np.zeros((2, 2)))
        with pytest.raises(DomainError):
            apply_channel(two_mode_squeezed(1.0), bad)

    def test_lossy_domain(self):
        with pytest.raises(DomainError):
            lossy_channel(1.2)


class TestLossyWitness:
    def test_exact_zero_anchors(self):
        for r in (0.1, 1.0, 3.0):
            assert delta_S_lossy(0.0, 0.0, r) == 0.0
            assert delta_S_lossy(1.0, 1.0, r) == 0.0

    def test_full_reversal_closed_form(self):
        for r in (0.5, 1.0, 2.0):
            assert abs(delta_S_lossy(1.0, 0.0, r) + h(math.cosh(r) / 2.0)) < 1e-12

    def test_identity_dynamics_gives_zero(self):
        state = two_mode_squeezed(1.0)
        assert abs(delta_S_gaussian(state, state)) < 1e-12

    @pytest.mark.parametrize("pair", [(0.3, 0.7), (0.7, 0.2), (1.0, 0.0), (0.45, 0.45)])
    def test_gaussian_witness_matches_closed_form(self, pair):
        e1, e2 = pair
        r = 1.3
        s1 = apply_channel(two_mode_squeezed(r), lossy_channel(e1))
        s2 = apply_channel(two_mode_squeezed(r), lossy_channel(e2))
        assert abs(delta_S_gaussian(s1, s2) - delta_S_lossy(e1, e2, r)) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            delta_S_lossy(-0.1, 0.5, 1.0)
        with pytest.raises(DomainError):
            delta_S_lossy(0.5, 0.5, -1.0)

    @pytest.mark.parametrize("args", [(0.5, 0.5, math.nan), (0.5, 0.5, math.inf),
                                      (math.nan, 0.5, 1.0), (0.5, math.nan, 1.0),
                                      (np.array([0.2, math.nan]), 0.5, 1.0)])
    def test_non_finite_rejected(self, args):
        with pytest.raises(DomainError):
            delta_S_lossy(*args)

    @pytest.mark.parametrize("eta1, r", [(1e-11, 19.7), (1.0668537e-10, 26.96489864)])
    def test_no_false_positive_at_large_squeezing(self, eta1, r):
        # a loss of eta1 reversed to 0 gives delta_S = -eta1 to first
        # order, far above the detection threshold; cancellation in h
        # used to report -2.4e-7 and -4.9e-4 here
        ds = delta_S_lossy(eta1, 0.0, r)
        assert abs(ds + eta1) <= 1e-3 * eta1
        assert ds > DETECTION_THRESHOLD

    def test_squeezing_above_cosh_overflow_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in (711.0, 1000.0, np.array([1.0, 1e4])):
                with pytest.raises(DomainError, match="got r = "):
                    delta_S_lossy(0.5, 0.2, r)
            with pytest.raises(DomainError, match="r_max = 1000"):
                minimize_delta_S_over_r(0.5, 0.2, r_max=1000.0)
            # the bound itself is accepted
            assert math.isfinite(delta_S_lossy(0.5, 0.2, SQUEEZING_MAX))
            r_star, ds = minimize_delta_S_over_r(0.5, 0.2, r_max=SQUEEZING_MAX)
            assert 0 < r_star <= SQUEEZING_MAX and math.isfinite(ds)
            # the Newton search evaluates its slope at r_max, where
            # r sinh r overflows, and at the smallest r; a full
            # reversal (eta1 = 1, eta2 = 0, the 21st cell) descends to r_max
            etas = np.linspace(0.0, 1.0, 5)
            for r_min, r_max in ((1e-3, SQUEEZING_MAX), (5e-324, 1.0)):
                r_star, ds = minimize_delta_S_over_r(np.repeat(etas, 5), np.tile(etas, 5),
                                                     r_min=r_min, r_max=r_max)
                assert np.all((r_min <= r_star) & (r_star <= r_max)) and np.isfinite(ds).all()
                assert r_star[20] == r_max

    def test_matches_high_precision_reference(self):
        # r log-uniform over (almost) the whole range, a quarter of the cells
        # at small r below the diagonal, where cosh r - 1 used to cancel
        # (the cosh form flipped the sign of 358 of 4000 such cells)
        rng = np.random.default_rng(25)
        e1, e2 = rng.uniform(0.0, 1.0, size=(2, 1000))
        r = np.exp(rng.uniform(math.log(1e-9), math.log(700.0), 1000))
        e1[:250], e2[:250] = np.maximum(e1[:250], e2[:250]), np.minimum(e1[:250], e2[:250])
        r[:250] = np.exp(rng.uniform(math.log(1e-6), math.log(1e-1), 250))
        ds = delta_S_lossy(e1, e2, r)
        ref = np.array([lossy_reference(*cell) for cell in zip(e1, e2, r)])
        assert np.all(np.sign(ds) == np.sign(ref))
        assert np.all(np.abs(ds - ref) <= 1e-11 * np.abs(ref))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(eta1=st.floats(0.0, 1.0), eta2=st.floats(0.0, 1.0), r=st.floats(1e-9, 710.0))
    @example(eta1=0.7, eta2=0.2, r=1.248726659129084)   # numpy's scalar power rounded
    @example(eta1=0.7, eta2=0.2, r=0.00016840281937036792)   # these two differently
    def test_scalar_and_array_r_give_the_same_bits(self, eta1, eta2, r):
        values = [delta_S_lossy(eta1, eta2, r), delta_S_lossy(eta1, eta2, np.array(r)),
                  float(delta_S_lossy(eta1, eta2, np.array([r]))[0])]
        assert values[0] == values[1] == values[2], values

    def test_small_squeezing_reads_its_sign(self):
        # the cosh form returned -3.6e-15 here, where the witness is +1.93e-16
        ref = lossy_reference(0.5, 0.49, 4.8e-8)
        assert ref > 0 and abs(delta_S_lossy(0.5, 0.49, 4.8e-8) - ref) <= 1e-11 * ref


def lossy_reference(eta1, eta2, r):
    """delta_S_lossy from its cosh form with enough digits that 40 survive
    both cancellations: of cosh r - 1 at small r (up to 19 digits at
    r = 1e-9) and of the two terms of h at large x (log10 x < r/2)."""
    with mpmath.workdps(60 + int(r / 2)):
        e1, e2, c = mpmath.mpf(eta1), mpmath.mpf(eta2), mpmath.cosh(mpmath.mpf(r))

        def h(x):
            return (x + 0.5) * mpmath.log(x + 0.5) - (
                (x - 0.5) * mpmath.log(x - 0.5) if x > 0.5 else 0)

        return float(h((e1 + (1 - e1) * c) / 2) + h((1 - e2 + e2 * c) / 2) - h(c / 2))


class TestMinimizeOverR:
    def test_diagonal_is_nonnegative(self):
        for eta in (0.0, 0.3, 0.7, 1.0):
            _, ds = minimize_delta_S_over_r(eta, eta)
            assert ds >= -1e-9

    def test_loss_reversal_detected(self):
        _, ds = minimize_delta_S_over_r(0.6, 0.3)
        assert ds < 0.0

    def test_full_reversal_pushes_r_to_boundary(self):
        r_star, ds = minimize_delta_S_over_r(1.0, 0.0)
        assert r_star > 5.5
        assert abs(ds + h(math.cosh(r_star) / 2.0)) < 1e-6

    def test_markovian_direction_nonnegative(self):
        etas = np.linspace(0.0, 1.0, 9)
        for e1 in etas:
            for e2 in etas:
                if e2 >= e1:
                    _, ds = minimize_delta_S_over_r(float(e1), float(e2))
                    assert ds >= -1e-9

    def test_reversal_direction_negative(self):
        etas = np.linspace(0.0, 1.0, 9)
        for e1 in etas:
            for e2 in etas:
                if e2 < e1 - 0.02:
                    _, ds = minimize_delta_S_over_r(float(e1), float(e2))
                    assert ds < 0.0

    def test_fixed_r_regions_are_nested(self):
        # growing squeezing shrinks the detectable region: wherever the
        # witness is negative at larger r it is also negative at smaller r
        etas = np.linspace(0.0, 1.0, 11)
        for e1 in etas:
            for e2 in etas:
                ds_small = delta_S_lossy(float(e1), float(e2), 0.1)
                ds_mid = delta_S_lossy(float(e1), float(e2), 1.0)
                ds_large = delta_S_lossy(float(e1), float(e2), 2.0)
                if ds_large < 0:
                    assert ds_mid < 0
                if ds_mid < 0:
                    assert ds_small < 0

    @pytest.mark.parametrize("r_min, r_max", [(1e-3, 6.0), (1e-6, 20.0)])
    def test_range_ends_are_exact(self, r_min, r_max):
        # the witness rises in r where eta2 >= eta1, so r* = r_min and the
        # minimum is >= 0; it falls where the loss reverses on the eta1 = 1
        # row or the eta2 = 0 column, so r* = r_max
        etas = np.linspace(0.0, 1.0, 101)
        e1, e2 = np.repeat(etas, 101), np.tile(etas, 101)
        r_star, ds = minimize_delta_S_over_r(e1, e2, r_min=r_min, r_max=r_max)
        rising = e2 >= e1
        assert np.all(r_star[rising] == r_min) and np.all(ds[rising] >= 0.0)
        falling = (e2 < e1) & ((e1 == 1.0) | (e2 == 0.0))
        assert falling.sum() == 199 and np.all(r_star[falling] == r_max)
        assert minimize_delta_S_over_r(0.3, 0.6, r_min=r_min, r_max=r_max)[0] == r_min
        assert minimize_delta_S_over_r(1.0, 0.5, r_min=r_min, r_max=r_max)[0] == r_max

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(eta1=st.floats(0.0, 1.0), eta2=st.floats(0.0, 1.0))
    def test_slope_changes_sign_at_most_once(self, eta1, eta2):
        # from - to + in r: the witness has one minimum, which is what lets
        # one search over the whole range find it. A slope within the
        # rounding of its largest term, log1p(1/s), has no sign: where
        # eta1 = 1 or eta2 = 0 it is -O(1/s^2) at large r, far below that
        u = np.linspace(math.log(1e-8), math.log(700.0), 2000)
        f, _ = gaussian._lossy_slope(np.full(u.size, eta1), np.full(u.size, eta2), u)
        g3 = np.log1p(1.0 / np.sinh(np.exp(u) / 2.0) ** 2)
        signs = np.sign(f[np.abs(f) > 1e-15 * g3])
        flips = np.flatnonzero(np.diff(signs))
        assert flips.size == 0 or (flips.size == 1 and signs[0] < 0)

    @pytest.mark.parametrize("r_min, r_max", [(1e-3, 6.0), (5e-324, 1.0), (1e-6, SQUEEZING_MAX),
                                              (5e-324, SQUEEZING_MAX)])
    def test_no_grid_point_below_the_minimum(self, rng, r_min, r_max):
        # up to the rounding of two evaluations whose h terms grow like r: where
        # eta1 = 1 or eta2 = 0 the witness is flat to e^-r at large r, and
        # its value at r* = r_max = SQUEEZING_MAX can read 7e-14 above r = 64
        etas = np.linspace(0.0, 1.0, 21)
        e1 = np.concatenate([np.repeat(etas, 21), rng.uniform(0.0, 1.0, 200)])
        e2 = np.concatenate([np.tile(etas, 21), rng.uniform(0.0, 1.0, 200)])
        grid = np.clip(np.exp(np.linspace(math.log(r_min), math.log(r_max), 400)), r_min, r_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r_star, ds = minimize_delta_S_over_r(e1, e2, r_min=r_min, r_max=r_max)
            vals = delta_S_lossy(e1[:, None], e2[:, None], grid)
        scale = np.maximum(1.0, np.maximum(r_star[:, None], grid))
        assert np.all(ds[:, None] <= vals + 1e-15 * scale)


def minimize_loop(eta1, eta2, r_min=1e-3, r_max=6.0):
    """Reference: one scalar golden-section search on ln r for one cell."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    grid = np.linspace(math.log(r_min), math.log(r_max), 40)
    vals = delta_S_lossy(eta1, eta2, np.exp(grid))
    k = int(np.argmin(vals))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, 39)]

    def f(u):
        return delta_S_lossy(eta1, eta2, math.exp(u))

    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-9:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    u_star, f_star = (c if fc < fd else d), min(fc, fd)
    if vals[k] < f_star:
        u_star, f_star = float(grid[k]), float(vals[k])
    return math.exp(u_star), float(f_star), k


def minimize_reference(eta1, eta2, r_min=1e-3, r_max=6.0):
    """Reference: r* and the minimum at 40 digits. The best of 40 ln r grid
    points picks the bracket between its neighbours; the zero of the
    r-derivative there (mpmath's Anderson solver), or the bracket end the
    witness descends to where the derivative keeps its sign."""
    with mpmath.workdps(40):
        e1, e2 = mpmath.mpf(eta1), mpmath.mpf(eta2)

        def xs(u):   # the arguments of h
            c = mpmath.cosh(mpmath.exp(u))
            return (e1 + (1 - e1) * c) / 2, (1 - e2 + e2 * c) / 2, c / 2

        def h(x):
            return (x + 0.5) * mpmath.log(x + 0.5) - (
                (x - 0.5) * mpmath.log(x - 0.5) if x > 0.5 else 0)

        def delta(u):
            x1, x2, x3 = xs(u)
            return h(x1) + h(x2) - h(x3)

        def slope(u):   # d delta/dr over sinh(r)/2: the sign of d delta/du
            return sum(c * mpmath.log((x + 0.5) / (x - 0.5))
                       for c, x in zip((1 - e1, e2, -1), xs(u)) if c)

        lo_u, hi_u = mpmath.log(r_min), mpmath.log(r_max)
        grid = [lo_u + (hi_u - lo_u) * i / 39 for i in range(40)]
        k = min(range(40), key=lambda i: delta(grid[i]))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 39)]
        if slope(lo) >= 0:
            u = lo
        elif slope(hi) <= 0:
            u = hi
        else:
            u = mpmath.findroot(slope, (lo, hi), solver="anderson")
        return float(mpmath.exp(u)), float(delta(u))


def is_flat(eta1, eta2):
    """delta_S is 0 at every r, so every r is a minimizer."""
    return eta1 == eta2 and eta1 in (0.0, 1.0)


class TestVectorizedMinimizerMatchesLoop:
    @staticmethod
    def check(e1, e2, **kw):
        # the minimum agrees with golden section to rounding, r* with the
        # 40-digit minimizer (golden section misses it by up to 4.9e-5 on
        # the flat minima of the 21x21 grid)
        r_star, ds = minimize_delta_S_over_r(e1, e2, **kw)
        ks = []
        for a, b, r_got, ds_got in zip(e1, e2, r_star, ds):
            _, ds_ref, k = minimize_loop(float(a), float(b), **kw)
            assert abs(ds_got - ds_ref) <= 1e-14
            if not is_flat(a, b):
                r_ref, ds_exact = minimize_reference(float(a), float(b), **kw)
                assert abs(r_got - r_ref) <= 1e-8 * r_ref
                assert abs(ds_got - ds_exact) <= 1e-13
            assert kw.get("r_min", 1e-3) <= r_got <= kw.get("r_max", 6.0)
            ks.append(k)
        return ks

    def test_21x21_grid(self):
        etas = np.linspace(0.0, 1.0, 21)
        self.check(np.repeat(etas, 21), np.tile(etas, 21))

    def test_random_interior_points(self, rng):
        e1, e2 = rng.uniform(0.0, 1.0, size=(2, 60))
        self.check(e1, e2)
        self.check(e1[:10], e2[:10], r_min=0.05, r_max=3.0)

    def test_edge_brackets(self):
        # the reference loop's coarse minimum on its first (k=0) and last
        # (k=39) grid point: minima at or next to an end of the range
        assert self.check(np.array([0.6, 0.9]), np.array([0.3, 0.5]), r_min=2.0) == [0, 0]
        assert self.check(np.array([0.6, 1.0]), np.array([0.3, 0.0]), r_max=0.5) == [39, 39]
        assert self.check(np.array([1.0]), np.array([0.0]))[0] == 39

    def test_at_most_12_evaluations(self, monkeypatch):
        # the range ends and the Newton rounds, each one vectorized slope
        # call over the cells still searching (9 on this grid), then one
        # value call (golden section made 45 delta_S_lossy calls)
        calls = []
        for name in ("delta_S_lossy", "_lossy_slope"):
            def counted(*args, _f=getattr(gaussian, name), _name=name):
                calls.append(_name)
                return _f(*args)
            monkeypatch.setattr(gaussian, name, counted)
        etas = np.linspace(0.0, 1.0, 21)
        minimize_delta_S_over_r(np.repeat(etas, 21), np.tile(etas, 21))
        assert calls.count("delta_S_lossy") == 1 and calls.count("_lossy_slope") <= 12

    def test_cells_searched_together_match_one_by_one(self):
        etas = np.linspace(0.0, 1.0, 21)
        e1, e2 = np.repeat(etas, 21), np.tile(etas, 21)
        r_star, ds = minimize_delta_S_over_r(e1, e2)
        for i in range(e1.size):
            assert (r_star[i], ds[i]) == minimize_delta_S_over_r(e1[i], e2[i])

    def test_scalar_input_returns_floats(self):
        r_star, ds = minimize_delta_S_over_r(0.6, 0.3)
        assert type(r_star) is float and type(ds) is float
        _, ds_ref, _ = minimize_loop(0.6, 0.3)
        r_ref, _ = minimize_reference(0.6, 0.3)
        assert abs(ds - ds_ref) <= 1e-14 and abs(r_star - r_ref) <= 1e-8 * r_ref

    def test_shapes_broadcast(self):
        e1 = np.linspace(0.0, 1.0, 3)[:, None]
        e2 = np.linspace(0.0, 1.0, 4)
        r_star, ds = minimize_delta_S_over_r(e1, e2)
        assert r_star.shape == ds.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                assert ds[i, j] == minimize_delta_S_over_r(e1[i, 0], e2[j])[1]
        r_col, ds_col = minimize_delta_S_over_r(0.5, e2)
        assert r_col.shape == ds_col.shape == (4,)
        r_none, ds_none = minimize_delta_S_over_r(np.empty((0, 3)), 0.5)
        assert r_none.shape == ds_none.shape == (0, 3)

    @pytest.mark.parametrize("pair", [(math.nan, 0.5), (0.5, math.nan), (-0.1, 0.5),
                                      (0.5, 1.5), (np.array([0.2, math.nan]), 0.3)])
    def test_bad_eta_raises(self, pair):
        with pytest.raises(DomainError):
            minimize_delta_S_over_r(*pair)

    @pytest.mark.parametrize("bounds", [(0.0, 6.0), (2.0, 1.0), (1e-3, math.inf),
                                        (math.nan, 6.0)])
    def test_bad_r_range_raises(self, bounds):
        with pytest.raises(DomainError):
            minimize_delta_S_over_r(0.6, 0.3, r_min=bounds[0], r_max=bounds[1])


class TestDhoAmplitude:
    def test_initial_conditions(self):
        amp = dho_amplitude(RESONANT, [0.0])
        assert amp.times.tolist() == [0.0] and amp.c.tolist() == [1.0 + 0.0j]
        assert amp.c_dot.tolist() == [-1j * RESONANT.omega]

    def test_decoupled_limit(self):
        params = DhoParams(g2=0.0, kappa=0.25, omega=1.0, omega_big=1.0)
        ts = np.linspace(0.0, 5.0, 51)
        amp = dho_amplitude(params, ts)
        for t, c in zip(amp.times, amp.c):
            assert abs(c - np.exp(-1j * t)) < 1e-9
            assert abs(abs(c) - 1.0) < 1e-9

    def test_matches_characteristic_root_oracle(self):
        ts = np.linspace(0.0, 5.0, 501)
        amp = dho_amplitude(RESONANT, ts)
        c_ref, cd_ref = dho_closed_form(1.0, 0.25, 1.0, 1.0, ts)
        assert np.abs(amp.c - c_ref).max() < 1e-8
        assert np.abs(amp.c_dot - cd_ref).max() < 1e-8

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            dho_amplitude(RESONANT, [1.0, 2.0])
        for bad in ([0.0, 1.0, math.inf], [0.0, math.nan], [math.nan, 1.0]):
            with pytest.raises(DomainError):
                dho_amplitude(RESONANT, bad)
        for bad in ([0.0, 1.0, 1.0], [0.0, 2.0, 1.0]):
            with pytest.raises(DomainError, match="^time grid must be strictly increasing$"):
                dho_amplitude(RESONANT, bad)

    @pytest.mark.parametrize("times", [[0.0, 0.0], [1.0, 0.0], [0.0, math.nan], [0.0, math.inf],
                                       [0.0, 2.0, 1.0], []])
    def test_constructor_rejects_grid(self, times):
        # dho_channel's binary search needs non-empty, finite, strictly
        # increasing times, so a bad grid fails where the amplitude is built
        with pytest.raises(DomainError, match="time grid must be"):
            DhoAmplitude(times, np.ones(len(times)), np.zeros(len(times)), RESONANT)

    def test_arrays_are_read_only_copies(self):
        times, c, c_dot = np.array([0.0, 0.5]), np.array([1.0, 0.5j]), np.array([-1j, -1j])
        m, n = np.eye(2), np.eye(2) / 2
        alpha, beta, gamma_block = np.eye(2), np.eye(2), np.diag([0.5, -0.5])
        amp = DhoAmplitude(times, c, c_dot, RESONANT)
        ch = GaussianChannel(m=m, n=n)
        state = TwoModeBlocks(alpha=alpha, beta=beta, gamma_block=gamma_block)
        sigma = state.sigma.copy()
        # the caller's arrays stay its own
        for x in (times, c, c_dot, m, n, alpha, beta, gamma_block):
            x[-1] = 0.0
        assert amp.times.tolist() == [0.0, 0.5] and amp.c.tolist() == [1.0, 0.5j]
        assert amp.c_dot.tolist() == [-1j, -1j]
        assert np.array_equal(ch.m, np.eye(2)) and np.array_equal(ch.n, np.eye(2) / 2)
        assert np.array_equal(state.alpha, np.eye(2)) and np.array_equal(state.beta, np.eye(2))
        assert np.array_equal(state.gamma_block, np.diag([0.5, -0.5]))
        assert np.array_equal(state.sigma, sigma)
        fields = [(a, name) for a in (amp, dho_amplitude(RESONANT, [0.0, 0.5]))
                  for name in ("times", "c", "c_dot", "gamma_t", "omega_t")]
        fields += [(ch, "m"), (ch, "n")]
        fields += [(state, name) for name in ("alpha", "beta", "gamma_block", "sigma")]
        for obj, name in fields:
            with pytest.raises(ValueError, match="read-only"):
                getattr(obj, name)[0] = 1.0

    @pytest.mark.parametrize("params", [RESONANT, DETUNED, DhoParams(0.3, 1.0, 2.0, 0.5)])
    def test_closed_form_matches_oracle_to_roundoff(self, params):
        ts = np.linspace(0.0, 20.0, 4001)
        amp = dho_amplitude(params, ts)
        c_ref, cd_ref = dho_closed_form(params.g2, params.kappa, params.omega,
                                        params.omega_big, ts)
        assert np.abs(amp.c - c_ref).max() <= 1e-14
        assert np.abs(amp.c_dot - cd_ref).max() <= 1e-14

    def test_degenerate_roots_match_expm(self):
        # a double characteristic root, where the root oracle does not apply
        params = DhoParams(g2=1.0 / 16.0, kappa=0.5, omega=1.0, omega_big=1.0)
        ts = np.linspace(0.0, 10.0, 201)
        with pytest.raises(ValueError):
            dho_closed_form(params.g2, params.kappa, params.omega, params.omega_big, ts)
        amp = dho_amplitude(params, ts)
        c_ref, cd_ref = dho_expm(params.g2, params.kappa, params.omega, params.omega_big, ts)
        assert np.abs(amp.c - c_ref).max() <= 1e-14
        assert np.abs(amp.c_dot - cd_ref).max() <= 1e-14

    def test_strong_damping_is_finite(self):
        # e^{st} cosh(mu t) would be 0 * inf here; the reference expm itself
        # is about 1e-13 off the exact amplitude at kappa = 200
        params = DhoParams(g2=1.0, kappa=200.0, omega=1.0, omega_big=1.0)
        ts = np.linspace(0.0, 20.0, 401)
        amp = dho_amplitude(params, ts)
        assert np.isfinite(amp.c).all() and np.isfinite(amp.c_dot).all()
        c_ref, cd_ref = dho_expm(params.g2, params.kappa, params.omega, params.omega_big, ts)
        assert np.abs(amp.c - c_ref).max() <= 1e-12
        assert np.abs(amp.c_dot - cd_ref).max() <= 1e-12
        # the slow root s + mu loses about kappa t / 2 ulps to cancellation;
        # the characteristic roots at 40 digits pin the amplitude to 1e-14
        with mpmath.workdps(40):
            g2, kappa, omega, omega_big = map(mpmath.mpf, (params.g2, params.kappa,
                                                           params.omega, params.omega_big))
            b = kappa + 1j * (omega + omega_big)
            disc = mpmath.sqrt(b * b - 4 * (g2 + 1j * omega * (kappa + 1j * omega_big)))
            l1, l2 = (-b + disc) / 2, (-b - disc) / 2
            for k in range(0, ts.size, 40):
                t = mpmath.mpf(ts[k])
                e1, e2 = mpmath.exp(l1 * t), mpmath.exp(l2 * t)
                c = ((-1j * omega - l2) * e1 - (-1j * omega - l1) * e2) / (l1 - l2)
                c_dot = ((-1j * omega - l2) * l1 * e1 - (-1j * omega - l1) * l2 * e2) / (l1 - l2)
                assert abs(amp.c[k] - complex(c)) <= 1e-14
                assert abs(amp.c_dot[k] - complex(c_dot)) <= 1e-14


def phase_per_call(times, cs, cds, omega, k):
    """Reference: Phi at grid index k by truncated interpolation and quadrature."""
    ok = np.abs(cs[: k + 1]) > 1e-12
    g = -(cds[: k + 1][ok] + 1j * omega * cs[: k + 1][ok]) / cs[: k + 1][ok]
    omega_s = omega + np.interp(times[: k + 1], times[: k + 1][ok], g.imag)
    return float(np.trapezoid(omega_s, times[: k + 1])) if k > 0 else 0.0


def rotation(phi):
    return np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])


class TestDhoPhase:
    @pytest.mark.parametrize("params", [RESONANT, DETUNED])
    def test_matches_per_call_quadrature(self, params):
        # M_t = |c_t| R(Phi_t) with Phi_t the quadrature of omega_s, up to its
        # error, before the first amplitude zero (DETUNED has none on [0, 20])
        amp = dho_amplitude(params, np.linspace(0.0, 20.0, 4001))
        mag = np.abs(amp.c)
        dips = np.flatnonzero((mag[1:-1] <= mag[:-2]) & (mag[1:-1] <= mag[2:])
                              & (mag[1:-1] < 1e-2)) + 1
        stop = int(dips[0]) if dips.size else mag.size
        ref = np.array([phase_per_call(amp.times, amp.c, amp.c_dot, params.omega, k)
                        for k in range(stop)])
        for k, phi in enumerate(ref):
            m = dho_channel(amp, params, float(amp.times[k])).m
            assert np.abs(m - mag[k] * rotation(phi)).max() <= 1e-5
        if params is DETUNED:
            assert stop == mag.size
            assert np.abs(ref - params.omega * amp.times).max() > 0.1
        else:
            assert abs(amp.times[stop] - 1.71) < 0.01

    @pytest.mark.parametrize("params", [RESONANT, DETUNED])
    def test_vanishing_amplitude_grid(self, params):
        # zeros elsewhere on the grid leave the channel at the other times alone
        amp = dho_amplitude(params, np.linspace(0.0, 6.0, 601))
        cs = amp.c.copy()
        zeros = [0, 1, 37, 38, 39, 250, 600]   # at the start, inside and at the end
        cs[zeros] = 0.0
        fake = DhoAmplitude(amp.times, cs, amp.c_dot, params)
        for k, t in enumerate(amp.times.tolist()):
            if k in zeros:
                assert np.isnan(fake.gamma_t[k]) and np.isnan(fake.omega_t[k])
                with pytest.raises(DomainError):
                    dho_channel(fake, params, t)
            else:
                assert np.array_equal(dho_channel(fake, params, t).m,
                                      dho_channel(amp, params, t).m)
        assert np.isnan(DhoAmplitude([0.0, 1.0], [0.0, 0.0], [1.0, 1.0], RESONANT)
                        .gamma_t).all()

    def test_channel_reads_phase_at_t(self):
        # Phi_t = -arg c_t, after the amplitude zeros at t = 1.71 and 4.88 too
        amp = dho_amplitude(RESONANT, np.linspace(0.0, 5.0, 501))
        for k in (0, 1, 250, 500):
            ch = dho_channel(amp, RESONANT, float(amp.times[k]))
            rot = rotation(-np.angle(amp.c[k]))
            assert np.abs(ch.m - abs(amp.c[k]) * rot).max() <= 1e-14

    def test_channel_follows_amplitude_across_resonant_zero(self):
        # at resonance c_t = x_t e^{-i omega t} with x_t real, so M_t = x_t R(omega t)
        # changes sign with x_t instead of jumping by a rotation of pi
        ts = np.linspace(0.0, 20.0, 4001)
        amp = dho_amplitude(RESONANT, ts)
        c_ref, _ = dho_closed_form(RESONANT.g2, RESONANT.kappa, RESONANT.omega,
                                   RESONANT.omega_big, ts)
        x = (c_ref * np.exp(1j * RESONANT.omega * ts)).real
        assert np.count_nonzero(np.diff(np.sign(x))) >= 6
        for k, t in enumerate(ts.tolist()):
            m = dho_channel(amp, RESONANT, t).m
            assert np.abs(m - x[k] * rotation(RESONANT.omega * t)).max() <= 1e-13


class TestFirstLossReversal:
    def test_noise_margin(self):
        assert first_loss_reversal([0.0, 0.5, 0.5 - 0.5e-9, 0.5 - 0.9e-9]) is None
        assert first_loss_reversal([0.0, 0.5, 0.5 - 2e-9, 0.5 - 0.9e-9]) == (1, 2)

    def test_plateau_maximum(self):
        # a plateau counts at its first point; the pair ends at the first minimum
        assert first_loss_reversal([0.0, 0.3, 0.3, 0.3, 0.1, 0.2, 0.1]) == (1, 4)
        # a maximum the loss never drops below is skipped
        assert first_loss_reversal([0.0, 0.3, 0.3, 0.6, 0.4]) == (3, 4)

    @pytest.mark.parametrize("etas", [[0.1, 0.5, math.nan, 0.2, 0.1],
                                      [0.2, 0.6, 0.3, math.inf, 0.1],
                                      [0.0, 0.3, -math.inf]])
    def test_rejects_non_finite_loss(self, etas):
        # NaN would read as "no reversal" and inf hides the one before it
        with pytest.raises(DomainError):
            first_loss_reversal(etas)

    @pytest.mark.parametrize("etas", [
        [[0.0, 0.5, 0.4], [0.3, 0.2, 0.1], [0.0, 0.1, 0.2]],   # read flat: (1, 6)
        0.5,
    ])
    def test_rejects_loss_that_is_not_a_curve(self, etas):
        with pytest.raises(DomainError, match="1-d"):
            first_loss_reversal(etas)

    def test_monotone_loss(self):
        assert first_loss_reversal(np.linspace(0.0, 1.0, 50)) is None
        assert first_loss_reversal(np.linspace(1.0, 0.0, 50)) is None
        assert first_loss_reversal(np.zeros(10)) is None
        assert first_loss_reversal([0.3, 0.1]) is None

    def test_matches_scan_loop(self, rng):
        def loop(etas):
            for k in range(1, len(etas) - 1):
                if etas[k] >= etas[k - 1] and etas[k] >= etas[k + 1]:
                    later = int(np.argmin(etas[k:])) + k
                    if etas[later] < etas[k] - 1e-9:
                        return (k, later)
            return None

        amp = dho_amplitude(RESONANT, np.linspace(0.0, 20.0, 2001))
        curves = [np.clip(1.0 - np.abs(amp.c) ** 2, 0.0, 1.0)]
        curves += [np.round(rng.uniform(size=40), 1) for _ in range(30)]
        curves += [np.cumsum(rng.choice([-1e-9, 0.0, 2e-9], size=50)) for _ in range(30)]
        for etas in curves:
            assert first_loss_reversal(etas) == loop(etas)


def rate_g(amp, omega):
    """G = gamma_t / 2 + i (omega_t - omega), from the amplitude's coefficient arrays."""
    return amp.gamma_t / 2.0 + 1j * (amp.omega_t - omega)


class TestDhoCoefficients:
    def test_zero_at_t0(self):
        amp = DhoAmplitude([0.0], [1.0 + 0.0j], [-1j * RESONANT.omega], RESONANT)
        assert abs(rate_g(amp, RESONANT.omega)[0]) < 1e-15
        assert amp.gamma_t[0] == 0.0
        assert abs(amp.omega_t[0] - RESONANT.omega) < 1e-15

    def test_decoupled_limit_vanishes(self):
        params = DhoParams(g2=0.0, kappa=0.25, omega=1.0, omega_big=1.0)
        amp = dho_amplitude(params, np.linspace(0.0, 4.0, 41))
        assert np.abs(rate_g(amp, params.omega)).max() < 1e-8

    def test_negative_rate_window_exists(self):
        amp = dho_amplitude(RESONANT, np.linspace(0.0, 4.0, 801))
        assert amp.gamma_t[np.abs(amp.c) > 1e-6].min() < 0.0

    def test_matches_scalar_formula(self):
        # G = -(c_dot + i omega c) / c point by point, in Python complex arithmetic
        for params in (RESONANT, DETUNED):
            amp = dho_amplitude(params, np.linspace(0.0, 20.0, 4001))
            for c, cd, gamma_t, omega_t in zip(amp.c.tolist(), amp.c_dot.tolist(),
                                               amp.gamma_t, amp.omega_t):
                if abs(c) <= 1e-12:
                    assert math.isnan(gamma_t) and math.isnan(omega_t)
                    continue
                g = -(cd + 1j * params.omega * c) / c
                tol = 1e-15 * max(1.0, abs(g))   # complex division rounds differently
                assert abs(gamma_t - 2.0 * g.real) <= tol
                assert abs(omega_t - (params.omega + g.imag)) <= tol

    def test_vanishing_amplitude_raises(self):
        # the rates are NaN at an amplitude zero, and the channel there raises
        amp = DhoAmplitude([0.0, 0.5], [1.0, 0.0 + 0.0j], [-1j, -1j], RESONANT)
        assert np.isnan(amp.gamma_t[1]) and np.isnan(amp.omega_t[1])
        assert amp.gamma_t[0] == 0.0 and amp.omega_t[0] == RESONANT.omega
        with pytest.raises(DomainError):
            dho_channel(amp, RESONANT, 0.5)

    @pytest.mark.parametrize("c, c_dot", [(math.nan, 0.0), (complex(math.inf, 0.0), -1j),
                                          (1.0, complex(0.0, math.nan)), (1.0, math.inf)])
    def test_rejects_non_finite(self, c, c_dot):
        with pytest.raises(DomainError):
            DhoAmplitude([0.0, 0.5], [1.0, c], [-1j, c_dot], RESONANT)

    @pytest.mark.parametrize("times, c, c_dot", [
        ([0.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]),
        ([0.0, 1.0, 2.0], [1.0, 1.0], [0.0, 0.0, 0.0]),
        ([0.0, 1.0], [1.0, 1.0], [0.0]),
        ([[0.0, 1.0]], [[1.0, 1.0]], [[0.0, 0.0]]),
        (0.0, 1.0, 0.0),
    ], ids=["short-times", "short-c", "short-c-dot", "2-d", "0-d"])
    def test_rejects_arrays_that_are_not_equal_curves(self, times, c, c_dot):
        with pytest.raises(DomainError, match="1-d arrays of equal length"):
            DhoAmplitude(times, c, c_dot, RESONANT)


class TestDhoChannel:
    def test_identity_at_t0(self):
        amp = dho_amplitude(RESONANT, np.linspace(0.0, 1.0, 11))
        ch = dho_channel(amp, RESONANT, 0.0)
        assert np.abs(ch.m - np.eye(2)).max() < 1e-12
        assert np.abs(ch.n).max() < 1e-12

    def test_damping_integral_identity(self):
        # -ln |c_t|^2 must equal the accumulated damping rate
        ts = np.linspace(0.0, 1.5, 6001)
        amp = dho_amplitude(RESONANT, ts)
        cs, cds = amp.c, amp.c_dot
        g = -(cds + 1j * RESONANT.omega * cs) / cs
        gamma_acc = np.concatenate(
            [[0.0], np.cumsum((g.real[1:] + g.real[:-1]) * np.diff(ts))]
        )
        direct = -np.log(np.abs(cs) ** 2)
        assert np.abs(gamma_acc - direct).max() < 1e-6

    def test_cp_along_trajectory(self):
        ts = np.linspace(0.0, 20.0, 401)
        amp = dho_amplitude(RESONANT, ts)
        for t in ts[::8]:
            ch = dho_channel(amp, RESONANT, float(t), on_vanishing="full-loss")
            assert cp_check(ch)

    def test_loss_is_nonmonotonic(self):
        ts = np.linspace(0.0, 8.0, 1601)
        amp = dho_amplitude(RESONANT, ts)
        eta = 1.0 - np.abs(amp.c) ** 2
        i_max = int(np.argmax(eta))
        assert 0 < i_max < len(ts) - 1
        assert eta[i_max] > eta[i_max:].min() + 0.05

    def test_params_mismatch_rejected(self):
        # an amplitude computed for RESONANT must not pass for DETUNED's channel
        amp = dho_amplitude(RESONANT, np.linspace(0.0, 1.0, 11))
        with pytest.raises(DomainError):
            dho_channel(amp, DETUNED, 0.5)
        assert np.array_equal(dho_channel(amp, DhoParams(**vars(RESONANT)), 0.5).m,
                              dho_channel(amp, RESONANT, 0.5).m)

    def test_off_grid_time_rejected(self):
        amp = dho_amplitude(RESONANT, np.linspace(0.0, 1.0, 11))
        with pytest.raises(DomainError):
            dho_channel(amp, RESONANT, 0.55)
        with pytest.raises(DomainError):
            dho_channel(amp, RESONANT, math.nan)

    def test_vanishing_amplitude_paths(self):
        fake = DhoAmplitude([0.0, 0.5], [1.0, 0.0], [-1j, -1j], RESONANT)
        with pytest.raises(DomainError, match=r"vanished at t=0\.5$"):
            dho_channel(fake, RESONANT, 0.5)
        ch = dho_channel(fake, RESONANT, 0.5, on_vanishing="full-loss")
        assert np.abs(ch.m).max() == 0.0
        assert np.abs(ch.n - np.eye(2) / 2).max() == 0.0

    @pytest.mark.parametrize("mode", ["full_loss", "Raise", ""])
    def test_unknown_vanishing_mode_rejected(self, mode):
        # rejected on entry, also at t = 0 where the amplitude does not vanish
        fake = DhoAmplitude([0.0, 0.5], [1.0, 0.0], [-1j, -1j], RESONANT)
        with pytest.raises(DomainError, match="on_vanishing"):
            dho_channel(fake, RESONANT, 0.0, on_vanishing=mode)

    def test_rotation_blind_witness(self):
        # extra phase-space rotations on the system leave the witness alone
        ts = np.linspace(0.0, 3.0, 301)
        amp = dho_amplitude(RESONANT, ts)
        ch1 = dho_channel(amp, RESONANT, 1.5)
        ch2 = dho_channel(amp, RESONANT, 3.0)
        probe = two_mode_squeezed(1.0)
        base = delta_S_gaussian(apply_channel(probe, ch1), apply_channel(probe, ch2))
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        for ch, other in ((ch1, ch2), (ch2, ch1)):
            twisted = GaussianChannel(m=ch.m @ rot, n=ch.n)
            if ch is ch1:
                val = delta_S_gaussian(apply_channel(probe, twisted),
                                       apply_channel(probe, other))
            else:
                val = delta_S_gaussian(apply_channel(probe, other),
                                       apply_channel(probe, twisted))
            assert abs(val - base) < 1e-10
