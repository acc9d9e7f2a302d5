import math

import numpy as np
import pytest

from qmemwitness import (
    DensityMatrix,
    DomainError,
    EntropyTrajectory,
    ExtremumNotFoundError,
    InvalidStateError,
    LindbladModel,
    QmemError,
    TwoModeBlocks,
    WitnessReport,
    evaluate_criterion,
    evaluate_criterion_gaussian,
    find_critical_ratio,
    find_witness_times,
    h,
    ordering_check,
    scan_qudit,
    qudit_entropy_trajectory,
    witness_from_trajectory,
    witness_qudit_model,
)
from qmemwitness import states, witness
from qmemwitness.optimize import golden_section
from qmemwitness.witness import DETECTION_THRESHOLD, _interior_extrema
from oracles import (
    apply_channel,
    apply_kraus_choi,
    lossy_channel,
    max_entangled,
    random_density_matrix,
    random_kraus_set,
    random_pure_state,
    random_unitary,
    two_mode_squeezed,
)


class TestWitnessReport:
    def test_rejects_unordered_times(self):
        with pytest.raises(ValueError) as err:
            WitnessReport(s_sys_t1=1.0, neg_cond_sa_t2=0.5, neg_cond_as_t2=0.2,
                          t1=2.0, t2=1.0)
        assert isinstance(err.value, DomainError)

    def test_to_dict_roundtrip(self):
        rep = WitnessReport(s_sys_t1=1.0, neg_cond_sa_t2=0.5, neg_cond_as_t2=0.2,
                            t1=0.5, t2=1.5)
        d = rep.to_dict()
        assert d["delta_s"] == 0.5 and d["t2"] == 1.5
        assert d["quantum_memory_detected"] is False

    @pytest.mark.parametrize("neg_sa, neg_as", [(0.0, -1.0), (-1.0, 0.0)])
    def test_verdict_flips_at_threshold(self, neg_sa, neg_as):
        # delta_s = s_sys_t1 - max(-S(S|A), -S(A|S)), whichever part is larger
        at = WitnessReport(DETECTION_THRESHOLD, neg_sa, neg_as)
        assert at.delta_s == DETECTION_THRESHOLD and not at.quantum_memory_detected
        below = WitnessReport(math.nextafter(DETECTION_THRESHOLD, -1.0), neg_sa, neg_as)
        assert below.delta_s < DETECTION_THRESHOLD and below.quantum_memory_detected

    @pytest.mark.parametrize("field", ["s_sys_t1", "neg_cond_sa_t2", "neg_cond_as_t2",
                                       "t1", "t2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        # NaN must never read as "not detected"; a numerical failure, not a config error
        fields = dict(s_sys_t1=1.0, neg_cond_sa_t2=0.5, neg_cond_as_t2=0.2, t1=0.5, t2=1.5)
        fields[field] = value
        with pytest.raises(QmemError) as err:
            WitnessReport(**fields)
        assert isinstance(err.value, InvalidStateError) and isinstance(err.value, ValueError)


class TestEvaluateCriterion:
    def test_identity_on_max_entangled(self):
        rho = DensityMatrix(max_entangled(3), (3, 3))
        rep = evaluate_criterion(rho, rho)
        assert abs(rep.s_sys_t1 - math.log(3)) < 1e-10
        assert abs(rep.neg_cond_sa_t2 - math.log(3)) < 1e-10
        assert abs(rep.delta_s) < 1e-9
        assert not rep.quantum_memory_detected

    def test_identity_on_random_pure_states(self, rng):
        for _ in range(10):
            rho = DensityMatrix(random_pure_state(rng, 9), (3, 3))
            rep = evaluate_criterion(rho, rho)
            assert abs(rep.delta_s) < 1e-9
            assert not rep.quantum_memory_detected

    def test_product_states_never_detect(self, rng):
        rho1 = DensityMatrix(np.eye(4) / 4, (2, 2))
        for _ in range(10):
            a = random_density_matrix(rng, [2])
            b = random_density_matrix(rng, [2])
            rho2 = DensityMatrix(np.kron(a, b), (2, 2))
            rep = evaluate_criterion(rho1, rho2)
            assert rep.neg_cond_sa_t2 <= 1e-9
            assert not rep.quantum_memory_detected

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            evaluate_criterion(DensityMatrix(max_entangled(2), (2, 2)),
                               DensityMatrix(max_entangled(3), (3, 3)))

    def test_local_unitary_invariance(self, rng):
        d = 3
        rho1 = DensityMatrix(max_entangled(d), (d, d))
        kraus = random_kraus_set(rng, d, 2)
        rho2_data = apply_kraus_choi(kraus, rho1.data, d)
        rho2 = DensityMatrix(rho2_data, (d, d))
        base = evaluate_criterion(rho1, rho2)
        for _ in range(5):
            u = np.kron(random_unitary(rng, d), np.eye(d))
            rot = DensityMatrix(u @ rho2.data @ u.conj().T, (d, d))
            rep = evaluate_criterion(rho1, rot)
            assert abs(rep.delta_s - base.delta_s) < 1e-10
            assert rep.quantum_memory_detected == base.quantum_memory_detected

    def test_divisible_pairs_never_detect(self, rng):
        # snapshots connected by a memoryless channel admit a classical
        # realization, so the witness must stay non-negative
        for d in (2, 3):
            for _ in range(10):
                k1 = random_kraus_set(rng, d, rng.integers(1, d * d + 1))
                k2 = random_kraus_set(rng, d, rng.integers(1, d * d + 1))
                phi = max_entangled(d)
                rho1_data = apply_kraus_choi(k1, phi, d)
                rho2_data = apply_kraus_choi(k2, rho1_data, d)
                rep = evaluate_criterion(DensityMatrix(rho1_data, (d, d)),
                                         DensityMatrix(rho2_data, (d, d)))
                assert rep.delta_s >= -1e-9
                assert not rep.quantum_memory_detected


class TestEvaluateCriterionGaussian:
    def test_identity_dynamics(self):
        state = two_mode_squeezed(1.0)
        rep = evaluate_criterion_gaussian(state, state)
        assert abs(rep.delta_s) < 1e-9
        assert not rep.quantum_memory_detected

    def test_loss_reversal_detects(self):
        r = 1.0
        s1 = apply_channel(two_mode_squeezed(r), lossy_channel(1.0))
        s2 = apply_channel(two_mode_squeezed(r), lossy_channel(0.0))
        rep = evaluate_criterion_gaussian(s1, s2, t1=1.0, t2=2.0)
        assert abs(rep.delta_s + 0.6594529591680367) < 1e-9
        assert rep.quantum_memory_detected

    def test_product_thermal_pair_not_detected(self):
        # a product state at t2 gives -S(S|A) = -S_S <= 0, so delta_s = h(nu);
        # nu sits 8e-7 above the vacuum, where h is steep (h(nu) = 1.2e-5)
        nu = 0.5 + 8e-7
        zero = np.zeros((2, 2))
        vacua = TwoModeBlocks(alpha=np.eye(2) / 2, beta=np.eye(2) / 2, gamma_block=zero)
        thermal = TwoModeBlocks(alpha=nu * np.eye(2), beta=nu * np.eye(2), gamma_block=zero)
        rep = evaluate_criterion_gaussian(vacua, thermal)
        assert abs(rep.delta_s - h(nu)) < 1e-12
        assert rep.quantum_memory_detected is False


def synthetic_trajectory(ts):
    """Dip of s_system at t=1.0 and peak of -S(S|A) at t=1.5."""

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        s_sys = 1.0 - 0.3 * np.exp(-((t - 1.0) ** 2) / 0.08)
        s_joint = 1.0 - 0.4 * np.exp(-((t - 1.5) ** 2) / 0.08)
        return EntropyTrajectory(t, s_sys, np.ones_like(t), s_joint)

    return evaluate(ts), evaluate


class TestFindWitnessTimes:
    def test_monotone_trajectory_raises(self):
        def evaluate(t):
            return EntropyTrajectory(t, 1.5 - 0.1 * t, np.full_like(t, 1.5), np.ones_like(t))

        with pytest.raises(ExtremumNotFoundError):
            find_witness_times(evaluate(np.linspace(0, 3, 31)), evaluate)

    def test_synthetic_extrema_with_refinement(self):
        ts = np.linspace(0.0, 3.0, 61)
        traj, evaluate = synthetic_trajectory(ts)
        t1, t2 = find_witness_times(traj, evaluate=evaluate)
        assert abs(t1 - 1.0) < 3e-4
        assert abs(t2 - 1.5) < 3e-4

    def test_too_short_trajectory(self):
        ts = np.linspace(0.0, 3.0, 2)
        traj, evaluate = synthetic_trajectory(ts)
        with pytest.raises(ExtremumNotFoundError):
            find_witness_times(traj, evaluate)


def find_witness_times_sequential(traj, evaluate):
    """Reference: one golden-section search per bracket, t1 first, then
    the first local maximum of -S(S|A) whose grid time follows t1."""
    times = traj.times
    tol = 1e-6 * (times[-1] - times[0])

    def refine(i, f):
        a, b, *_ = golden_section(lambda x, _: f(x), times[i - 1], times[i + 1], tol)
        return float(0.5 * (a[0] + b[0]))

    i_mins = _interior_extrema(traj.s_system, "min")
    if i_mins.size == 0:
        raise ExtremumNotFoundError("no interior local minimum of s_system")
    t1 = refine(i_mins[0], lambda x: evaluate(x).s_system)
    i_maxs = _interior_extrema(traj.neg_cond_sa, "max")
    i_maxs = i_maxs[times[i_maxs] > t1]
    if i_maxs.size == 0:
        raise ExtremumNotFoundError("no local maximum of -S(S|A) after t1")
    t2 = refine(i_maxs[0], lambda x: -evaluate(x).neg_cond_sa)
    return t1, (t2 if t2 > t1 else float(times[i_maxs[0]]))


def two_peak_trajectory(dip):
    """Dip of s_system at `dip`, peaks of -S(S|A) at t = 1.0 and 2.0, on a
    grid of step 0.05 that puts the first peak on the grid point nearest
    the dip."""

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        s_sys = 1.0 - 0.3 * np.exp(-((t - dip) ** 2) / 0.08)
        s_joint = (1.0 - 0.4 * np.exp(-((t - 1.0) ** 2) / 0.08)
                   - 0.3 * np.exp(-((t - 2.0) ** 2) / 0.08))
        return EntropyTrajectory(t, s_sys, np.ones_like(t), s_joint)

    return evaluate(np.linspace(0.0, 3.0, 61)), evaluate


class TestBatchedSearchKeepsTheSequentialRule:
    @pytest.mark.parametrize("dip, t2", [(0.99, 1.0), (1.01, 2.0)])
    def test_peak_at_the_dip_grid_point(self, dip, t2):
        # both extrema sit at grid index 20: the peak there counts only when
        # t1 refines to its left
        traj, evaluate = two_peak_trajectory(dip)
        assert _interior_extrema(traj.s_system, "min").tolist() == [20]
        assert _interior_extrema(traj.neg_cond_sa, "max").tolist() == [20, 40]
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return evaluate(x)

        got = find_witness_times(traj, counted)
        assert got == find_witness_times_sequential(traj, evaluate)
        assert got[0] == pytest.approx(dip, abs=1e-4) and got[1] == pytest.approx(t2, abs=1e-4)
        assert set(sizes) == {3}   # three brackets searched together

    @pytest.mark.parametrize("d, gamma, conv", [
        (3, 0.005, "spin"),   # t1 refines right of the grid index of a -S(S|A) peak
        (2, 0.2, "spin"), (3, 0.3, "truncated-oscillator"), (4, 0.05, "spin"),
    ])
    def test_qudit_cells(self, d, gamma, conv):
        ev, traj = qudit_entropy_trajectory(
            LindbladModel(d=d, gamma=gamma, convention=conv))

        def evaluate(ts):
            return EntropyTrajectory(ts, *states.choi_entropy_arrays(
                np.array([ev.state_at(t) for t in ts])))

        got = find_witness_times(traj, evaluate)
        assert got == find_witness_times_sequential(traj, evaluate)
        if gamma == 0.005:
            i1 = _interior_extrema(traj.s_system, "min")[0]
            assert i1 in _interior_extrema(traj.neg_cond_sa, "max")
            assert got[0] > traj.times[i1]
            assert got[1] == pytest.approx(2.2214, abs=1e-3)


def interior_extrema_loops(values, kind, noise_floor):
    """Reference: interior extrema by an explicit loop over the grid."""
    sign = 1.0 if kind == "min" else -1.0
    v = sign * values
    out = []
    for i in range(1, len(v) - 1):
        if v[i] <= v[i - 1] and v[i] <= v[i + 1]:
            if max(v[i - 1], v[i + 1]) - v[i] > noise_floor:
                out.append(i)
    return out


def ordering_check_loops(s_sys, s_anc, s_joint, tol=1e-9):
    return all(a - j >= s - j - tol for s, a, j in zip(s_sys, s_anc, s_joint))


class TestVectorizedScansMatchLoops:
    @staticmethod
    def arrays(rng):
        yield rng.normal(size=200)
        # plateaus, exact ties and steps around the noise floor
        yield np.round(rng.normal(size=300), 1)
        yield np.repeat(rng.integers(0, 4, size=60), rng.integers(1, 4, size=60)) * 1e-10
        yield np.cumsum(rng.choice([-1e-10, 0.0, 2e-10, -3e-10], size=400))
        yield np.array([1.0, 0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 0.0])
        yield np.zeros(5)
        yield np.array([1.0, np.nan, 0.0, 1.0, 0.5, 2.0])
        yield np.array([0.3, 0.1])

    def test_interior_extrema(self, rng, monkeypatch):
        for values in self.arrays(rng):
            for kind in ("min", "max"):
                for floor in (0.0, 1e-10, 0.05):
                    monkeypatch.setattr(witness, "_EXTREMUM_NOISE_FLOOR", floor)
                    got = _interior_extrema(values, kind)
                    assert got.tolist() == interior_extrema_loops(values, kind, floor)

    def test_ordering_check(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 30))
            s_anc = np.round(rng.uniform(0.5, 1.0, size=n), 2)
            s_sys = s_anc + rng.choice([-2e-9, 0.0, 5e-10, 1e-9, 1e-3], size=n)
            s_joint = np.round(rng.uniform(0.01, 0.4, size=n), 2)
            traj = EntropyTrajectory(np.arange(n, dtype=float), s_sys, s_anc, s_joint)
            assert ordering_check(traj) == ordering_check_loops(s_sys, s_anc, s_joint)


def golden_loop(f, a, b, tol):
    """Reference: scalar golden-section search; final (a, b, c, d, fc, fd) and probe count."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    probes = 2
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        probes += 1
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    return (a, b, c, d, fc, fd), probes


class TestGoldenSection:
    FUNCTIONS = (lambda x: (x - 0.3) ** 2, lambda x: math.cos(3.0 * x),
                 lambda x: abs(x - 1.0), lambda x: 0.0)

    def test_single_bracket_takes_the_scalar_steps(self):
        for f in self.FUNCTIONS:
            for a, b, tol in ((0.0, 1.0, 1e-9), (-2.0, 3.0, 1e-4), (0.9, 1.2, 1e-12)):
                calls = []

                def g(x, idx):
                    calls.append(x.size)
                    return np.array([f(float(v)) for v in x])

                got = golden_section(g, a, b, tol)
                ref, probes = golden_loop(f, a, b, tol)
                assert [float(v[0]) for v in got] == list(ref)
                assert sum(calls) == probes

    def test_brackets_searched_together_match_one_by_one(self, rng):
        shifts = rng.uniform(-1.0, 2.0, size=40)
        a = rng.uniform(-1.0, 0.5, size=40)
        b = a + rng.uniform(1e-6, 2.0, size=40)
        evaluated = []

        def quartic(u):   # +, -, * only, so arrays and scalars round alike
            return u * u * (1.0 + u * u) - 0.5 * u

        def g(x, idx):
            evaluated.append(idx.size)
            return quartic(x - shifts[idx])

        got = golden_section(g, a, b, 1e-9)
        for i in range(40):
            ref, _ = golden_loop(lambda x: quartic(x - float(shifts[i])), float(a[i]),
                                 float(b[i]), 1e-9)
            assert [float(arr[i]) for arr in got] == list(ref)
        assert evaluated[-1] < 40   # finished searches are not evaluated again


class TestOrderingCheck:
    def test_max_entangled_probe_ordering(self):
        res = witness_qudit_model(LindbladModel(d=2, gamma=0.1),
                                  t_max=6.0, n_points=301)
        assert ordering_check(res.trajectory)

    def test_violation_detected(self):
        traj = EntropyTrajectory(np.array([0.0, 1.0]), np.array([1.0, 1.0]),
                                 np.array([0.6, 0.6]), np.array([0.5, 0.5]))
        # neg_sa = 0.1 < neg_as = 0.5
        assert not ordering_check(traj)


class TestQuditPipeline:
    def test_d2_detects_and_reports(self):
        res = witness_qudit_model(LindbladModel(d=2, gamma=0.2),
                                  t_max=8.0, n_points=401)
        rep = res.report
        assert rep.quantum_memory_detected
        assert rep.t1 < rep.t2
        assert rep.delta_s < -0.2
        assert res.ordering_ok
        assert res.revival_maxima[0][0] == pytest.approx(rep.t2, abs=0.05)

    def test_trajectory_then_witness_matches_pipeline(self):
        model = LindbladModel(d=3, gamma=0.2)
        ev, traj = qudit_entropy_trajectory(model, t_max=6.0, n_points=301)
        assert ev.states.shape == (301, 3, 3, 3)
        res = witness_from_trajectory(ev, traj)
        ref = witness_qudit_model(model, t_max=6.0, n_points=301)
        assert res.report == ref.report
        assert res.revival_maxima == ref.revival_maxima
        for field in ("times", "s_system", "s_ancilla", "s_joint"):
            assert np.array_equal(getattr(res.trajectory, field), getattr(ref.trajectory, field))

    def test_each_probe_state_is_diagonalized_once(self, monkeypatch):
        # every refinement probe and both report states go through one
        # choi_entropy_arrays stack exactly once, the probes of the t1 and t2
        # searches stacked together at each step; each stack eigensolves the
        # d-1 blocks larger than 1x1 at their true sizes and nothing else,
        # and no state is validated a second time as a DensityMatrix
        d = 3
        ev, traj = qudit_entropy_trajectory(LindbladModel(d=d, gamma=0.2),
                                            t_max=6.0, n_points=301)
        probes, stacked, solves = [], [], []
        state_at, entropies = ev.state_at, witness.choi_entropy_arrays
        eigvalsh = np.linalg.eigvalsh

        def counted_state_at(t):
            probes.append(t)
            return state_at(t)

        def counted_entropies(blocks):
            stacked.append(len(blocks))
            return entropies(blocks)

        def counted_eigvalsh(a, **kwargs):
            solves.append(a.shape)
            return eigvalsh(a, **kwargs)

        def no_density_matrix(self):
            raise AssertionError("probe state wrapped in a DensityMatrix")

        monkeypatch.setattr(ev, "state_at", counted_state_at)
        monkeypatch.setattr(witness, "choi_entropy_arrays", counted_entropies)
        monkeypatch.setattr(states.np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(states.DensityMatrix, "__post_init__", no_density_matrix)
        rep = witness_from_trajectory(ev, traj).report
        assert len(probes) > 2
        assert probes[-2:] == [rep.t1, rep.t2]
        assert sum(stacked) == len(probes)
        assert stacked == [2] * len(stacked)
        sizes = [d - m for m in range(d - 1)]
        assert solves == [(n, size, size) for n in stacked for size in sizes]

    def test_scan_rows_ordered_and_complete(self):
        rows = scan_qudit([2], [0.5, 0.25], t_max=8.0, n_points=401)
        assert [r.gamma_over_omega for r in rows] == [0.5, 0.25]
        for row in rows:
            assert row.error is None
            assert row.detected
            assert row.ordering_ok

    def test_scan_records_cell_errors(self):
        # a window too short to contain the extrema must not abort the
        # scan; every cell still gets a row carrying its error
        rows = scan_qudit([2], [0.05, 0.3], t_max=1.2, n_points=121)
        assert len(rows) == 2
        for row in rows:
            assert row.error is not None
            assert row.delta_s is None and row.detected is None

    def test_scan_records_bad_dimensions(self):
        # int() of inf or NaN raised OverflowError or ValueError and aborted
        # the scan; a bad d is a DomainError of its cell, and the scan goes on
        rows = scan_qudit([math.inf, math.nan, 2.5, 1, 2], [0.5], t_max=8.0, n_points=401)
        assert [r.error for r in rows[:4]] == [f"d must be an integer >= 2, got {d}"
                                               for d in (math.inf, math.nan, 2.5, 1)]
        assert rows[4].error is None and rows[4].detected and type(rows[4].d) is int

    def test_critical_ratio_requires_bracket(self):
        with pytest.raises(ExtremumNotFoundError):
            find_critical_ratio(2, 0.1, 0.3, t_max=8.0, n_points=401)

    @staticmethod
    def _stub_delta(monkeypatch, delta_of_ratio):
        class Stub:
            def __init__(self, delta_s):
                self.report = self
                self.delta_s = delta_s

        monkeypatch.setattr(witness, "witness_qudit_model",
                            lambda model, **kw: Stub(delta_of_ratio(model.gamma)))

    def test_critical_ratio_bisects_on_the_detection_threshold(self, monkeypatch):
        # a delta_s between the threshold and zero is no certificate, so
        # the bisection treats it as "not detected"
        self._stub_delta(monkeypatch, lambda r: -1.0 if r < 0.2 else -5e-10)
        ratio = find_critical_ratio(3, 0.1, 0.3)
        assert 0.2 / 1.02 <= ratio <= 0.2 * 1.02

    def test_critical_ratio_bisects_a_subnormal_bracket(self, monkeypatch):
        # sqrt(lo * hi) underflowed to 0 here and the next step divided by it
        self._stub_delta(monkeypatch, lambda r: -1.0 if r < 1e-310 else 1.0)
        ratio = find_critical_ratio(3, 5e-324, 1e-300)
        assert 1e-310 / 1.02 <= ratio <= 1e-310 * 1.02

    @pytest.mark.parametrize("lo, hi", [(0.0, 0.3), (-0.1, 0.3), (0.3, 0.1), (0.2, 0.2),
                                        (math.nan, 0.3), (0.1, math.nan), (0.1, math.inf)])
    def test_critical_ratio_rejects_bad_bracket(self, monkeypatch, lo, hi):
        # checked before any witness evaluation: a zero end used to divide
        # by zero after two of them, an inverted pair to skip the bisection
        self._stub_delta(monkeypatch, lambda r: pytest.fail("bracket was evaluated"))
        with pytest.raises(DomainError):
            find_critical_ratio(3, lo, hi)

    def test_critical_ratio_bracket_needs_detection_at_lower_end(self, monkeypatch):
        self._stub_delta(monkeypatch, lambda r: -5e-10 if r < 0.2 else 1.0)
        with pytest.raises(ExtremumNotFoundError):
            find_critical_ratio(3, 0.1, 0.3)
