import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dualrail import calibration as cal
from dualrail.errors import ConvergenceError, InfeasibleTargetError


def lm_fit(sweep, truth):
    """Residual and alpha of scipy's Levenberg-Marquardt fit of the fringe
    started at the true parameters, polished by three Gauss-Newton steps: the
    oracle for `fit_sweep`.  On the flat valley of a few-fringe sweep LM
    alone stops up to 5e-8 short in alpha."""
    from scipy.optimize import least_squares
    s = sweep.currents ** 2

    def residual(t):
        return cal.fringe_model(sweep.currents, *t) - sweep.powers

    def jacobian(t):
        _, c, phi0, alpha = t
        sin = np.sin(phi0 + alpha * s)
        return np.column_stack([np.ones_like(s), -np.cos(phi0 + alpha * s),
                                c * sin, c * s * sin])

    t = least_squares(residual, x0=truth, jac=jacobian, method="lm",
                      xtol=1e-14, ftol=1e-14).x
    for _ in range(3):
        t = t - np.linalg.lstsq(jacobian(t), residual(t), rcond=None)[0]
    r = residual(t)
    return r @ r, abs(t[3])


def wrapped_error(a, b):
    return np.max(np.abs(np.mod(np.asarray(a) - np.asarray(b) + np.pi,
                                2 * np.pi) - np.pi))


@pytest.fixture(scope="module")
def model():
    return cal.CrossTalkModel.reference()


class TestCrossTalkModel:
    def test_reference_values(self, model):
        assert abs(model.matrix[0, 0] - 4.37e-2) < 1e-12
        assert abs(model.matrix[0, 2] - (-0.71e-2)) < 1e-12
        assert abs(model.matrix[7, 7] - 5.21e-2) < 1e-12
        assert abs(model.initial_phases[0] - (-0.20)) < 1e-12
        assert abs(model.initial_phases[7] - 0.285) < 1e-12

    def test_sparsity_pattern(self, model):
        allowed = np.eye(8, dtype=bool)
        for i, j in cal.CROSSTALK_PAIRS:
            allowed[i, j] = allowed[j, i] = True
        assert np.all(model.matrix[~allowed] == 0.0)
        # all couplings of the chosen electrodes are negative
        off = model.matrix[~np.eye(8, dtype=bool)]
        assert np.all(off[off != 0] < 0)

    def test_validation_rejects_bad_models(self):
        a = np.eye(8) * 0.04
        a[0, 5] = 0.01  # outside the vertical pairs
        with pytest.raises(ValueError):
            cal.CrossTalkModel(a, np.zeros(8))
        a = np.eye(8) * 0.04
        a[3, 3] = 0.0
        with pytest.raises(ValueError):
            cal.CrossTalkModel(a, np.zeros(8))

    def test_table_round_trip(self, model):
        text = cal.format_crosstalk_table(model)
        again = cal.parse_crosstalk_table(text)
        assert np.allclose(again.matrix, model.matrix, atol=1e-12)
        assert np.allclose(again.initial_phases, model.initial_phases)


class TestCrossTalkSolve:
    def test_zero_current_gives_initial_phases(self, model):
        iv = cal.CurrentVector((0.0,) * 8)
        assert np.allclose(cal.apply_crosstalk(model, iv), model.initial_phases)

    def test_single_heater_drive(self, model):
        iv = cal.CurrentVector((10.0, 0, 0, 0, 0, 0, 0, 0))
        phases = cal.apply_crosstalk(model, iv)
        delta = phases - model.initial_phases
        assert abs(delta[0] - 4.37e-2 * 100.0) < 1e-12
        assert abs(delta[2] - (-0.73e-2) * 100.0) < 1e-12
        others = np.delete(delta, [0, 2])
        assert np.max(np.abs(others)) < 1e-15

    def test_diagonal_model_independent(self):
        m = cal.CrossTalkModel(np.eye(8) * 0.05, np.zeros(8))
        iv = cal.CurrentVector((1, 2, 3, 4, 5, 6, 7, 8))
        assert np.allclose(cal.apply_crosstalk(m, iv),
                           0.05 * iv.as_array() ** 2)

    def test_solve_at_initial_phases_is_zero(self, model):
        iv = cal.solve_currents(model, model.initial_phases)
        assert np.max(iv.as_array()) < 1e-9

    def test_solve_pi_on_first_heater(self, model):
        target = model.initial_phases + np.array([np.pi, 0, 0, 0, 0, 0, 0, 0])
        iv = cal.solve_currents(model, target)
        # independent 2x2 oracle on the coupled (1, 3) block
        block = model.matrix[np.ix_([0, 2], [0, 2])]
        i_sq = np.linalg.solve(block, [np.pi, 0.0])
        assert abs(iv.values[0] - np.sqrt(i_sq[0])) < 1e-9
        assert abs(iv.values[2] - np.sqrt(i_sq[1])) < 1e-9
        assert abs(iv.values[0] - 8.6) < 0.05
        assert iv.values[2] > 1.0
        assert wrapped_error(cal.apply_crosstalk(model, iv), target) < 1e-9

    def test_round_trip_property(self, model):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            target = rng.uniform(0.0, 2 * np.pi, 8)
            iv = cal.solve_currents(model, target)
            realized = cal.apply_crosstalk(model, iv)
            assert wrapped_error(realized, target) < 1e-9

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(currents=st.lists(st.floats(0.0, cal.DacSpec().full_scale),
                             min_size=8, max_size=8))
    def test_realized_phases_solve_back(self, model, currents):
        # the phases of any drive inside full scale solve back to currents
        # that realize them, also inside full scale
        phases = cal.apply_crosstalk(model, cal.CurrentVector(currents))
        iv = cal.solve_currents(model, phases)
        assert not iv.clipped
        assert wrapped_error(cal.apply_crosstalk(model, iv), phases) < 1e-9

    def test_wrap_resolves_negative_squares(self, model):
        # targets below the initial phases need a 2*pi lift
        target = model.initial_phases - 0.5
        iv = cal.solve_currents(model, target)
        assert wrapped_error(cal.apply_crosstalk(model, iv), target) < 1e-9

    def test_negative_couplings_never_need_wraps(self, model):
        # the inverse of the reference matrix is entrywise positive, so any
        # target lifted into [0, 2*pi) solves directly
        rng = np.random.default_rng(103)
        for _ in range(200):
            target = rng.uniform(0.0, 2 * np.pi, 8)
            iv = cal.solve_currents(model, target, max_wraps=0)
            assert wrapped_error(cal.apply_crosstalk(model, iv), target) < 1e-9

    def test_positive_coupling_uses_wrap(self):
        # the duplicate-electrode layout can couple with positive sign; a
        # low target next to a hot neighbour then needs a 2*pi lift
        a = np.eye(8) * 0.04
        a[0, 2] = a[2, 0] = 0.01
        m = cal.CrossTalkModel(a, np.zeros(8))
        target = np.array([0.05, 0.0, 6.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(InfeasibleTargetError):
            cal.solve_currents(m, target, max_wraps=0)
        iv = cal.solve_currents(m, target)
        assert wrapped_error(cal.apply_crosstalk(m, iv), target) < 1e-9

    def test_singular_model_rejected(self):
        a = np.eye(8) * 0.05
        a[0, 2] = a[2, 0] = 0.05  # makes the (1,3) block singular
        m = cal.CrossTalkModel(a, np.zeros(8))
        with pytest.raises(np.linalg.LinAlgError):
            cal.solve_currents(m, np.full(8, 0.1))

    def test_numerically_singular_model_rejected(self):
        # rows 0 and 2 proportional up to rounding: det is tiny but far above
        # any fixed floor, while the condition number exceeds 1/eps
        x, y = 0.0215327690175707, 0.08589195577097951
        a = np.eye(8) * 0.05
        a[0, 2], a[2, 0], a[2, 2] = x, y, x * y / 0.05
        m = cal.CrossTalkModel(a, np.zeros(8))
        with pytest.raises(np.linalg.LinAlgError):
            cal.solve_currents(m, np.full(8, 0.1))

    def test_infeasible_after_wrap_cap(self):
        # near-degenerate positive coupling ping-pongs between channels
        a = np.eye(8) * 0.04
        a[0, 2] = a[2, 0] = 0.0399
        m = cal.CrossTalkModel(a, np.zeros(8))
        target = np.array([0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(InfeasibleTargetError):
            cal.solve_currents(m, target)

    def test_over_range_solution_flagged(self):
        # 1 rad at 0.001 rad/mA^2 needs sqrt(1000) = 31.6 mA > 20 mA
        m = cal.CrossTalkModel(np.eye(8) * 0.001, np.zeros(8))
        iv = cal.solve_currents(m, np.full(8, 1.0))
        assert iv.clipped
        assert np.allclose(iv.values, np.sqrt(1000.0))
        assert cal.quantize(iv).clipped

    def test_in_range_solution_not_flagged(self):
        # 0.1 rad needs 10 mA, inside the 20 mA full scale
        m = cal.CrossTalkModel(np.eye(8) * 0.001, np.zeros(8))
        iv = cal.solve_currents(m, np.full(8, 0.1))
        assert not iv.clipped
        assert np.allclose(iv.values, 10.0)


class TestQuantize:
    def test_endpoints(self):
        dac = cal.DacSpec()
        iv = cal.CurrentVector((0.0,) * 7 + (20.0,), dac)
        q = cal.quantize(iv)
        assert q.values[0] == 0.0
        assert abs(q.values[7] - 20.0) < 1e-12
        assert not q.clipped

    def test_midpoint_rounds_up(self):
        dac = cal.DacSpec()
        mid = 1.5 * dac.step
        q = cal.quantize(cal.CurrentVector((mid,) + (0.0,) * 7, dac))
        assert abs(q.values[0] - 2 * dac.step) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        iv = cal.CurrentVector(tuple(rng.uniform(0, 20, 8)))
        once = cal.quantize(iv)
        twice = cal.quantize(once)
        assert once.values == twice.values

    def test_over_range_clamps_with_flag(self):
        q = cal.quantize(cal.CurrentVector((25.0,) + (0.0,) * 7))
        assert q.clipped
        assert abs(q.values[0] - 20.0) < 1e-12

    def test_phase_error_bound(self, model):
        dac = cal.DacSpec()
        bound = np.max(np.abs(model.matrix)) * dac.step * 2.0 * dac.full_scale
        rng = np.random.default_rng(11)
        for _ in range(200):
            target = rng.uniform(0, 2 * np.pi, 8)
            iv = cal.solve_currents(model, target, dac)
            exact = cal.apply_crosstalk(model, iv)
            quant = cal.apply_crosstalk(model, cal.quantize(iv))
            assert np.max(np.abs(quant - exact)) <= bound


class TestSweeps:
    currents = np.arange(0.0, 20.0 + 1e-9, 0.15)

    def test_flat_at_zero_alpha(self):
        sweep = cal.simulate_sweep(0.5, 0.3, 0.4, 0.0, self.currents)
        assert np.allclose(sweep.powers, 0.5 - 0.3 * np.cos(0.4))

    def test_fringe_maximum(self):
        alpha = 0.05
        x_max = np.sqrt(np.pi / alpha)
        sweep = cal.simulate_sweep(0.6, 0.4, 0.0, alpha, [0.0, x_max])
        assert abs(sweep.powers[1] - 1.0) < 1e-12  # B + C

    def test_nonnegative_power_precondition(self):
        with pytest.raises(ValueError):
            cal.simulate_sweep(0.25, 0.5, 0.0, 0.05, self.currents)

    @pytest.mark.parametrize("noise", [-1.0, np.nan, np.inf])
    def test_noise_must_be_finite_nonnegative(self, noise):
        with pytest.raises(ValueError, match="noise_sigma"):
            cal.simulate_sweep(0.5, 0.3, 0.0, 0.05, self.currents,
                               noise_sigma=noise, rng=np.random.default_rng(0))

    def test_noiseless_fit_recovery(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            b = rng.uniform(0.3, 1.0)
            c = rng.uniform(0.1, 1.0) * b
            phi0 = rng.uniform(-np.pi, np.pi)
            alpha = rng.uniform(0.02, 0.06)
            fit = cal.fit_sweep(cal.simulate_sweep(b, c, phi0, alpha, self.currents))
            assert abs(fit.b - b) / b < 1e-6
            assert abs(fit.c - c) / c < 1e-6
            assert abs(fit.alpha - alpha) / alpha < 1e-6
            assert wrapped_error([fit.phi0], [phi0]) < 1e-6
            assert not fit.degenerate

    def test_noisy_fit_within_one_percent(self):
        errs = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            sweep = cal.simulate_sweep(0.5, 0.45, 0.3, 0.0437, self.currents,
                                       noise_sigma=0.01, rng=rng)
            fit = cal.fit_sweep(sweep)
            errs.append(max(abs(fit.b - 0.5) / 0.5, abs(fit.c - 0.45) / 0.45,
                            abs(fit.alpha - 0.0437) / 0.0437))
        assert np.median(errs) < 0.01

    def test_constant_data_degenerate(self):
        sweep = cal.CalibrationSweep(self.currents,
                                     np.full(self.currents.size, 0.7))
        fit = cal.fit_sweep(sweep)
        assert fit.degenerate
        assert abs(fit.c) < 1e-6

    def test_fit_is_contraction(self):
        # refit curve stays within the noise level of the input data
        rng = np.random.default_rng(17)
        sweep = cal.simulate_sweep(0.5, 0.4, -0.8, 0.05, self.currents,
                                   noise_sigma=0.01, rng=rng)
        fit = cal.fit_sweep(sweep)
        refit = cal.fringe_model(self.currents, *fit.as_tuple())
        assert np.max(np.abs(refit - sweep.powers)) < 5 * 0.01 * 0.5

    @pytest.mark.parametrize("noise", [0.0, 0.005, 0.02, 0.05])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lm_on_calibrate_sweeps(self, model, noise, seed):
        # the eight sweeps that `calibrate --noise N --seed S` fits
        rng = np.random.default_rng(seed)
        for heater in range(8):
            truth = (0.5, 0.5, model.initial_phases[heater],
                     model.matrix[heater, heater])
            sweep = cal.simulate_sweep(*truth, self.currents, noise_sigma=noise,
                                       rng=rng)
            fit = cal.fit_sweep(sweep)
            residual, alpha = lm_fit(sweep, truth)
            assert fit.residual <= residual + 1e-12 * max(1.0, residual)
            assert abs(fit.alpha - alpha) <= 1e-8 * alpha

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(b=st.floats(0.3, 1.0), c_ratio=st.floats(0.1, 1.0),
           phi0=st.floats(-np.pi, np.pi), alpha=st.floats(0.0065, 0.06),
           noise=st.floats(0.0, 0.05), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_lm_property(self, b, c_ratio, phi0, alpha, noise, seed):
        # 0.4 to 3.8 fringes over the 0-20 mA sweep, contrast C >= B / 10
        truth = (b, c_ratio * b, phi0, alpha)
        sweep = cal.simulate_sweep(*truth, self.currents, noise_sigma=noise,
                                   rng=np.random.default_rng(seed))
        residual, lm_alpha = lm_fit(sweep, truth)
        # below half a fringe a noisy residual can fall all the way to
        # alpha = 0; LM then leaves the truth, and there is no fringe to fit
        # (test_no_fringe_raises)
        assume(abs(lm_alpha - alpha) < 0.5 * alpha)
        fit = cal.fit_sweep(sweep)
        assert fit.residual <= residual + 1e-12 * max(1.0, residual)
        assert abs(fit.alpha - lm_alpha) <= 1e-8 * lm_alpha

    def test_no_fringe_raises(self):
        # half a fringe of low contrast in 3% noise: the residual falls
        # towards alpha = 0, where B and C grow without bound
        truth = (1.0, 0.125, 1.5, 0.0078125)
        sweep = cal.simulate_sweep(*truth, self.currents, noise_sigma=0.03125,
                                   rng=np.random.default_rng(0))
        assert abs(lm_fit(sweep, truth)[1] - truth[3]) > 0.5 * truth[3]
        with pytest.raises(ConvergenceError, match="no interior minimum"):
            cal.fit_sweep(sweep)

    # one true alpha below the FFT-centred grid, one above it
    @pytest.mark.parametrize("phi0, alpha", [(0.7, 0.0065), (-1.7, 0.0245)])
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_few_fringes_bracket_walks_past_grid(self, monkeypatch, phi0, alpha,
                                                 noise):
        # over one to two fringes the FFT peak is a bin off and the lowest
        # alpha of the first scan is one of its ends
        truth = (0.5, 0.4, phi0, alpha)
        sweep = cal.simulate_sweep(*truth, self.currents, noise_sigma=noise,
                                   rng=np.random.default_rng(5))
        scans = []
        linear_fits = cal._linear_fits

        def recorded(s, y, alphas):
            fits = linear_fits(s, y, alphas)
            scans.append((alphas, fits[0]))
            return fits

        monkeypatch.setattr(cal, "_linear_fits", recorded)
        fit = cal.fit_sweep(sweep)
        residual, lm_alpha = lm_fit(sweep, truth)
        assert fit.residual <= residual + 1e-12 * max(1.0, residual)
        assert abs(fit.alpha - lm_alpha) <= 1e-8 * lm_alpha
        # some full scan's lowest alpha is an end, and the next scan is
        # centred there with the same step (its low end may be cut at zero)
        assert any(
            alphas.size == 21 and np.argmin(residuals) in (0, 20)
            and np.allclose(nxt, alphas[np.argmin(residuals)]
                            + (alphas[1] - alphas[0]) * np.arange(-10, 11)[-nxt.size:],
                            rtol=1e-12, atol=0.0)
            for (alphas, residuals), (nxt, _) in zip(scans, scans[1:]))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            cal.fit_sweep(cal.CalibrationSweep(np.arange(5.0), np.ones(5)))

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            cal.CalibrationSweep(np.array([0.0, 0.0, 1.0]), np.ones(3))
        with pytest.raises(ValueError):
            cal.CalibrationSweep(np.arange(3.0), np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            cal.CalibrationSweep(np.arange(3.0), np.array([1.0, np.nan, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            cal.CalibrationSweep(np.array([0.0, 1.0, np.inf]), np.ones(3))


class TestReflectivityRelations:
    def test_balanced_pair(self):
        b, c = cal.bc_from_reflectivities(0.5, 0.5)
        assert abs(b - 0.25) < 1e-12
        assert abs(c - 0.5) < 1e-12
        pairs = cal.reflectivities_from_bc(0.25, 0.5)
        assert len(pairs) == 1
        assert np.allclose(pairs[0], (0.5, 0.5), atol=1e-9)

    def test_zero_contrast_boundary_ratio(self):
        b, c = cal.bc_from_reflectivities(1.0, 0.3)
        assert c == 0.0
        for pair in cal.reflectivities_from_bc(b, c):
            assert any(r in (0.0, 1.0) or abs(r) < 1e-9 or abs(r - 1) < 1e-9
                       for r in pair)

    def test_round_trip_contains_original(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            r1, r2 = rng.uniform(0.05, 0.95, 2)
            b, c = cal.bc_from_reflectivities(r1, r2)
            pairs = cal.reflectivities_from_bc(b, c, tol=1e-7)
            target = tuple(sorted((r1, r2)))
            assert any(np.allclose(p, target, atol=1e-6) for p in pairs)

    def test_inconsistent_returns_empty(self):
        assert cal.reflectivities_from_bc(0.01, 2.0) == []


class TestSweepIngestion:
    def test_relative_units(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("current,power\n0,1.0\n1000,0.5\n")
        sweep = cal.read_sweep_csv(path, units="relative")
        assert abs(sweep.currents[1] - 15.0) < 1e-12

    def test_ma_units(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("0,1.0\n0.5,0.9\n1.0,0.7\n")
        sweep = cal.read_sweep_csv(path)
        assert sweep.currents.size == 3
        with pytest.raises(ValueError):
            cal.read_sweep_csv(path, units="furlongs")
