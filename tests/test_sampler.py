import numpy as np
import pytest
from scipy.stats import chisquare

from dualrail import optics, sampler

from test_optics import random_unitary


class TestPermanent:
    def test_identity(self):
        for n in (1, 2, 4, 6):
            assert abs(sampler.permanent(np.eye(n)) - 1.0) < 1e-12

    def test_two_by_two_definition(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert abs(sampler.permanent(m) - 10.0) < 1e-12  # ad + bc

    def test_all_ones_three(self):
        assert abs(sampler.permanent(np.ones((3, 3))) - 6.0) < 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            sampler.permanent(np.ones((2, 3)))

    def test_ryser_matches_exact_sum(self):
        rng = np.random.default_rng(23)
        for n in range(2, 6):
            for _ in range(25):
                m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                a = sampler.permanent(m, "ryser")
                b = sampler.permanent(m, "exact_sum")
                assert abs(a - b) / abs(b) < 1e-10

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            sampler.permanent(np.eye(2), "magic")


class TestSubmatrix:
    def test_identity_case(self):
        sub = sampler.submatrix_for_transition(
            np.eye(6), (0, 1, 0, 1, 0, 0), (0, 1, 0, 1, 0, 0))
        assert np.allclose(sub, np.eye(2))

    def test_multiplicity_rule(self):
        rng = np.random.default_rng(29)
        u = random_unitary(6, rng)
        sub = sampler.submatrix_for_transition(
            u, (1, 1, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0))
        # both rows taken from mode 1
        assert np.allclose(sub[0], sub[1])
        assert np.allclose(sub[0], [u[0, 0], u[0, 1]])

    def test_index_bookkeeping(self):
        rng = np.random.default_rng(31)
        u = random_unitary(6, rng)
        sub = sampler.submatrix_for_transition(
            u, (0, 1, 0, 1, 0, 0), (0, 0, 1, 0, 1, 0))
        expected = np.array([[u[2, 1], u[2, 3]], [u[4, 1], u[4, 3]]])
        assert np.allclose(sub, expected)
        # direct amplitude expansion: a_2^dag a_4^dag -> sum U_j2 U_k4
        amp = u[2, 1] * u[4, 3] + u[4, 1] * u[2, 3]
        assert abs(sampler.permanent(sub) - amp) < 1e-12

    def test_photon_number_mismatch(self):
        with pytest.raises(ValueError):
            sampler.submatrix_for_transition(
                np.eye(6), (1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0))


class TestProbabilities:
    def test_hom_suppression(self):
        dc = optics.dc_matrix(0.5)
        assert sampler.prob_indistinguishable(dc, (1, 1), (1, 1)) < 1e-12

    def test_bunching(self):
        dc = optics.dc_matrix(0.5)
        assert abs(sampler.prob_indistinguishable(dc, (1, 1), (2, 0)) - 0.5) < 1e-12

    def test_identity_transmission(self):
        state = (0, 1, 0, 1, 0, 0)
        assert abs(sampler.prob_indistinguishable(np.eye(6), state, state) - 1.0) < 1e-12

    def test_partial_limits(self):
        dc = optics.dc_matrix(0.5)
        assert abs(sampler.prob_partial(dc, (1, 1), (1, 1), 0.0) - 0.5) < 1e-12
        assert sampler.prob_partial(dc, (1, 1), (1, 1), 1.0) < 1e-12

    def test_partial_visibility_law(self):
        dc = optics.dc_matrix(0.5)
        for x in np.linspace(0, 1, 21):
            p = sampler.prob_partial(dc, (1, 1), (1, 1), x)
            assert abs(p - (1.0 - x * x) / 2.0) < 1e-12

    def test_partial_matches_explicit_formula(self):
        # |a|^2|d|^2 + |b|^2|c|^2 + x^2 (ad(bc)* + bc(ad)*) over output factorials
        rng = np.random.default_rng(37)
        for _ in range(50):
            u = random_unitary(6, rng)
            x = rng.uniform(0, 1)
            modes_in = rng.choice(6, 2, replace=False)
            state_in = [0] * 6
            for m in modes_in:
                state_in[m] = 1
            for state_out in sampler.two_photon_states():
                sub = sampler.submatrix_for_transition(u, state_in, state_out)
                a, b = sub[0]
                c, d = sub[1]
                explicit = (
                    abs(a) ** 2 * abs(d) ** 2 + abs(b) ** 2 * abs(c) ** 2
                    + x ** 2 * 2 * np.real(a * d * np.conj(b * c))
                )
                norm = 2.0 if max(state_out) == 2 else 1.0
                got = sampler.prob_partial(u, state_in, state_out, x)
                assert abs(got - explicit / norm) < 1e-12

    def test_partial_equals_quantum_at_one(self):
        rng = np.random.default_rng(41)
        state_in = (0, 1, 0, 1, 0, 0)
        for _ in range(100):
            u = random_unitary(6, rng)
            for state_out in sampler.two_photon_states():
                pq = sampler.prob_indistinguishable(u, state_in, state_out)
                pp = sampler.prob_partial(u, state_in, state_out, 1.0)
                assert abs(pq - pp) < 1e-12

    def test_normalization_all_outputs(self):
        rng = np.random.default_rng(43)
        states = sampler.two_photon_states()
        assert len(states) == 21
        for _ in range(100):
            u = random_unitary(6, rng)
            for x in (0.0, 0.5, 1.0):
                total = sum(
                    sampler.prob_partial(u, (0, 1, 0, 1, 0, 0), s, x)
                    for s in states
                )
                assert abs(total - 1.0) < 1e-9

    def test_doubly_occupied_input_rejected(self):
        with pytest.raises(ValueError):
            sampler.prob_partial(np.eye(6), (2, 0, 0, 0, 0, 0),
                                 (2, 0, 0, 0, 0, 0), 0.5)

    def test_coincidence_probabilities_transparent(self):
        p = optics.ChipParameters((1.0,) * 13, (0.0,) * 8, (0.0, 0.0))
        u = optics.build_chip_unitary(p)
        probs = sampler.coincidence_probabilities(u, 1.0)
        assert abs(probs[0] - 1.0) < 1e-12
        assert np.all(probs[1:] < 1e-12)

    def test_coincidence_probabilities_ideal_cnot(self):
        chip = optics.ChipParameters.ideal().with_phases(optics.IDENTITY_GATE_PHASES)
        u = optics.build_chip_unitary(chip)
        probs = sampler.coincidence_probabilities(u, 1.0)
        assert abs(probs.sum() - 1.0 / 9.0) < 1e-10
        assert abs(probs[1] - 1.0 / 9.0) < 1e-10  # |00> input maps to C2 rails


class TestSampling:
    def test_degenerate_multinomial(self):
        rng = np.random.default_rng(0)
        rec = sampler.sample_counts((1.0, 0.0, 0.0, 0.0), 1000.0, rng)
        assert rec.tolist() == [1000, 0, 0, 0]

    def test_seed_determinism(self):
        p = np.array([0.25, 0.25, 0.25, 0.25]) / 9.0
        a = sampler.sample_counts(p, 1e5, np.random.default_rng(7))
        b = sampler.sample_counts(p, 1e5, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_law_of_large_numbers(self):
        p = np.array([0.25, 0.25, 0.25, 0.25]) / 9.0
        rec = sampler.sample_counts(p, 1e6, np.random.default_rng(11))
        freqs = rec / rec.sum()
        assert np.max(np.abs(freqs - 0.25)) < 0.01

    def test_probability_sum_capped(self):
        with pytest.raises(ValueError):
            sampler.sample_counts((0.5, 0.5, 0.5, 0.5), 100.0,
                                  np.random.default_rng(0))

    @pytest.mark.parametrize("p", [(0.1, np.nan, 0.1, 0.1), (0.1, -1e-9, 0.1, 0.1)])
    def test_invalid_probabilities_rejected(self, p):
        with pytest.raises(ValueError, match="nonnegative"):
            sampler.sample_counts(p, 100.0, np.random.default_rng(0))

    @pytest.mark.parametrize("n_events", [np.inf, np.nan])
    def test_non_finite_n_events_rejected(self, n_events):
        with pytest.raises(ValueError, match="n_events"):
            sampler.sample_counts((0.1, 0.1, 0.1, 0.1), n_events,
                                  np.random.default_rng(0))

    # a bool is not an event count, and neither is a string of digits
    @pytest.mark.parametrize("n_events", [True, "5"])
    def test_non_integer_n_events_rejected(self, n_events):
        with pytest.raises(ValueError, match="n_events must be a positive integer"):
            sampler.sample_counts((0.1, 0.1, 0.1, 0.1), n_events,
                                  np.random.default_rng(0))

    def test_bucket_vector_bit_exact(self):
        # the five multinomial weights, formed as np.append of the clipped
        # four and the discarded remainder, then normalized; any other
        # rounding changes every sampled count downstream
        class Recorder:
            def multinomial(self, n, pvals):
                self.pvals = np.array(pvals)
                return np.zeros(5, dtype=np.int64)

        rng = np.random.default_rng(19)
        for k in range(2000):
            p = rng.dirichlet(np.ones(5))[:4] if k % 2 else rng.uniform(0, 0.25, 4)
            p[rng.uniform(size=4) < 0.2] = -1e-13 if k % 3 else 0.0
            clipped = np.clip(p, 0.0, None)
            expected = np.append(clipped, max(1.0 - clipped.sum(), 0.0))
            expected /= expected.sum()
            rec = Recorder()
            sampler.sample_counts(p, 100.0, rec)
            assert rec.pvals.tobytes() == expected.tobytes()

    def test_chi_square_goodness_of_fit(self):
        # empirical frequencies match probabilities for nearly all seeds
        p = np.array([0.05, 0.02, 0.03, 0.01])
        buckets = np.append(p, 1.0 - p.sum())
        failures = 0
        n_seeds = 200
        for seed in range(n_seeds):
            rec = sampler.sample_counts(p, 1e6, np.random.default_rng(seed))
            observed = np.append(rec, 1e6 - rec.sum())
            _, pvalue = chisquare(observed, buckets * 1e6)
            if pvalue < 0.01:
                failures += 1
        assert failures <= 8  # 99% pass rate with binomial slack


class TestHom:
    @staticmethod
    def cnot_chip_unitary():
        chip = optics.ChipParameters.ideal().with_phases(optics.IDENTITY_GATE_PHASES)
        return optics.build_chip_unitary(chip)

    def test_full_dip(self):
        u = self.cnot_chip_unitary()
        curve = sampler.hom_curve(u, [0.0, 1.0])
        assert curve[1] < 1e-12
        assert abs(sampler.hom_visibility(curve) - 1.0) < 1e-12

    def test_visibility_equals_x_squared(self):
        u = self.cnot_chip_unitary()
        xs = np.linspace(0.0, 1.0, 101)
        curve = sampler.hom_curve(u, xs)
        p0 = curve[0]
        for x, p in zip(xs, curve):
            assert abs((p0 - p) / p0 - x * x) < 1e-9

    def test_monotone_in_x_squared(self):
        u = self.cnot_chip_unitary()
        xs = np.linspace(0.0, 1.0, 50)
        curve = sampler.hom_curve(u, xs)
        assert np.all(np.diff(curve) < 0)

    def test_reference_source_visibility(self):
        u = self.cnot_chip_unitary()
        x = np.sqrt(0.957)
        curve = sampler.hom_curve(u, [0.0, x])
        assert abs(sampler.hom_visibility(curve) - 0.957) < 1e-9
