import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualrail import optics
from dualrail.errors import ConvergenceError


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def characterize_powers(seed, ratio_sigma):
    """The raw powers and true moduli that `characterize --seed` draws."""
    rng = np.random.default_rng(seed)
    chip = optics.ChipParameters.ideal()
    if ratio_sigma > 0.0:
        chip = chip.perturbed(ratio_sigma, rng)
    moduli = np.abs(optics.build_chip_unitary(chip)) ** 2
    gains_in = rng.uniform(0.5, 1.5, 6)
    gains_out = rng.uniform(0.5, 1.5, 6)
    return moduli * np.outer(gains_out, gains_in), moduli


class TestComponentMatrices:
    def test_dc_balanced(self):
        m = optics.dc_matrix(0.5)
        s = np.sqrt(0.5)
        assert np.allclose(m, [[s, 1j * s], [1j * s, s]])

    def test_dc_transparent(self):
        assert np.allclose(optics.dc_matrix(1.0), np.eye(2))

    def test_dc_one_third(self):
        m = optics.dc_matrix(1.0 / 3.0)
        assert abs(m[0, 0] - 0.5774) < 5e-5
        assert abs(m[0, 1] - 0.8165j) < 5e-5

    def test_dc_out_of_range(self):
        with pytest.raises(ValueError):
            optics.dc_matrix(1.2)
        with pytest.raises(ValueError):
            optics.dc_matrix(-0.1)

    def test_dc_unitary(self):
        for r in np.linspace(0.0, 1.0, 11):
            assert optics.is_unitary(optics.dc_matrix(r))

    def test_phase_matrix(self):
        assert np.allclose(optics.phase_matrix(0.0), np.eye(2))
        assert np.allclose(optics.phase_matrix(np.pi), np.diag([-1, 1]))
        assert np.allclose(optics.phase_matrix(np.pi / 2), np.diag([1j, 1]))

    def test_mzi_cross_at_zero_phase(self):
        # balanced couplers, no internal phase: all power to the cross port
        m = optics.mzi_matrix(0.5, 0.5, 0.0)
        expected = optics.dc_matrix(0.5) @ optics.phase_matrix(0.0) @ optics.dc_matrix(0.5)
        assert np.allclose(m, expected)
        assert abs(m[0, 0]) < 1e-12
        assert abs(abs(m[1, 0]) - 1.0) < 1e-12

    def test_mzi_bar_at_pi(self):
        m = optics.mzi_matrix(0.5, 0.5, np.pi)
        assert abs(abs(m[0, 0]) - 1.0) < 1e-12
        assert abs(m[1, 0]) < 1e-12

    def test_mzi_transparent_couplers(self):
        for phi in (0.3, 1.0, 4.2):
            assert np.allclose(optics.mzi_matrix(1.0, 1.0, phi),
                               optics.phase_matrix(phi))


class TestChipParameters:
    def test_ideal_values(self):
        p = optics.ChipParameters.ideal()
        for j, r in enumerate(p.splitting_ratios, start=1):
            if j in (6, 7, 8):
                assert abs(r - 1.0 / 3.0) < 1e-15
            else:
                assert r == 0.5
        assert p.static_phases == (0.0, 0.0)

    def test_ratio_range_enforced(self):
        with pytest.raises(ValueError):
            optics.ChipParameters((1.5,) + (0.5,) * 12, (0.0,) * 8, (0.0, 0.0))

    @pytest.mark.parametrize("index, name", [(0, "phi1"), (7, "phi8"),
                                             (8, "theta1"), (9, "theta2")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phase_named(self, index, name, bad):
        phases = [0.0] * 10
        phases[index] = bad
        with pytest.raises(ValueError, match=f"^{name}={bad} is not finite$"):
            optics.ChipParameters((0.5,) * 13, phases[:8], phases[8:])

    def test_field_counts_enforced(self):
        with pytest.raises(ValueError):
            optics.ChipParameters((0.5,) * 12, (0.0,) * 8, (0.0, 0.0))
        with pytest.raises(ValueError):
            optics.ChipParameters((0.5,) * 13, (0.0,) * 7, (0.0, 0.0))

    def test_config_round_trip(self):
        rng = np.random.default_rng(3)
        p = optics.ChipParameters(
            tuple(rng.uniform(0, 1, 13)),
            tuple(rng.uniform(0, 2 * np.pi, 8)),
            (0.1, -0.2),
        )
        text = optics.save_chip_parameters(p)
        q = optics.load_chip_parameters(text)
        assert q == p

    def test_config_missing_key(self):
        with pytest.raises(ValueError):
            optics.load_chip_parameters("R1 = 0.5\n")

    # an unknown key, a key given twice and a value that is not a number
    # each name the key and the line
    @pytest.mark.parametrize("extra, message", [
        ("R14 = 0.3", "line 24: unknown key 'R14'"),
        ("phi9 = 1", "line 24: unknown key 'phi9'"),
        ("R1 = 0.4", "line 24: 'R1' given again"),
    ])
    def test_config_bad_key(self, extra, message):
        text = optics.save_chip_parameters(optics.ChipParameters.ideal())
        with pytest.raises(ValueError, match=f"^{message}$"):
            optics.load_chip_parameters(text + extra + "\n")

    def test_config_bad_number(self):
        text = optics.save_chip_parameters(optics.ChipParameters.ideal())
        with pytest.raises(ValueError, match="^line 2: 'R2': could not "
                                             "convert string to float: 'x'$"):
            optics.load_chip_parameters(text.replace("R2 = 0.5", "R2 = x"))


class TestDataLines:
    def test_drops_comments_blanks_and_headers(self):
        text = "# title\n\nConfig,C1  \n  a, 1  # note\n#x\nconfig\nb,2"
        assert list(optics.data_lines(text, "config")) == [(4, "a, 1"),
                                                            (7, "b,2")]
        assert list(optics.data_lines(text)) == [
            (3, "Config,C1"), (4, "a, 1"), (6, "config"), (7, "b,2")]


class TestChipUnitary:
    def test_ideal_zero_phase_unitary(self):
        u = optics.build_chip_unitary(optics.ChipParameters.ideal())
        dev = np.max(np.abs(u.conj().T @ u - np.eye(6)))
        assert dev < 1e-12

    def test_random_parameters_unitary(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = optics.ChipParameters(
                tuple(rng.uniform(0, 1, 13)),
                tuple(rng.uniform(0, 2 * np.pi, 8)),
                tuple(rng.uniform(0, 2 * np.pi, 2)),
            )
            u = optics.build_chip_unitary(p)
            assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_phase_row_rejected(self, bad):
        phases = np.zeros((3, 8))
        phases[1, 4] = bad
        with pytest.raises(ValueError, match="tunable phases must be finite"):
            optics.chip_unitaries(optics.ChipParameters.ideal(), phases)

    def test_transparent_couplers_diagonal(self):
        p = optics.ChipParameters((1.0,) * 13, (0.0,) * 8, (0.0, 0.0))
        u = optics.build_chip_unitary(p)
        off = u - np.diag(np.diag(u))
        assert np.max(np.abs(off)) < 1e-12
        assert np.allclose(np.abs(np.diag(u)), 1.0)


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert abs(optics.fidelity(m, m) - 1.0) < 1e-12

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            u = random_unitary(4, rng)
            alpha = rng.uniform(0, 2 * np.pi)
            assert abs(optics.fidelity(u, np.exp(1j * alpha) * u) - 1.0) < 1e-10

    def test_orthogonal_matrices(self):
        eye = np.eye(2)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        assert optics.fidelity(eye, sx) < 1e-15

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = random_unitary(6, rng)
            b = random_unitary(6, rng)
            f_ab = optics.fidelity(a, b)
            f_ba = optics.fidelity(b, a)
            assert abs(f_ab - f_ba) < 1e-12
            assert -1e-12 <= f_ab <= 1.0 + 1e-12

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            optics.fidelity(np.zeros((2, 2)), np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            optics.fidelity(np.eye(2), np.eye(3))

    def test_vectors_rejected(self):
        with pytest.raises(ValueError):
            optics.fidelity(np.ones(2), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_rejected(self, bad):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        with pytest.raises(ValueError):
            optics.fidelity(m, np.eye(2))
        with pytest.raises(ValueError):
            optics.fidelity(np.eye(2), m)

    @pytest.mark.parametrize("n", [2, 4, 6, 16])
    def test_stack_equals_pairs_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((3, 40, n, n)) + 1j * rng.standard_normal((3, 40, n, n))
        b = np.array([[random_unitary(n, rng) for _ in range(40)] for _ in range(3)])
        stacked = optics.fidelity(a, b)
        assert isinstance(stacked, np.ndarray) and stacked.shape == (3, 40)
        pairs = [[optics.fidelity(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        assert all(type(f) is float for row in pairs for f in row)
        assert np.array_equal(stacked, pairs)

    def test_stack_with_one_zero_matrix_rejected(self):
        stack = np.array([np.eye(2), np.zeros((2, 2)), np.eye(2)])
        with pytest.raises(ValueError):
            optics.fidelity(stack, np.array([np.eye(2)] * 3))


class TestSinkhorn:
    def test_fixed_point(self):
        m = np.full((6, 6), 1.0 / 6.0)
        out = optics.sinkhorn_scale(m)
        assert np.allclose(out, m, atol=1e-12)

    def test_unitary_moduli_unchanged(self):
        rng = np.random.default_rng(13)
        u = random_unitary(6, rng)
        m = np.abs(u) ** 2
        out = optics.sinkhorn_scale(m)
        assert np.max(np.abs(out - m)) < 1e-8

    def test_rescaled_moduli_recovered(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            u = random_unitary(6, rng)
            m = np.abs(u) ** 2
            scaled = m * np.outer(rng.uniform(0.2, 3.0, 6), rng.uniform(0.2, 3.0, 6))
            out = optics.sinkhorn_scale(scaled)
            assert optics.fidelity(out, m) > 0.999
            assert np.max(np.abs(out - m)) < 1e-6

    def test_row_column_sums(self):
        rng = np.random.default_rng(19)
        m = rng.uniform(0.1, 2.0, (6, 6))
        out = optics.sinkhorn_scale(m)
        assert np.max(np.abs(out.sum(axis=0) - 1.0)) < 1e-8
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-8

    def test_iteration_cap(self):
        m = np.array([[1.0, 1.0], [1e-9, 1.0]])
        with pytest.raises(ConvergenceError) as err:
            optics.sinkhorn_scale(m, tol=1e-10, max_iter=2)
        assert err.value.residual is not None

    def test_stalled_line_search_reported(self, monkeypatch):
        # an ascent direction can never decrease f: the backtracking must end
        # in ConvergenceError rather than loop
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda h, g, rcond: (-lstsq(h, g, rcond=rcond)[0],))
        m = np.array([[1.0, 1.0], [1e-9, 1.0]])
        with pytest.raises(ConvergenceError, match="stalled") as err:
            optics.sinkhorn_scale(m, tol=1e-10)
        assert err.value.residual > 1e-10

    def test_zero_row_rejected(self):
        m = np.ones((3, 3))
        m[0] = 0.0
        with pytest.raises(ValueError):
            optics.sinkhorn_scale(m)

    def test_non_finite_rejected(self):
        m = np.ones((3, 3))
        m[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            optics.sinkhorn_scale(m)

    @pytest.mark.parametrize(
        "seed, ratio_sigma",
        [(seed, 0.02) for seed in range(8)] + [(2, 0.0)],  # roster, ideal chip
    )
    def test_characterize_chips_within_step_budget(self, seed, ratio_sigma):
        # nearly decomposable moduli: Sinkhorn sweeps took up to 179,700 here
        raw, moduli = characterize_powers(seed, ratio_sigma)
        out = optics.sinkhorn_scale(raw, tol=1e-9, max_iter=20)
        assert np.max(np.abs(out - moduli)) < 1e-9

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_scaled_unitary_moduli_property(self, seed):
        rng = np.random.default_rng(seed)
        m = np.abs(random_unitary(6, rng)) ** 2
        outs = []
        for _ in range(2):
            gains = np.outer(rng.uniform(0.2, 3.0, 6), rng.uniform(0.2, 3.0, 6))
            out = optics.sinkhorn_scale(m * gains, tol=1e-10)
            assert np.max(np.abs(out.sum(axis=0) - 1.0)) < 1e-10
            assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-10
            assert np.max(np.abs(out - m)) < 1e-8
            outs.append(out)
        assert np.max(np.abs(outs[0] - outs[1])) < 1e-8

    def test_no_positive_diagonal_rejected(self):
        # rows 2 and 3 both live only in column 1: no scaling exists
        m = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no doubly stochastic scaling"):
                optics.sinkhorn_scale(m)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 6))
    def test_sparse_inputs_scaled_or_rejected(self, seed, n):
        # random supports with gains over seven decades: each input is
        # rejected as unscalable or scaled to tol, without a numpy warning
        rng = np.random.default_rng(seed)
        m = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        m *= np.exp(rng.uniform(-8.0, 8.0, (n, 1)) + rng.uniform(-8.0, 8.0, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = optics.sinkhorn_scale(m, tol=1e-9, max_iter=500)
            except ValueError as exc:
                assert not isinstance(exc, np.linalg.LinAlgError)
                return
        assert np.max(np.abs(out.sum(axis=0) - 1.0)) < 1e-9
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(data=st.data(), n=st.integers(1, 8), density=st.floats(0.0, 1.0))
    def test_positive_diagonal_matches_assignment_oracle(self, data, n, density):
        # the augmenting-path matching finds a positive diagonal exactly when
        # scipy's optimal assignment over the support reaches n entries
        from scipy.optimize import linear_sum_assignment
        cells = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n * n,
                                   max_size=n * n))
        support = np.array(cells).reshape(n, n) < density
        rows, cols = linear_sum_assignment(support, maximize=True)
        assert optics._has_positive_diagonal(support) == bool(np.all(support[rows, cols]))

    def test_support_without_total_support(self):
        # the zero forces the off-diagonal 1 to vanish in the limit, which no
        # finite scaling reaches; the limit is the identity
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = optics.sinkhorn_scale(m)
        assert np.max(np.abs(out - np.eye(2))) < 1e-9


class TestFormatTable:
    # the CSV writers format through `format_table`; each `%` code must
    # print what the per-value f-string it replaced printed, numpy scalar
    # or Python number alike
    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    @given(values=st.lists(st.floats(allow_subnormal=True), max_size=8))
    @example(values=[math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
                     5e-324, -2.5e-310, 2.2250738585072014e-308, 1e16,
                     0.5, 2.5, 1.5e-7, 123456789012.5, 1.7976931348623157e308])
    def test_float_codes_match_f_strings(self, values):
        codes = (".12g", ".10f", ".6g", ".8f", ".6f", ".2e")
        x = np.array(values, dtype=float)
        expected = "v\n" + "".join(
            ",".join(format(v, c) for c in codes) + "\n" for v in x)
        row_format = ",".join("%" + c for c in codes)
        # an array, a list of numpy scalars and a list of Python floats
        for column in (x, list(x), values):
            assert optics.format_table(
                "v", row_format, *[column] * len(codes)) == expected

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(rows=st.lists(st.tuples(st.integers(), st.booleans(),
                                   st.integers(-2 ** 63, 2 ** 63 - 1)),
                         max_size=8))
    def test_int_and_bool_codes_match_f_strings(self, rows):
        ints, flags, int64s = [list(c) for c in zip(*rows)] or [[], [], []]
        int64s = np.array(int64s, dtype=np.int64)
        expected = "a,b,c\n" + "".join(
            f"{a},{b},{c}\n" for a, b, c in zip(ints, flags, int64s))
        for columns in ((ints, flags, int64s), (ints, np.array(flags, bool),
                                                list(int64s))):
            assert optics.format_table("a,b,c", "%d,%s,%d", *columns) == expected

    def test_header_none_and_no_rows(self):
        assert optics.format_table(None, "%d,%d", [1, 2], [3, 4]) == "1,3\n2,4\n"
        assert optics.format_table("a,b", "%d,%d", [], []) == "a,b\n"


class TestPostSelectedTruthTable:
    def test_cnot_maps_with_one_ninth(self):
        # identity single-qubit settings leave the bare CNOT section; the
        # rail-level table pairs (C1 C2) and fixes (C3 C4), each branch 1/9
        from dualrail import sampler
        chip = optics.ChipParameters.ideal().with_phases(optics.IDENTITY_GATE_PHASES)
        u = optics.build_chip_unitary(chip)
        expected_image = {0: 1, 1: 0, 2: 2, 3: 3}
        for k, state_in in enumerate(optics.COINCIDENCE_STATES):
            probs = np.array([
                sampler.prob_indistinguishable(u, state_in, out)
                for out in optics.COINCIDENCE_STATES
            ])
            assert abs(probs.sum() - 1.0 / 9.0) < 1e-10
            assert abs(probs[expected_image[k]] - 1.0 / 9.0) < 1e-10
