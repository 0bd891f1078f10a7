import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualrail import cli, optics, sampler, tomography as tomo
from dualrail.errors import DegenerateDataError

from test_optics import random_unitary


def random_chi_unitary(rng):
    return tomo.chi_from_unitary(random_unitary(4, rng))


def frank_wolfe_gap(dataset, chi):
    """<G, chi> - lambda_min(G) for the cost sum_j (P_j - q_j)^2, where
    G = 2 sum_j r_j u_j u_j^dag is its gradient: the cost of chi is at most
    this far above the least cost over {chi >= 0, Tr chi = 1}.

    Built from the definitions, one design row at a time: P_j =
    <tau|E(|prep><prep|)|tau> = u_j^dag chi u_j with u_jm =
    conj(<tau|E_m|prep>), and q_j the counts over their configuration total.
    """
    grad = np.zeros((16, 16), dtype=complex)
    dot = 0.0
    for label, counts in dataset.records:
        prep, taus = tomo.config_states(label)
        for tau, count in zip(taus, counts):
            u = np.array([np.vdot(tau, op @ prep) for op in tomo.PAULI_OPS]).conj()
            p = np.real(np.vdot(u, chi @ u))
            r = p - count / sum(counts)
            grad += 2.0 * r * np.outer(u, u.conj())
            dot += 2.0 * r * p
    return dot - np.linalg.eigvalsh(grad)[0]


def check_certificate(dataset):
    """Fit `dataset` and check the fit against its certificate."""
    result = tomo.mle_reconstruct(dataset)
    tomo.check_chi(result.chi)
    gap = frank_wolfe_gap(dataset, result.chi)
    assert result.converged
    assert result.n_iterations <= 30
    assert gap <= 1e-10
    assert abs(result.gap - gap) < 1e-12
    u_rows = tomo._design_rows(dataset.labels())
    q = tomo._measured_probabilities(dataset, None)
    start, _ = tomo._start_and_factor(u_rows, q)
    assert result.cost <= np.sum((tomo._predicted(u_rows, start) - q) ** 2)
    return result


ALL_LABELS = ["".join(t) for t in itertools.product("HVDARL", "HVDARL", "hdr", "hdr")]


def design_rows_oracle(labels):
    """Transfer rows from the per-label states of `config_states`."""
    states = [tomo.config_states(label) for label in labels]
    preps = np.repeat([prep for prep, _ in states], 4, axis=0)
    return tomo._transfer_rows(preps, np.array([tau for _, four in states for tau in four]))


def dense_newton_oracle(u_rows, frame, trace_resid, rhs):
    """(dx, dnu) of (2 D_F^T D_F + I) dx - dnu a = rhs, a . dx = trace_resid,
    from the design D_F = `_design(u_rows @ conj(F))` in the frame and the
    trace row a = coords(F^H F), as one 257 x 257 LU solve.

    Near the cone's boundary that system has a condition number of about
    1e12 and the LU solve alone keeps only about five digits, so the
    solution is refined with its residual taken in long double.
    """
    design = tomo._design(u_rows @ frame.conj())
    a = tomo._coords(frame.conj().T @ frame)
    kkt = np.block([[2.0 * design.T @ design + np.eye(256), a[:, None]],
                    [a[None, :], np.zeros((1, 1))]])
    b = np.append(rhs, trace_resid)
    sol = np.linalg.solve(kkt, b)
    long_d, long_a, long_b = (x.astype(np.longdouble) for x in (design, a, b))
    for _ in range(3):
        x = sol.astype(np.longdouble)
        dx, s = x[:256], x[256]
        residual = long_b - np.append(dx + 2.0 * long_d.T @ (long_d @ dx) + s * long_a,
                                      long_a @ dx)
        sol = sol + np.linalg.solve(kkt, residual.astype(float))
    return sol[:256], -sol[256]


class TestIdealCnotChi:
    def test_trace_one(self):
        chi = tomo.ideal_cnot_chi()
        assert abs(np.trace(chi) - 1.0) < 1e-12

    def test_support_and_signs(self):
        # independent oracle: project CNOT onto the Pauli strings by trace
        chi = tomo.ideal_cnot_chi()
        coeffs = {}
        for label, op in zip(tomo.PAULI_LABELS, tomo.PAULI_OPS):
            coeffs[label] = np.trace(op.conj().T @ tomo.CNOT) / 4.0
        expected_support = {"II": 0.5, "IX": 0.5, "ZI": 0.5, "ZX": -0.5}
        for label, value in coeffs.items():
            if label in expected_support:
                assert abs(value - expected_support[label]) < 1e-12
            else:
                assert abs(value) < 1e-12
        idx = {label: i for i, label in enumerate(tomo.PAULI_LABELS)}
        for a, va in expected_support.items():
            for b, vb in expected_support.items():
                assert abs(chi[idx[a], idx[b]] - va * np.conj(vb)) < 1e-12
        # every entry on the support has magnitude 1/4
        support = [idx[l] for l in expected_support]
        assert np.allclose(np.abs(chi[np.ix_(support, support)]), 0.25)

    def test_truth_table_via_process_apply(self):
        chi = tomo.ideal_cnot_chi()
        table = {0: 0, 1: 1, 2: 3, 3: 2}
        for i, j in table.items():
            rho = np.zeros((4, 4), dtype=complex)
            rho[i, i] = 1.0
            out = tomo.process_apply(chi, rho)
            assert abs(out[j, j] - 1.0) < 1e-12

    def test_passes_physicality_checks(self):
        tomo.check_chi(tomo.ideal_cnot_chi())

    @pytest.mark.parametrize("chi, message", [
        (np.eye(4) / 4.0, r"16 x 16, got shape \(4, 4\)"),
        (np.full((16, 16), np.nan), "non-finite"),
        (np.where(np.eye(16) > 0, np.inf, 0.0), "non-finite"),
    ], ids=["4x4", "nan", "inf"])
    def test_check_chi_rejects_shape_and_non_finite(self, chi, message):
        with pytest.raises(ValueError, match=message):
            tomo.check_chi(chi)


class TestProcessApply:
    def test_identity_process(self):
        chi = np.zeros((16, 16), dtype=complex)
        chi[0, 0] = 1.0
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = np.outer(psi, psi.conj())
        rho /= np.trace(rho)
        assert np.allclose(tomo.process_apply(chi, rho), rho)

    def test_depolarizing(self):
        chi = np.eye(16, dtype=complex) / 16.0
        rng = np.random.default_rng(5)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = np.outer(psi, psi.conj())
        rho /= np.trace(rho)
        assert np.allclose(tomo.process_apply(chi, rho), np.eye(4) / 4.0,
                           atol=1e-12)

    def test_matches_conjugation_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            v = random_unitary(4, rng)
            chi = tomo.chi_from_unitary(v)
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            rho = np.outer(psi, psi.conj())
            rho /= np.trace(rho)
            assert np.allclose(tomo.process_apply(chi, rho), v @ rho @ v.conj().T,
                               atol=1e-10)


class TestPredictProbability:
    def test_identity_limits(self):
        chi = np.zeros((16, 16), dtype=complex)
        chi[0, 0] = 1.0
        e0 = np.array([1, 0, 0, 0], dtype=complex)
        e1 = np.array([0, 1, 0, 0], dtype=complex)
        assert abs(tomo.predict_probability(chi, e0, e0) - 1.0) < 1e-12
        assert tomo.predict_probability(chi, e0, e1) < 1e-12

    def test_cnot_truth(self):
        chi = tomo.ideal_cnot_chi()
        prep = np.array([0, 0, 1, 0], dtype=complex)   # |10>
        proj = np.array([0, 0, 0, 1], dtype=complex)   # |11>
        assert abs(tomo.predict_probability(chi, prep, proj) - 1.0) < 1e-12

    def test_completeness_for_trace_preserving(self):
        rng = np.random.default_rng(17)
        gamma = 0.35
        k0 = np.kron(np.diag([1.0, np.sqrt(1 - gamma)]), np.eye(2))
        k1 = np.kron(np.array([[0, np.sqrt(gamma)], [0, 0]]), np.eye(2))
        candidates = [
            random_chi_unitary(rng),
            0.6 * random_chi_unitary(rng) + 0.4 * random_chi_unitary(rng),
            tomo.chi_from_kraus([k0, k1]),
        ]
        basis = [np.eye(4, dtype=complex)[:, i] for i in range(4)]
        for chi in candidates:
            for _ in range(10):
                psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                psi /= np.linalg.norm(psi)
                total = sum(tomo.predict_probability(chi, psi, b) for b in basis)
                assert abs(total - 1.0) < 1e-9


class TestCodebook:
    def test_reference_labels(self):
        labels = tomo.reference_config_labels()
        assert len(labels) == 64
        assert labels[0] == "HHhh"
        assert labels[-1] == "LLrd"

    def test_malformed_labels_rejected(self):
        for bad in ("HH", "HHxh", "hhHH", "HHHH", "Q?hh"):
            with pytest.raises(ValueError):
                tomo.parse_config_label(bad)

    def test_ideal_chip_reproduces_cnot_statistics(self):
        # the keystone consistency: simulated coincidence probabilities for
        # every reference configuration match (1/9) |<tau| CNOT |psi>|^2
        # under the codebook interpretation
        chip = optics.ChipParameters.ideal()
        chi = tomo.ideal_cnot_chi()
        for label in tomo.reference_config_labels():
            p_sim = tomo.simulate_config_probabilities(chip, label, x=1.0)
            prep, taus = tomo.config_states(label)
            p_ref = np.array([
                tomo.predict_probability(chi, prep, tau) for tau in taus
            ]) / 9.0
            assert np.max(np.abs(p_sim - p_ref)) < 1e-12


class TestEfficiencies:
    def test_equal_counts(self):
        recs = [tuple(2000 if i == k else 5 for i in range(4))
                for k in range(4)]
        assert np.allclose(tomo.estimate_efficiencies(recs), 1.0)

    def test_inverse_proportionality(self):
        designated = (2000, 1000, 2000, 2000)
        recs = [tuple(designated[k] if i == k else 0 for i in range(4))
                for k in range(4)]
        eff = tomo.estimate_efficiencies(recs)
        assert np.allclose(eff, (1.0, 2.0, 1.0, 1.0))

    def test_zero_designated_count(self):
        recs = [(0, 1, 1, 1), (1, 2, 1, 1),
                (1, 1, 2, 1), (1, 1, 1, 2)]
        with pytest.raises(DegenerateDataError):
            tomo.estimate_efficiencies(recs)

    def test_recovers_injected_efficiencies(self):
        chip = optics.ChipParameters.ideal()
        eta = np.array([1.0, 0.5, 0.8, 0.9])
        rng = np.random.default_rng(23)
        records = []
        for phases in tomo.efficiency_routing_phases():
            u = optics.build_chip_unitary(chip.with_phases(phases))
            probs = sampler.coincidence_probabilities(u, 1.0) * eta
            records.append(sampler.sample_counts(probs, 9.0 * 200000, rng))
        eff = tomo.estimate_efficiencies(records)
        expected = (1.0 / eta) / (1.0 / eta).min()
        assert np.max(np.abs(eff - expected) / expected) < 0.02


class TestReconstruction:
    def test_high_shot_chip_closed_loop(self):
        dataset = tomo.run_qpt_simulation(
            optics.ChipParameters.ideal(), x=1.0, shots_per_config=100000,
            seed=31,
        )
        result = tomo.mle_reconstruct(dataset)
        fid = optics.fidelity(result.chi, tomo.ideal_cnot_chi())
        assert fid > 0.999
        tomo.check_chi(result.chi)

    def test_random_unitary_processes_recovered(self):
        rng = np.random.default_rng(37)
        for k in range(10):
            chi_true = random_chi_unitary(rng)
            dataset = tomo.simulate_dataset_from_chi(
                chi_true, shots_per_config=100000, seed=100 + k)
            result = tomo.mle_reconstruct(dataset)
            assert optics.fidelity(result.chi, chi_true) > 0.995

    def test_random_cp_map_recovered(self):
        rng = np.random.default_rng(41)
        chi_true = 0.7 * random_chi_unitary(rng) + 0.3 * random_chi_unitary(rng)
        dataset = tomo.simulate_dataset_from_chi(
            chi_true, shots_per_config=100000, seed=77)
        result = tomo.mle_reconstruct(dataset)
        assert optics.fidelity(result.chi, chi_true) > 0.99

    def test_certified_on_million_shot_chip_data(self):
        # criterion 2's high-count dataset, where a fit that stops early
        # shows: the optimum is about 1.02618e-05
        dataset = tomo.run_qpt_simulation(
            optics.ChipParameters.ideal(), x=1.0, shots_per_config=10 ** 6,
            seed=3)
        result = check_certificate(dataset)
        assert result.cost <= 1.02618e-05

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_unitaries=st.integers(1, 4),
           shots=st.sampled_from([200, 2000, 5000, 100000]))
    def test_certified_on_unitary_mixtures(self, seed, n_unitaries, shots):
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(n_unitaries))
        chi_true = sum(w * random_chi_unitary(rng) for w in weights)
        check_certificate(tomo.simulate_dataset_from_chi(
            chi_true, shots_per_config=shots, seed=seed))

    @pytest.mark.parametrize("rank", [2, 3])
    def test_certified_on_kraus_maps(self, rank):
        # trace-preserving maps of Kraus rank 2 and 3, the blocks of a
        # random isometry: rank-deficient optima like the chip's
        isometry = random_unitary(4 * rank, np.random.default_rng(60 + rank))[:, :4]
        chi_true = tomo.chi_from_kraus(np.split(isometry, rank))
        tomo.check_chi(chi_true)
        check_certificate(tomo.simulate_dataset_from_chi(
            chi_true, shots_per_config=5000, seed=rank))

    def test_coverage_error(self):
        dataset = tomo.load_reference_counts()
        small = tomo.QptDataset(dataset.records[:40])
        with pytest.raises(ValueError):
            tomo.mle_reconstruct(small)

    def test_duplicate_label_rejected(self):
        records = list(tomo.load_reference_counts().records)
        records[5] = records[4]
        with pytest.raises(ValueError, match=repr(records[4][0])):
            tomo.QptDataset(tuple(records))

    def test_zero_count_configuration_named(self, tmp_path, capsys):
        records = list(tomo.load_reference_counts().records)
        for k in (5, 9):
            records[k] = (records[k][0], (0, 0, 0, 0))
        dataset = tomo.QptDataset(tuple(records))
        message = f"configuration {records[5][0]} has zero counts"
        with pytest.raises(DegenerateDataError, match=message):
            tomo.mle_reconstruct(dataset)
        path = tmp_path / "zeros.csv"
        path.write_text(tomo.dataset_to_csv(dataset))
        assert cli.main(["qpt", "--ingest", str(path),
                         "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_efficiencies_rejected(self, bad):
        with pytest.raises(ValueError, match="finite efficiencies"):
            tomo.mle_reconstruct(tomo.load_reference_counts(),
                                 efficiencies=(1.0, bad, 1.0, 1.0))

    def test_measured_probabilities_match_row_loop(self):
        # one (N, 4) expression, rounding as the per-configuration loop did
        dataset = tomo.run_qpt_simulation(optics.ChipParameters.ideal(),
                                          shots_per_config=300, seed=5)
        for eff in (np.ones(4), np.random.default_rng(5).uniform(0.3, 1.0, 4)):
            rows = [np.array(c, dtype=float) * eff for _, c in dataset.records]
            expected = np.concatenate([w / w.sum() for w in rows])
            got = tomo._measured_probabilities(dataset, eff)
            assert got.tobytes() == expected.tobytes()

    def test_efficiency_weighting_changes_probabilities(self):
        dataset = tomo.load_reference_counts()
        q1 = tomo._measured_probabilities(dataset, None)
        q2 = tomo._measured_probabilities(dataset, (1.0, 2.0, 1.0, 1.0))
        assert not np.allclose(q1, q2)
        assert np.allclose(q2.reshape(-1, 4).sum(axis=1), 1.0)


class TestSimulationAndIo:
    def test_simulation_deterministic(self):
        chip = optics.ChipParameters.ideal()
        a = tomo.run_qpt_simulation(chip, shots_per_config=500, seed=3)
        b = tomo.run_qpt_simulation(chip, shots_per_config=500, seed=3)
        assert tomo.dataset_to_csv(a) == tomo.dataset_to_csv(b)
        c = tomo.run_qpt_simulation(chip, shots_per_config=500, seed=4)
        assert tomo.dataset_to_csv(a) != tomo.dataset_to_csv(c)

    def test_simulation_counts_near_expected_scale(self):
        dataset = tomo.run_qpt_simulation(
            optics.ChipParameters.ideal(), shots_per_config=2000, seed=9)
        totals = [sum(c) for _, c in dataset.records]
        assert 1700 < np.mean(totals) < 2300

    @pytest.mark.parametrize("shots", [0, -5, 2.5, np.nan, np.inf, True])
    def test_chi_simulation_needs_positive_integer_shots(self, shots):
        with pytest.raises(ValueError, match="shots_per_config"):
            tomo.simulate_dataset_from_chi(tomo.ideal_cnot_chi(),
                                           shots_per_config=shots)

    @pytest.mark.parametrize("shots", [0, -5, 2.5, np.nan, np.inf, True, "10"])
    def test_chip_simulation_needs_positive_integer_shots(self, shots):
        with pytest.raises(ValueError, match="shots_per_config"):
            tomo.run_qpt_simulation(optics.ChipParameters.ideal(),
                                    shots_per_config=shots)

    @pytest.mark.parametrize("chi, message", [
        (np.zeros((16, 16)), "unit trace"),
        (-tomo.ideal_cnot_chi(), "positive semidefinite"),
        (np.eye(4) / 4.0, "16 x 16"),
        (np.full((16, 16), np.nan), "non-finite"),
    ], ids=["zero", "minus_cnot", "4x4", "nan"])
    def test_chi_simulation_rejects_unphysical_chi(self, chi, message):
        with pytest.raises(ValueError, match=message):
            tomo.simulate_dataset_from_chi(chi)

    def test_chi_simulation_names_configuration_with_zero_total(self):
        # a physical chi that is not trace preserving: its one Kraus operator
        # 2|00><00| sends every preparation orthogonal to |00> to zero, the
        # first of them HHhh (|10> in the codebook's qubit-1 frame)
        kraus = np.zeros((4, 4), dtype=complex)
        kraus[0, 0] = 2.0
        chi = tomo.chi_from_kraus([kraus])
        tomo.check_chi(chi)
        with pytest.raises(DegenerateDataError, match="configuration HHhh"):
            tomo.simulate_dataset_from_chi(chi)
        with pytest.raises(DegenerateDataError, match="configuration HHhd"):
            tomo.simulate_dataset_from_chi(chi, labels=["VHhh", "HHhd", "HHhh"])

    def test_chi_simulation_draws_exact_totals(self):
        dataset = tomo.simulate_dataset_from_chi(tomo.ideal_cnot_chi(),
                                                 shots_per_config=37.0, seed=2)
        assert dataset == tomo.simulate_dataset_from_chi(
            tomo.ideal_cnot_chi(), shots_per_config=37, seed=2)
        assert {sum(c) for _, c in dataset.records} == {37}

    def test_csv_round_trip(self):
        dataset = tomo.load_reference_counts()
        text = tomo.dataset_to_csv(dataset)
        again = tomo.dataset_from_csv(text)
        assert again == dataset

    def test_bundled_totals_are_four_count_sums(self):
        # the published `sum` column is kept verbatim but never read: 28 of
        # its 64 entries differ from C1+C2+C3+C4, the totals the loader uses
        from dualrail import data
        rows = [line.split(",") for line in data.qpt_counts_text().splitlines()
                if line and not line.startswith(("#", "config"))]
        dataset = tomo.load_reference_counts()
        assert [row[0] for row in rows] == dataset.labels()
        four_count_sums = [sum(int(c) for c in row[1:5]) for row in rows]
        assert [sum(c) for _, c in dataset.records] == four_count_sums
        published = [int(row[5]) for row in rows]
        assert sum(a != b for a, b in zip(published, four_count_sums)) == 28

    @pytest.mark.parametrize("counts", [
        (1, 2, 3), (1, -1, 3, 4), (1.5, 2, 3, 4), (1, np.nan, 3, 4),
        (1, 2, np.inf, 4)], ids=["length", "negative", "fraction", "nan", "inf"])
    def test_counts_must_be_four_nonnegative_integers(self, counts):
        with pytest.raises(ValueError, match="configuration HVdr: counts must"):
            tomo.QptDataset((("HHhh", (1, 2, 3, 4)), ("HVdr", counts)))

    def test_integral_counts_stored_as_ints(self):
        dataset = tomo.QptDataset((("HHhh", np.array([2, 0, 7, 1])),
                                   ("HVdr", (3.0, 1, 0, 2))))
        assert dataset.records == (("HHhh", (2, 0, 7, 1)), ("HVdr", (3, 1, 0, 2)))
        assert all(type(c) is int for _, counts in dataset.records for c in counts)

    def test_csv_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            tomo.dataset_from_csv("config,C1,C2,C3,C4,sum\nHHhh,1,2,3,4,10\nVVhh,a,2,3,4,9\n")

    def test_chi_export_shapes(self):
        real_csv, imag_csv, eig_csv = tomo.export_chi_csv(tomo.ideal_cnot_chi())
        assert real_csv.count("\n") == 17
        assert imag_csv.count("\n") == 17
        assert eig_csv.count("\n") == 17
        assert eig_csv.splitlines()[1].startswith("0,1")

    def test_x_zero_degrades_fidelity(self):
        dataset = tomo.run_qpt_simulation(
            optics.ChipParameters.ideal(), x=0.0, shots_per_config=20000,
            seed=13)
        result = tomo.mle_reconstruct(dataset)
        fid = optics.fidelity(result.chi, tomo.ideal_cnot_chi())
        assert fid < 0.9

    def test_defect_sweeps_degrade_fidelity(self):
        # splitting-ratio error, static phase, and systematic set-phase bias
        # each pull the reconstruction below the ideal baseline
        ideal = optics.ChipParameters.ideal()
        shots = 20000

        def fidelity_for(chip, phase_bias=0.0, seed=0):
            ds = tomo.run_qpt_simulation(chip, shots_per_config=shots,
                                         seed=seed, phase_bias=phase_bias)
            res = tomo.mle_reconstruct(ds)
            return optics.fidelity(res.chi, tomo.ideal_cnot_chi())

        baseline = fidelity_for(ideal, seed=50)
        assert baseline > 0.998
        assert fidelity_for(ideal.with_ratio(5, 0.40), seed=51) < baseline - 0.005
        assert fidelity_for(ideal.with_ratio(9, 0.62), seed=52) < baseline - 0.005
        assert fidelity_for(ideal.with_static_phases(0.4, 0.0), seed=53) \
            < baseline - 0.005
        assert fidelity_for(ideal, phase_bias=0.15, seed=54) < baseline - 0.005


class TestNewtonSolve:
    """The fit's Newton system, solved in the span of the design."""

    def test_design_rank_and_factor(self):
        u_rows = tomo._design_rows(tomo.reference_config_labels())
        design = tomo._design(u_rows)
        _, factor = tomo._start_and_factor(u_rows, np.full(256, 0.25))
        assert factor.shape == (114, 256)
        assert np.allclose(factor.T @ factor, design.T @ design, rtol=0, atol=1e-12)

    def test_reduced_direction_matches_dense_kkt(self, monkeypatch):
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("the oracle's refinement needs an extended long double")
        dataset = tomo.load_reference_counts()
        u_rows = tomo._design_rows(dataset.labels())
        solves = []
        reduced = tomo._newton_solver

        def recording(frame, wide, trace_resid, rhs):
            first, solve = reduced(frame, wide, trace_resid, rhs)
            solves.append((frame, trace_resid, rhs, first))

            def recorded(other):
                solves.append((frame, trace_resid, other, solve(other)))
                return solves[-1][-1]
            return first, recorded

        monkeypatch.setattr(tomo, "_newton_solver", recording)
        result = tomo.mle_reconstruct(dataset)
        assert len(solves) == 2 * result.n_iterations == 26
        for frame, trace_resid, rhs, (dx, dnu) in solves:
            want_dx, want_dnu = dense_newton_oracle(u_rows, frame, trace_resid, rhs)
            want = np.append(want_dx, want_dnu)
            got = np.append(tomo._coords(dx), dnu)
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_bundled_iterations(self):
        assert tomo.mle_reconstruct(tomo.load_reference_counts()).n_iterations == 13

    @pytest.mark.parametrize("seed", range(8))
    def test_simulated_chip_iterations(self, tmp_path, seed):
        # without its refinement step the reduced solve stalls on such chips
        out = tmp_path / "qpt"
        assert cli.main(["qpt", "--simulate", "--r5", f"{0.45 + 0.01 * seed}",
                         "--x", "0.97", "--seed", str(seed), "--out", str(out)]) == 0
        summary = dict(line.split(" = ") for line in
                       (out / "summary.txt").read_text().splitlines()
                       if " = " in line and not line.startswith("#"))
        assert summary["converged"] == "True"
        assert int(summary["newton_steps"]) <= 15

    def test_full_rank_design(self):
        # 16 preparations (H, V, D, R per qubit) and 9 bases: the design has
        # rank 256, so the reduced system is the whole space
        labels = ["".join(t) for t in itertools.product("HVDR", "HVDR", "hdr", "hdr")]
        u_rows = tomo._design_rows(labels)
        _, factor = tomo._start_and_factor(u_rows, np.full(len(u_rows), 0.25))
        assert factor.shape == (256, 256)
        truth = 0.8 * tomo.ideal_cnot_chi() + 0.2 * np.eye(16) / 16.0
        dataset = tomo.simulate_dataset_from_chi(truth, 10 ** 7, seed=9, labels=labels)
        result = tomo.mle_reconstruct(dataset)
        assert result.converged
        assert result.n_iterations == 6
        assert round(float(np.real(np.trace(result.chi @ tomo.ideal_cnot_chi()))), 6) \
            == 0.812493

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(labels=st.lists(st.sampled_from(ALL_LABELS), min_size=1, max_size=80,
                           unique=True))
    def test_design_rows_match_per_label_states(self, labels):
        assert np.array_equal(tomo._design_rows(labels), design_rows_oracle(labels))


class TestChiFidelity:
    def test_depolarizing_overlap(self):
        chi_cnot = tomo.ideal_cnot_chi()
        chi_depol = np.eye(16, dtype=complex) / 16.0
        # oracle: |Tr(chi_c chi_d)|^2 / (Tr chi_c^2 * Tr chi_d^2) = 1/16
        num = abs(np.trace(chi_cnot.conj().T @ chi_depol)) ** 2
        den = (np.trace(chi_cnot.conj().T @ chi_cnot).real
               * np.trace(chi_depol.conj().T @ chi_depol).real)
        assert abs(num / den - 1.0 / 16.0) < 1e-12
        assert abs(optics.fidelity(chi_cnot, chi_depol) - 1.0 / 16.0) < 1e-12

    def test_symmetry_and_unity(self):
        rng = np.random.default_rng(91)
        a = random_chi_unitary(rng)
        b = random_chi_unitary(rng)
        assert abs(optics.fidelity(a, b) - optics.fidelity(b, a)) < 1e-12
        assert abs(optics.fidelity(a, a) - 1.0) < 1e-12


class TestProperties:
    """Hypothesis properties of the tomography layer (derandomized)."""

    SETTINGS = settings(derandomize=True, database=None, deadline=None,
                        max_examples=60)
    seeds = st.integers(0, 2 ** 32 - 1)
    labels = st.tuples(st.sampled_from("HVDARL"), st.sampled_from("HVDARL"),
                       st.sampled_from("hdr"), st.sampled_from("hdr")).map("".join)

    @SETTINGS
    @given(seed=seeds)
    def test_unitary_chi_is_physical(self, seed):
        tomo.check_chi(random_chi_unitary(np.random.default_rng(seed)))

    @SETTINGS
    @given(seed=seeds, label=labels, outcome=st.integers(0, 3))
    def test_predicted_probability_is_transition_probability(self, seed, label,
                                                             outcome):
        v = random_unitary(4, np.random.default_rng(seed))
        prep, taus = tomo.config_states(label)
        tau = taus[outcome]
        p = tomo.predict_probability(tomo.chi_from_unitary(v), prep, tau)
        assert abs(p - abs(np.vdot(tau, v @ prep)) ** 2) < 1e-12

    @SETTINGS
    @given(seed=seeds, shots=st.integers(1, 5000),
           ratio_sigma=st.floats(0.0, 0.05),
           picks=st.lists(st.integers(0, 63), min_size=1, max_size=64, unique=True))
    def test_dataset_csv_round_trip(self, seed, shots, ratio_sigma, picks):
        chip = optics.ChipParameters.ideal().perturbed(
            ratio_sigma, np.random.default_rng(seed))
        labels = [tomo.reference_config_labels()[i] for i in picks]
        ds = tomo.run_qpt_simulation(chip, x=0.9, shots_per_config=shots,
                                     seed=seed, labels=labels)
        back = tomo.dataset_from_csv(tomo.dataset_to_csv(ds))
        assert back.labels() == labels
        assert [c for _, c in back.records] == [c for _, c in ds.records]
