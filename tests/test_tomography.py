import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualrail import optics, sampler, tomography as tomo
from dualrail.errors import DegenerateDataError
from dualrail.sampler import CountRecord

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
    for label, record in dataset.records:
        prep, taus = tomo.config_states(label)
        for tau, count in zip(taus, record.counts):
            u = np.array([np.vdot(tau, op @ prep) for op in tomo.PAULI_OPS]).conj()
            p = np.real(np.vdot(u, chi @ u))
            r = p - count / record.total
            grad += 2.0 * r * np.outer(u, u.conj())
            dot += 2.0 * r * p
    return dot - np.linalg.eigvalsh(grad)[0]


def check_certificate(dataset):
    """Fit `dataset` and check the fit against its certificate."""
    result = tomo.mle_reconstruct(dataset)
    tomo.check_chi(result.chi)
    gap = frank_wolfe_gap(dataset, result.chi)
    assert result.converged
    assert gap <= 1e-10
    assert abs(result.gap - gap) < 1e-12
    u_rows = tomo._design_rows(dataset.labels())
    q = tomo._measured_probabilities(dataset, None)
    start = tomo._linear_inversion_start(u_rows, q)
    assert result.cost <= np.sum((tomo._predicted(u_rows, start) - q) ** 2)
    return result


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
        recs = [CountRecord(tuple(2000 if i == k else 5 for i in range(4)))
                for k in range(4)]
        assert np.allclose(tomo.estimate_efficiencies(recs), 1.0)

    def test_inverse_proportionality(self):
        designated = (2000, 1000, 2000, 2000)
        recs = [CountRecord(tuple(designated[k] if i == k else 0 for i in range(4)))
                for k in range(4)]
        eff = tomo.estimate_efficiencies(recs)
        assert np.allclose(eff, (1.0, 2.0, 1.0, 1.0))

    def test_zero_designated_count(self):
        recs = [CountRecord((0, 1, 1, 1)), CountRecord((1, 2, 1, 1)),
                CountRecord((1, 1, 2, 1)), CountRecord((1, 1, 1, 2))]
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
        fid = tomo.chi_fidelity(result.chi, tomo.ideal_cnot_chi())
        assert fid > 0.999
        tomo.check_chi(result.chi)

    def test_random_unitary_processes_recovered(self):
        rng = np.random.default_rng(37)
        for k in range(10):
            chi_true = random_chi_unitary(rng)
            dataset = tomo.simulate_dataset_from_chi(
                chi_true, shots_per_config=100000, seed=100 + k)
            result = tomo.mle_reconstruct(dataset)
            assert tomo.chi_fidelity(result.chi, chi_true) > 0.995

    def test_random_cp_map_recovered(self):
        rng = np.random.default_rng(41)
        chi_true = 0.7 * random_chi_unitary(rng) + 0.3 * random_chi_unitary(rng)
        dataset = tomo.simulate_dataset_from_chi(
            chi_true, shots_per_config=100000, seed=77)
        result = tomo.mle_reconstruct(dataset)
        assert tomo.chi_fidelity(result.chi, chi_true) > 0.99

    def test_certified_on_million_shot_chip_data(self):
        # criterion 2's high-count dataset, where a fit that stops early
        # shows: the optimum is about 1.02618e-05
        dataset = tomo.run_qpt_simulation(
            optics.ChipParameters.ideal(), x=1.0, shots_per_config=10 ** 6,
            seed=3)
        result = check_certificate(dataset)
        assert result.cost <= 1.02618e-05

    @settings(derandomize=True, database=None, deadline=None, max_examples=5)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_unitaries=st.integers(1, 4),
           shots=st.sampled_from([200, 2000, 100000]))
    def test_certified_on_unitary_mixtures(self, seed, n_unitaries, shots):
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(n_unitaries))
        chi_true = sum(w * random_chi_unitary(rng) for w in weights)
        check_certificate(tomo.simulate_dataset_from_chi(
            chi_true, shots_per_config=shots, seed=seed))

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
        totals = [rec.total for _, rec in dataset.records]
        assert 1700 < np.mean(totals) < 2300

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
        assert [rec.total for _, rec in dataset.records] == four_count_sums
        published = [int(row[5]) for row in rows]
        assert sum(a != b for a, b in zip(published, four_count_sums)) == 28

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
        fid = tomo.chi_fidelity(result.chi, tomo.ideal_cnot_chi())
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
            return tomo.chi_fidelity(res.chi, tomo.ideal_cnot_chi())

        baseline = fidelity_for(ideal, seed=50)
        assert baseline > 0.998
        assert fidelity_for(ideal.with_ratio(5, 0.40), seed=51) < baseline - 0.005
        assert fidelity_for(ideal.with_ratio(9, 0.62), seed=52) < baseline - 0.005
        assert fidelity_for(ideal.with_static_phases(0.4, 0.0), seed=53) \
            < baseline - 0.005
        assert fidelity_for(ideal, phase_bias=0.15, seed=54) < baseline - 0.005


class TestChiFidelity:
    def test_depolarizing_overlap(self):
        chi_cnot = tomo.ideal_cnot_chi()
        chi_depol = np.eye(16, dtype=complex) / 16.0
        # oracle: |Tr(chi_c chi_d)|^2 / (Tr chi_c^2 * Tr chi_d^2) = 1/16
        num = abs(np.trace(chi_cnot.conj().T @ chi_depol)) ** 2
        den = (np.trace(chi_cnot.conj().T @ chi_cnot).real
               * np.trace(chi_depol.conj().T @ chi_depol).real)
        assert abs(num / den - 1.0 / 16.0) < 1e-12
        assert abs(tomo.chi_fidelity(chi_cnot, chi_depol) - 1.0 / 16.0) < 1e-12

    def test_symmetry_and_unity(self):
        rng = np.random.default_rng(91)
        a = random_chi_unitary(rng)
        b = random_chi_unitary(rng)
        assert abs(tomo.chi_fidelity(a, b) - tomo.chi_fidelity(b, a)) < 1e-12
        assert abs(tomo.chi_fidelity(a, a) - 1.0) < 1e-12


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
        assert [r.counts for _, r in back.records] == [r.counts for _, r in ds.records]
