import hashlib
import re

import numpy as np
import pytest

from dualrail import cli, optics, vqe
from dualrail.errors import DegenerateDataError
from dualrail.sampler import CountRecord

REFERENCE_PROJ = (1.851, 0.447, 0.447, -0.904, 0.165, -0.165, -0.165, 0.165)


@pytest.fixture(scope="module")
def h2():
    return vqe.reference_hamiltonian()[1]


class TestHamiltonianForms:
    def test_zero_maps_to_zero(self):
        out = vqe.pauli_to_projector(vqe.PauliHamiltonian(0, 0, 0, 0, 0))
        assert out.as_array().tolist() == [0.0] * 8

    def test_identity_term_only(self):
        out = vqe.pauli_to_projector(vqe.PauliHamiltonian(1, 0, 0, 0, 0))
        assert np.allclose(out.as_array(), [1, 1, 1, 1, 0, 0, 0, 0])

    def test_reference_instance_round_trip(self, h2):
        proj = vqe.pauli_to_projector(h2)
        assert np.allclose(proj.as_array(), REFERENCE_PROJ, atol=1e-12)
        again = vqe.projector_to_pauli(proj)
        assert np.allclose(again.coefficients(), h2.coefficients(), atol=1e-12)

    def test_projector_symmetry_invariants(self, h2):
        proj = vqe.pauli_to_projector(h2)
        t = proj.as_array()
        assert t[4] == -t[5] == -t[6] == t[7]

    def test_broken_symmetry_rejected(self):
        with pytest.raises(ValueError):
            vqe.projector_to_pauli(
                vqe.ProjectorHamiltonian((1, 1, 1, 1, 0.2, -0.2, -0.1, 0.2)))

    def test_operator_identity(self, h2):
        # rebuilding the operator from projector components reproduces the
        # Pauli form exactly
        proj = vqe.pauli_to_projector(h2).as_array()
        kets = {
            "H": np.array([1, 0], dtype=complex),
            "V": np.array([0, 1], dtype=complex),
            "D": np.array([1, 1], dtype=complex) / np.sqrt(2),
            "A": np.array([1, -1], dtype=complex) / np.sqrt(2),
        }
        pairs = [("H", "H"), ("H", "V"), ("V", "H"), ("V", "V"),
                 ("D", "D"), ("D", "A"), ("A", "D"), ("A", "A")]
        op = np.zeros((4, 4), dtype=complex)
        for coeff, (a, b) in zip(proj, pairs):
            ket = np.kron(kets[a], kets[b])
            op += coeff * np.outer(ket, ket.conj())
        assert np.max(np.abs(op - h2.matrix())) < 1e-12

    def test_coefficient_filter(self):
        h = vqe.PauliHamiltonian(1.0, 1e-12, 0.5, -1e-10, 0.2)
        f = h.filtered()
        assert f.f1 == 0.0 and f.f3 == 0.0
        assert f.f0 == 1.0 and f.f2 == 0.5 and f.f4 == 0.2


class TestEnergyOracle:
    def test_identity_multiple(self):
        assert abs(vqe.energy_oracle(vqe.PauliHamiltonian(2.5, 0, 0, 0, 0)) - 2.5) < 1e-12

    def test_pure_xx(self):
        assert abs(vqe.energy_oracle(vqe.PauliHamiltonian(0, 0, 0, 0, 1.0)) + 1.0) < 1e-12

    def test_reference_instance(self, h2):
        # independent 2x2 block diagonalization of the XX-coupled sector
        d00 = h2.f0 + h2.f1 + h2.f2 + h2.f3
        d11 = h2.f0 + h2.f1 - h2.f2 - h2.f3
        mean = (d00 + d11) / 2.0
        expected = mean - np.hypot((d00 - d11) / 2.0, h2.f4)
        assert abs(vqe.energy_oracle(h2) - expected) < 1e-12


class TestExpectationFromCounts:
    def test_basis_state_reference_value(self, h2):
        proj = vqe.pauli_to_projector(h2)
        hh = CountRecord((5000, 0, 0, 0))
        dd = CountRecord((1000, 1000, 1000, 1000))
        assert abs(vqe.expectation_from_counts(proj, hh, dd) - 1.851) < 1e-12

    def test_zero_coefficients(self):
        proj = vqe.ProjectorHamiltonian((0,) * 8)
        hh = CountRecord((5, 6, 7, 8))
        dd = CountRecord((1, 2, 3, 4))
        assert vqe.expectation_from_counts(proj, hh, dd) == 0.0

    def test_zero_total_rejected(self, h2):
        proj = vqe.pauli_to_projector(h2)
        with pytest.raises(DegenerateDataError):
            vqe.expectation_from_counts(proj, CountRecord((0, 0, 0, 0)),
                                        CountRecord((1, 1, 1, 1)))

    def test_exact_mode_matches_state_expectation(self, h2):
        # estimator assembled from chip probabilities equals <psi|H|psi>
        # computed by operator algebra on the prepared logical state
        chip = optics.ChipParameters.ideal()
        proj = vqe.pauli_to_projector(h2)
        rng = np.random.default_rng(19)
        for _ in range(100):
            phases = rng.uniform(0, 2 * np.pi, 4)
            energy, _, _ = vqe.measure_energy(chip, proj, phases, None)
            assert abs(energy - vqe.exact_expectation(h2, phases)) < 1e-9


class TestMeasureEnergyInputs:
    @pytest.mark.parametrize("shape", [(3,), (5,), (2, 3), (2, 5), (1, 2, 4)])
    def test_wrong_shape_rejected(self, h2, shape):
        proj = vqe.pauli_to_projector(h2)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            vqe.measure_energy(optics.ChipParameters.ideal(), proj,
                               np.zeros(shape), None)

    @pytest.mark.parametrize("shots", [None, 500])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, h2, shots, value):
        proj = vqe.pauli_to_projector(h2)
        phases = np.array([[0.3, 1.1, 2.0, 4.5], [0.1, 0.2, value, 0.4]])
        for arg in (phases[1], phases):
            with pytest.raises(ValueError, match=str(value)):
                vqe.measure_energy(optics.ChipParameters.ideal(), proj, arg,
                                   shots, np.random.default_rng(0))

    def test_single_point_gives_one_triple(self, h2):
        proj = vqe.pauli_to_projector(h2)
        chip = optics.ChipParameters.ideal()
        single = vqe.measure_energy(chip, proj, (0.3, 1.1, 2.0, 4.5), None)
        stacked = vqe.measure_energy(chip, proj, [(0.3, 1.1, 2.0, 4.5)], None)
        assert isinstance(single, tuple) and len(single) == 3
        assert isinstance(stacked, list) and stacked == [single]


class TestExactRecords:
    def test_records_are_post_selected_probabilities(self, h2):
        proj = vqe.pauli_to_projector(h2)
        energy, p_hh, p_dd = vqe.measure_energy(
            optics.ChipParameters.ideal(), proj, (0.3, 1.1, 2.0, 4.5), None)
        for probs in (p_hh, p_dd):
            assert len(probs) == 4 and all(type(p) is float for p in probs)
            assert min(probs) >= 0.0 and abs(sum(probs) - 1.0) < 1e-12
        assert energy == float(proj.as_array() @ np.array(p_hh + p_dd))

    def test_no_coincidences_rejected(self, h2, monkeypatch):
        monkeypatch.setattr(vqe.sampler, "coincidence_probabilities",
                            lambda u, x: np.zeros(u.shape[:-2] + (4,)))
        with pytest.raises(DegenerateDataError):
            vqe.measure_energy(optics.ChipParameters.ideal(),
                               vqe.pauli_to_projector(h2), np.zeros(4), None)

    def test_cli_trace_columns(self, tmp_path):
        assert cli.main(["vqe", "--exact", "--out", str(tmp_path)]) == 0
        lines = [ln for ln in (tmp_path / "trace_0p4A.csv").read_text()
                 .splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        assert header[7:15] == [f"P{j}_{b}" for b in ("hh", "dd")
                                for j in range(1, 5)]
        for line in lines[1:]:
            probs = np.array(line.split(",")[7:15], dtype=float)
            assert np.allclose(probs.reshape(2, 4).sum(axis=1), 1.0,
                               rtol=0.0, atol=1e-10)


class TestRunVqe:
    def test_exact_mode_reaches_oracle(self, h2):
        chip = optics.ChipParameters.ideal()
        res = vqe.run_vqe(chip, h2, shots_per_basis=None, seed=0)
        assert abs(res.best_energy - res.oracle_energy) <= 1e-3
        assert not res.stagnated

    def test_exact_energies_within_spectrum_bounds(self, h2):
        chip = optics.ChipParameters.ideal()
        res = vqe.run_vqe(chip, h2, shots_per_basis=None, seed=1,
                          max_evaluations=300, n_restarts=2)
        bounds = np.linalg.eigvalsh(h2.matrix())
        energies = np.array(res.trace.energies)
        assert np.all(energies >= bounds.min() - 1e-9)
        assert np.all(energies <= bounds.max() + 1e-9)
        assert not any(res.trace.out_of_bounds)

    def test_running_minimum_monotone(self, h2):
        chip = optics.ChipParameters.ideal()
        res = vqe.run_vqe(chip, h2, shots_per_basis=2000,
                          seed=3, max_evaluations=200)
        best = np.array(res.trace.best_energies)
        assert np.all(np.diff(best) <= 1e-12)

    def test_identity_hamiltonian_flat_trace(self):
        chip = optics.ChipParameters.ideal()
        h = vqe.PauliHamiltonian(0.7, 0, 0, 0, 0)
        res = vqe.run_vqe(chip, h, shots_per_basis=None, seed=2,
                          max_evaluations=120, n_restarts=2)
        energies = np.array(res.trace.energies)
        assert np.max(np.abs(energies - 0.7)) < 1e-9

    def test_shot_mode_median_gap(self, h2):
        chip = optics.ChipParameters.ideal()
        gaps = []
        for seed in range(6):
            res = vqe.run_vqe(chip, h2, shots_per_basis=2000,
                              seed=seed, max_evaluations=800)
            gaps.append(abs(res.best_energy - res.oracle_energy))
        assert np.median(gaps) <= 0.05

    def test_deterministic_given_seed(self, h2):
        chip = optics.ChipParameters.ideal()
        a = vqe.run_vqe(chip, h2, shots_per_basis=500,
                        seed=11, max_evaluations=100)
        b = vqe.run_vqe(chip, h2, shots_per_basis=500,
                        seed=11, max_evaluations=100)
        assert a.trace.energies == b.trace.energies
        assert a.best_phases == b.best_phases

    def test_spsa_evaluates_each_pair_in_one_forward_model_call(
            self, h2, monkeypatch):
        calls = []
        build = optics.chip_unitaries

        def counted(params, phases):
            calls.append(np.shape(phases))
            return build(params, phases)

        monkeypatch.setattr(optics, "chip_unitaries", counted)
        res = vqe.run_vqe(optics.ChipParameters.ideal(), h2,
                          shots_per_basis=500, seed=4,
                          max_evaluations=40)
        # n_iter = 10: two SPSA runs of 10 pairs and one final point each,
        # then the re-measurement at the best phases
        assert len(res.trace.energies) == 43
        assert len(calls) == 23
        assert calls.count((2, 2, 8)) == 20


class TestTables:
    def test_reference_distance(self):
        distance, h = vqe.reference_hamiltonian()
        assert distance == 0.4
        assert abs(h.f4 - 0.165) < 1e-12

    def test_pauli_table_parsing(self):
        text = "# comment\n0.4 0.46 0.013 0.69 0.69 0.165\n"
        rows = vqe.load_pauli_table(text)
        assert len(rows) == 1
        assert rows[0][0] == 0.4
        with pytest.raises(ValueError):
            vqe.load_pauli_table("0.4 1 2 3\n")
        with pytest.raises(ValueError):
            vqe.load_pauli_table("# nothing\n")

    def test_projector_table_parsing(self):
        rows = vqe.load_projector_table(
            "0.4 1.851 0.447 0.447 -0.904 0.165 -0.165 -0.165 0.165\n")
        assert np.allclose(rows[0][1].as_array(), REFERENCE_PROJ)


# SHA-256 of every --out file of `vqe` runs. The SPSA digests are from the
# commit before SPSA pairs went through one forward-model call, the exact one
# from the commit before the exact and sampled energies shared one path:
# neither change may move a byte. The test keeps its name, and the entries
# keep their order, so that the ids of the SPSA cases stay as they were.
GOLDEN_DIGESTS = {
    ("--shots", "200", "--optimizer", "spsa", "--seed", "7"): {
        "trace_0p4A.csv": "695eaded9d62fb1215bbce8007449e6db3b201e10eb914aac9dbfa57f2630f40",
        "vqe_summary.csv": "28e0e53546eca504d1eb72ad8f862e1b427f7df8fa3dde00605ecbd6c4edc3af",
    },
    ("--shots", "2000", "--optimizer", "spsa", "--seed", "5"): {
        "trace_0p4A.csv": "05645236d791550518ad97f2402932bce924b03977b735be47f35660270c15ab",
        "vqe_summary.csv": "4c88a8b6a60255f453085e848f1f2d581bda4d26dccdda2fa8bfc8bb644e25c3",
    },
    ("--exact", "--seed", "0"): {
        "trace_0p4A.csv": "b90c58d4fdc59784e31bb42b35935982d3e4c981a4fddf0664cd46510dab6a92",
        "vqe_summary.csv": "85d59e0202ea4994e2cbd18079bfb6e09b102cd3795920d03fd04abce27e61b9",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN_DIGESTS))
def test_spsa_outputs_pinned(tmp_path, argv):
    assert cli.main(["vqe", *argv, "--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == GOLDEN_DIGESTS[argv]
