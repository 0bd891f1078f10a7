import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dualrail import cli, optics, sampler, vqe
from dualrail.errors import DegenerateDataError

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
        hh = (5000, 0, 0, 0)
        dd = (1000, 1000, 1000, 1000)
        assert abs(vqe.expectation_from_counts(proj, [hh, dd]) - 1.851) < 1e-12

    def test_zero_coefficients(self):
        proj = vqe.ProjectorHamiltonian((0,) * 8)
        hh = (5, 6, 7, 8)
        dd = (1, 2, 3, 4)
        assert vqe.expectation_from_counts(proj, [hh, dd]) == 0.0

    def test_zero_total_rejected(self, h2):
        proj = vqe.pauli_to_projector(h2)
        with pytest.raises(DegenerateDataError):
            vqe.expectation_from_counts(proj, [(0, 0, 0, 0),
                                               (1, 1, 1, 1)])

    def test_stack_gives_one_energy_per_row(self, h2):
        proj = vqe.pauli_to_projector(h2)
        counts = np.random.default_rng(3).integers(1, 500, (5, 2, 4))
        energies = vqe.expectation_from_counts(proj, counts)
        assert energies.tolist() == [vqe.expectation_from_counts(proj, c)
                                     for c in counts]

    @pytest.mark.parametrize("shape", [(8,), (4, 2), (2, 3), (1, 1, 2, 4)])
    def test_wrong_shape_rejected(self, h2, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            vqe.expectation_from_counts(vqe.pauli_to_projector(h2),
                                        np.ones(shape))

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

    @pytest.mark.parametrize("shots", [0, -5, 2.5, np.nan, np.inf, True, "10"])
    def test_shots_must_be_positive_integer(self, h2, shots):
        chip = optics.ChipParameters.ideal()
        message = "shots_per_basis must be a positive integer"
        with pytest.raises(ValueError, match=message):
            vqe.measure_energy(chip, vqe.pauli_to_projector(h2), np.zeros(4),
                               shots, np.random.default_rng(0))
        with pytest.raises(ValueError, match=message):
            vqe.run_vqe(chip, h2, shots_per_basis=shots)

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
        # a chip whose two-photon amplitudes all vanish registers nothing
        monkeypatch.setattr(vqe, "_amplitude_tensor",
                            lambda chip: np.zeros((2, 4, 2, 2), dtype=complex))
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

    def test_cli_summary_counts_evaluations(self, tmp_path):
        assert cli.main(["vqe", "--exact", "--out", str(tmp_path)]) == 0
        summary, trace = (
            [ln for ln in (tmp_path / name).read_text().splitlines()
             if not ln.startswith("#")]
            for name in ("vqe_summary.csv", "trace_0p4A.csv"))
        assert summary[0].split(",")[4:] == ["stagnated", "sweeps",
                                             "evaluations"]
        stagnated, sweeps, evaluations = summary[1].split(",")[4:]
        assert stagnated == "False"
        assert int(evaluations) == len(trace) - 1 == 12 * int(sweeps) + 1


class TestRunVqe:
    def test_exact_mode_reaches_oracle(self, h2):
        chip = optics.ChipParameters.ideal()
        res = vqe.run_vqe(chip, h2, shots_per_basis=None, seed=0)
        assert abs(res.best_energy - res.oracle_energy) <= 1e-3
        assert not res.stagnated

    def test_exact_energies_within_spectrum_bounds(self, h2):
        chip = optics.ChipParameters.ideal()
        res = vqe.run_vqe(chip, h2, shots_per_basis=None, seed=1,
                          max_evaluations=300)
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
                          max_evaluations=120)
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

    def test_each_coordinate_step_is_one_forward_model_call(
            self, h2, monkeypatch):
        calls, tensors, unitaries = [], [], []
        forward = vqe._probabilities

        def counted(chip, tensor, stack):
            calls.append(np.shape(stack))
            tensors.append(tensor)
            return forward(chip, tensor, stack)

        monkeypatch.setattr(vqe, "_probabilities", counted)
        monkeypatch.setattr(optics, "chip_unitaries",
                            lambda *args: unitaries.append(args))
        vqe._amplitude_tensor.cache_clear()
        res = vqe.run_vqe(optics.ChipParameters.ideal(), h2,
                          shots_per_basis=500, seed=4,
                          max_evaluations=40)
        # 13 steps of three points each, then the re-measurement at the
        # best phases; the budget of 40 is spent exactly, from one amplitude
        # tensor built once and no chip unitary
        assert calls == [(3, 4)] * 13 + [(1, 4)]
        assert vqe._amplitude_tensor.cache_info().misses == 1
        assert all(t is tensors[0] for t in tensors) and unitaries == []
        assert len(res.trace.energies) == 40
        assert res.sweeps == 4 and not res.stagnated
        for step in range(13):
            points = np.array(res.trace.phases[3 * step:3 * step + 3])
            moved = np.flatnonzero(np.ptp(points, axis=0) > 0)
            assert moved.tolist() == [step % 4]

    def test_exact_budget_exhausted_is_stagnation(self, h2):
        res = vqe.run_vqe(optics.ChipParameters.ideal(), h2,
                          shots_per_basis=None, seed=0, max_evaluations=13)
        assert res.stagnated
        assert len(res.trace.energies) == 13 and res.sweeps == 1

    @pytest.mark.parametrize("budget", [0, 3])
    def test_budget_below_one_step_rejected(self, h2, budget):
        with pytest.raises(ValueError, match="max_evaluations"):
            vqe.run_vqe(optics.ChipParameters.ideal(), h2,
                        max_evaluations=budget)

    @pytest.mark.parametrize("budget", [True, 100.0, np.float64(40), "100",
                                        None])
    def test_budget_must_be_integer(self, h2, budget):
        with pytest.raises(ValueError, match="max_evaluations"):
            vqe.run_vqe(optics.ChipParameters.ideal(), h2,
                        max_evaluations=budget)

    def test_numpy_integer_budget_accepted(self, h2):
        res = vqe.run_vqe(optics.ChipParameters.ideal(), h2, shots_per_basis=50,
                          max_evaluations=np.int64(7))
        assert len(res.trace.energies) == 7

    @pytest.mark.parametrize("refine", [False, True])
    def test_coordinate_step_skips_shifts_without_coincidences(self, h2,
                                                               refine):
        # hh totals 1, 1 and 5 at the measured shifts fit a total that
        # dips below zero between them, where no energy is defined
        raw = np.zeros((3, 2, 4))
        raw[:, 1] = 1.0
        raw[0, 0, 0] = raw[1, 0, 0] = 1.0
        raw[2, 0, 3] = 5.0
        shift, energy = vqe._coordinate_minimum(
            vqe.pauli_to_projector(h2), raw, refine)
        # the hh total's a, b, c from (1, 1, 5) at shifts 0, 2pi/3, 4pi/3
        a, b, c = 7 / 3, -4 / 3, -8 / 3 * np.sin(2 * np.pi / 3)
        total = a + b * np.cos(shift) + c * np.sin(shift)
        assert total > 0 and np.isfinite(energy)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(raw=hnp.arrays(np.int64, (3, 2, 4), elements=st.integers(0, 3000)))
    def test_grid_product_picks_closed_form_minimum(self, h2, raw):
        # the first grid as one matrix product of the measured rows picks the
        # grid point of the scan of a + b cos + c sin; the energies are ratios
        # whose fitted totals can be small, so they agree relative to their size
        assume((raw.sum(axis=-1) > 0).all())
        proj = vqe.pauli_to_projector(h2)
        shift, energy = vqe._coordinate_minimum(proj, raw, False)
        want_shift, want_energy = reference_coordinate_minimum(proj, raw, False)
        assert shift == want_shift
        assert abs(energy - want_energy) <= 1e-12 * max(1.0, abs(want_energy))

    @pytest.mark.parametrize("chip_seed", [0, 1, 4])
    def test_exact_mode_matches_nelder_mead_on_perturbed_chips(
            self, h2, chip_seed):
        # on an imperfect chip the reachable minimum is not the Hamiltonian's
        # eigenvalue, so the reference is scipy's simplex descent on the
        # measured energy, best of three starts
        from scipy.optimize import minimize

        chip = optics.ChipParameters.ideal().perturbed(
            0.03, np.random.default_rng(chip_seed))
        proj = vqe.pauli_to_projector(h2)
        rng = np.random.default_rng(100 + chip_seed)
        reference = min(
            minimize(lambda x: vqe.measure_energy(chip, proj, x, None)[0],
                     rng.uniform(0.0, 2 * np.pi, 4), method="Nelder-Mead",
                     options={"maxfev": 4000, "xatol": 1e-10,
                              "fatol": 1e-14}).fun
            for _ in range(3))
        res = vqe.run_vqe(chip, h2, shots_per_basis=None, seed=chip_seed)
        assert not res.stagnated
        assert abs(res.best_energy - reference) <= 1e-8


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

    def test_bad_number_names_its_line(self):
        with pytest.raises(ValueError, match="^line 2: could not convert "
                                             "string to float: 'x'$"):
            vqe.load_pauli_table("distance f0 f1 f2 f3 f4\n0.4 1 2 x 4 5\n")

    def test_projector_table_parsing(self):
        rows = vqe.load_projector_table(
            "0.4 1.851 0.447 0.447 -0.904 0.165 -0.165 -0.165 0.165\n")
        assert np.allclose(rows[0][1].as_array(), REFERENCE_PROJ)


# SHA-256 of every --out file of `vqe` runs, pinned when both modes moved to
# coordinate descent. The exact-mode trace was pinned again when the forward
# model moved to the amplitude tensor: its energies are flat along phi4 after
# convergence, so rounding picks where the grid minimum lands. All were
# pinned again when the settings hash came to cover only the command's own
# settings (so no longer the ignored --optimizer): that changed each file's
# `# config_hash` line and nothing else. The test keeps its name, and the
# entries keep their order, so that the ids of the cases stay as they were.
GOLDEN_DIGESTS = {
    ("--shots", "200", "--optimizer", "spsa", "--seed", "7"): {
        "trace_0p4A.csv": "fc0b2c9797053c0ad5296bc705790a65facc8b00c0a9f621b7e1c0d172d94f66",
        "vqe_summary.csv": "a4ddb802677eb062ec148dd3e551272f8aa8dba4851f089ab54fa4ec55f1ba07",
    },
    ("--shots", "2000", "--optimizer", "spsa", "--seed", "5"): {
        "trace_0p4A.csv": "1944897a56af9b7f2daf4deb55854461751b9749f2049095ba1928078e6da10d",
        "vqe_summary.csv": "d9e20d75dab5f761873c37fa2f2e95470fad440dcc712b268af2705cde75d222",
    },
    ("--exact", "--seed", "0"): {
        "trace_0p4A.csv": "c478d2eb89d4e7e0a8fbf1d8a6860d6bc1e9b12d8deeaf12e1b4573b97bb3440",
        "vqe_summary.csv": "e442920268b6c9065cf85d2c2529fc3a32772f9f117c93f7c241f5ea9f740753",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN_DIGESTS))
def test_spsa_outputs_pinned(tmp_path, argv):
    assert cli.main(["vqe", *argv, "--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == GOLDEN_DIGESTS[argv]


# The per-step loop of `run_vqe` as it was before its trace was buffered and
# its first grid became one matrix product: every output must stay as this
# loop makes it.


def reference_coordinate_minimum(h_proj, raw, refine):
    a = raw.mean(axis=0)
    b, c = 2.0 / 3.0 * np.tensordot(
        [np.cos(vqe._SHIFTS), np.sin(vqe._SHIFTS)], raw, 1)
    best, spacing = 0.0, 2.0 * np.pi
    for grid in (vqe._GRID,) + (vqe._REFINEMENTS if refine else ()):
        shifts = best + spacing * grid
        spacing *= grid[1] - grid[0]
        model = (a + np.multiply.outer(np.cos(shifts), b)
                 + np.multiply.outer(np.sin(shifts), c))
        totals = model.sum(axis=-1, keepdims=True)
        post = model / np.where(totals > 0.0, totals, np.nan)
        energies = post.reshape(len(shifts), 8) @ h_proj.as_array()
        i = int(np.nanargmin(energies))
        best, energy = shifts[i], energies[i]
    return best, energy


def reference_run_vqe(chip, hamiltonian, shots_per_basis=None, seed=0,
                      max_evaluations=2000, tol=1e-9):
    hamiltonian = hamiltonian.filtered()
    h_proj = vqe.pauli_to_projector(hamiltonian)
    spectrum = np.linalg.eigvalsh(hamiltonian.matrix())
    exact = shots_per_basis is None
    slack = 1e-9 if exact else 0.0
    bounds = (spectrum[0] - slack, spectrum[-1] + slack)
    rng = np.random.default_rng(seed)
    tensor = vqe._amplitude_tensor(chip)
    trace = vqe.VqeTrace()

    def measure(stack):
        data = vqe._probabilities(chip, tensor, stack)
        if exact:
            recorded = vqe._post_selected(data)
        else:
            data = recorded = sampler.sample_counts(
                data.reshape(-1, 4), 9 * shots_per_basis,
                rng).reshape(data.shape)
        energies = vqe.expectation_from_counts(h_proj, data)
        return data, [(float(e), tuple(hh), tuple(dd))
                      for e, (hh, dd) in zip(energies, recorded.tolist())]

    def record(phases, energy, rec_hh, rec_dd):
        trace.iterations.append(len(trace.energies) + 1)
        trace.phases.append(tuple(phases))
        trace.energies.append(energy)
        trace.best_energies.append(min(trace.best_energies[-1:] + [energy]))
        trace.records_hh.append(rec_hh)
        trace.records_dd.append(rec_dd)
        trace.out_of_bounds.append(not bounds[0] <= energy <= bounds[1])

    x = rng.uniform(0.0, 2.0 * np.pi, 4)
    stagnated = exact
    for step in range((max_evaluations - 1) // 3):
        k = step % 4
        points = np.mod(x + np.outer(vqe._SHIFTS, np.eye(4)[k]), 2.0 * np.pi)
        raw, results = measure(points)
        for row, triple in zip(points, results):
            record(row, *triple)
        shift, energy = reference_coordinate_minimum(h_proj, raw, exact)
        x[k] = np.mod(x[k] + shift, 2.0 * np.pi)
        if exact and k == 3 and abs(energy - trace.energies[-12]) < tol:
            stagnated = False
            break

    best_phases = trace.phases[int(np.argmin(trace.energies))]
    record(best_phases, *vqe.measure_energy(chip, h_proj, best_phases,
                                            shots_per_basis, rng))
    return vqe.VqeResult(best_phases, trace.energies[-1], trace, stagnated,
                         float(spectrum[0]), step // 4 + 1)


@pytest.mark.parametrize("shots, budget", [(2000, 40), (2000, 2000),
                                           (None, 2000)])
@pytest.mark.parametrize("seed", range(10))
def test_run_matches_reference_loop(h2, seed, shots, budget):
    chip = optics.ChipParameters.ideal()
    got = vqe.run_vqe(chip, h2, shots, seed, budget)
    want = reference_run_vqe(chip, h2, shots, seed, budget)
    for name in (f.name for f in dataclasses.fields(vqe.VqeResult)):
        if name != "trace":
            assert getattr(got, name) == getattr(want, name), name
    for name in (f.name for f in dataclasses.fields(vqe.VqeTrace)):
        assert getattr(got.trace, name) == getattr(want.trace, name), name
