import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualrail import calibration as cal, cli, gates, optics
from dualrail.errors import InfeasibleTargetError


class TestRealizableGate:
    def test_fine_dac_is_exact(self):
        model = gates.GateModel("rx", alpha=0.0437, dac=cal.DacSpec(bits=28))
        for phi in (0.1, 1.7, 3.9, 5.5):
            u_e, phi_e = gates.realizable_gate(model, phi)
            assert abs(phi_e - phi) < 1e-6
            assert optics.fidelity(u_e, model.target_matrix(phi)) > 1.0 - 1e-10

    def test_rz_quantization_error_bounded(self):
        model = gates.GateModel("rz", alpha=0.0437)
        max_slope = 2.0 * model.alpha * model.dac.full_scale
        bound = max_slope * model.dac.step / 2.0 + 1e-12
        rng = np.random.default_rng(3)
        for phi in rng.uniform(0, 2 * np.pi, 200):
            u_e, phi_e = gates.realizable_gate(model, phi)
            err = abs(phi_e - phi)
            assert err <= bound
            fid = optics.fidelity(u_e, model.target_matrix(phi))
            # small-angle expansion F ~ 1 - err^2 / 4
            assert abs(fid - (1.0 - err ** 2 / 4.0)) < 1e-6

    def test_rx_off_ratio_fidelity_matches_direct_evaluation(self):
        model = gates.GateModel("rx", alpha=0.05, r1=0.45, r2=0.45,
                                dac=cal.DacSpec(bits=28))
        phi = 1.234
        u_e, phi_e = gates.realizable_gate(model, phi)
        expected = optics.fidelity(
            optics.mzi_matrix(0.45, 0.45, phi_e),
            optics.mzi_matrix(0.5, 0.5, phi),
        )
        assert abs(optics.fidelity(u_e, model.target_matrix(phi)) - expected) < 1e-12

    def test_target_out_of_band(self):
        model = gates.GateModel("rz", alpha=0.0437)
        with pytest.raises(ValueError):
            gates.realizable_gate(model, -0.1)
        with pytest.raises(ValueError):
            gates.realizable_gate(model, 2 * np.pi)

    def test_unreachable_phase(self):
        # a tiny slope cannot span a full turn over the current range
        model = gates.GateModel("rz", alpha=1e-3)
        with pytest.raises(InfeasibleTargetError):
            gates.realizable_gate(model, 5.0)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            gates.GateModel("ry", alpha=0.04)
        with pytest.raises(ValueError):
            gates.GateModel("rx", alpha=-0.01)
        with pytest.raises(ValueError):
            gates.GateModel("rx", alpha=0.04, r1=1.2)

    @pytest.mark.parametrize("alpha, phi0", [
        (np.nan, 0.0), (np.inf, 0.0), (0.04, np.nan), (0.04, np.inf),
    ])
    def test_non_finite_model_rejected(self, alpha, phi0):
        # NaN passed `alpha <= 0` and then gave an all-NaN histogram
        with pytest.raises(ValueError):
            gates.GateModel("rx", alpha=alpha, phi0=phi0)

    @pytest.mark.parametrize("kwargs", [
        {"bits": 0}, {"bits": -3}, {"bits": 12.0}, {"bits": 12.5},
        {"full_scale": 0.0}, {"full_scale": -20.0},
        {"full_scale": np.inf}, {"full_scale": np.nan},
    ])
    def test_dac_validation(self, kwargs):
        with pytest.raises(ValueError):
            cal.DacSpec(**kwargs)

    def test_dac_level_clipped_at_full_scale(self):
        # the 1e-12 reachability slack admits targets just past the top of
        # the range; at 48 bits their current rounds up beyond the last DAC
        # level unless the level is clipped
        dac = cal.DacSpec(bits=48)
        model = gates.GateModel("rz", alpha=(2 * np.pi - 5e-13) / dac.full_scale ** 2,
                                dac=dac)
        target = 2 * np.pi - 1e-13
        _, hi = model.phase_range()
        _, phi_e = gates.realizable_gate(model, target)
        assert phi_e <= hi + 1e-14
        _, realized = gates._realize(model, np.array([0.5, target]))
        assert realized[1] == phi_e


class TestFidelityHistogram:
    def test_ideal_hardware_mean(self):
        model = gates.GateModel("rx", alpha=0.0437)
        hist = gates.fidelity_histogram(model, 100, seed=0)
        assert hist.mean >= 0.999
        assert hist.minimum >= 0.999

    def test_seed_determinism(self):
        model = gates.GateModel("rz", alpha=0.05)
        a = gates.fidelity_histogram(model, 50, seed=5)
        b = gates.fidelity_histogram(model, 50, seed=5)
        assert np.array_equal(a.fidelities, b.fidelities)

    def test_ratio_deviation_floor(self):
        # +-0.05 coupler deviations stay above the 0.97 floor
        for dev in (0.02, 0.05, -0.05):
            model = gates.GateModel("rx", alpha=0.0437,
                                    r1=0.5 + dev, r2=0.5 - dev)
            hist = gates.fidelity_histogram(model, 100, seed=7)
            assert hist.minimum >= 0.97

    def test_mean_degrades_with_ratio_error(self):
        means = []
        for r in (0.50, 0.48, 0.45, 0.40):
            model = gates.GateModel("rx", alpha=0.0437, r1=r, r2=r)
            means.append(gates.fidelity_histogram(model, 200, seed=11).mean)
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_csv_export(self):
        model = gates.GateModel("rx", alpha=0.0437)
        hist = gates.fidelity_histogram(model, 10, seed=1)
        text = gates.histogram_csv(hist)
        lines = text.strip().splitlines()
        assert lines[0] == "sample_index,target_phase,realized_phase,fidelity"
        assert len(lines) == 12
        assert lines[-1].startswith("summary,")

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            gates.fidelity_histogram(gates.GateModel("rz", alpha=0.05), 0)


class TestBatchedPath:
    """`fidelity_histogram` evaluates every sample in one batch; each entry
    must equal the one-target path bit for bit."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(kind=st.sampled_from(["rx", "rz"]),
           r1=st.floats(0.4, 0.6), r2=st.floats(0.4, 0.6),
           # alpha * full_scale^2 from one to four turns: every target reachable
           turns=st.floats(1.0, 4.0), phi0=st.floats(-2 * np.pi, 2 * np.pi),
           bits=st.integers(8, 28), n=st.integers(1, 300),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_histogram_equals_loop(self, kind, r1, r2, turns, phi0, bits, n, seed):
        dac = cal.DacSpec(bits=bits)
        model = gates.GateModel(kind, alpha=turns * 2 * np.pi / dac.full_scale ** 2,
                                phi0=phi0, r1=r1, r2=r2, dac=dac)
        hist = gates.fidelity_histogram(model, n, seed=seed)
        targets = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, n)
        realized, fids = [], []
        for phi in targets:
            u_e, phi_e = gates.realizable_gate(model, phi)
            realized.append(phi_e)
            fids.append(optics.fidelity(u_e, model.target_matrix(phi)))
        assert np.array_equal(hist.targets, targets)
        assert np.array_equal(hist.realized, realized)
        assert np.array_equal(hist.fidelities, fids)

    def test_batch_with_one_target_out_of_band(self):
        model = gates.GateModel("rz", alpha=0.0437)
        for bad in (-0.1, 2 * np.pi, np.nan):
            with pytest.raises(ValueError):
                gates._realize(model, np.array([0.1, bad, 3.0]))

    def test_batch_with_one_unreachable_phase(self):
        model = gates.GateModel("rz", alpha=1e-3)
        with pytest.raises(InfeasibleTargetError, match="phase 5.0 "):
            gates._realize(model, np.array([0.1, 5.0, 0.2]))


# SHA-256 of every `gates --out` file, recorded from the per-sample loop
# this batched path replaced; the maths did not change, so neither may a byte
GOLDEN_DIGESTS = {
    ("--samples", "20", "--seed", "7"): {
        "gate_summary.csv": "6be947a46bd1bf44d55d4fdd29d92d83fe72fdac4595ca4e05a08d58f9628a37",
        "hist_Rx1.csv": "a68732b0b2224a9af3e261de86837d6f7586492c6cace25733b816a6534f0dcb",
        "hist_Rx2.csv": "a093b741f138fa7890f04f84570eddb219f92a4c1f16f626ce16a2f6005e8634",
        "hist_Rx3.csv": "55552ef06f55a39f9e659f0dd183349816ee00ac7e174b3db8eb1ea2c39a1f3c",
        "hist_Rx4.csv": "6da3a27b5a3d0eecbf652b9e3d0af696486bd663d882eeed1cfb3f58be375dd3",
        "hist_Rz1.csv": "ae99b8b2edd8159731f4238aff752ee1afa78394c2660dd53311295b43cb0500",
        "hist_Rz2.csv": "bf9e209160985bd03cee45aad2238c7ca3fd605fe976ed78de534e85d144bd84",
        "hist_Rz3.csv": "f4debaddeaf77e8a6c03b1ca3c91ed7634239ee831f3a59078336a84c6181847",
        "hist_Rz4.csv": "731c47c0ba5506d520ab3d108949ff9a8bc7813ebf966c8fe3f21f9ac79a73a5",
    },
    ("--samples", "1000", "--ratio-dev", "0.0150", "--seed", "12345"): {
        "gate_summary.csv": "86f96f93e34db259828dbabaecb7285c244aafd0503b6274d5ac3706144ae9d7",
        "hist_Rx1.csv": "5296c647a49e90f5b887419eed9110cf41e0467f2a98480c2751c78443607d7b",
        "hist_Rx2.csv": "fd87926103b57a94e9799c1c13ae79982f93b770cbb2f2992f14ff297e979c7e",
        "hist_Rx3.csv": "09377250f2271dd26b89359ed78cf8d9125bd1ad8eb6ff0a8727008970d5036c",
        "hist_Rx4.csv": "7fe798e3a7bdf4786f78964ca6a8e047b0c2eff1fca26851e584aed0d55e0ca1",
        "hist_Rz1.csv": "33772a5107d48d64341fa1d22beab72e466fac756c055a0dbe724905327b459b",
        "hist_Rz2.csv": "aa310a5411b175e74fee6cc3c671dbea597d67ef5b77a61e743b50346773a8e5",
        "hist_Rz3.csv": "438d1f81263dc76e79ea07995a028763685d7e272043965669acf7a3d86f7391",
        "hist_Rz4.csv": "e5ef6694913bcdf5f5e47b6efb36c0ff0f0919b14f174a9b9a7b82ed86809876",
    },
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_DIGESTS))
def test_gates_outputs_pinned(tmp_path, argv):
    assert cli.main(["gates", *argv, "--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == GOLDEN_DIGESTS[argv]
