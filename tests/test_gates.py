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


# The DAC rounding rule as `calibration.quantize` and `gates._realize` each
# spelled it out before both came to call `DacSpec.level`.
def quantize_formula(currents, dac):
    levels = np.floor(np.clip(currents, 0.0, dac.full_scale) / dac.step + 0.5)
    return np.clip(levels, 0, 2 ** dac.bits - 1) * dac.step


def realize_formula(model, targets):
    current = np.sqrt(np.mod(targets - model.phi0, 2 * np.pi) / model.alpha)
    step = model.dac.step
    level = np.minimum(np.floor(current / step + 0.5), 2 ** model.dac.bits - 1)
    return model.phi0 + model.alpha * np.float_power(level * step, 2)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(bits=st.integers(1, 48), full_scale=st.floats(1e-3, 1e3),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
def test_dac_rule_matches_former_formulas(bits, full_scale, fractions):
    dac = cal.DacSpec(bits, full_scale)
    currents = np.array(fractions) * full_scale
    quantized = cal.quantize(cal.CurrentVector(tuple(currents), dac)).values
    assert quantized == tuple(quantize_formula(currents, dac).tolist())
    # a range of 6 rad < 2 pi reaches every current, at target alpha I^2
    model = gates.GateModel("rz", alpha=6.0 / full_scale ** 2, dac=dac)
    targets = model.alpha * currents ** 2
    expected = realize_formula(model, targets)
    assert gates._realize(model, targets)[1].tolist() == expected.tolist()
    for phi, want in zip(targets.tolist(), expected.tolist()):
        assert gates.realizable_gate(model, phi)[1] == want


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
# this batched path replaced; the maths did not change, so neither may a byte.
# Pinned again when the settings hash came to cover only the command's own
# settings: that changed each file's `# config_hash` line and nothing else.
GOLDEN_DIGESTS = {
    ("--samples", "20", "--seed", "7"): {
        "gate_summary.csv": "21abca748e76a13ebd245d28bca9500727c8ddd5c0900d3a6a0cc61a23a0b883",
        "hist_Rx1.csv": "07eaa35a1c1c5e6b10bb7cb3948dd5837f4f4962d43ee1de0b33cfc0cc3e809d",
        "hist_Rx2.csv": "5cea72a69c682f2a74dd29a89b49e8b17460f3c7f6210084cef559e8cb5c7608",
        "hist_Rx3.csv": "76ca941245c717ebece8af519ea0eb54d9dc824da9b69f6f7a3e839fbda6c4c1",
        "hist_Rx4.csv": "a9ba4955a69b11ae8f4124529bd1808f39c078f2839dedaf4795eea14fa12c7c",
        "hist_Rz1.csv": "3d23bc7e4387c1fb0e772fe2b0b92be647bec8e1fe9de6a482f559cf322f983f",
        "hist_Rz2.csv": "34fc575d66203bd175c06e6b102eebd388b799affef8c7d3cc1036ae6df2105e",
        "hist_Rz3.csv": "87a0710bf0b2ec4a9d82d19e858b717412f9ddb51d276ef93d61436aa6635b0e",
        "hist_Rz4.csv": "7be4ffc1037b0f799934094f0b12d0f64b2c68b9cd15d81ae50d7f118ad1ac41",
    },
    ("--samples", "1000", "--ratio-dev", "0.0150", "--seed", "12345"): {
        "gate_summary.csv": "01fa0b8802d683d79cb208aee4cba10350ef615c664e944efa482d5ed0491f63",
        "hist_Rx1.csv": "946ce4297684aeb080d4d5f7f07652afdba7f7ac656ff6a6f6e71a6fe51bebc5",
        "hist_Rx2.csv": "6573edc6c70968fb54d3d230088073d0c5b3da8742db75129450e64fc90df9fc",
        "hist_Rx3.csv": "6daa4664906c0ee837ce7d8d93b86b51f7edbdaa75c93cc1b09b17e772487ac4",
        "hist_Rx4.csv": "35e2117aaea36b116e968f29a488a5848088b5bc19831539e03a10e742ae87d9",
        "hist_Rz1.csv": "4a8b2d0c01f75815c0b6aaa6e05b417fd7f423b7a125df21338895e22e69a823",
        "hist_Rz2.csv": "eff86d47712dd2d5bc4d55208b59975547626fabd7ed20acd6766f3a1bf00e4b",
        "hist_Rz3.csv": "1d81102cbdf6b7887316d48b629a9ece97385a14f65697500a9852027b537286",
        "hist_Rz4.csv": "bef4cb5b086b7c17dd1e38f91893bfcd14c01f1faecaa16015f15a737c102c5d",
    },
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_DIGESTS))
def test_gates_outputs_pinned(tmp_path, argv):
    assert cli.main(["gates", *argv, "--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == GOLDEN_DIGESTS[argv]
