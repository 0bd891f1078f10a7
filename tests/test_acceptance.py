"""End-to-end acceptance suite.

Each test covers one numbered release criterion at its stated tolerance and
prints a PASS line when it holds (run with -s to see them).
"""

import numpy as np

from dualrail import calibration as cal
from dualrail import cli, gates, optics, sampler, tomography as tomo, vqe

from test_optics import random_unitary


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_01_reference_counts_regression():
    # bundled CNOT tomography counts, unit efficiencies
    dataset = tomo.load_reference_counts()
    result = tomo.mle_reconstruct(dataset, efficiencies=(1.0,) * 4)
    tomo.check_chi(result.chi)
    fid = optics.fidelity(result.chi, tomo.ideal_cnot_chi())
    assert 0.90 <= fid <= 0.97
    report("criterion 1", f"reference-data fidelity {fid:.4f} in [0.90, 0.97]")


def test_criterion_02_closed_loop_reconstruction():
    chip = optics.ChipParameters.ideal()
    ds_low = tomo.run_qpt_simulation(chip, x=1.0, shots_per_config=2000, seed=2)
    fid_low = optics.fidelity(
        tomo.mle_reconstruct(ds_low).chi,
        tomo.ideal_cnot_chi())
    assert fid_low >= 0.99
    ds_high = tomo.run_qpt_simulation(chip, x=1.0, shots_per_config=10 ** 6,
                                      seed=3)
    fid_high = optics.fidelity(
        tomo.mle_reconstruct(ds_high).chi,
        tomo.ideal_cnot_chi())
    assert fid_high >= 0.999
    report("criterion 2",
           f"closed loop {fid_low:.4f} at 2000 shots (>=0.99), "
           f"{fid_high:.5f} at 1e6 (>=0.999)")


def test_criterion_03_distinguishability_monotonicity():
    chip = optics.ChipParameters.ideal()
    fids = []
    for i, x in enumerate((1.0, 0.978, 0.9, 0.8)):
        ds = tomo.run_qpt_simulation(chip, x=x, shots_per_config=10 ** 5,
                                     seed=30 + i)
        res = tomo.mle_reconstruct(ds)
        fids.append(optics.fidelity(res.chi, tomo.ideal_cnot_chi()))
    assert all(a > b for a, b in zip(fids, fids[1:]))
    report("criterion 3",
           "fidelity strictly decreasing over x sweep: "
           + ", ".join(f"{f:.4f}" for f in fids))


def test_criterion_04_cnot_success_probability():
    chip = optics.ChipParameters.ideal().with_phases(optics.IDENTITY_GATE_PHASES)
    u = optics.build_chip_unitary(chip)
    # rail-level image of the post-selected gate (X-conjugated CNOT frame)
    rail_image = {0: 1, 1: 0, 2: 2, 3: 3}
    for k, state_in in enumerate(optics.COINCIDENCE_STATES):
        probs = np.array([
            sampler.prob_partial(u, state_in, out, 1.0)
            for out in optics.COINCIDENCE_STATES
        ])
        assert abs(probs.sum() - 1.0 / 9.0) < 1e-10
        assert abs(probs[rail_image[k]] - 1.0 / 9.0) < 1e-10
        off = np.delete(probs, rail_image[k])
        assert np.max(off) < 1e-10
    # expressed through the label codebook the table is the textbook CNOT:
    # VH prepares |00> -> C3, VV |01> -> C4, HH |10> -> C2, HV |11> -> C1
    chi = tomo.ideal_cnot_chi()
    for prep, outcome in (("VH", 2), ("VV", 3), ("HH", 1), ("HV", 0)):
        p_sim = tomo.simulate_config_probabilities(
            optics.ChipParameters.ideal(), prep + "hh", x=1.0)
        kets, taus = tomo.config_states(prep + "hh")
        p_ref = np.array([
            tomo.predict_probability(chi, kets, tau) for tau in taus]) / 9.0
        assert np.allclose(p_sim, p_ref, atol=1e-10)
        assert abs(p_sim[outcome] - 1.0 / 9.0) < 1e-10
    report("criterion 4",
           "every basis input post-selects with probability 1/9 onto its "
           "truth-table image")


def test_criterion_05_permanent_oracle():
    rng = np.random.default_rng(55)
    checked = 0
    for n in (2, 3, 4, 5):
        for _ in range(250):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = sampler.permanent(m, "ryser")
            b = sampler.permanent(m, "exact_sum")
            assert abs(a - b) / abs(b) < 1e-10
            checked += 1
    report("criterion 5", f"ryser == exact_sum on {checked} random matrices")


def test_criterion_06_probability_normalization():
    rng = np.random.default_rng(66)
    states = sampler.two_photon_states()
    worst = 0.0
    for _ in range(100):
        u = random_unitary(6, rng)
        for x in (0.0, 0.5, 1.0):
            total = sum(
                sampler.prob_partial(u, optics.INPUT_STATE, s, x)
                for s in states
            )
            worst = max(worst, abs(total - 1.0))
    assert worst < 1e-9
    report("criterion 6",
           f"21-state total deviates from 1 by at most {worst:.1e}")


def test_criterion_07_calibration_round_trip_and_fit():
    model = cal.CrossTalkModel.reference()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        target = rng.uniform(0.0, 2 * np.pi, 8)
        iv = cal.solve_currents(model, target)
        realized = cal.apply_crosstalk(model, iv)
        err = np.max(np.abs(np.mod(realized - target + np.pi, 2 * np.pi) - np.pi))
        worst = max(worst, err)
    assert worst < 1e-9

    currents = np.arange(0.0, 20.0 + 1e-9, 0.15)
    errs = []
    for seed in range(100):
        sweep_rng = np.random.default_rng(seed)
        truth = (0.5, 0.45, 0.3, 0.0437)
        sweep = cal.simulate_sweep(*truth, currents, noise_sigma=0.01,
                                   rng=sweep_rng)
        fit = cal.fit_sweep(sweep)
        errs.append(max(
            abs(fit.b - truth[0]) / truth[0],
            abs(fit.c - truth[1]) / truth[1],
            abs(fit.alpha - truth[3]) / truth[3],
        ))
    median = float(np.median(errs))
    assert median < 0.01
    report("criterion 7",
           f"current round trip worst {worst:.1e} rad; "
           f"fit median error {median:.4f} under 1% noise")


def test_criterion_08_single_qubit_gate_quality():
    ideal = gates.GateModel("rx", alpha=0.0437)
    hist = gates.fidelity_histogram(ideal, 100, seed=8)
    assert hist.mean >= 0.999
    minima = []
    for dev in (-0.05, -0.02, 0.02, 0.05):
        model = gates.GateModel("rx", alpha=0.0437, r1=0.5 + dev, r2=0.5 + dev)
        minima.append(gates.fidelity_histogram(model, 100, seed=8).minimum)
        model = gates.GateModel("rx", alpha=0.0437, r1=0.5 + dev, r2=0.5 - dev)
        minima.append(gates.fidelity_histogram(model, 100, seed=8).minimum)
    assert min(minima) >= 0.97
    report("criterion 8",
           f"ideal-hardware mean {hist.mean:.5f} (>=0.999); "
           f"worst min over +-0.05 ratio deviations {min(minima):.4f} (>=0.97)")


def test_criterion_09_vqe_energy():
    chip = optics.ChipParameters.ideal()
    _, h = vqe.reference_hamiltonian()
    exact = vqe.run_vqe(chip, h, shots_per_basis=None, seed=9)
    gap_exact = abs(exact.best_energy - exact.oracle_energy)
    assert gap_exact <= 1e-3
    gaps = []
    for seed in range(20):
        res = vqe.run_vqe(chip, h, shots_per_basis=2000,
                          seed=seed, max_evaluations=800)
        gaps.append(abs(res.best_energy - res.oracle_energy))
    median = float(np.median(gaps))
    assert median <= 0.05
    report("criterion 9",
           f"exact-mode gap {gap_exact:.1e} Hartree (<=1e-3); "
           f"2000-shot median gap {median:.4f} over 20 seeds (<=0.05)")


def test_criterion_10_hom_visibility():
    chip = optics.ChipParameters.ideal().with_phases(optics.IDENTITY_GATE_PHASES)
    u = optics.build_chip_unitary(chip)
    xs = np.linspace(0.0, 1.0, 201)
    curve = sampler.hom_curve(u, xs)
    p0 = curve[0]
    worst = max(abs((p0 - p) / p0 - x * x) for x, p in zip(xs, curve))
    assert worst < 1e-9
    x_source = np.sqrt(0.957)
    vis = sampler.hom_visibility(sampler.hom_curve(u, [0.0, x_source]))
    assert abs(vis - 0.957) < 1e-9
    report("criterion 10",
           f"visibility equals x^2 to {worst:.1e}; "
           f"visibility at x=sqrt(0.957) is {vis:.3f}")


def test_criterion_11_command_determinism(tmp_path):
    commands = [
        ["characterize", "--seed", "7", "--ratio-sigma", "0.02"],
        ["calibrate", "--seed", "7"],
        ["hom", "--x-points", "11"],
        ["gates", "--samples", "20", "--seed", "7"],
        ["qpt", "--simulate", "--shots", "150", "--seed", "7", "--starts", "1"],
        ["vqe", "--shots", "200", "--optimizer", "spsa", "--seed", "7"],
    ]
    for argv in commands:
        out_a = tmp_path / (argv[0] + "_a")
        out_b = tmp_path / (argv[0] + "_b")
        assert cli.main(argv + ["--out", str(out_a)]) == 0
        assert cli.main(argv + ["--out", str(out_b)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
                f"{argv[0]}/{name} not reproducible"
    report("criterion 11",
           f"all {len(commands)} commands byte-identical on rerun")
