"""Properties of the batched, closed-form two-photon forward model.

Hypothesis runs derandomized so the suite stays reproducible.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualrail import optics, sampler, tomography as tomo, vqe

from test_optics import random_unitary

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

seeds = st.integers(0, 2 ** 32 - 1)
overlaps = st.floats(0.0, 1.0)
mode_pairs = st.lists(st.integers(0, 5), min_size=2, max_size=2,
                      unique=True).map(sorted)


def ryser_coincidences(u, x):
    """(1-x^2) perm(|S|^2) + x^2 |perm(S)|^2 for C1..C4, via Ryser."""
    out = []
    for state in optics.COINCIDENCE_STATES:
        sub = sampler.submatrix_for_transition(u, optics.INPUT_STATE, state)
        p_classical = np.real(sampler.permanent(np.abs(sub) ** 2))
        p_quantum = abs(sampler.permanent(sub)) ** 2
        out.append((1.0 - x * x) * p_classical + x * x * p_quantum)
    return np.array(out)


@SETTINGS
@given(seed=seeds, n=st.integers(1, 6), x=overlaps)
def test_batched_coincidences_match_ryser(seed, n, x):
    rng = np.random.default_rng(seed)
    stack = np.array([random_unitary(6, rng) for _ in range(n)])
    batched = sampler.coincidence_probabilities(stack, x)
    assert batched.shape == (n, 4)
    for u, row in zip(stack, batched):
        assert np.max(np.abs(row - ryser_coincidences(u, x))) < 1e-12


@SETTINGS
@given(seed=seeds, x=overlaps, pair=mode_pairs)
def test_two_photon_outputs_normalized(seed, x, pair):
    u = random_unitary(6, np.random.default_rng(seed))
    state_in = tuple(int(m in pair) for m in range(6))
    total = sum(sampler.prob_partial(u, state_in, out, x)
                for out in sampler.two_photon_states())
    assert abs(total - 1.0) < 1e-12


def literal_chip_unitary(chip, phases):
    """One configuration composed block by block: U2 @ CNOT @ U1."""
    r, p = chip.splitting_ratios, phases

    def stage(block1, block2):
        return (optics.embed(block1, optics.QUBIT1_RAILS)
                @ optics.embed(block2, optics.QUBIT2_RAILS))

    def prep(r_a, r_b, phi_mzi, phi_rail):
        return optics.phase_matrix(phi_rail) @ optics.mzi_matrix(r_a, r_b, phi_mzi)

    def meas(r_a, r_b, phi_rail, phi_mzi):
        return optics.mzi_matrix(r_a, r_b, phi_mzi) @ optics.phase_matrix(phi_rail)

    u1 = stage(prep(r[0], r[1], p[0], p[1]), prep(r[2], r[3], p[2], p[3]))
    u2 = stage(meas(r[9], r[10], p[4], p[5]), meas(r[11], r[12], p[6], p[7]))
    return u2 @ optics.cnot_section(chip) @ u1


@SETTINGS
@given(ratios=st.lists(st.floats(0.0, 1.0), min_size=13, max_size=13),
       static=st.lists(st.floats(-7.0, 7.0), min_size=2, max_size=2),
       seed=seeds, n=st.integers(1, 5))
def test_chip_unitaries_rows_match_single_builds(ratios, static, seed, n):
    chip = optics.ChipParameters(tuple(ratios), (0.0,) * 8, tuple(static))
    phases = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, (n, 8))
    stack = optics.chip_unitaries(chip, phases)
    assert stack.shape == (n, 6, 6)
    for row, u in zip(phases, stack):
        assert optics.is_unitary(u)
        single = optics.build_chip_unitary(chip.with_phases(row))
        assert np.max(np.abs(u - single)) < 1e-14
        assert np.max(np.abs(u - literal_chip_unitary(chip, row))) < 1e-14


def uncached_chip_unitaries(params, phases):
    """Uncached reference: every stage coupler rebuilt by `mzi_matrix`,
    multiplied in the order `optics.chip_unitaries` must keep."""
    r = params.splitting_ratios
    q = np.asarray(phases, dtype=float).reshape(np.shape(phases)[:-1] + (2, 2, 2))
    prep = (optics.phase_matrix(q[..., 0, :, 1])
            @ optics.mzi_matrix((r[0], r[2]), (r[1], r[3]), q[..., 0, :, 0]))
    meas = (optics.mzi_matrix((r[9], r[11]), (r[10], r[12]), q[..., 1, :, 1])
            @ optics.phase_matrix(q[..., 1, :, 0]))
    return (optics._rail_stage(meas) @ optics.cnot_section(params)
            @ optics._rail_stage(prep))


@SETTINGS
@given(ratios=st.lists(st.floats(0.0, 1.0), min_size=13, max_size=13),
       static=st.lists(st.floats(-7.0, 7.0), min_size=2, max_size=2),
       seed=seeds)
def test_chip_unitaries_rows_bit_exact_across_stack_sizes(ratios, static, seed):
    chip = optics.ChipParameters(tuple(ratios), (0.0,) * 8, tuple(static))
    phases = np.random.default_rng(seed).uniform(-7.0, 7.0, (4, 8))
    full = optics.chip_unitaries(chip, phases)
    assert np.array_equal(full, uncached_chip_unitaries(chip, phases))
    # the (K, 2, 8) layout of vqe.measure_energy
    assert np.array_equal(
        optics.chip_unitaries(chip, phases.reshape(2, 2, 8)).reshape(4, 6, 6),
        full)
    for n in (1, 2):
        for start in range(0, 4, n):
            part = optics.chip_unitaries(chip, phases[start:start + n])
            assert np.array_equal(part, full[start:start + n])
    for row, u in zip(phases, full):
        assert np.array_equal(optics.chip_unitaries(chip, row), u)


def test_stage_couplers_cached_read_only():
    chip = optics.ChipParameters.ideal().with_ratio(2, 0.47)
    couplers = optics._stage_couplers(chip)
    assert optics._stage_couplers(chip) is couplers
    assert [dc.shape for dc in couplers] == [(2, 2, 2)] * 4
    for dc in couplers:
        with pytest.raises(ValueError):
            dc[0, 0, 0] = 0.0


@SETTINGS
@given(seed=seeds, k=st.integers(1, 5), shots=st.sampled_from([None, 50, 2000]))
def test_measure_energy_stack_equals_single_calls(seed, k, shots):
    rng = np.random.default_rng(seed)
    chip = optics.ChipParameters.ideal().perturbed(0.03, rng)
    h_proj = vqe.pauli_to_projector(vqe.PauliHamiltonian(*rng.normal(0, 1, 5)))
    phases = rng.uniform(0.0, 2 * np.pi, (k, 4))
    rng_stack = np.random.default_rng(seed + 1)
    rng_single = np.random.default_rng(seed + 1)
    stacked = vqe.measure_energy(chip, h_proj, phases, shots, rng_stack)
    singles = [vqe.measure_energy(chip, h_proj, row, shots, rng_single)
               for row in phases]
    assert len(stacked) == k
    for (e_a, hh_a, dd_a), (e_b, hh_b, dd_b) in zip(stacked, singles):
        assert e_a == e_b
        assert hh_a == hh_b and dd_a == dd_b
    assert rng_stack.bit_generator.state == rng_single.bit_generator.state


@SETTINGS
@given(seed=seeds, k=st.integers(1, 64),
       n_events=st.sampled_from([1, 450, 18000, 9 * 10 ** 6]))
def test_sample_counts_stack_equals_single_calls(seed, k, n_events):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(5), size=k)[:, :4] * rng.uniform(0, 1, (k, 1))
    probs[rng.uniform(size=(k, 4)) < 0.1] = 0.0
    rng_stack = np.random.default_rng(seed + 1)
    rng_single = np.random.default_rng(seed + 1)
    stacked = sampler.sample_counts(probs, n_events, rng_stack)
    singles = [sampler.sample_counts(row, n_events, rng_single)
               for row in probs]
    assert stacked == singles
    assert rng_stack.bit_generator.state == rng_single.bit_generator.state


@SETTINGS
@given(seed=seeds)
def test_process_apply_matches_literal_sum(seed):
    rng = np.random.default_rng(seed)
    chi = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    expected = np.zeros((4, 4), dtype=complex)
    for m in range(16):
        for n in range(16):
            expected += (chi[m, n] * tomo.PAULI_OPS[m] @ rho
                         @ tomo.PAULI_OPS[n].conj().T)
    assert np.allclose(tomo.process_apply(chi, rho), expected,
                       rtol=0.0, atol=1e-12)


def test_hot_paths_never_call_ryser(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("forward model reached the Ryser permanent")

    monkeypatch.setattr(sampler, "permanent", refuse)
    chip = optics.ChipParameters.ideal()
    _, h = vqe.reference_hamiltonian()
    h_proj = vqe.pauli_to_projector(h)
    phases = (0.3, 1.1, 2.0, 4.5)
    energy, _, _ = vqe.measure_energy(chip, h_proj, phases, None)
    assert np.isfinite(energy)
    energy, _, _ = vqe.measure_energy(chip, h_proj, phases, 500,
                                      np.random.default_rng(0))
    assert np.isfinite(energy)
    dataset = tomo.run_qpt_simulation(chip, x=0.9, shots_per_config=50, seed=1)
    assert len(dataset) == 64
    u = optics.build_chip_unitary(chip.with_phases(optics.IDENTITY_GATE_PHASES))
    assert sampler.hom_curve(u, np.linspace(0.0, 1.0, 5)).shape == (5,)
    # the oracle itself still goes through the patched permanent
    with pytest.raises(AssertionError):
        sampler.prob_indistinguishable(u, optics.INPUT_STATE, optics.INPUT_STATE)
