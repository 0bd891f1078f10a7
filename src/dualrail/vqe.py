"""Variational ground-state energy estimation on the simulated processor.

The two-qubit hydrogen Hamiltonian

    H = f0 II + f1 ZZ + f2 ZI + f3 IZ + f4 XX

is estimated from coincidence counts in two measurement settings: the
computational (hh) basis covers the II/ZZ/ZI/IZ terms and the diagonal
(dd) basis covers XX, via the projector decomposition with coefficients
f~0..f~7.  Each preparation stage carries one photon, so every raw
coincidence probability is a + b cos phi + c sin phi in each of the four
preparation phases, and `run_vqe` minimizes over one phase at a time in
closed form, with exact probabilities and with sampled counts alike.

The ansatz phases enter only the preparation stage, so the forward model
splits there.  Everything after it, the CNOT section and the measurement
stage of each basis, is folded once per chip into a tensor of 2x2
permanents (`_amplitude_tensor`, cached).  Each evaluation then needs only the two
photons' rail amplitudes out of their preparation stages and one
contraction with that tensor (`_probabilities`); the generic
`optics.chip_unitaries` path is the reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import optics, sampler, tomography
from .errors import DegenerateDataError

TWO_PI = 2.0 * np.pi
_COEFFICIENT_FLOOR = 1e-8   # Ha; smaller Hamiltonian terms are dropped
_SWEEP_TOL = 1e-9   # Ha; exact mode stops when a sweep moves the energy by less

HH_MEAS_PHASES = tomography.MEAS_PHASES["h"] * 2
DD_MEAS_PHASES = tomography.MEAS_PHASES["d"] * 2

# Map from measured coincidence index to projector slot for the hh basis:
# the rail relabeling on qubit 1 (tomography module docstring) sends the
# computational outcomes (C1..C4) to projector order (VH, VV, HH, HV), so
# slot k reads count HH_SLOTS[k].  The diagonal basis is X-frame invariant.
HH_SLOTS = (2, 3, 0, 1)
# slot indices taking (K, 2, 4) coincidence probabilities, hh then dd, into
# count order
_COUNT_ORDER = np.array([[HH_SLOTS, (0, 1, 2, 3)]])

# Frames taking a preparation-stage rail state into the logical qubit the
# coincidence statistics report (conjugation included; derived once from the
# coupler matrices, verified against every tabulated setting).
_FRAME_Q1 = np.array([[0, 1], [-1j, 0]], dtype=complex)
_FRAME_Q2 = np.array([[1, 0], [0, 1j]], dtype=complex)


@dataclass(frozen=True)
class PauliHamiltonian:
    """Coefficients (Hartree) for the II, ZZ, ZI, IZ, XX terms."""

    f0: float
    f1: float
    f2: float
    f3: float
    f4: float

    def coefficients(self) -> np.ndarray:
        return np.array([self.f0, self.f1, self.f2, self.f3, self.f4])

    def filtered(self) -> "PauliHamiltonian":
        """Drop terms with magnitude below `_COEFFICIENT_FLOOR`."""
        f = [v if abs(v) >= _COEFFICIENT_FLOOR else 0.0
             for v in self.coefficients()]
        return PauliHamiltonian(*f)

    def matrix(self) -> np.ndarray:
        z = tomography.SIGMA_Z
        x = tomography.SIGMA_X
        eye = tomography.SIGMA_I
        return (
            self.f0 * np.kron(eye, eye)
            + self.f1 * np.kron(z, z)
            + self.f2 * np.kron(z, eye)
            + self.f3 * np.kron(eye, z)
            + self.f4 * np.kron(x, x)
        )


@dataclass(frozen=True)
class ProjectorHamiltonian:
    """Coefficients (Hartree) over P_H P_H, P_H P_V, P_V P_H, P_V P_V,
    P_D P_D, P_D P_A, P_A P_D, P_A P_A."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        c = tuple(float(v) for v in self.coefficients)
        if len(c) != 8:
            raise ValueError("expected 8 projector coefficients")
        object.__setattr__(self, "coefficients", c)

    def as_array(self) -> np.ndarray:
        return np.array(self.coefficients)


def pauli_to_projector(h: PauliHamiltonian) -> ProjectorHamiltonian:
    f0, f1, f2, f3, f4 = h.coefficients()
    return ProjectorHamiltonian((
        f0 + f1 + f2 + f3,
        f0 - f1 + f2 - f3,
        f0 - f1 - f2 + f3,
        f0 + f1 - f2 - f3,
        f4, -f4, -f4, f4,
    ))


def projector_to_pauli(h: ProjectorHamiltonian) -> PauliHamiltonian:
    t0, t1, t2, t3, t4, t5, t6, t7 = h.coefficients
    if not (
        np.isclose(t4, -t5) and np.isclose(t4, -t6) and np.isclose(t4, t7)
    ):
        raise ValueError("diagonal-basis coefficients must satisfy +-f4 symmetry")
    return PauliHamiltonian(
        (t0 + t1 + t2 + t3) / 4.0,
        (t0 - t1 - t2 + t3) / 4.0,
        (t0 + t1 - t2 - t3) / 4.0,
        (t0 - t1 + t2 - t3) / 4.0,
        t4,
    )


def energy_oracle(h: PauliHamiltonian) -> float:
    """Smallest eigenvalue of the 4x4 Hamiltonian matrix."""
    return float(np.linalg.eigvalsh(h.matrix()).min())


def _post_selected(counts: np.ndarray) -> np.ndarray:
    """Each basis's counts C1..C4 over their total, on the last axis."""
    totals = counts.sum(axis=-1, keepdims=True)
    if not (totals > 0).all():
        raise DegenerateDataError(
            "no post-selected coincidences in a measurement basis")
    return counts / totals


def expectation_from_counts(h: ProjectorHamiltonian, counts):
    """<H> = sum_i f~_i c_i with c = C / sum(C) per measurement basis, for
    counts (or probabilities) in count order, hh then dd: shape (2, 4) gives
    one energy, a stack (K, 2, 4) an array of K."""
    c = np.asarray(counts, dtype=float)
    if c.ndim not in (2, 3) or c.shape[-2:] != (2, 4):
        raise ValueError(
            f"expected counts of shape (2, 4) or (K, 2, 4), got shape {c.shape}")
    energies = _energies(h.as_array(), _post_selected(c))
    return float(energies[0]) if c.ndim == 2 else energies


def _energies(f, post) -> np.ndarray:
    # each (2, 4) is one contiguous row, so its dot rounds as an 8-vector's
    return np.array([f @ row for row in post.reshape(-1, 8)])


def ansatz_state(phases) -> np.ndarray:
    """Logical two-qubit state prepared by phases (phi1..phi4).

    Passes each photon through its preparation stage, applies the rail
    frames, and the CNOT; this is the state whose projector statistics the
    coincidence counters report.
    """
    p = tuple(float(v) for v in phases)
    if len(p) != 4:
        raise ValueError("expected 4 preparation phases")
    in1 = np.array([1, 0], dtype=complex)
    w1 = optics.phase_matrix(p[1]) @ optics.mzi_matrix(0.5, 0.5, p[0]) @ in1
    w2 = optics.phase_matrix(p[3]) @ optics.mzi_matrix(0.5, 0.5, p[2]) @ in1
    psi = np.kron(np.conj(_FRAME_Q1 @ w1), np.conj(_FRAME_Q2 @ w2))
    return tomography.CNOT @ psi


def exact_expectation(h: PauliHamiltonian, phases) -> float:
    """<psi|H|psi> for the ansatz state; reference path without counts."""
    psi = ansatz_state(phases)
    return float(np.real(np.vdot(psi, h.matrix() @ psi)))


@lru_cache(maxsize=16)
def _amplitude_tensor(chip: optics.ChipParameters) -> np.ndarray:
    """Two-photon amplitudes T[s, slot, a, b], shape (2, 4, 2, 2), of the
    chip after its preparation stage, in the hh (s = 0) and dd (s = 1) bases.

    With V_s = `optics.measured_cnot` at the measurement phases of basis s,
    T[s, slot, a, b] = Perm V_s[(i, j), (a, b)] for the output pair (i, j)
    of each count slot, a on the qubit-1 rails and b on the qubit-2 rails.
    Photons entering the CNOT section in rail states w1 and w2 leave in
    (i, j) with amplitude sum_ab T[s, slot, a, b] w1[a] w2[b]: the permanent
    of the chip's 2x2 submatrix is bilinear in its two columns.  Cached per
    chip like `optics.cnot_section` (a VQE run and its final re-measurement
    share one), so the array is read-only.
    """
    v = optics.measured_cnot(chip, [HH_MEAS_PHASES, DD_MEAS_PHASES])
    # rows[s, slot] is the output pair (i, j), cols[a, b] the input (a, b)
    rows = np.array(sampler._COINCIDENCE_MODES)[_COUNT_ORDER[0]]
    cols = np.stack(np.meshgrid(optics.QUBIT1_RAILS, optics.QUBIT2_RAILS,
                                indexing="ij"), axis=-1)
    sub = v[np.arange(2)[:, None, None, None, None, None],
            rows[:, :, None, None, :, None], cols[:, :, None, :]]
    tensor = sampler._perm2(sub)
    tensor.setflags(write=False)
    return tensor


def _probabilities(chip, tensor, stack) -> np.ndarray:
    """Coincidence probabilities (K, 2, 4) in count order, hh then dd, for
    ansatz phases (K, 4), from the amplitude tensor of `chip`.

    Each photon enters the first rail of its qubit, so its preparation stage
    P(rail) DC P(MZI) DC sends it into the CNOT section as that product's
    column 0.  The outputs are singly occupied and the photons
    indistinguishable, so each probability is |amplitude|^2, rounded as
    `sampler.coincidence_probabilities` rounds it at x = 1.
    """
    prep1, prep2, _, _ = optics._stage_couplers(chip)
    q = stack.reshape(-1, 2, 2)   # (K, qubit, (MZI, rail)) phases
    w = (prep2 @ optics.phase_matrix(q[..., 0]) @ prep1[..., :1])[..., 0]
    w[..., 0] *= np.exp(1j * q[..., 1])
    amp = np.einsum("xab,ka,kb->kx", tensor.reshape(8, 2, 2),
                    w[:, 0], w[:, 1]).reshape(-1, 2, 4)
    return np.float_power(np.hypot(amp.real, amp.imag), 2)


def _measure(chip, tensor, h_proj, stack, shots_per_basis, rng):
    """Raw data (K, 2, 4) in count order, hh then dd, for ansatz phases
    (K, 4), their records (K, 2, 4) and their K energies.  The raw data are
    the coincidence probabilities (recorded post-selected) or counts drawn
    from them row by row, hh before dd, at a checked `shots_per_basis`:
    expected counts are linear in the probabilities."""
    data = _probabilities(chip, tensor, stack)
    if shots_per_basis is not None:
        # the pair number is nine times the expected coincidences, matching
        # the 1/9 post-selection success of the ideal gate
        data = sampler._draw(data.reshape(-1, 4), 9 * shots_per_basis,
                             rng).reshape(data.shape)
    post = _post_selected(data)
    return (data, post if shots_per_basis is None else data,
            _energies(h_proj.as_array(), post))


def measure_energy(
    chip: optics.ChipParameters,
    h_proj: ProjectorHamiltonian,
    ansatz_phases,
    shots_per_basis: int | None,
    rng: np.random.Generator | None = None,
):
    """Energy estimates; returns (energy, hh record, dd record).

    Each record is a tuple of four values per basis in the order of the
    counts: the sampled counts C1..C4, or with shots_per_basis None the
    exact post-selected probabilities P1..P4.  `ansatz_phases` of shape (4,)
    gives one such triple; a stack (K, 4) gives a list of K triples, from one
    forward-model call over both bases and one draw of counts,
    row by row and hh before dd, so a stack consumes `rng` exactly as K
    single calls in a row would.
    """
    a = np.asarray(ansatz_phases, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != 4:
        raise ValueError(
            f"expected ansatz phases of shape (4,) or (K, 4), got shape {a.shape}")
    if not np.isfinite(a).all():
        bad = a[~np.isfinite(a)][0]
        raise ValueError(f"ansatz phases must be finite, got {bad}")
    if shots_per_basis is not None:
        shots_per_basis = sampler._shot_count(shots_per_basis, "shots_per_basis")
        if rng is None:
            raise ValueError("sampled estimation needs an rng")
    _, recorded, energies = _measure(chip, _amplitude_tensor(chip), h_proj,
                                     np.atleast_2d(a), shots_per_basis, rng)
    results = [(e, tuple(hh), tuple(dd))
               for e, (hh, dd) in zip(energies.tolist(), recorded.tolist())]
    return results[0] if a.ndim == 1 else results


@dataclass
class VqeTrace:
    iterations: list = field(default_factory=list)
    phases: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    best_energies: list = field(default_factory=list)
    # per evaluation, the four counts C1..C4 of each basis, or in exact mode
    # the four post-selected probabilities P1..P4
    records_hh: list = field(default_factory=list)
    records_dd: list = field(default_factory=list)
    out_of_bounds: list = field(default_factory=list)


@dataclass(frozen=True)
class VqeResult:
    best_phases: tuple[float, ...]
    best_energy: float
    trace: VqeTrace
    stagnated: bool
    oracle_energy: float
    sweeps: int   # the last one may be cut short by the budget


# a step measures its phase at three equally spaced shifts, which fix the
# sinusoid a + b cos + c sin of each raw value
_SHIFTS = np.array([0.0, 1.0, 2.0]) * TWO_PI / 3.0
# the energy of the sinusoids is scanned on the first grid; each refinement
# lays the second across the two spacings around the best point so far
_GRID = np.arange(64) / 64.0
_REFINEMENTS = (np.linspace(-1.0, 1.0, 33),) * 6
# on the first grid the sinusoids are _GRID_MODEL @ raw, linear in the rows;
# row 0 is (1, 0, 0) to rounding, so grid point 0 has a finite energy
_GRID_MODEL = 1.0 / 3.0 + 2.0 / 3.0 * np.cos(TWO_PI * _GRID[:, None] - _SHIFTS)


def _grid_energies(f, model):
    """Post-selected energies of fitted raw data (G, 2, 4); +inf where a basis
    total dips to zero between the measured shifts, as no energy is defined."""
    totals = model.sum(axis=-1, keepdims=True)
    post = model / np.where(totals > 0.0, totals, np.nan)
    return np.fmin(post.reshape(-1, 8) @ f, np.inf)   # NaN -> inf


def _coordinate_minimum(h_proj, raw, refine):
    """(shift, energy) minimizing the post-selected energy f~ . (r / sum r
    per basis) of r = a + b cos(shift) + c sin(shift) through the raw data
    (3, 2, 4) measured at _SHIFTS: on the first grid as one product, or with
    `refine` on every grid from a, b and c, which exact runs' traces pin."""
    f = h_proj.as_array()
    if not refine:
        energies = _grid_energies(
            f, (_GRID_MODEL @ raw.reshape(3, 8)).reshape(-1, 2, 4))
        i = int(energies.argmin())
        return TWO_PI * _GRID[i], energies[i]
    a = raw.mean(axis=0)
    b, c = 2.0 / 3.0 * np.tensordot([np.cos(_SHIFTS), np.sin(_SHIFTS)], raw, 1)
    best, spacing = 0.0, TWO_PI
    for grid in (_GRID,) + _REFINEMENTS:
        shifts = best + spacing * grid
        spacing *= grid[1] - grid[0]
        energies = _grid_energies(f, a + np.multiply.outer(np.cos(shifts), b)
                                  + np.multiply.outer(np.sin(shifts), c))
        i = int(energies.argmin())
        best, energy = shifts[i], energies[i]
    return best, energy


def run_vqe(
    chip: optics.ChipParameters,
    hamiltonian: PauliHamiltonian,
    shots_per_basis: int | None = None,
    seed: int = 0,
    max_evaluations: int = 2000,
) -> VqeResult:
    """Minimize the measured energy over the four preparation phases by
    sequential minimal optimization (NFT, Rotosolve).

    Step j measures the current point with phi_k (k = j mod 4) shifted by 0,
    2pi/3 and 4pi/3 in one forward-model call and moves phi_k to the minimum
    of the energy of the sinusoids through the raw values, on a grid refined
    in exact mode.  Exact probabilities stop when a sweep of four steps moves
    the energy by less than `_SWEEP_TOL`; `stagnated` means max_evaluations
    ran out first.  Counts run to that budget.  The best measured point is
    measured again.  Coefficients below `_COEFFICIENT_FLOOR` are dropped.
    """
    if not (isinstance(max_evaluations, (int, np.integer))   # bools are < 4
            and max_evaluations >= 4):
        raise ValueError(
            f"need an integer max_evaluations >= 4, got {max_evaluations!r}")
    if shots_per_basis is not None:
        shots_per_basis = sampler._shot_count(shots_per_basis, "shots_per_basis")
    hamiltonian = hamiltonian.filtered()
    h_proj = pauli_to_projector(hamiltonian)
    spectrum = np.linalg.eigvalsh(hamiltonian.matrix())   # ascending
    exact = shots_per_basis is None
    slack = 1e-9 if exact else 0.0
    rng = np.random.default_rng(seed)
    tensor = _amplitude_tensor(chip)
    # the budget keeps one evaluation for the final re-measurement; the
    # steps write their points, records and energies in place, three rows each
    n = (max_evaluations - 1) // 3 * 3
    phases, energies = np.empty((n, 4)), np.empty(n)
    records = np.empty((n, 2, 4), dtype=float if exact else np.int64)
    x = rng.uniform(0.0, TWO_PI, 4)
    stagnated = exact
    for step in range(n // 3):
        k, rows = step % 4, slice(3 * step, 3 * step + 3)
        phases[rows] = x
        phases[rows, k] = np.mod(x[k] + _SHIFTS, TWO_PI)
        raw, records[rows], energies[rows] = _measure(
            chip, tensor, h_proj, phases[rows], shots_per_basis, rng)
        shift, energy = _coordinate_minimum(h_proj, raw, exact)
        x[k] = np.mod(x[k] + shift, TWO_PI)
        # a sweep starts at the first of its 12 measured points
        if exact and k == 3 and abs(energy - energies[rows.stop - 12]) < _SWEEP_TOL:
            stagnated = False
            break

    # re-measure at the best parameters (the first evaluation of the lowest
    # energy): the reported energy is a fresh estimate, not the running
    # minimum of noisy evaluations
    done = rows.stop
    best_phases = tuple(phases[int(np.argmin(energies[:done]))].tolist())
    final = measure_energy(chip, h_proj, best_phases, shots_per_basis, rng)
    e = np.append(energies[:done], final[0])
    trace = VqeTrace(
        list(range(1, done + 2)),
        [*map(tuple, phases[:done].tolist()), best_phases],
        e.tolist(), np.minimum.accumulate(e).tolist(),
        [*map(tuple, records[:done, 0].tolist()), final[1]],
        [*map(tuple, records[:done, 1].tolist()), final[2]],
        ((e < spectrum[0] - slack) | (e > spectrum[-1] + slack)).tolist())
    return VqeResult(best_phases, final[0], trace, stagnated,
                     float(spectrum[0]), step // 4 + 1)


# ---------------------------------------------------------------------------
# Hamiltonian tables


def _load_table(text: str, n_coefficients: int) -> list[list[float]]:
    rows = [optics.parse_fields(line.split(), lineno, n_coefficients + 1)
            for lineno, line in optics.data_lines(text, "distance")]
    if not rows:
        raise ValueError("empty Hamiltonian table")
    return rows


def load_pauli_table(text: str) -> list[tuple[float, PauliHamiltonian]]:
    """Rows of (distance_angstrom, f0..f4)."""
    return [(v[0], PauliHamiltonian(*v[1:])) for v in _load_table(text, 5)]


def load_projector_table(text: str) -> list[tuple[float, ProjectorHamiltonian]]:
    """Rows of (distance_angstrom, f~0..f~7)."""
    return [(v[0], ProjectorHamiltonian(tuple(v[1:])))
            for v in _load_table(text, 8)]


def reference_hamiltonian() -> tuple[float, PauliHamiltonian]:
    """The bundled 0.4 angstrom hydrogen instance in Pauli form."""
    from . import data
    distance, proj = load_projector_table(data.h2_hamiltonian_text())[0]
    return distance, projector_to_pauli(proj)
