"""Variational ground-state energy estimation on the simulated processor.

The two-qubit hydrogen Hamiltonian

    H = f0 II + f1 ZZ + f2 ZI + f3 IZ + f4 XX

is estimated from coincidence counts in two measurement settings: the
computational (hh) basis covers the II/ZZ/ZI/IZ terms and the diagonal
(dd) basis covers XX, via the projector decomposition with coefficients
f~0..f~7.  A classical optimizer drives the four preparation phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import optics, sampler, tomography
from .errors import DegenerateDataError
from .sampler import CountRecord

TWO_PI = 2.0 * np.pi

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

    def filtered(self, threshold: float = 1e-8) -> "PauliHamiltonian":
        """Drop terms with magnitude below `threshold`."""
        f = [v if abs(v) >= threshold else 0.0 for v in self.coefficients()]
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


def expectation_from_counts(
    h: ProjectorHamiltonian,
    counts_hh: CountRecord,
    counts_dd: CountRecord,
) -> float:
    """<H> = sum_i f~_i c_i with c = C / sum(C) per measurement basis."""
    if counts_hh.total == 0 or counts_dd.total == 0:
        raise DegenerateDataError("cannot normalize a zero-count record")
    c = np.concatenate([counts_hh.normalized(), counts_dd.normalized()])
    return float(h.as_array() @ c)


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
    forward-model call over all 2K configurations and one draw of counts,
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
        if shots_per_basis <= 0:
            raise ValueError(
                f"shots_per_basis must be positive, got {shots_per_basis}")
        if rng is None:
            raise ValueError("sampled estimation needs an rng")
    stack = np.atleast_2d(a)
    meas = np.array([HH_MEAS_PHASES, DD_MEAS_PHASES])
    phases = np.concatenate(
        [np.repeat(stack[:, None, :], 2, axis=1),
         np.broadcast_to(meas, (len(stack), 2, 4))], axis=-1)
    probs = sampler.coincidence_probabilities(
        optics.chip_unitaries(chip, phases), 1.0)
    # C-contiguous, so each row's 8-term dot product below rounds as the
    # dot of one contiguous vector does
    data = np.take_along_axis(probs, _COUNT_ORDER, axis=-1)
    if shots_per_basis is not None:
        # the pair number is nine times the expected coincidences, matching
        # the 1/9 post-selection success of the ideal gate
        records = sampler.sample_counts(
            data.reshape(-1, 4), 9 * shots_per_basis, rng)
        data = np.array([r.counts for r in records]).reshape(data.shape)
    totals = data.sum(axis=-1, keepdims=True)
    if not (totals > 0).all():
        raise DegenerateDataError(
            "no post-selected coincidences in a measurement basis")
    shares = data / totals
    recorded = (shares if shots_per_basis is None else data).tolist()
    h = h_proj.as_array()
    results = [(float(h @ row), tuple(hh), tuple(dd))
               for row, (hh, dd) in zip(shares.reshape(-1, 8), recorded)]
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


def _spsa_minimize(objective, x0, rng, n_iterations, a0=0.6, c0=0.25,
                   alpha=0.602, gamma=0.101):
    """Simultaneous-perturbation descent for noisy objectives.

    `objective` takes a stack of points (2, n) and returns their two values:
    both points of a step are known before either is measured, so they are
    evaluated together.
    """
    x = np.array(x0, dtype=float)
    best_x, best_f = x.copy(), np.inf
    for k in range(n_iterations):
        ak = a0 / (k + 1 + 0.1 * n_iterations) ** alpha
        ck = c0 / (k + 1) ** gamma
        delta = rng.choice([-1.0, 1.0], size=x.size)
        f_plus, f_minus = objective(np.stack([x + ck * delta, x - ck * delta]))
        ghat = (f_plus - f_minus) / (2.0 * ck) * delta
        x = x - ak * ghat
        x = np.mod(x, TWO_PI)
        f_here = min(f_plus, f_minus)
        if f_here < best_f:
            best_f, best_x = f_here, x.copy()
    return best_x


def run_vqe(
    chip: optics.ChipParameters,
    hamiltonian: PauliHamiltonian,
    shots_per_basis: int | None = None,
    seed: int = 0,
    max_evaluations: int = 2000,
    n_restarts: int = 4,
    tol: float = 1e-9,
) -> VqeResult:
    """Minimize the measured energy over the four preparation phases.

    The mode picks the optimizer: exact probabilities (shots_per_basis None)
    run restarted Nelder-Mead simplex descent, and shot-noisy counts run
    simultaneous-perturbation descent.  Coefficients below 1e-8 are dropped
    on ingestion.  Records per-iteration energy and both basis records.
    """
    hamiltonian = hamiltonian.filtered()
    h_proj = pauli_to_projector(hamiltonian)
    spectrum = np.linalg.eigvalsh(hamiltonian.matrix())
    oracle = float(spectrum.min())
    bounds = (oracle, float(spectrum.max()))
    rng = np.random.default_rng(seed)
    trace = VqeTrace()
    exact = shots_per_basis is None
    bound_slack = 1e-9 if exact else 0.0

    def objective(phases):
        # one point (4,) gives its energy, a stack (K, 4) a list of K energies
        phases = np.mod(np.asarray(phases, dtype=float), TWO_PI)
        measured = measure_energy(chip, h_proj, phases, shots_per_basis, rng)
        if phases.ndim == 1:
            return record(phases, *measured)
        return [record(row, *m) for row, m in zip(phases, measured)]

    def record(phases, energy, rec_hh, rec_dd):
        trace.iterations.append(len(trace.energies) + 1)
        trace.phases.append(tuple(phases))
        trace.energies.append(energy)
        running = min(energy, trace.best_energies[-1]) if trace.best_energies \
            else energy
        trace.best_energies.append(running)
        trace.records_hh.append(rec_hh)
        trace.records_dd.append(rec_dd)
        trace.out_of_bounds.append(
            not bounds[0] - bound_slack <= energy <= bounds[1] + bound_slack
        )
        return energy

    if exact:
        from scipy.optimize import minimize  # only exact runs need scipy

        # converged when two consecutive restarts agree to tol; the
        # stagnation flag marks a budget exhausted before that happens
        x = rng.uniform(0.0, TWO_PI, 4)
        per_restart = max(max_evaluations // max(n_restarts, 1), 50)
        previous_best = np.inf
        stagnated = True
        for restart in range(n_restarts):
            res = minimize(
                objective, x, method="Nelder-Mead",
                options={"maxfev": per_restart, "xatol": 1e-8, "fatol": 1e-12},
            )
            x = np.mod(res.x, TWO_PI)
            if restart > 0 and abs(trace.best_energies[-1] - previous_best) < tol:
                stagnated = False
                break
            previous_best = trace.best_energies[-1]
            if restart < n_restarts - 1:
                x = x + rng.normal(0.0, 0.15, 4)
    else:
        n_iter = max(max_evaluations // 4, 10)
        for _ in range(2):
            x = _spsa_minimize(objective, rng.uniform(0.0, TWO_PI, 4), rng,
                               n_iter)
            objective(x)
        stagnated = False

    # re-measure at the best parameters (the first evaluation of the lowest
    # energy): the reported energy is a fresh estimate, not the running
    # minimum of noisy evaluations
    best_phases = trace.phases[int(np.argmin(trace.energies))]
    final_energy = objective(np.array(best_phases))
    return VqeResult(best_phases, final_energy, trace, stagnated, oracle)


# ---------------------------------------------------------------------------
# Hamiltonian tables


def _load_table(text: str, n_coefficients: int) -> list[list[float]]:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.lower().startswith("distance"):
            continue
        vals = [float(v) for v in line.split()]
        if len(vals) != n_coefficients + 1:
            raise ValueError(f"expected distance plus {n_coefficients} coefficients")
        rows.append(vals)
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
