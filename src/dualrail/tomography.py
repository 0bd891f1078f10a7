"""Two-qubit process tomography in the Pauli basis.

Configurations follow the four-letter scheme of the published dataset:
two preparation letters from {H,V,D,A,R,L} and two measurement-basis
letters from {h,d,r}.  One configuration yields the four coincidence
counts C1..C4 (outcomes first/first, first/second, second/first,
second/second of the two single-qubit bases).

Label codebook.  At the rail level the chip's post-selected two-qubit map
is the CNOT conjugated by X on qubit 1 (derived from the coupler matrices
and confirmed by the published raw counts: the computational-basis rows
show |00> -> |01>, |01> -> |00>, |10> -> |10>, |11> -> |11> under literal
rail labels).  Reconstruction therefore interprets every qubit-1 letter
through that X frame, which maps H<->V and R<->L and fixes D/A, making the
dataset consistent with the textbook CNOT this module compares against.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import _blas, optics, sampler
from .errors import DegenerateDataError
from .sampler import CountRecord

# ---------------------------------------------------------------------------
# Pauli basis and chi-matrix helpers

SIGMA_I = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# {I,X,Y,Z} x {I,X,Y,Z} stacked as (16, 4, 4), index m = 4*i + j
PAULI_OPS = np.array([np.kron(a, b) for a in (SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z)
                      for b in (SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z)])
PAULI_LABELS = [a + b for a in "IXYZ" for b in "IXYZ"]

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def chi_from_unitary(V: np.ndarray) -> np.ndarray:
    """Rank-1 process matrix of rho -> V rho V^dag in the Pauli basis."""
    c = np.array([np.trace(E.conj().T @ V) / 4.0 for E in PAULI_OPS])
    return np.outer(c, c.conj())


def ideal_cnot_chi() -> np.ndarray:
    """Process matrix of the ideal CNOT: weight 1/4 on II, IX, ZI, ZX."""
    return chi_from_unitary(CNOT)


def chi_from_kraus(kraus_ops) -> np.ndarray:
    """Process matrix of rho -> sum_i K_i rho K_i^dag."""
    return sum(chi_from_unitary(k) for k in kraus_ops)


def process_apply(chi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """E(rho) = sum_mn chi_mn E_m rho E_n^dag."""
    return np.einsum("mn,mij,jk,nlk->il", np.asarray(chi, dtype=complex),
                     PAULI_OPS, np.asarray(rho, dtype=complex), PAULI_OPS.conj(),
                     optimize=True)


def predict_probability(chi: np.ndarray, prep_state, proj_state) -> float:
    """Tr[ |proj><proj| E(|prep><prep|) ] for pure preparation/projection."""
    u = _transfer_rows(np.array([prep_state], complex),
                       np.array([proj_state], complex))[0]
    return float(np.real(np.vdot(u, np.asarray(chi, complex) @ u)))


def chi_fidelity(chi_e: np.ndarray, chi_t: np.ndarray) -> float:
    """Normalized trace-overlap fidelity between process matrices."""
    return optics.fidelity(chi_e, chi_t)


def check_chi(chi: np.ndarray, herm_tol: float = 1e-10, psd_tol: float = 1e-9,
              trace_tol: float = 1e-9) -> None:
    """Raise if chi is not Hermitian, PSD, and unit trace."""
    chi = np.asarray(chi)
    if np.max(np.abs(chi - chi.conj().T)) > herm_tol:
        raise ValueError("chi is not Hermitian")
    if np.linalg.eigvalsh(chi).min() < -psd_tol:
        raise ValueError("chi is not positive semidefinite")
    if abs(np.trace(chi).real - 1.0) > trace_tol:
        raise ValueError("chi does not have unit trace")


# ---------------------------------------------------------------------------
# state codebook, preparation and measurement phase tables

_KET = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "A": np.array([1, -1], dtype=complex) / np.sqrt(2),
    "R": np.array([1, 1j], dtype=complex) / np.sqrt(2),
    "L": np.array([1, -1j], dtype=complex) / np.sqrt(2),
}

BASIS_OUTCOMES = {"h": ("H", "V"), "d": ("D", "A"), "r": ("R", "L")}

# (MZI phase, rail phase) pairs realizing each preparation letter
PREP_PHASES = {
    "H": (np.pi, np.pi),
    "V": (0.0, 0.0),
    "D": (np.pi / 2, np.pi / 2),
    "A": (np.pi / 2, 3 * np.pi / 2),
    "R": (np.pi / 2, np.pi),
    "L": (np.pi / 2, 0.0),
}

# (rail phase, MZI phase) pairs selecting each measurement basis
MEAS_PHASES = {
    "h": (np.pi, np.pi),
    "d": (np.pi / 2, np.pi / 2),
    "r": (0.0, np.pi / 2),
}


def codebook_state(letter: str, qubit: int) -> np.ndarray:
    """Single-qubit state a preparation/outcome letter denotes.

    Qubit 1 letters are read through the X frame of the rail relabeling
    (see module docstring); qubit 2 letters are literal.
    """
    ket = _KET[letter]
    return SIGMA_X @ ket if qubit == 0 else ket


def parse_config_label(label: str) -> tuple[str, str, str, str]:
    if len(label) != 4 or label[0] not in _KET or label[1] not in _KET \
            or label[2] not in BASIS_OUTCOMES or label[3] not in BASIS_OUTCOMES:
        raise ValueError(f"malformed configuration label {label!r}")
    return label[0], label[1], label[2], label[3]


def config_states(label: str):
    """Preparation two-qubit state and the four outcome projector states."""
    p1, p2, b1, b2 = parse_config_label(label)
    prep = np.kron(codebook_state(p1, 0), codebook_state(p2, 1))
    # outcome k = 2 * (qubit-1 outcome) + (qubit-2 outcome), as C1..C4
    taus = [np.kron(codebook_state(o1, 0), codebook_state(o2, 1))
            for o1 in BASIS_OUTCOMES[b1] for o2 in BASIS_OUTCOMES[b2]]
    return prep, taus


def _transfer_rows(preps, taus):
    """Rows u_k with P_k = u_k^dag chi u_k; u_km = conj(<tau_k|E_m|prep_k>)."""
    kets = np.einsum("mij,kj->kmi", PAULI_OPS, preps)  # E_m|prep_k>
    # a batch of (1, 4) @ (4, 1) products: numpy reduces each with the BLAS
    # dot that np.vdot uses, so every row rounds as a single vdot would
    return (taus.conj()[:, None, None, :] @ kets[..., None])[..., 0, 0].conj()


def config_phase_settings(label: str, phase_bias: float = 0.0) -> tuple[float, ...]:
    """Tunable-phase vector phi1..phi8 realizing one configuration."""
    p1, p2, b1, b2 = parse_config_label(label)
    phases = PREP_PHASES[p1] + PREP_PHASES[p2] + MEAS_PHASES[b1] + MEAS_PHASES[b2]
    return tuple(p + phase_bias for p in phases)


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class QptDataset:
    """Ordered (config label, CountRecord) pairs with distinct labels."""

    records: tuple[tuple[str, CountRecord], ...]

    def __post_init__(self):
        recs = tuple((str(label), record) for label, record in self.records)
        seen = set()
        for label, _ in recs:
            parse_config_label(label)
            if label in seen:
                raise ValueError(f"duplicate configuration label {label!r}")
            seen.add(label)
        object.__setattr__(self, "records", recs)

    def __len__(self):
        return len(self.records)

    def labels(self):
        return [label for label, _ in self.records]


def dataset_to_csv(dataset: QptDataset) -> str:
    buf = io.StringIO()
    buf.write("config,C1,C2,C3,C4,sum\n")
    for label, rec in dataset.records:
        c = rec.counts
        buf.write(f"{label},{c[0]},{c[1]},{c[2]},{c[3]},{rec.total}\n")
    return buf.getvalue()


def dataset_from_csv(text: str) -> QptDataset:
    """Parse `config,C1,C2,C3,C4[,sum]` rows into a dataset.

    A `sum` column is not read; totals are C1+..+C4.  The bundled file keeps
    its published `sum` column, which disagrees with them in 28 of 64 rows.
    """
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.lower().startswith("config"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) < 5:
            raise ValueError(f"line {lineno}: expected config,C1..C4[,sum]")
        try:
            counts = tuple(int(p) for p in parts[1:5])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad count field ({exc})") from exc
        records.append((parts[0], CountRecord(counts)))
    if not records:
        raise ValueError("dataset file contains no records")
    return QptDataset(tuple(records))


def load_reference_counts() -> QptDataset:
    """The 64-configuration CNOT dataset bundled with the package."""
    from . import data
    return dataset_from_csv(data.qpt_counts_text())


def reference_config_labels() -> list[str]:
    return load_reference_counts().labels()


# ---------------------------------------------------------------------------
# efficiency correction


def estimate_efficiencies(records) -> np.ndarray:
    """Relative detection efficiencies from four single-outcome routings.

    Record k routes the photon pair so that outcome C_(k+1) dominates; with
    a common source, C_i * e_i = const, so e_i is proportional to the
    inverse designated count.  Normalized so min(e) = 1.
    """
    records = list(records)
    if len(records) != 4:
        raise ValueError("expected one routing record per coincidence outcome")
    designated = np.array(
        [records[k].counts[k] for k in range(4)], dtype=float
    )
    if np.any(designated <= 0):
        raise DegenerateDataError("designated outcome has zero counts")
    for k, rec in enumerate(records):
        if rec.counts[k] != max(rec.counts):
            raise ValueError(f"routing record {k} is not dominated by C{k + 1}")
    eff = 1.0 / designated
    return eff / eff.min()


EFFICIENCY_ROUTING_MEAS = (
    ("V", "H", (0.0, 0.0), (np.pi, np.pi)),      # swap qubit 1: C3 -> C1
    ("V", "H", (0.0, 0.0), (0.0, 0.0)),          # swap both:    C3 -> C2
    ("V", "H", (np.pi, np.pi), (np.pi, np.pi)),  # identity:     C3
    ("V", "H", (np.pi, np.pi), (0.0, 0.0)),      # swap qubit 2: C3 -> C4
)


def efficiency_routing_phases() -> list[tuple[float, ...]]:
    """Phase settings whose k-th entry routes all coincidences into C_(k+1).

    The pair is prepared in the self-mapped basis configuration; the
    measurement stages then either pass or swap each qubit's rails.
    """
    return [PREP_PHASES[p1] + PREP_PHASES[p2] + m1 + m2
            for p1, p2, m1, m2 in EFFICIENCY_ROUTING_MEAS]


# ---------------------------------------------------------------------------
# maximum-likelihood (least-squares) reconstruction
#
# The fit works on the 256 real coordinates of a Hermitian chi: its
# diagonal, then sqrt(2) times the real and the imaginary parts of its
# strict upper triangle.  They are the coordinates in an orthonormal basis
# of the Hermitian matrices, so a dot product of coordinates is Re Tr(A B).

_UPPER = np.triu_indices(16, 1)
_GAP_TOL = 1e-10      # converged: the cost is at most this above the optimum
_MU = 30.0            # factor on the barrier weight t once centered
_CENTERED = 1e-6      # half the squared Newton decrement that counts as centered
_MAX_STEPS = 500
_MAX_HALVINGS = 60
_ARMIJO = 0.25


@dataclass(frozen=True)
class MleResult:
    chi: np.ndarray
    cost: float
    residuals: np.ndarray
    converged: bool       # gap <= _GAP_TOL
    n_iterations: int     # Newton steps
    gap: float            # Frank-Wolfe gap: bounds cost - optimal cost


def _design_rows(labels) -> np.ndarray:
    """Transfer rows (see `_transfer_rows`), four outcomes per label."""
    states = [config_states(label) for label in labels]
    preps = np.repeat([prep for prep, _ in states], 4, axis=0)
    return _transfer_rows(preps, np.array([tau for _, four in states for tau in four]))


def _measured_probabilities(dataset: QptDataset, efficiencies) -> np.ndarray:
    eff = np.ones(4) if efficiencies is None else np.asarray(efficiencies, float)
    if eff.shape != (4,) or np.any(eff <= 0):
        raise ValueError("expected 4 positive efficiencies")
    out = []
    for label, rec in dataset.records:
        weighted = np.array(rec.counts, dtype=float) * eff
        total = weighted.sum()
        if total <= 0:
            raise DegenerateDataError(f"configuration {label} has zero counts")
        out.extend(weighted / total)
    return np.array(out)


def _predicted(u_rows, chi):
    """P_j = u_j^dag chi u_j for every design row."""
    return np.real(np.sum((u_rows.conj() @ chi) * u_rows, axis=1))


def _coords(m):
    """Coordinates (..., 256) of Hermitian matrices (..., 16, 16)."""
    upper = np.sqrt(2.0) * m[..., _UPPER[0], _UPPER[1]]
    return np.concatenate([np.real(np.diagonal(m, axis1=-2, axis2=-1)),
                           np.real(upper), np.imag(upper)], axis=-1)


def _hermitian(x):
    """The Hermitian matrix with coordinates x."""
    m = np.zeros((16, 16), dtype=complex)
    m[_UPPER] = (x[16:136] + 1j * x[136:]) / np.sqrt(2.0)
    m = m + m.conj().T
    m[np.diag_indices(16)] = x[:16]
    return m


_EYE = _coords(np.eye(16))


def _design(u_rows):
    """Rows d_j with d_j . coords(chi) = u_j^dag chi u_j."""
    return _coords(u_rows[:, :, None] * u_rows.conj()[:, None, :])


def _linear_inversion_start(u_rows, q):
    """Least-squares Hermitian solution, projected onto PSD with unit trace
    and mixed 1% with I/16 so that it lies inside the cone."""
    sol, *_ = np.linalg.lstsq(_design(u_rows), q, rcond=None)
    vals, vecs = np.linalg.eigh(_hermitian(sol))
    chi = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    return 0.99 * chi / np.real(np.trace(chi)) + 0.01 * np.eye(16) / 16.0


def _newton_direction(hess, trace_row, grad_f, t):
    """Newton step dy of t f - log det at Y = 0, and its squared decrement."""
    kkt = np.block([[t * hess + np.eye(256), trace_row[:, None]],
                    [trace_row[None, :], np.zeros((1, 1))]])
    g = t * grad_f - _EYE
    dy = np.linalg.solve(kkt, np.append(-g, 0.0))[:256]
    return dy, -(g @ dy)


def minimize(u_rows, q):
    """Minimize f(chi) = sum_j (u_j^dag chi u_j - q_j)^2 over chi >= 0, Tr chi = 1.

    Log-barrier Newton steps on t f(chi) - log det chi, with Tr chi = 1 as a
    KKT row (Boyd & Vandenberghe, *Convex Optimization*, ch. 11); t grows by
    `_MU` once chi is centered.  A step works in the frame L (I + Y) L^H of
    chi = L L^H, where the barrier's Hessian is the identity.  The solve
    stops when the Frank-Wolfe gap <G, chi> - lambda_min(G), G = grad f, is
    <= `_GAP_TOL`; it bounds f(chi) - min f.  Returns (chi, Newton steps, gap).
    """
    chi = _linear_inversion_start(u_rows, q)
    t = None
    steps = 0
    while True:
        p = _predicted(u_rows, chi)
        r = p - q
        grad = 2.0 * (u_rows.T * r) @ u_rows.conj()
        gap = float(2.0 * (r @ p) - np.linalg.eigvalsh(grad)[0])
        if gap <= _GAP_TOL or steps == _MAX_STEPS:
            break
        if t is None:
            t = 16.0 / gap   # the barrier's own duality gap is 16 / t
        chol = np.linalg.cholesky(chi)
        design = _design(u_rows @ chol.conj())   # rows L^H u_j
        hess = 2.0 * design.T @ design
        grad_f = 2.0 * design.T @ r
        trace_row = _coords(chol.conj().T @ chol)   # Tr(L Y L^H) = 0
        dy, lam2 = _newton_direction(hess, trace_row, grad_f, t)
        if lam2 <= 2.0 * _CENTERED:
            t *= _MU
            dy, lam2 = _newton_direction(hess, trace_row, grad_f, t)
        # backtrack on the closed-form change of t f - log det along s Y
        step_y = _hermitian(dy)
        eigs = np.linalg.eigvalsh(step_y)
        dp = design @ dy
        slope, curve = 2.0 * (r @ dp), dp @ dp
        s = 1.0
        for _ in range(_MAX_HALVINGS):
            if np.all(1.0 + s * eigs > 0.0) and \
                    t * s * (slope + s * curve) - np.sum(np.log1p(s * eigs)) \
                    <= -_ARMIJO * s * lam2:
                break
            s *= 0.5
        else:
            break
        step = chol @ step_y @ chol.conj().T
        chi = chi + (0.5 * s) * (step + step.conj().T)
        steps += 1
    return chi, steps, gap


def mle_reconstruct(dataset: QptDataset, efficiencies=None) -> MleResult:
    """Least-squares chi-matrix reconstruction over {chi >= 0, Tr chi = 1}.

    Counts are multiplied by the detection efficiencies, normalized per
    configuration, and fit by minimizing sum (P_theory - P_experiment)^2
    with one certified convex solve, `minimize`, called through the module
    attribute that the benchmark's tracer wraps by name.  The solve runs
    OpenBLAS on one thread (see `_blas`) and restores the caller's count.
    """
    if len(dataset) < 64:
        raise ValueError(
            f"need at least 64 configurations for reconstruction, got {len(dataset)}"
        )
    u_rows = _design_rows(dataset.labels())
    q = _measured_probabilities(dataset, efficiencies)
    with _blas.single_thread():
        chi, steps, gap = minimize(u_rows, q)
        r = _predicted(u_rows, chi) - q
    return MleResult(chi, float(r @ r), r.reshape(-1, 4), gap <= _GAP_TOL, steps, gap)


# ---------------------------------------------------------------------------
# simulated experiments


def simulate_config_probabilities(
    chip: optics.ChipParameters,
    label: str,
    x: float = 1.0,
    phase_bias: float = 0.0,
) -> np.ndarray:
    """Coincidence probabilities P1..P4 for one configuration."""
    phases = config_phase_settings(label, phase_bias)
    return sampler.coincidence_probabilities(optics.chip_unitaries(chip, phases), x)


def run_qpt_simulation(
    chip: optics.ChipParameters,
    x: float = 1.0,
    shots_per_config: int = 2000,
    seed: int = 0,
    phase_bias: float = 0.0,
    detector_efficiencies=None,
    labels=None,
) -> QptDataset:
    """Simulate the full tomography run over the standard 64 configurations.

    `shots_per_config` is the expected number of registered coincidences;
    the underlying pair number is nine times that, matching the 1/9
    post-selection success of the ideal gate.  Optional per-detector
    efficiencies thin the four outcomes before sampling.
    """
    if shots_per_config <= 0:
        raise ValueError("shots_per_config must be positive")
    labels = reference_config_labels() if labels is None else list(labels)
    eta = np.ones(4) if detector_efficiencies is None \
        else np.asarray(detector_efficiencies, dtype=float)
    if eta.shape != (4,) or np.any(eta < 0) or np.any(eta > 1):
        raise ValueError("detector efficiencies must be 4 values in [0, 1]")
    phases = [config_phase_settings(label, phase_bias) for label in labels]
    probs = sampler.coincidence_probabilities(
        optics.chip_unitaries(chip, np.reshape(phases, (-1, 8))), x) * eta
    records = sampler.sample_counts(probs, 9 * shots_per_config,
                                    np.random.default_rng(seed))
    return QptDataset(tuple(zip(labels, records)))


def simulate_dataset_from_chi(
    chi: np.ndarray,
    shots_per_config: int = 2000,
    seed: int = 0,
    labels=None,
) -> QptDataset:
    """Sample a dataset directly from a process matrix (no chip model)."""
    labels = reference_config_labels() if labels is None else list(labels)
    probs = _predicted(_design_rows(labels), np.asarray(chi, dtype=complex))
    p = np.clip(probs.reshape(-1, 4), 0.0, None)
    draws = np.random.default_rng(seed).multinomial(
        shots_per_config, p / p.sum(axis=1, keepdims=True))
    return QptDataset(tuple((label, CountRecord(tuple(row)))
                            for label, row in zip(labels, draws.tolist())))


def export_chi_csv(chi: np.ndarray) -> tuple[str, str, str]:
    """Real part, imaginary part, and eigenvalue summary as CSV texts."""
    chi = np.asarray(chi)
    header = "," + ",".join(PAULI_LABELS) + "\n"

    def table(part):
        buf = io.StringIO()
        buf.write(header)
        for i, label in enumerate(PAULI_LABELS):
            buf.write(label + "," + ",".join(f"{v:.12g}" for v in part[i]) + "\n")
        return buf.getvalue()

    eigs = np.linalg.eigvalsh(chi)[::-1]
    summary = "index,eigenvalue\n" + "".join(
        f"{i},{v:.12g}\n" for i, v in enumerate(eigs)
    )
    return table(np.real(chi)), table(np.imag(chi)), summary
