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

_TRIL = np.tril_indices(16, -1)


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


def chi_parametrize(t: np.ndarray) -> np.ndarray:
    """chi(t) = g g^dag / Tr[g g^dag] with lower-triangular g.

    t packs 16 real diagonal entries, then the real and imaginary parts of
    the 120 strictly-lower entries (256 parameters total).
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (256,):
        raise ValueError("expected 256 real parameters")
    if not np.any(t):
        raise ValueError("all-zero parameter vector")
    g = _g_of_t(t)
    G = g @ g.conj().T
    return G / np.real(np.trace(G))


def params_from_chi(chi: np.ndarray, jitter: float = 1e-12) -> np.ndarray:
    """Inverse of chi_parametrize via Cholesky (up to trace normalization)."""
    chi = np.asarray(chi, dtype=complex)
    g = np.linalg.cholesky(chi + jitter * np.eye(16))
    return _t_of_g(g)


def _g_of_t(t):
    g = np.zeros((16, 16), dtype=complex)
    g[np.diag_indices(16)] = t[:16]
    g[_TRIL] = t[16:136] + 1j * t[136:256]
    return g


def _t_of_g(g):
    return np.concatenate([
        np.real(np.diag(g)), np.real(g[_TRIL]), np.imag(g[_TRIL]),
    ])


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


@dataclass(frozen=True)
class MleResult:
    chi: np.ndarray
    cost: float
    residuals: np.ndarray
    converged: bool
    n_iterations: int


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


def _cost_and_grad(t, u_rows, q, scale_weight=1.0):
    g = _g_of_t(t)
    G = g @ g.conj().T
    s = np.real(np.trace(G))
    p = _predicted(u_rows, G) / s
    r = p - q
    # the (Tr G - 1)^2 term pins the scale freedom of g; chi is unaffected
    cost = float(r @ r + scale_weight * (s - 1.0) ** 2)
    # dP_j/dG = u_j u_j^dag (as the Hermitian gradient matrix)
    h_g = (2.0 / s) * ((u_rows.T * r) @ u_rows.conj()
                       - np.sum(r * p) * np.eye(16))
    m = (h_g + 2.0 * scale_weight * (s - 1.0) * np.eye(16)) @ g
    grad = np.concatenate([
        2.0 * np.real(np.diag(m)), 2.0 * np.real(m[_TRIL]), 2.0 * np.imag(m[_TRIL]),
    ])
    return cost, grad


def _linear_inversion_start(u_rows, q):
    """Least-squares Hermitian solution projected onto PSD, trace one."""
    n = u_rows.shape[0]
    outer = u_rows.conj()[:, :, None] * u_rows[:, None, :]
    design = np.zeros((n, 256))
    design[:, :16] = np.real(outer[:, np.arange(16), np.arange(16)])
    design[:, 16:136] = 2.0 * np.real(outer[:, _TRIL[0], _TRIL[1]])
    design[:, 136:] = -2.0 * np.imag(outer[:, _TRIL[0], _TRIL[1]])
    sol, *_ = np.linalg.lstsq(design, q, rcond=None)
    chi = np.zeros((16, 16), dtype=complex)
    chi[np.diag_indices(16)] = sol[:16]
    chi[_TRIL] = sol[16:136] + 1j * sol[136:]
    chi = chi + np.tril(chi, -1).conj().T
    vals, vecs = np.linalg.eigh(chi)
    vals = np.clip(vals, 1e-6, None)
    chi = (vecs * vals) @ vecs.conj().T
    chi /= np.real(np.trace(chi))
    return np.linalg.cholesky(chi + 1e-10 * np.eye(16))


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first use so that importing the
    package loads no scipy.  The fit calls it through this module attribute,
    which the benchmark's tracer wraps by name."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def mle_reconstruct(
    dataset: QptDataset,
    efficiencies=None,
    n_starts: int = 4,
    seed: int = 0,
    gtol: float = 1e-8,
    max_iter: int = 10000,
) -> MleResult:
    """Least-squares chi-matrix reconstruction over the 256-parameter cone.

    Counts are multiplied by the detection efficiencies, normalized per
    configuration, and fit by minimizing sum (P_theory - P_experiment)^2
    with L-BFGS from a linear-inversion start plus perturbed restarts.  The
    fit runs OpenBLAS on one thread (see `_blas`) and restores the caller's
    thread count afterwards.
    """
    if len(dataset) < 64:
        raise ValueError(
            f"need at least 64 configurations for reconstruction, got {len(dataset)}"
        )
    u_rows = _design_rows(dataset.labels())
    q = _measured_probabilities(dataset, efficiencies)

    rng = np.random.default_rng(seed)
    # load scipy's own OpenBLAS before `single_thread` lists the libraries
    # it limits; it lists them once per process
    import scipy.optimize  # noqa: F401
    with _blas.single_thread():
        t0 = _t_of_g(_linear_inversion_start(u_rows, q))
        starts = [t0]
        for _ in range(max(n_starts, 1) - 1):
            starts.append(t0 + 0.05 * rng.standard_normal(256))

        best = None
        for start in starts:
            res = minimize(
                _cost_and_grad, start, args=(u_rows, q), jac=True,
                method="L-BFGS-B", options={"maxiter": max_iter, "gtol": gtol},
            )
            if best is None or res.fun < best.fun:
                best = res

    g = _g_of_t(best.x)
    G = g @ g.conj().T
    chi = G / np.real(np.trace(G))
    p = _predicted(u_rows, chi)
    residuals = (p - q).reshape(-1, 4)
    cost = float(np.sum((p - q) ** 2))
    converged = bool(best.success) or cost < 1e-12
    return MleResult(chi, cost, residuals, converged, int(best.nit))


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
    rng = np.random.default_rng(seed)
    pair_rate = 9.0 * shots_per_config
    return QptDataset(tuple((label, sampler.sample_counts(p, pair_rate, 1.0, rng))
                            for label, p in zip(labels, probs)))


def simulate_dataset_from_chi(
    chi: np.ndarray,
    shots_per_config: int = 2000,
    seed: int = 0,
    labels=None,
) -> QptDataset:
    """Sample a dataset directly from a process matrix (no chip model)."""
    labels = reference_config_labels() if labels is None else list(labels)
    probs = _predicted(_design_rows(labels), np.asarray(chi, dtype=complex))
    rng = np.random.default_rng(seed)
    records = []
    for label, p in zip(labels, np.clip(probs.reshape(-1, 4), 0.0, None)):
        draw = rng.multinomial(shots_per_config, p / p.sum())
        records.append((label, CountRecord(tuple(int(c) for c in draw))))
    return QptDataset(tuple(records))


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
