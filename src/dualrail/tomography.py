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

from dataclasses import dataclass

import numpy as np

from . import _blas, optics, sampler
from .errors import DegenerateDataError

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
    """Raise if chi is not a 16 x 16 finite matrix, Hermitian, PSD, and unit trace."""
    chi = np.asarray(chi)
    if chi.shape != (16, 16):
        raise ValueError(f"chi must be 16 x 16, got shape {chi.shape}")
    if not np.isfinite(chi).all():
        raise ValueError("chi has non-finite entries")
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


def _count_tuple(label: str, counts) -> tuple[int, int, int, int]:
    """Counts C1..C4 as Python ints, if they are four finite, nonnegative integers."""
    try:
        c = tuple(counts)
        if len(c) == 4 and all(x >= 0 and x == int(x) for x in c):
            return tuple(int(x) for x in c)
    except (TypeError, ValueError, OverflowError):   # e.g. a string, int(inf)
        pass
    raise ValueError(f"configuration {label}: counts must be four nonnegative "
                     f"integers, got {counts!r}")


@dataclass(frozen=True)
class QptDataset:
    """Ordered (config label, (C1, C2, C3, C4)) pairs with distinct labels."""

    records: tuple[tuple[str, tuple[int, int, int, int]], ...]

    def __post_init__(self):
        recs = {}
        for label, counts in self.records:
            label = str(label)
            parse_config_label(label)
            if label in recs:
                raise ValueError(f"duplicate configuration label {label!r}")
            recs[label] = _count_tuple(label, counts)
        object.__setattr__(self, "records", tuple(recs.items()))

    def __len__(self):
        return len(self.records)

    def labels(self):
        return [label for label, _ in self.records]


def dataset_to_csv(dataset: QptDataset) -> str:
    rows = [(label, *c, sum(c)) for label, c in dataset.records]
    return optics.format_table("config,C1,C2,C3,C4,sum", "%s,%d,%d,%d,%d,%d",
                               *zip(*rows))


def dataset_from_csv(text: str) -> QptDataset:
    """Parse `config,C1,C2,C3,C4[,sum]` rows into a dataset.

    A `sum` column is not read; totals are C1+..+C4.  The bundled file keeps
    its published `sum` column, which disagrees with them in 28 of 64 rows.
    """
    records = []
    for lineno, line in optics.data_lines(text, "config"):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) < 5:
            raise ValueError(f"line {lineno}: expected config,C1..C4[,sum]")
        records.append((parts[0], optics.parse_fields(parts[1:5], lineno, 4, int)))
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


def estimate_efficiencies(counts) -> np.ndarray:
    """Relative detection efficiencies from four single-outcome routings.

    Row k of the (4, 4) counts routes the photon pair so that outcome
    C_(k+1) dominates; with a common source, C_i * e_i = const, so e_i is
    proportional to the inverse designated count.  Normalized so min(e) = 1.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (4, 4):
        raise ValueError("expected one routing row of C1..C4 per coincidence outcome")
    designated = np.diagonal(counts)
    if np.any(designated <= 0):
        raise DegenerateDataError("designated outcome has zero counts")
    for k, row in enumerate(counts):
        if row[k] != row.max():
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
_BOUNDARY = 0.98      # share of the way to the cone's boundary a step may go
_MAX_STEPS = 100
_RANK_TOL = 1e-10     # relative size below which an eigenvalue of D^T D is zero


@dataclass(frozen=True)
class MleResult:
    chi: np.ndarray
    cost: float
    residuals: np.ndarray
    converged: bool       # gap <= _GAP_TOL
    n_iterations: int     # interior-point iterations
    gap: float            # Frank-Wolfe gap: bounds cost - optimal cost


def _design_rows(labels) -> np.ndarray:
    """Transfer rows (see `_transfer_rows`), four outcomes per label.

    The states are products of a (qubit, letter, 2) table of codebook kets,
    taken elementwise as `config_states`' `np.kron` takes them, so that
    every row is bit for bit what the per-label states give.
    """
    letters = {letter: i for i, letter in enumerate(_KET)}
    kets = np.array([[codebook_state(letter, qubit) for letter in letters]
                     for qubit in (0, 1)])
    parsed = [parse_config_label(label) for label in labels]
    p1, p2 = (np.array([letters[c[k]] for c in parsed], dtype=int) for k in (0, 1))
    o1, o2 = (np.array([[letters[o] for o in BASIS_OUTCOMES[c[k]]] for c in parsed],
                       dtype=int).reshape(-1, 2) for k in (2, 3))
    preps = (kets[0, p1, :, None] * kets[1, p2, None, :]).reshape(-1, 4)
    # outcome k = 2 * (qubit-1 outcome) + (qubit-2 outcome), as C1..C4
    taus = kets[0, o1][:, :, None, :, None] * kets[1, o2][:, None, :, None, :]
    return _transfer_rows(np.repeat(preps, 4, axis=0), taus.reshape(-1, 4))


def _measured_probabilities(dataset: QptDataset, efficiencies) -> np.ndarray:
    eff = np.ones(4) if efficiencies is None else np.asarray(efficiencies, float)
    if eff.shape != (4,) or not (np.isfinite(eff) & (eff > 0)).all():
        raise ValueError("expected 4 positive, finite efficiencies")
    weighted = np.array([c for _, c in dataset.records], dtype=float) * eff
    totals = weighted.sum(axis=1, keepdims=True)
    if not (totals > 0).all():
        label = dataset.labels()[np.argmax(totals <= 0)]   # the first empty one
        raise DegenerateDataError(f"configuration {label} has zero counts")
    return (weighted / totals).ravel()


def _predicted(u_rows, chi):
    """P_j = u_j^dag chi u_j for every design row."""
    return np.real(np.sum((u_rows.conj() @ chi) * u_rows, axis=1))


def _coords(m):
    """Coordinates (..., 256) of Hermitian matrices (..., 16, 16)."""
    upper = np.sqrt(2.0) * m[..., _UPPER[0], _UPPER[1]]
    return np.concatenate([np.real(np.diagonal(m, axis1=-2, axis2=-1)),
                           np.real(upper), np.imag(upper)], axis=-1)


def _hermitian(x):
    """The Hermitian matrices (..., 16, 16) with coordinates x (..., 256)."""
    m = np.zeros(x.shape[:-1] + (16, 16), dtype=complex)
    m[..., _UPPER[0], _UPPER[1]] = (x[..., 16:136] + 1j * x[..., 136:]) / np.sqrt(2.0)
    m = m + np.swapaxes(m, -1, -2).conj()
    m[..., np.arange(16), np.arange(16)] = x[..., :16]
    return m


def _design(u_rows):
    """Rows d_j with d_j . coords(chi) = u_j^dag chi u_j."""
    return _coords(u_rows[:, :, None] * u_rows.conj()[:, None, :])


def _start_and_factor(u_rows, q):
    """The starting chi and a factor C of the design, from one
    eigendecomposition D^T D = V diag(w) V^T of D = `_design(u_rows)`.

    C = diag(sqrt(w)) V^T over the r eigenvalues above `_RANK_TOL` of the
    largest, so C^T C = D^T D; the rest are rounding of zero (about 1e-16
    of the largest on the 64-configuration design, whose smallest nonzero
    one is 1/16 of it).  The start is the minimum-norm least-squares
    solution V diag(1/w) V^T D^T q, projected onto PSD with unit trace and
    mixed 1% with I/16 so that it lies inside the cone.
    """
    design = _design(u_rows)
    w, v = np.linalg.eigh(design.T @ design)
    keep = w > _RANK_TOL * w[-1]
    w, v = w[keep], v[:, keep]
    vals, vecs = np.linalg.eigh(_hermitian(v @ (q @ design @ v / w)))
    chi = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    start = 0.99 * chi / np.real(np.trace(chi)) + 0.01 * np.eye(16) / 16.0
    return start, np.sqrt(w)[:, None] * v.T


def _step_length(lam, dx, dz):
    """One step length s <= 1 for diag(lam) + s dx and diag(lam) + s dz that
    goes at most `_BOUNDARY` of the way to the cone's boundary for both."""
    w = lam ** -0.5
    least = min(np.linalg.eigvalsh(w[:, None] * d * w)[0] for d in (dx, dz))
    return min(1.0, _BOUNDARY / -least) if least < 0.0 else 1.0


def _newton_solver(frame, wide, trace_resid, rhs):
    """Solve the Newton system in the frame F = `frame`:
    (I + 2 C_F^T C_F) dx - dnu a = rhs, a . dx = `trace_resid`, where
    `wide` holds the factor's Hermitian matrices C_k side by side, C_F the
    coordinates of F^H C_k F as rows and a = coords(F^H F), the trace row.
    Returns (dX, dnu) for `rhs` and a function that does the same for
    another right-hand side in the same frame.

    I + 2 C_F^T C_F is inverted by Woodbury through the r x r matrix
    I + 2 C_F C_F^T, plus one step of iterative refinement: near the cone's
    boundary C_F is badly scaled (I + 2 C_F C_F^T reaches a condition
    number of about 1e12) and plain Woodbury loses the digits the
    interior-point steps need.  The r x r system is solved by LU for each
    vector, not through an explicit inverse or a precomputed solve against
    C_F, whose rounding C_F magnifies: with either, the chip fits stall at
    `_MAX_STEPS`.  The trace row is eliminated by its Schur complement.
    """
    adjoint = frame.conj().T
    congruent = ((adjoint @ wide).reshape(-1, 16) @ frame).reshape(16, -1, 16)
    rows = _coords(congruent.transpose(1, 0, 2))
    trace_row = _coords(adjoint @ frame)   # Tr(F X F^H) = a . x
    inner = np.eye(len(rows)) + 2.0 * rows @ rows.T

    def woodbury(b):
        return b - 2.0 * rows.T @ np.linalg.solve(inner, rows @ b)

    def solve_h(b):
        y = woodbury(b)
        return y + woodbury(b - y - 2.0 * rows.T @ (rows @ y))

    ha, hb = solve_h(np.stack([trace_row, rhs], axis=1)).T

    def schur(hb):
        dnu = (trace_resid - trace_row @ hb) / (trace_row @ ha)
        return _hermitian(hb + dnu * ha), dnu

    return schur(hb), lambda other: schur(solve_h(other))


def minimize(u_rows, q):
    """Minimize f(chi) = sum_j (u_j^dag chi u_j - q_j)^2 over chi >= 0, Tr chi = 1.

    A primal-dual interior-point solve of the optimality conditions
    grad f(chi) = Z + nu I, chi Z = 0, chi >= 0, Z >= 0, Tr chi = 1, where
    the dual matrix Z and the multiplier nu of the trace row start at
    grad f - nu I with smallest eigenvalue the starting gap.  Each iteration
    works in the Nesterov-Todd frame F = L Q diag(zeta)^(-1/4), from
    chi = L L^H and L^H Z L = Q diag(zeta) Q^H, where both chi and Z are
    diag(lam), lam = sqrt(zeta) (Todd, Toh & Tutuncu, SIAM J. Optim. 8, 769
    (1998)).  There the Newton system is (I + 2 C_F^T C_F) dx - dnu a =
    coords(F^H (nu I - grad f) F) + coords(sigma mu / lam - corrector),
    with a = coords(F^H F) the trace row, and dz = sigma mu / lam - lam -
    corrector - dx.  C_F holds, as rows, the coordinates of F^H C_k F for
    the r Hermitian matrices C_k of the factor C^T C = D^T D of the design
    (see `_start_and_factor`; r = 114 on the 64-configuration design), so
    `_newton_solver` needs one r x r system per iteration.  The affine
    predictor (sigma = 0) sets sigma = (mu_aff / mu)^3 and the second-order
    corrector of Mehrotra (SIAM J. Optim. 2, 575 (1992)).  Primal and dual
    move by one step length, as befits a quadratic cost, whose dual
    residual moves with the primal step.  The solve stops when the
    Frank-Wolfe gap <G, chi> - lambda_min(G), G = grad f, is <= `_GAP_TOL`;
    it bounds f(chi) - min f.  Returns (chi, iterations, gap).
    """
    chi, factor = _start_and_factor(u_rows, q)
    # the C_k side by side, (16, r * 16), so that F^H C_k F is two products
    wide = _hermitian(factor).transpose(1, 0, 2).reshape(16, -1)
    chol = np.linalg.cholesky(chi)
    nu = None
    steps = 0
    while True:
        p = _predicted(u_rows, chi)
        r = p - q
        grad = 2.0 * (u_rows.T * r) @ u_rows.conj()
        least = np.linalg.eigvalsh(grad)[0]
        gap = float(2.0 * (r @ p) - least)
        if gap <= _GAP_TOL or steps == _MAX_STEPS:
            break
        if nu is None:
            nu = least - gap
            dual = chol.conj().T @ (grad - nu * np.eye(16)) @ chol   # L^H Z L
        zeta, rot = np.linalg.eigh(dual)
        lam = np.sqrt(zeta)
        scaled = np.diag(lam)   # chi and Z in the frame
        frame = (chol @ rot) * zeta ** -0.25
        rhs = _coords(frame.conj().T @ (nu * np.eye(16) - grad) @ frame)
        (dx, _), solve = _newton_solver(frame, wide, 1.0 - np.real(np.trace(chi)), rhs)
        dz = -scaled - dx
        s = _step_length(lam, dx, dz)
        mu = lam @ lam / 16.0
        mu_aff = np.real(np.vdot(scaled + s * dx, scaled + s * dz)) / 16.0
        # sigma mu Lam^-1 - corrector, with corrector = L^-1(sym(dX dZ)) for
        # L(M) = (Lam M + M Lam) / 2
        prod = dx @ dz
        comp = np.diag((mu_aff / mu) ** 3 * mu / lam) \
            - (prod + prod.conj().T) / (lam[:, None] + lam)
        dx, dnu = solve(rhs + _coords(comp))
        dz = comp - scaled - dx
        s = _step_length(lam, dx, dz)
        c = np.linalg.cholesky(scaled + s * dx)
        chol = frame @ c
        dual = c.conj().T @ (scaled + s * dz) @ c
        nu += s * dnu
        chi = chol @ chol.conj().T
        chi = 0.5 * (chi + chi.conj().T)
        steps += 1
    return chi, steps, gap


def mle_reconstruct(dataset: QptDataset, efficiencies=None) -> MleResult:
    """Least-squares chi-matrix reconstruction over {chi >= 0, Tr chi = 1}.

    Counts are multiplied by the detection efficiencies, normalized per
    configuration, and fit by minimizing sum (P_theory - P_experiment)^2
    with one primal-dual interior-point solve, `minimize`, that certifies
    its optimality gap; it is called through the module attribute that the
    benchmark's tracer wraps by name.  The solve runs OpenBLAS on one thread
    (see `_blas`) and restores the caller's count.  `residuals` holds
    P_theory - P_experiment, one row of four outcomes per configuration.
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
    shots = sampler._shot_count(shots_per_config, "shots_per_config")
    labels = reference_config_labels() if labels is None else list(labels)
    eta = np.ones(4) if detector_efficiencies is None \
        else np.asarray(detector_efficiencies, dtype=float)
    if eta.shape != (4,) or not ((eta >= 0) & (eta <= 1)).all():   # NaN fails
        raise ValueError("detector efficiencies must be 4 values in [0, 1]")
    phases = [config_phase_settings(label, phase_bias) for label in labels]
    probs = sampler.coincidence_probabilities(
        optics.chip_unitaries(chip, np.reshape(phases, (-1, 8))), x) * eta
    counts = sampler.sample_counts(probs, 9 * shots,
                                   np.random.default_rng(seed))
    return QptDataset(tuple(zip(labels, counts.tolist())))


def simulate_dataset_from_chi(
    chi: np.ndarray,
    shots_per_config: int = 2000,
    seed: int = 0,
    labels=None,
) -> QptDataset:
    """Sample a dataset directly from a process matrix (no chip model).

    Unlike `run_qpt_simulation`, which draws photon pairs with
    `sampler.sample_counts` and discards those that miss the four
    coincidences, this draws registered coincidences only:
    `shots_per_config` exactly per configuration, over the probabilities chi
    predicts for the four outcomes, clipped at zero and renormalised.  A
    process matrix describes the post-selected gate, so it gives no pair
    number and no probability of discarding a pair.  chi must pass
    `check_chi`, and every configuration must have a positive predicted
    total.
    """
    check_chi(chi)
    shots = sampler._shot_count(shots_per_config, "shots_per_config")
    labels = reference_config_labels() if labels is None else list(labels)
    probs = _predicted(_design_rows(labels), np.asarray(chi, dtype=complex))
    p = np.clip(probs.reshape(-1, 4), 0.0, None)
    totals = p.sum(axis=1, keepdims=True)
    if not (totals > 0).all():
        label = labels[np.argmax(totals <= 0)]   # the first empty one
        raise DegenerateDataError(
            f"configuration {label}: chi predicts zero probability for all "
            "four outcomes")
    draws = np.random.default_rng(seed).multinomial(shots, p / totals)
    return QptDataset(tuple(zip(labels, draws.tolist())))


def export_chi_csv(chi: np.ndarray) -> tuple[str, str, str]:
    """Real part, imaginary part, and eigenvalue summary as CSV texts."""
    chi = np.asarray(chi)
    header = "," + ",".join(PAULI_LABELS)
    row_format = "%s" + ",%.12g" * len(PAULI_LABELS)

    def table(part):
        return optics.format_table(header, row_format, PAULI_LABELS, *part.T)

    eigs = np.linalg.eigvalsh(chi)[::-1]
    summary = optics.format_table("index,eigenvalue", "%d,%.12g",
                                  np.arange(eigs.size), eigs)
    return table(np.real(chi)), table(np.imag(chi)), summary
