"""Six-mode chip unitary construction and general matrix utilities.

The processor is a six-mode interferometer: two dual-rail qubits on modes
2-3 and 4-5 (1-based), modes 1 and 6 ancillary.  Light passes a preparation
stage (one MZI plus one phase shifter per qubit), a post-selected CNOT
section built from 1/3 couplers, and a mirrored measurement stage.  All
component conventions follow the directional-coupler matrix

    DC(R) = [[sqrt(R), i sqrt(1-R)], [i sqrt(1-R), sqrt(R)]]

with R the power reflectivity (bar transmission), and phase shifters acting
as diag(exp(i*phi), 1) on their mode pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError

UNITARY_TOL = 1e-10
N_MODES = 6

# 0-based rails: qubit 1 lives on modes (1, 2), qubit 2 on (3, 4)
QUBIT1_RAILS = (1, 2)
QUBIT2_RAILS = (3, 4)
_QUBIT2_BLOCK = np.ix_(QUBIT2_RAILS, QUBIT2_RAILS)

# Fock occupation vectors for the photon-pair input and the four
# registered two-fold coincidences C1..C4.
INPUT_STATE = (0, 1, 0, 1, 0, 0)
COINCIDENCE_STATES = (
    (0, 1, 0, 1, 0, 0),
    (0, 1, 0, 0, 1, 0),
    (0, 0, 1, 1, 0, 0),
    (0, 0, 1, 0, 1, 0),
)

# Setting every tunable phase to pi reduces each single-qubit stage to the
# identity (up to a global phase), leaving the bare CNOT section.
IDENTITY_GATE_PHASES = (np.pi,) * 8


def dc_matrix(reflectivity) -> np.ndarray:
    """2x2 directional-coupler unitary for power reflectivity R in [0, 1];
    R of shape S gives S + (2, 2)."""
    r = np.asarray(reflectivity, dtype=float)
    if not all(0.0 <= v <= 1.0 for v in r.flat):
        raise ValueError(f"reflectivity must lie in [0, 1], got {reflectivity}")
    out = np.empty(r.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = np.sqrt(r)
    out[..., 0, 1] = out[..., 1, 0] = 1j * np.sqrt(1.0 - r)
    return out


def phase_matrix(phi) -> np.ndarray:
    """2x2 phase shifter diag(exp(i*phi), 1); phi of shape S gives S + (2, 2)."""
    phi = np.asarray(phi, dtype=float)
    out = np.zeros(phi.shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 1, 1] = np.exp(1j * phi), 1.0
    return out


def mzi_matrix(r1, r2, phi) -> np.ndarray:
    """Mach-Zehnder block DC(r2) @ P(phi) @ DC(r1), broadcast over stacks."""
    return dc_matrix(r2) @ phase_matrix(phi) @ dc_matrix(r1)


def embed(block: np.ndarray, modes: tuple[int, ...]) -> np.ndarray:
    """Place a (stack of) k x k block(s) on the given modes of the 6-mode identity."""
    k = block.shape[-1]
    if block.shape[-2:] != (k, k) or len(modes) != k:
        raise ValueError("block shape and mode count disagree")
    out = np.zeros(block.shape[:-2] + (N_MODES * N_MODES,), dtype=complex)
    out[..., :: N_MODES + 1] = 1.0  # the identity, on the flattened matrix
    out = out.reshape(block.shape[:-2] + (N_MODES, N_MODES))
    idx = np.asarray(modes)
    out[..., idx[:, None], idx] = block
    return out


@dataclass(frozen=True)
class ChipParameters:
    """The 23 real numbers defining the chip unitary.

    splitting_ratios: R1..R13 power reflectivities.  R1-R4 are the
        preparation MZI couplers (qubit 1 then qubit 2), R5-R9 the CNOT
        section (R5 input coupler, R6-R8 the central 1/3 layer on mode
        pairs (1,2)/(3,4)/(5,6), R9 output coupler), R10-R13 the
        measurement MZI couplers.
    tunable_phases: phi1..phi8 in radians.  phi1/phi3 preparation MZI
        internal phases, phi2/phi4 preparation rail phases, phi5/phi7
        measurement rail phases, phi6/phi8 measurement MZI internal
        phases (qubit 1 then qubit 2 within each stage).
    static_phases: theta1, theta2 inside the CNOT section.
    """

    splitting_ratios: tuple[float, ...]
    tunable_phases: tuple[float, ...]
    static_phases: tuple[float, float]

    def __post_init__(self):
        ratios = tuple(float(r) for r in self.splitting_ratios)
        phases = tuple(float(p) for p in self.tunable_phases)
        static = tuple(float(t) for t in self.static_phases)
        if len(ratios) != 13:
            raise ValueError("expected 13 splitting ratios")
        if len(phases) != 8:
            raise ValueError("expected 8 tunable phases")
        if len(static) != 2:
            raise ValueError("expected 2 static phases")
        for j, r in enumerate(ratios, start=1):
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"R{j}={r} outside [0, 1]")
        for name, value in zip(_CHIP_KEYS[13:], phases + static):
            if not np.isfinite(value):
                raise ValueError(f"{name}={value} is not finite")
        object.__setattr__(self, "splitting_ratios", ratios)
        object.__setattr__(self, "tunable_phases", phases)
        object.__setattr__(self, "static_phases", static)

    @classmethod
    def ideal(cls) -> "ChipParameters":
        """Design-value chip: R6=R7=R8=1/3, every other ratio 1/2, thetas 0."""
        ratios = [0.5] * 13
        for j in (5, 6, 7):
            ratios[j] = 1.0 / 3.0
        return cls(tuple(ratios), (0.0,) * 8, (0.0, 0.0))

    def with_phases(self, phases) -> "ChipParameters":
        return replace(self, tunable_phases=tuple(float(p) for p in phases))

    def with_ratio(self, index: int, value: float) -> "ChipParameters":
        """Return a copy with R<index> (1-based) replaced."""
        ratios = list(self.splitting_ratios)
        ratios[index - 1] = float(value)
        return replace(self, splitting_ratios=tuple(ratios))

    def with_static_phases(self, theta1: float, theta2: float) -> "ChipParameters":
        return replace(self, static_phases=(float(theta1), float(theta2)))

    def perturbed(self, ratio_sigma: float, rng: np.random.Generator) -> "ChipParameters":
        """Gaussian-perturb every splitting ratio, clipped to [0, 1]."""
        ratios = np.clip(
            np.array(self.splitting_ratios) + rng.normal(0.0, ratio_sigma, 13),
            0.0, 1.0,
        )
        return replace(self, splitting_ratios=tuple(ratios))


@lru_cache(maxsize=16)
def cnot_section(params: ChipParameters) -> np.ndarray:
    """The post-selected CNOT block B3 T2 B2 T1 B1 on six modes; cached per
    parameter set (a VQE run shares one), so the array is read-only."""
    r = params.splitting_ratios
    th1, th2 = params.static_phases
    b1 = embed(dc_matrix(r[4]), QUBIT2_RAILS)
    t1 = embed(phase_matrix(th1), QUBIT2_RAILS)
    b2 = (
        embed(dc_matrix(r[5]), (0, 1))
        @ embed(dc_matrix(r[6]), (2, 3))
        @ embed(dc_matrix(r[7]), (4, 5))
    )
    t2 = embed(phase_matrix(th2), QUBIT2_RAILS)
    b3 = embed(dc_matrix(r[8]), QUBIT2_RAILS)
    section = b3 @ t2 @ b2 @ t1 @ b1
    section.setflags(write=False)
    return section


def _rail_stage(blocks):
    # blocks[..., q, :, :] acts on the rails of qubit q (q = 0, 1)
    stage = embed(blocks[..., 0, :, :], QUBIT1_RAILS)
    stage[(Ellipsis,) + _QUBIT2_BLOCK] = blocks[..., 1, :, :]
    return stage


@lru_cache(maxsize=16)
def _stage_couplers(params: ChipParameters) -> tuple[np.ndarray, ...]:
    """The MZI couplers of the preparation and measurement stages, each a
    (qubit, 2, 2) stack: first and second preparation coupler, then first
    and second measurement coupler.  Cached per parameter set like
    `cnot_section`, so the arrays are read-only."""
    r = params.splitting_ratios
    couplers = tuple(dc_matrix(pair) for pair in (
        (r[0], r[2]), (r[1], r[3]), (r[9], r[11]), (r[10], r[12])))
    for dc in couplers:
        dc.setflags(write=False)
    return couplers


def measured_cnot(params: ChipParameters, phases) -> np.ndarray:
    """The chip after its preparation stage, U2 @ CNOT, shape (..., 6, 6),
    one for each row of measurement phases (..., 4) (phi5..phi8)."""
    _, _, meas1, meas2 = _stage_couplers(params)
    # q[..., qubit, :] holds the (rail, MZI) phases.  Measurement propagates
    # rail phase, DC, MZI phase, DC, in the product order of `mzi_matrix`,
    # which fixes how the result rounds.
    q = np.asarray(phases, dtype=float).reshape(np.shape(phases)[:-1] + (2, 2))
    meas = ((meas2 @ phase_matrix(q[..., 1]) @ meas1) @ phase_matrix(q[..., 0]))
    return _rail_stage(meas) @ cnot_section(params)


def chip_unitaries(params: ChipParameters, phases) -> np.ndarray:
    """Chip unitaries U = U2 @ CNOT @ U1, shape (..., 6, 6), one for each
    row of `phases` (..., 8) in place of the tunable phases of `params`."""
    p = np.asarray(phases, dtype=float)
    if p.shape[-1:] != (8,):
        raise ValueError("expected 8 tunable phases along the last axis")
    if not np.isfinite(p).all():
        raise ValueError("tunable phases must be finite")
    prep1, prep2, _, _ = _stage_couplers(params)
    # q[..., qubit, :] holds the preparation (MZI, rail) phases: DC, MZI
    # phase, DC, rail phase, in the product order of `mzi_matrix`
    q = p[..., :4].reshape(p.shape[:-1] + (2, 2))
    prep = phase_matrix(q[..., 1]) @ (prep2 @ phase_matrix(q[..., 0]) @ prep1)
    return measured_cnot(params, p[..., 4:]) @ _rail_stage(prep)


def build_chip_unitary(params: ChipParameters) -> np.ndarray:
    """Full 6x6 chip unitary at the chip's own tunable phases."""
    return chip_unitaries(params, params.tunable_phases)


def is_unitary(matrix: np.ndarray) -> bool:
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    dev = m.conj().T @ m - np.eye(m.shape[0])
    return float(np.max(np.abs(dev))) < UNITARY_TOL


def fidelity(u_e: np.ndarray, u_t: np.ndarray) -> float | np.ndarray:
    """Normalized trace-overlap fidelity |Tr(Ue^dag Ut)|^2 / (Tr Ue^dag Ue * Tr Ut^dag Ut).

    Global-phase invariant; equals 1 iff the arguments are proportional.
    Works for any equal-shape matrices (unitaries, |U|^2 matrices, process
    matrices alike).  Two n x n matrices give a float; two stacks of shape
    S + (n, n) give an array of shape S, each entry equal bit for bit to the
    fidelity of its pair.  Non-finite entries and zero matrices raise
    ValueError.
    """
    a = np.asarray(u_e, dtype=complex)
    b = np.asarray(u_t, dtype=complex)
    if a.ndim < 2 or a.shape != b.shape:
        raise ValueError(f"expected matrices of equal shape, got {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("fidelity undefined for non-finite entries")

    def trace_of_product(x, y):
        return np.trace(np.swapaxes(x.conj(), -1, -2) @ y, axis1=-2, axis2=-1)

    den = np.real(trace_of_product(a, a)) * np.real(trace_of_product(b, b))
    if np.any(den <= 0.0):
        raise ValueError("fidelity undefined for zero matrix")
    t = trace_of_product(a, b)
    # |t|^2 rounded as the scalar abs(t) ** 2 rounds it (hypot, then pow);
    # numpy's array abs and array ** 2 can differ from that in the last bit
    fid = np.float_power(np.hypot(t.real, t.imag), 2) / den
    return float(fid) if fid.ndim == 0 else fid


def _has_positive_diagonal(support: np.ndarray) -> bool:
    """Whether a square boolean pattern has a positive diagonal: a
    permutation s with support[i, s(i)] true for every row i.

    Kuhn's augmenting-path algorithm (see Hopcroft & Karp, SIAM J. Comput.
    2, 225 (1973)): each row in turn searches depth first, on an explicit
    stack, for a path that alternates between unmatched and matched entries
    and ends on a free column, then flips that path.
    """
    neighbours = [np.flatnonzero(row).tolist() for row in support]
    owner = [-1] * len(neighbours)  # row matched to each column
    for root in range(len(neighbours)):
        seen = [False] * len(neighbours)
        rows, cols = [(root, iter(neighbours[root]))], []
        while rows:
            j = next((j for j in rows[-1][1] if not seen[j]), None)
            if j is None:  # dead end: back up to the row before
                rows.pop()
                if cols:
                    cols.pop()
                continue
            seen[j] = True
            cols.append(j)
            if owner[j] < 0:  # free column: each row on the path takes the
                # column it reached, which frees the one it held
                for (i, _), col in zip(rows, cols):
                    owner[col] = i
                break
            rows.append((owner[j], iter(neighbours[owner[j]])))
        else:
            return False
    return True


def sinkhorn_scale(
    power_matrix: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> np.ndarray:
    """Scale a nonnegative matrix to doubly stochastic form D1 @ M @ D2.

    Newton matrix balancing (Knight & Ruiz, IMA J. Numer. Anal. 33, 2013):
    with P = diag(e^u) M diag(e^v), minimize the convex potential
    f(u, v) = sum(P) - sum(u) - sum(v), whose gradient is the row and column
    sum errors of P.  Each Newton step solves the Hessian system
    [[diag r, P], [P^T, diag c]] d = -g for the minimum-norm d (the Hessian
    is singular along the scaling gauge (1, -1)) and backtracks on f.  The
    iteration starts from one row and one column normalization.  The rate is
    quadratic, also on the nearly decomposable moduli of a real chip, where
    alternating row and column normalization needs up to ~2e5 sweeps.
    `max_iter` counts Newton steps.

    Returns P once every row and column sum is within `tol` of 1.  Raises
    ValueError if no scaling exists: the support has no positive diagonal,
    that is no perfect matching of rows to columns, which Kuhn's
    augmenting-path search decides (`_has_positive_diagonal`),
    and ConvergenceError (with the residual) after `max_iter` Newton steps,
    or when a step can no longer decrease f.
    """
    m = np.array(power_matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("expected finite entries")
    if np.any(m < 0):
        raise ValueError("expected nonnegative entries")
    if np.any(m.sum(axis=1) <= 0) or np.any(m.sum(axis=0) <= 0):
        raise ValueError("row and column sums must be strictly positive")
    if not _has_positive_diagonal(m > 0):
        raise ValueError(
            "no doubly stochastic scaling exists: "
            "the nonzero pattern has no positive diagonal"
        )

    n = m.shape[0]
    # start from one row-then-column normalization, so that the Hessian is
    # well scaled whatever the magnitudes of the input
    m /= m.sum(axis=1, keepdims=True)
    m /= m.sum(axis=0, keepdims=True)
    for step in range(max_iter + 1):
        r, c = m.sum(axis=1), m.sum(axis=0)
        g = np.concatenate([r - 1.0, c - 1.0])
        residual = float(np.max(np.abs(g)))
        if residual < tol:
            return m
        if step == max_iter:
            break
        hessian = np.block([[np.diag(r), m], [m.T, np.diag(c)]])
        d = -np.linalg.lstsq(hessian, g, rcond=None)[0]
        a = d[:n, None] + d[n:]
        slope = g @ d
        # Armijo backtracking on f.  Its change is summed term by term,
        # f(x + t d) - f(x) = t g.d + sum P (expm1(t a) - t a), because near
        # the optimum it is far below the rounding error of f itself.
        t = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            while t > 1e-12:
                ta = t * a
                change = t * slope + np.sum(m * (np.expm1(ta) - ta))
                if change <= 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                raise ConvergenceError(
                    f"matrix balancing stalled at residual {residual:.3g}",
                    residual=residual,
                )
        m = m * np.exp(ta)
    raise ConvergenceError(
        f"matrix balancing did not reach {tol} within {max_iter} Newton steps",
        residual=residual,
    )


# ---------------------------------------------------------------------------
# text of chip files and tables: parsers take text, the CLI reads files

# the keys of a chip file, in the order of the 23 numbers of ChipParameters
_CHIP_KEYS = (*(f"R{j}" for j in range(1, 14)),
              *(f"phi{j}" for j in range(1, 9)), "theta1", "theta2")


def data_lines(text: str, header: str | None = None):
    """(line number, stripped line) for each data line of `text`: `#` starts
    a comment, and blank lines and lines starting with `header` (any case)
    are skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line and not (header and line.lower().startswith(header)):
            yield lineno, line


def parse_fields(fields, lineno: int, count: int, cast=float) -> list:
    """The `count` fields of line `lineno`, each cast by `cast`; a wrong
    count or a field the cast rejects raises a ValueError naming the line."""
    if len(fields) != count:
        raise ValueError(f"line {lineno}: expected {count} numbers, "
                         f"got {len(fields)}")
    try:
        return [cast(f) for f in fields]
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def read_key_values(text: str, casts: dict) -> dict:
    """The `key = value` lines of `text`, each value cast by `casts[key]`.

    A line without `=`, a key not in `casts`, a key given twice and a value
    its cast rejects raise a ValueError that names the line.
    """
    values = {}
    for lineno, line in data_lines(text):
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        if key not in casts:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: {key!r} given again")
        try:
            values[key] = casts[key](value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key!r}: {exc}") from None
    return values


def format_table(header: str | None, row_format: str, *columns) -> str:
    """A `header` line, then `row_format % row` for each row of the columns.

    A column is an array, read through `.tolist()`, or a sequence, read as
    it is; `%` prints a numpy scalar as the Python number it holds.
    `header` None writes no header line.
    """
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                 for c in columns))
    lines = [row_format % row for row in rows]
    return "\n".join(lines if header is None else [header, *lines]) + "\n"


def save_chip_parameters(params: ChipParameters) -> str:
    """The text of a chip file: `key = value` for each key R1..R13,
    phi1..phi8, theta1, theta2, the value written as its float's repr."""
    return format_table(None, "%s = %r", _CHIP_KEYS, params.splitting_ratios
                        + params.tunable_phases + params.static_phases)


def load_chip_parameters(text: str) -> ChipParameters:
    """Parse the text of a chip file, one line for each of its 23 keys."""
    values = read_key_values(text, dict.fromkeys(_CHIP_KEYS, float))
    missing = [key for key in _CHIP_KEYS if key not in values]
    if missing:
        raise ValueError(f"missing chip parameter {missing[0]!r}")
    numbers = [values[key] for key in _CHIP_KEYS]
    return ChipParameters(numbers[:13], numbers[13:21], numbers[21:])
