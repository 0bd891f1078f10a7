"""Thermo-optic phase shifter model: cross-talk solving, DAC quantization,
and calibration-sweep fitting.

Each heater j driven with current I_j (mA) shifts phases on its own and on
its vertically adjacent interferometer according to

    Phi = Phi0 + A @ I**2

with A in rad/mA^2.  The measured fringe of a single sweep follows
I(x) = B - C cos(phi0 + alpha x^2).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import optics
from .errors import ConvergenceError, InfeasibleTargetError

# heater pairs with mutual thermal coupling (0-based): vertical neighbours
CROSSTALK_PAIRS = ((0, 2), (1, 3), (4, 6), (5, 7))

TWO_PI = 2.0 * np.pi

# sweep fit: a scan tries alpha at centre + k * step for k in _SCAN; the
# sixth, at a step of 5e-7 alpha, can be the last, which leaves 14 to walk
_SCAN = np.arange(-10, 11)
_MAX_SCANS = 20
_DEGENERATE_TOL = 1e-3   # flat sweep: spread or contrast per unit level below this


@dataclass(frozen=True)
class DacSpec:
    """Digital current source: `bits` resolution over [0, full_scale] mA."""

    bits: int = 12
    full_scale: float = 20.0

    def __post_init__(self):
        if not isinstance(self.bits, numbers.Integral) or self.bits < 1:
            raise ValueError(f"DAC bits must be an integer >= 1, got {self.bits!r}")
        if not (np.isfinite(self.full_scale) and self.full_scale > 0):
            raise ValueError(
                f"DAC full scale must be finite and positive, got {self.full_scale!r}"
            )

    @property
    def step(self) -> float:
        return self.full_scale / (2 ** self.bits - 1)

    def level(self, current):
        """Nearest level, round half up, to currents I >= 0 mA: at most 2^bits - 1."""
        return np.minimum(np.floor(current / self.step + 0.5), 2 ** self.bits - 1)


@dataclass(frozen=True)
class CurrentVector:
    """Eight drive currents in mA plus the DAC that realizes them."""

    values: tuple[float, ...]
    dac: DacSpec = field(default_factory=DacSpec)
    clipped: bool = False

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) != 8:
            raise ValueError("expected 8 channel currents")
        if any(v < 0 for v in vals):
            raise ValueError("currents must be nonnegative")
        object.__setattr__(self, "values", vals)

    def as_array(self) -> np.ndarray:
        return np.array(self.values)


@dataclass(frozen=True)
class CrossTalkModel:
    """8x8 cross-talk matrix (rad/mA^2) and initial phase vector (rad)."""

    matrix: np.ndarray
    initial_phases: np.ndarray

    def __post_init__(self):
        a = np.array(self.matrix, dtype=float)
        phi0 = np.array(self.initial_phases, dtype=float)
        if a.shape != (8, 8) or phi0.shape != (8,):
            raise ValueError("expected an 8x8 matrix and 8 initial phases")
        if np.any(np.diag(a) <= 0):
            raise ValueError("diagonal cross-talk coefficients must be positive")
        allowed = np.eye(8, dtype=bool)
        for i, j in CROSSTALK_PAIRS:
            allowed[i, j] = allowed[j, i] = True
        if np.any(a[~allowed] != 0.0):
            raise ValueError(
                "off-diagonal coupling outside the vertical heater pairs"
            )
        a.setflags(write=False)
        phi0.setflags(write=False)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "initial_phases", phi0)

    @classmethod
    def reference(cls) -> "CrossTalkModel":
        """The measured chip model bundled with the package."""
        from . import data  # local import to avoid cycle at module load
        return parse_crosstalk_table(data.crosstalk_table_text())


def apply_crosstalk(model: CrossTalkModel, currents: CurrentVector) -> np.ndarray:
    """Phases Phi = Phi0 + A @ I^2 for the given drive currents."""
    i2 = currents.as_array() ** 2
    return model.initial_phases + model.matrix @ i2


def solve_currents(
    model: CrossTalkModel,
    target_phases,
    dac: DacSpec | None = None,
    max_wraps: int = 4,
) -> CurrentVector:
    """Drive currents realizing the target phases modulo 2*pi.

    Solves I^2 = A^-1 (Phi - Phi0); any channel whose squared current comes
    out negative has its target raised by 2*pi and the solve repeats.  Targets
    are first reduced so Phi - Phi0 starts in [0, 2*pi) per channel.  A
    solution above the DAC's full scale is returned with `clipped` set.
    """
    phi = np.asarray(target_phases, dtype=float)
    if phi.shape != (8,):
        raise ValueError("expected 8 target phases")
    if np.linalg.cond(model.matrix) > 1.0 / np.finfo(float).eps:
        raise np.linalg.LinAlgError("cross-talk matrix is singular")

    dac = dac or DacSpec()
    delta = np.mod(phi - model.initial_phases, TWO_PI)
    for _ in range(max_wraps + 1):
        i2 = np.linalg.solve(model.matrix, delta)
        negative = i2 < -1e-12
        if not np.any(negative):
            currents = np.sqrt(np.clip(i2, 0.0, None))
            clipped = bool(np.any(currents > dac.full_scale + 1e-12))
            return CurrentVector(tuple(currents), dac, clipped)
        delta[negative] += TWO_PI
    raise InfeasibleTargetError(
        f"no nonnegative solution after {max_wraps} phase wraps"
    )


def quantize(currents: CurrentVector) -> CurrentVector:
    """Snap each current to the nearest DAC level (round half up).

    Over-range values clamp to full scale and set the `clipped` flag.
    """
    dac = currents.dac
    vals = currents.as_array()
    clipped = bool(np.any(vals > dac.full_scale + 1e-12))
    snapped = dac.level(np.clip(vals, 0.0, dac.full_scale)) * dac.step
    return CurrentVector(tuple(snapped), dac, clipped or currents.clipped)


# ---------------------------------------------------------------------------
# calibration sweeps


@dataclass(frozen=True)
class CalibrationSweep:
    """One monitored output power trace versus heater current."""

    currents: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        x = np.array(self.currents, dtype=float)
        y = np.array(self.powers, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("currents and powers must be equal-length 1-D")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("currents and powers must be finite")
        if np.any(np.diff(x) <= 0):
            raise ValueError("currents must be strictly increasing")
        if np.any(y < 0):
            raise ValueError("powers must be nonnegative")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "currents", x)
        object.__setattr__(self, "powers", y)


@dataclass(frozen=True)
class SweepFit:
    b: float
    c: float
    phi0: float
    alpha: float
    residual: float
    degenerate: bool = False

    def as_tuple(self):
        return (self.b, self.c, self.phi0, self.alpha)


def fringe_model(currents, b, c, phi0, alpha):
    x = np.asarray(currents, dtype=float)
    return b - c * np.cos(phi0 + alpha * x ** 2)


def simulate_sweep(
    b: float,
    c: float,
    phi0: float,
    alpha: float,
    currents,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> CalibrationSweep:
    """Evaluate B - C cos(phi0 + alpha I^2), optionally with relative
    Gaussian noise of amplitude `noise_sigma` * B."""
    if c > b:
        raise ValueError("need C <= B for nonnegative power")
    if c < 0:
        raise ValueError("need C >= 0")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    powers = fringe_model(currents, b, c, phi0, alpha)
    if noise_sigma > 0.0:
        if rng is None:
            raise ValueError("noisy sweeps need an explicit rng")
        powers = powers + rng.normal(0.0, noise_sigma * b, powers.shape)
        powers = np.clip(powers, 0.0, None)
    return CalibrationSweep(np.asarray(currents, dtype=float), powers)


def _wrap_angle(phi: float) -> float:
    """Reduce to (-pi, pi]."""
    out = np.mod(phi + np.pi, TWO_PI) - np.pi
    return float(np.pi if out == -np.pi else out)


def _linear_fits(s, y, alphas):
    """Residuals, their slopes in alpha and coefficients (B, C cos phi0,
    C sin phi0) of the least-squares fits of y by B - C cos(phi0 + alpha s),
    one per alpha, by Householder QR: the normal equations would square the
    condition number of the columns [1, cos alpha s, sin alpha s]."""
    phase = np.multiply.outer(alphas, s)
    cos, sin = np.cos(phase), np.sin(phase)
    q, r = np.linalg.qr(np.stack([np.ones_like(phase), -cos, sin], axis=-1))
    qty = (y @ q)[..., None]
    resid = y - (q @ qty)[..., 0]
    coef = np.linalg.solve(r, qty)[..., 0]
    # the coefficients minimize the residual, so its slope in alpha is that
    # of the model at fixed coefficients (Golub & Pereyra)
    model_slope = s * (coef[:, 1:2] * sin + coef[:, 2:3] * cos)
    return (np.einsum("kn,kn->k", resid, resid),
            -2.0 * np.einsum("kn,kn->k", resid, model_slope), coef)


def fit_sweep(sweep: CalibrationSweep) -> SweepFit:
    """Least squares for the fringe parameters (B, C, phi0, alpha).

    The fringe B - C cos(phi0 + alpha I^2) is linear in (B, C cos phi0,
    C sin phi0) once alpha is fixed, so the fit minimizes the residual of
    that linear solve over alpha alone (variable projection: Golub & Pereyra,
    SIAM J. Numer. Anal. 10, 413 (1973)).  Alpha is seeded from the dominant
    FFT frequency of the trace over a uniform I^2 grid, then scanned at 21
    values in one batched solve, first the seed +-50% in steps of 5%.  While
    the lowest residual is at an end of its scan (alpha > 0 only), the next
    scan is centred there; otherwise with a tenfold smaller step, down to
    1e-6 alpha.  Within about 1e-8 alpha of the minimum the residual is flat
    to rounding but its slope is not, so one Newton step on the slope places
    alpha.  C >= 0, alpha > 0 and phi0 in (-pi, pi]; flat traces return
    C ~ 0 with the degenerate flag set.  Raises ConvergenceError when
    `_MAX_SCANS` scans find no interior minimum, as for a residual falling
    towards alpha = 0, or when the result is not finite.
    """
    x = sweep.currents
    y = sweep.powers
    if x.size < 8:
        raise ValueError("need at least 8 samples to fit a sweep")
    s = x ** 2

    spread = np.ptp(y)
    mean = float(np.mean(y))
    if spread < _DEGENERATE_TOL * max(abs(mean), 1.0):
        return SweepFit(mean, 0.0, 0.0, 0.0, float(np.sum((y - mean) ** 2)),
                        degenerate=True)

    # FFT frequency estimate on a uniform I^2 grid
    n_grid = max(256, 4 * x.size)
    s_grid = np.linspace(s[0], s[-1], n_grid)
    y_grid = np.interp(s_grid, s, y)
    spectrum = np.abs(np.fft.rfft(y_grid - y_grid.mean()))
    freqs = np.fft.rfftfreq(n_grid, d=(s_grid[1] - s_grid[0]))
    alpha = TWO_PI * freqs[int(np.argmax(spectrum[1:])) + 1]

    step = 0.05 * alpha
    for _ in range(_MAX_SCANS):
        alphas = alpha + step * _SCAN
        alphas = alphas[alphas > 0.0]
        residuals, slopes, _ = _linear_fits(s, y, alphas)
        k = int(np.argmin(residuals))
        alpha = alphas[k]
        if k in (0, alphas.size - 1):
            continue
        if step <= 1e-6 * alpha:
            break
        step /= 10.0
    else:
        raise ConvergenceError(
            f"sweep fit found no interior minimum within {_MAX_SCANS} scans",
            residual=float(residuals[k]),
        )

    # the minimum lies within a step of alpha; the slope's derivative is
    # taken across the neighbours
    alpha -= np.clip(2.0 * step * slopes[k] / (slopes[k + 1] - slopes[k - 1]),
                     -step, step)
    residuals, _, coefs = _linear_fits(s, y, np.array([alpha]))
    b, cc, cs = coefs[0]
    c = float(np.hypot(cc, cs))
    phi0 = float(np.arctan2(cs, cc))
    residual = float(residuals[0])
    if not np.all(np.isfinite([b, c, phi0, alpha, residual])):
        raise ConvergenceError("sweep fit did not converge", residual=residual)
    degenerate = c < _DEGENERATE_TOL * max(abs(b), 1.0)
    return SweepFit(float(b), c, _wrap_angle(phi0), float(alpha), residual,
                    degenerate)


# ---------------------------------------------------------------------------
# MZI fringe amplitude versus coupler reflectivities


def bc_from_reflectivities(r1: float, r2: float) -> tuple[float, float]:
    """Fringe parameters B = 1 - (R1+R2) + R1 R2, C = 2 sqrt(R1 R2 (1-R1)(1-R2))."""
    b = 1.0 - (r1 + r2) + r1 * r2
    c = 2.0 * np.sqrt(max(r1 * r2 * (1.0 - r1) * (1.0 - r2), 0.0))
    return float(b), float(c)


def reflectivities_from_bc(b: float, c: float, tol: float = 1e-9) -> list[tuple[float, float]]:
    """All reflectivity pairs (R1, R2) consistent with fringe parameters.

    Returned as unordered pairs (R_low, R_high); empty when no pair in
    [0, 1]^2 satisfies both relations within `tol`.
    """
    if c < 0:
        return []
    if abs(b) < tol:
        # B = (1-R1)(1-R2) = 0 forces some R_i = 1, then C = 0
        if abs(c) < tol:
            return [(1.0, 1.0)]
        return []
    u = c * c / (4.0 * b)          # R1 R2
    ssum = 1.0 + u - b             # R1 + R2
    disc = ssum * ssum - 4.0 * u
    if disc < -tol:
        return []
    root = np.sqrt(max(disc, 0.0))
    r_lo = (ssum - root) / 2.0
    r_hi = (ssum + root) / 2.0
    pair = (float(r_lo), float(r_hi))
    for r in pair:
        if r < -tol or r > 1.0 + tol:
            return []
    b_check, c_check = bc_from_reflectivities(*pair)
    if abs(b_check - b) > max(tol, 1e-6 * abs(b)) or abs(c_check - c) > max(tol, 1e-6):
        return []
    return [(min(max(pair[0], 0.0), 1.0), min(max(pair[1], 0.0), 1.0))]


# ---------------------------------------------------------------------------
# serialization: cross-talk table and sweep CSVs

RELATIVE_UNIT_MA = 15.0 / 1000.0  # source control units: 1000 units = 15 mA


def parse_crosstalk_table(text: str) -> CrossTalkModel:
    """Parse the bundled heater table (A rows in 1e-2 rad/mA^2, then Phi0)."""
    rows = []
    phi0 = None
    for lineno, line in optics.data_lines(text):
        name, *fields = line.split()
        values = optics.parse_fields(fields, lineno, 8)
        if name.lower() != "phi0":
            rows.append(values)
        elif phi0 is None:
            phi0 = values
        else:
            raise ValueError(f"line {lineno}: a second phi0 row")
    if len(rows) != 8 or phi0 is None:
        raise ValueError("expected 8 heater rows and a phi0 row")
    a = np.array(rows) * 1e-2
    return CrossTalkModel(a, np.array(phi0))


def format_crosstalk_table(model: CrossTalkModel) -> str:
    phi0 = ("phi0" + " %.6g" * 8) % tuple(model.initial_phases.tolist())
    return optics.format_table(
        "# heater cross-talk matrix, 1e-2 rad/mA^2; phi0 in rad",
        "%d" + " %.6g" * 8, np.arange(1, 9), *(model.matrix * 100).T,
    ) + phi0 + "\n"


def read_sweep_csv(text: str, units: str = "mA") -> CalibrationSweep:
    """Parse a two-column (current, power) sweep; `units` is mA or relative."""
    if units not in ("mA", "relative"):
        raise ValueError("units must be 'mA' or 'relative'")
    rows = [optics.parse_fields(line.replace(",", " ").split()[:2], lineno, 2)
            for lineno, line in optics.data_lines(text, "current")]
    currents, powers = np.array(rows).reshape(-1, 2).T
    if units == "relative":
        currents = currents * RELATIVE_UNIT_MA
    return CalibrationSweep(currents, powers)
