"""Single-qubit gate quality estimation from component imperfections.

Models what limits a programmed rotation on this hardware: directional
coupler splitting-ratio deviations (Rx only) and the finite resolution of
the current source driving the phase shifter.  Electrical noise and any
other error source stay out of the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import optics
from .calibration import DacSpec, TWO_PI
from .errors import InfeasibleTargetError


@dataclass(frozen=True)
class GateModel:
    """One programmable gate: kind 'rx' (MZI) or 'rz' (bare phase shifter).

    The calibration curve is phi(I) = phi0 + alpha * I^2 with alpha in
    rad/mA^2 and I quantized by `dac`.
    """

    kind: str
    alpha: float
    phi0: float = 0.0
    r1: float = 0.5
    r2: float = 0.5
    dac: DacSpec = field(default_factory=DacSpec)

    def __post_init__(self):
        if self.kind not in ("rx", "rz"):
            raise ValueError("gate kind must be 'rx' or 'rz'")
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("calibration slope alpha must be finite and positive")
        if not np.isfinite(self.phi0):
            raise ValueError("initial phase phi0 must be finite")
        for r in (self.r1, self.r2):
            if not 0.0 <= r <= 1.0:
                raise ValueError("splitting ratios must lie in [0, 1]")

    def phase_range(self) -> tuple[float, float]:
        lo = self.phi0
        return lo, lo + self.alpha * self.dac.full_scale ** 2

    def matrix(self, phi) -> np.ndarray:
        """The realized gate; phi of shape S gives S + (2, 2)."""
        if self.kind == "rx":
            return optics.mzi_matrix(self.r1, self.r2, phi)
        return optics.phase_matrix(phi)

    def target_matrix(self, phi) -> np.ndarray:
        """The intended gate at design ratios."""
        if self.kind == "rx":
            return optics.mzi_matrix(0.5, 0.5, phi)
        return optics.phase_matrix(phi)


def _realize(model: GateModel, targets) -> tuple[np.ndarray, np.ndarray]:
    """Realized gates S + (2, 2) and phases S for target phases of shape S.

    A scalar target takes numpy's scalar arithmetic and an array its
    vectorized loops; both round alike, so each entry of a batch equals the
    single-target result bit for bit.
    """
    if not np.all((targets >= 0.0) & (targets < TWO_PI)):
        raise ValueError("target phase must lie in [0, 2*pi)")
    lo, hi = model.phase_range()
    delta = np.mod(targets - model.phi0, TWO_PI)
    unreachable = delta > hi - lo + 1e-12
    if np.any(unreachable):
        raise InfeasibleTargetError(
            f"phase {targets[unreachable][0]} outside reachable range [{lo}, {hi}]"
        )
    level = model.dac.level(np.sqrt(delta / model.alpha))
    # float_power rounds as a scalar ** 2 does; an array ** 2 multiplies
    realized = model.phi0 + model.alpha * np.float_power(level * model.dac.step, 2)
    return model.matrix(realized), realized


def realizable_gate(model: GateModel, phi_target: float) -> tuple[np.ndarray, float]:
    """Closest experimentally settable gate for a target phase in [0, 2*pi).

    Maps the target through the calibration curve (wrapping by 2*pi until
    the required squared current is nonnegative), snaps the current to the
    DAC grid, and rebuilds the gate at the realized phase.
    """
    matrix, realized = _realize(model, np.float64(phi_target))
    return matrix, float(realized)


@dataclass(frozen=True)
class FidelityHistogram:
    targets: np.ndarray
    realized: np.ndarray
    fidelities: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.fidelities.mean())

    @property
    def std(self) -> float:
        return float(self.fidelities.std())

    @property
    def minimum(self) -> float:
        return float(self.fidelities.min())


def fidelity_histogram(
    model: GateModel, n_samples: int, seed: int = 0
) -> FidelityHistogram:
    """Gate fidelity over uniformly random target phases in [0, 2*pi).

    All samples are evaluated as one batch: `targets`, `realized` and
    `fidelities` of the result are float arrays of shape (n_samples,), and
    each entry equals `optics.fidelity` of `realizable_gate` at its target
    against `model.target_matrix`, bit for bit.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    targets = rng.uniform(0.0, TWO_PI, n_samples)
    matrices, realized = _realize(model, targets)
    fids = optics.fidelity(matrices, model.target_matrix(targets))
    return FidelityHistogram(targets, realized, fids)


def histogram_csv(hist: FidelityHistogram) -> str:
    summary = (f"summary,mean={hist.mean:.6f},std={hist.std:.6f},"
               f"min={hist.minimum:.6f}\n")
    return optics.format_table(
        "sample_index,target_phase,realized_phase,fidelity",
        "%d,%.12g,%.12g,%.12g", np.arange(hist.targets.size), hist.targets,
        hist.realized, hist.fidelities) + summary
