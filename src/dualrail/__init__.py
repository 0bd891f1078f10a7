"""Digital twin of a reconfigurable two-qubit dual-rail photonic processor."""

from .errors import ConvergenceError, DegenerateDataError, InfeasibleTargetError
from .optics import (
    ChipParameters,
    build_chip_unitary,
    chip_unitaries,
    dc_matrix,
    fidelity,
    mzi_matrix,
    phase_matrix,
    sinkhorn_scale,
)
from .sampler import (
    coincidence_probabilities,
    hom_curve,
    hom_visibility,
    permanent,
    prob_indistinguishable,
    prob_partial,
    sample_counts,
    submatrix_for_transition,
)
from .calibration import (
    CalibrationSweep,
    CrossTalkModel,
    CurrentVector,
    DacSpec,
    apply_crosstalk,
    fit_sweep,
    quantize,
    reflectivities_from_bc,
    simulate_sweep,
    solve_currents,
)
from .tomography import (
    QptDataset,
    estimate_efficiencies,
    ideal_cnot_chi,
    mle_reconstruct,
    predict_probability,
    process_apply,
    run_qpt_simulation,
)
from .gates import GateModel, fidelity_histogram, realizable_gate
from .vqe import (
    PauliHamiltonian,
    ProjectorHamiltonian,
    energy_oracle,
    expectation_from_counts,
    pauli_to_projector,
    run_vqe,
)

__version__ = "0.1.0"

__all__ = [
    "ChipParameters", "build_chip_unitary", "chip_unitaries", "dc_matrix", "fidelity",
    "mzi_matrix", "phase_matrix", "sinkhorn_scale",
    "coincidence_probabilities", "hom_curve", "hom_visibility",
    "permanent", "prob_indistinguishable", "prob_partial", "sample_counts",
    "submatrix_for_transition",
    "CalibrationSweep", "CrossTalkModel", "CurrentVector", "DacSpec",
    "apply_crosstalk", "fit_sweep", "quantize", "reflectivities_from_bc",
    "simulate_sweep", "solve_currents",
    "QptDataset", "estimate_efficiencies",
    "ideal_cnot_chi", "mle_reconstruct", "predict_probability",
    "process_apply", "run_qpt_simulation",
    "GateModel", "fidelity_histogram", "realizable_gate",
    "PauliHamiltonian", "ProjectorHamiltonian", "energy_oracle",
    "expectation_from_counts", "pauli_to_projector", "run_vqe",
    "ConvergenceError", "DegenerateDataError", "InfeasibleTargetError",
]
