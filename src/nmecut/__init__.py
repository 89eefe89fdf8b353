"""Wire cutting with partially entangled resource states.

Exact channel algebra for the teleportation-based decomposition of the
single-qubit identity wire, plus a seeded Monte Carlo harness for
shot-budget experiments.
"""

from .channels import (
    QuantumChannel,
    bell_overlaps,
    conjugate_channel,
    measure_prepare_channel,
    measure_prepare_flip_channel,
    teleportation_channel,
    teleportation_circuit_channel,
    unitary_channel,
)
from .estimator import (
    RandomSource,
    ShotAllocation,
    allocate_shots,
    estimate_cut_expectation,
    exact_expectation,
)
from .experiment import (
    ExperimentConfig,
    ExperimentRecord,
    haar_random_unitary,
    read_csv,
    render_svg,
    run_sweep,
    run_trial,
    write_csv,
)
from .linalg import DensityOperator, PureState, kron, partial_trace, validate_density
from .qpd import (
    QpdTerm,
    QuasiProbDecomposition,
    harada_wire_cut,
    nme_wire_cut,
    optimal_overhead,
    optimal_overhead_pure,
    reconstruct_channel,
    resource_consumption_rate,
)
from .states import (
    NmeParameter,
    SchmidtForm,
    bell_state,
    k_from_f,
    m_distillation_norm,
    nme_state,
    overlap_f_pure,
    schmidt_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "DensityOperator",
    "ExperimentConfig",
    "ExperimentRecord",
    "NmeParameter",
    "PureState",
    "QpdTerm",
    "QuantumChannel",
    "QuasiProbDecomposition",
    "RandomSource",
    "SchmidtForm",
    "ShotAllocation",
    "allocate_shots",
    "bell_overlaps",
    "bell_state",
    "conjugate_channel",
    "estimate_cut_expectation",
    "exact_expectation",
    "haar_random_unitary",
    "harada_wire_cut",
    "k_from_f",
    "kron",
    "m_distillation_norm",
    "measure_prepare_channel",
    "measure_prepare_flip_channel",
    "nme_state",
    "nme_wire_cut",
    "optimal_overhead",
    "optimal_overhead_pure",
    "overlap_f_pure",
    "partial_trace",
    "read_csv",
    "reconstruct_channel",
    "render_svg",
    "resource_consumption_rate",
    "run_sweep",
    "run_trial",
    "schmidt_decompose",
    "teleportation_channel",
    "teleportation_circuit_channel",
    "unitary_channel",
    "validate_density",
    "write_csv",
]
