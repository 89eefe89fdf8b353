"""Wire cutting with partially entangled resource states.

Exact channel algebra for the teleportation-based decomposition of the
single-qubit identity wire, plus a seeded Monte Carlo harness for
shot-budget experiments.  The top level holds the names of the README
quickstart and of the benchmark; everything else is imported from its
submodule, such as `nmecut.linalg` or `nmecut.errors`.
"""

from .channels import teleportation_channel, teleportation_circuit_channel, unitary_channel
from .estimator import RandomSource, estimate_cut_expectation, exact_expectation
from .experiment import haar_random_unitary
from .qpd import harada_wire_cut, nme_wire_cut, reconstruct_channel
from .states import nme_state, overlap_f_pure

__version__ = "0.1.0"

__all__ = [
    "RandomSource",
    "estimate_cut_expectation",
    "exact_expectation",
    "haar_random_unitary",
    "harada_wire_cut",
    "nme_state",
    "nme_wire_cut",
    "overlap_f_pure",
    "reconstruct_channel",
    "teleportation_channel",
    "teleportation_circuit_channel",
    "unitary_channel",
]
