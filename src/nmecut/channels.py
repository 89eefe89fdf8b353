"""CPTP channel algebra in Kraus form.

Builds the channels the wire-cut decompositions are made of: unitary
conjugations, basis measure-and-prepare maps, the measure-and-flip map, and
the teleportation channel for any two-qubit `DensityOperator` resource in
both its analytic (Bell-overlap) and explicit-circuit forms.  A channel is a
frozen value owning one read-only complex (n, out, in) Kraus array, which only
this module reads: each construction, check and contraction (`act`, `dual`,
`choi`) is an array operation.  Choi matrices are derived on demand and cached,
and the constant measure-and-flip channel is built once; equality of Choi
matrices is the canonical channel-equality witness used throughout the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, NotTracePreservingError
from .linalg import (
    CNOT,
    H,
    I2,
    NORM_TOL,
    X,
    Z,
    DensityOperator,
    Matrix,
    _identity,
    _instance,
    as_matrix,
    as_unitary,
    check_two_qubit,
    dagger,
    kron,
    pauli_basis,
)
from .states import _BELL_VECTORS

TRACE_PRESERVING_TOL = 1e-10

# The teleportation circuit on qubits (A, B, C): CNOT(A -> B) then H on A, as
# a tensor [a, b, out, p, j] from input |p>_A |j>_BC to outcome |a, b>_AB |out>_C.
_BELL_MEASUREMENT = kron(kron(H, I2) @ CNOT, I2).reshape(2, 2, 2, 2, 4)
# The receiver's correction Z^a X^b for each outcome, indexed [a, b, row, col].
_CORRECTIONS = np.array([[I2, X], [Z, Z @ X]])
# B: row sigma is the Bell vector (sigma x I)|phi>, in the order of PAULIS.
_BELL_ROWS = np.array(list(_BELL_VECTORS.values()))
_BELL_ROWS.flags.writeable = False


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Completely positive trace-preserving map stored as one Kraus array.

    `kraus` is a read-only complex (n, out_dim, in_dim) array, copied from
    the caller's stack of operators.  The channel is frozen, so it can be shared.
    It maps states (`act`) and observables (`dual`); the Choi matrix is computed
    lazily and cached (idempotent, safe under concurrent first access).
    """

    kraus: Matrix = field(repr=False)
    name: str = ""
    in_dim: int = field(init=False)
    out_dim: int = field(init=False)

    def __post_init__(self) -> None:
        stack = as_matrix(self.kraus, ndim=3, name="Kraus operators")
        if not stack.size:  # no operator, or operators of a zero dimension
            raise InvalidParameterError(f"a channel needs at least one nonempty Kraus operator, got shape {stack.shape}")
        _, out_dim, in_dim = stack.shape
        v = stack.reshape(-1, in_dim)  # the operators' rows, so sum_k K_k^dag K_k = v^dag v
        residual = np.abs(v.conj().T @ v - _identity(in_dim)).max()
        if residual > TRACE_PRESERVING_TOL:
            raise NotTracePreservingError(
                f"max |sum(K^dag K) - I| = {residual:.3e} > {TRACE_PRESERVING_TOL}"
            )
        stack.flags.writeable = False
        object.__setattr__(self, "kraus", stack)
        object.__setattr__(self, "in_dim", in_dim)
        object.__setattr__(self, "out_dim", out_dim)

    def act(self, rho: Matrix) -> Matrix:
        """sum_i K_i rho K_i^dag on a raw (..., in_dim, in_dim) stack of matrices, unchecked."""
        return np.einsum("kij,...jl,kml->...im", self.kraus, rho, self.kraus.conj())

    def dual(self, observable: Matrix) -> Matrix:
        """sum_i K_i^dag O K_i, the Heisenberg picture of a raw (out_dim, out_dim) observable, unchecked."""
        return (dagger(self.kraus) @ observable @ self.kraus).sum(axis=0)

    @cached_property
    def choi(self) -> Matrix:
        """Choi matrix sum_ij |i><j| (x) Channel(|i><j|); trace = in_dim."""
        # Row k is (I (x) K_k) applied to sum_i |i>|i>, i.e. K_k^T flattened.
        v = self.kraus.transpose(0, 2, 1).reshape(len(self.kraus), -1)
        j = v.T @ v.conj()
        j.flags.writeable = False
        return j


def unitary_channel(u: np.ndarray, name: str = "") -> QuantumChannel:
    """Single-Kraus channel rho -> U rho U^dag."""
    return QuantumChannel(as_unitary(u)[None], name=name or "unitary")


def conjugate_channel(u: np.ndarray, ch: QuantumChannel, name: str = "") -> QuantumChannel:
    """U . Channel(U^dag . U) . U^dag, i.e. each Kraus operator becomes U K U^dag."""
    u = as_unitary(u)
    if not u.shape[0] == _instance(ch, QuantumChannel).in_dim == ch.out_dim:
        raise DimensionMismatchError(
            f"unitary of dim {u.shape[0]} cannot conjugate a {ch.in_dim}->{ch.out_dim} channel"
        )
    return QuantumChannel(_conjugated(u, ch.kraus), name=name)


def _conjugated(u: Matrix, kraus: Matrix) -> Matrix:
    """U K U^dag for each K of a Kraus array, unchecked; a (..., 1, d, d) stack of U broadcasts over them."""
    return u @ kraus @ dagger(u)


def measure_prepare_channel(u: np.ndarray, name: str = "") -> QuantumChannel:
    """Measure in the basis {U|j>} and re-prepare the observed basis state."""
    columns = as_unitary(u).T  # row j is U|j>
    projectors = columns[:, :, None] * columns.conj()[:, None, :]
    return QuantumChannel(projectors, name=name or "measure-prepare")


@cache
def measure_prepare_flip_channel() -> QuantumChannel:
    """Computational-basis measurement followed by bit-flipped preparation.

    Kraus set {|1><0|, |0><1|}: maps rho to <0|rho|0> |1><1| + <1|rho|1> |0><0|.
    The channel is immutable, so it is built once and every call returns it.
    """
    return QuantumChannel([[[0, 0], [1, 0]], [[0, 1], [0, 0]]], name="measure-prepare-flip")


def bell_overlaps(rho: DensityOperator) -> dict[str, float]:
    """Overlaps <phi_sigma| rho |phi_sigma> with the four Bell states: nonnegative up to float noise, summing to 1."""
    return dict(zip(_BELL_VECTORS, _bell_weights(rho).tolist()))


def _bell_weights(rho: DensityOperator) -> np.ndarray:
    """The Bell overlaps in the order of PAULIS, as diag(B* rho B^T): unlike an einsum, it keeps each v^dag rho v's bits."""
    m = check_two_qubit(rho, DensityOperator).matrix
    return np.diagonal(_BELL_ROWS.conj() @ m @ _BELL_ROWS.T).real


def teleportation_channel(resource: DensityOperator) -> QuantumChannel:
    """Teleportation over an arbitrary two-qubit resource, analytic form.

    The output channel is the Pauli channel rho -> sum_sigma w_sigma sigma rho
    sigma with w_sigma the Bell overlaps of the resource; a maximally
    entangled resource gives the identity, and the |phi_k> family introduces
    Z errors only.
    """
    weights = _bell_weights(resource)  # I, X, Y, Z: both follow PAULIS
    keep = weights > 0.0
    kraus = np.sqrt(weights[keep])[:, None, None] * pauli_basis(2)[keep]
    return QuantumChannel(kraus, name="teleport")


def teleportation_circuit_channel(resource: DensityOperator) -> QuantumChannel:
    """Teleportation channel obtained by exact simulation of the 3-qubit circuit.

    The input qubit A and the sender half B pass through CNOT(A -> B) then H
    on A, both are measured, and the receiver qubit C gets X^b then Z^a.  Each
    outcome (a, b) contributes one Kraus operator per resource eigenvector,
    in the order a, b, eigenvector.  Equals `teleportation_channel(resource)`
    as a channel for every valid resource state (verified via Choi matrices
    in the test suite).
    """
    eigvals, eigvecs = np.linalg.eigh(check_two_qubit(resource, DensityOperator).matrix)
    keep = eigvals >= NORM_TOL
    chis = eigvecs[:, keep] * np.sqrt(eigvals[keep])  # column e is sqrt(lambda_e) chi_e
    # K_{a,b,e}[x, p] = sum_{out,j} corr_ab[x, out] U[a, b, out, p, j] chi_e[j]
    kraus = np.einsum("abxo,abopj,je->abexp", _CORRECTIONS, _BELL_MEASUREMENT, chis)
    return QuantumChannel(kraus.reshape(-1, 2, 2), name="teleport-circuit")
