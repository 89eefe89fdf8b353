"""CPTP channel algebra in Kraus form.

Builds the channels the wire-cut decompositions are made of: unitary
conjugations, basis measure-and-prepare maps, the measure-and-flip map, and
the teleportation channel for an arbitrary two-qubit resource state in both
its analytic (Bell-overlap) and explicit-circuit forms.  Choi matrices are
derived on demand and cached; equality of Choi matrices is the canonical
channel-equality witness used throughout the tests.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, NotTracePreservingError
from .linalg import (
    CNOT,
    H,
    I2,
    NORM_TOL,
    PAULIS,
    X,
    Z,
    DensityOperator,
    Matrix,
    as_matrix,
    as_unitary,
    dagger,
    kron,
)
from .states import _BELL_VECTORS

TRACE_PRESERVING_TOL = 1e-10


class QuantumChannel:
    """Completely positive trace-preserving map stored as a Kraus set.

    Instances are immutable after construction; the Choi matrix is computed
    lazily and cached (idempotent, safe under concurrent first access).
    """

    def __init__(self, kraus: Iterable[np.ndarray], name: str = "") -> None:
        ops = tuple(as_matrix(k) for k in kraus)
        if not ops:
            raise InvalidParameterError("a channel needs at least one Kraus operator")
        out_dim, in_dim = ops[0].shape
        for k in ops:
            if k.shape != (out_dim, in_dim):
                raise DimensionMismatchError(
                    f"inconsistent Kraus shapes: {k.shape} vs {(out_dim, in_dim)}"
                )
        total = sum(dagger(k) @ k for k in ops)
        residual = np.abs(total - np.eye(in_dim)).max()
        if residual > TRACE_PRESERVING_TOL:
            raise NotTracePreservingError(
                f"max |sum(K^dag K) - I| = {residual:.3e} > {TRACE_PRESERVING_TOL}"
            )
        for k in ops:
            k.flags.writeable = False
        self.kraus = ops
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.name = name

    def act(self, rho: Matrix) -> Matrix:
        """sum_i K_i rho K_i^dag on a raw (..., in_dim, in_dim) stack of matrices, unchecked."""
        return sum(k @ rho @ dagger(k) for k in self.kraus)

    def apply(self, rho: DensityOperator) -> DensityOperator:
        """The channel's action as a validated density operator."""
        if rho.dim != self.in_dim:
            raise DimensionMismatchError(
                f"state dim {rho.dim} does not match channel input dim {self.in_dim}"
            )
        return DensityOperator(dim=self.out_dim, matrix=self.act(rho.matrix))

    @cached_property
    def choi(self) -> Matrix:
        """Choi matrix sum_ij |i><j| (x) Channel(|i><j|); trace = in_dim."""
        d = self.in_dim * self.out_dim
        j = np.zeros((d, d), dtype=complex)
        for k in self.kraus:
            v = k.T.reshape(-1)  # (I (x) K) applied to sum_i |i>|i>
            j += np.outer(v, v.conj())
        j.flags.writeable = False
        return j

    def __repr__(self) -> str:
        label = self.name or "channel"
        return f"QuantumChannel({label!r}, {len(self.kraus)} Kraus, {self.in_dim}->{self.out_dim})"


def unitary_channel(u: np.ndarray, name: str = "") -> QuantumChannel:
    """Single-Kraus channel rho -> U rho U^dag."""
    return QuantumChannel([as_unitary(u)], name=name or "unitary")


def conjugate_channel(u: np.ndarray, ch: QuantumChannel, name: str = "") -> QuantumChannel:
    """U . Channel(U^dag . U) . U^dag, i.e. each Kraus operator becomes U K U^dag."""
    u = as_matrix(u)
    return QuantumChannel([u @ k @ dagger(u) for k in ch.kraus], name=name)


def measure_prepare_channel(u: np.ndarray, name: str = "") -> QuantumChannel:
    """Measure in the basis {U|j>} and re-prepare the observed basis state."""
    u = as_matrix(u)
    d = u.shape[0]
    projectors = []
    for j in range(d):
        e = np.zeros(d, dtype=complex)
        e[j] = 1.0
        v = u @ e
        projectors.append(np.outer(v, v.conj()))
    return QuantumChannel(projectors, name=name or "measure-prepare")


def measure_prepare_flip_channel() -> QuantumChannel:
    """Computational-basis measurement followed by bit-flipped preparation.

    Kraus set {|1><0|, |0><1|}: maps rho to <0|rho|0> |1><1| + <1|rho|1> |0><0|.
    """
    k0 = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|
    k1 = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
    return QuantumChannel([k0, k1], name="measure-prepare-flip")


def bell_overlaps(rho: DensityOperator) -> dict[str, float]:
    """Overlaps <phi_sigma| rho |phi_sigma> with the four Bell states.

    The values are nonnegative up to float noise and sum to 1 for any valid
    two-qubit density operator.
    """
    if rho.dim != 4:
        raise DimensionMismatchError(f"expected a 2-qubit state, got dim {rho.dim}")
    return {
        name: float(np.real(v.conj() @ rho.matrix @ v))
        for name, v in _BELL_VECTORS.items()
    }


def teleportation_channel(resource: DensityOperator) -> QuantumChannel:
    """Teleportation over an arbitrary two-qubit resource, analytic form.

    The output channel is the Pauli channel rho -> sum_sigma w_sigma sigma rho
    sigma with w_sigma the Bell overlaps of the resource; a maximally
    entangled resource gives the identity, and the |phi_k> family introduces
    Z errors only.
    """
    weights = bell_overlaps(resource)
    kraus = [
        np.sqrt(w) * PAULIS[name]
        for name, w in weights.items()
        if w > 0.0
    ]
    return QuantumChannel(kraus, name="teleport")


def teleportation_circuit_branches(
    resource: DensityOperator,
) -> list[tuple[tuple[int, int], list[Matrix]]]:
    """Kraus operators of each measurement branch of the teleportation circuit.

    The three-qubit circuit is simulated exactly: the input qubit A and the
    sender half B pass through CNOT(A -> B) then H on A, both are measured,
    and the receiver qubit C gets X^b then Z^a.  Returns one entry per
    outcome (a, b); flattening all branches yields the full channel.
    """
    if resource.dim != 4:
        raise DimensionMismatchError(f"expected a 2-qubit resource, got dim {resource.dim}")
    # Qubit order (A, B, C); the Bell-measurement unitary acts on A, B only.
    u3 = kron(kron(H, I2) @ CNOT, I2)
    eigvals, eigvecs = np.linalg.eigh(resource.matrix)
    branches = []
    for a in (0, 1):
        for b in (0, 1):
            correction = (Z if a else I2) @ (X if b else I2)
            ops: list[Matrix] = []
            for e in range(4):
                lam = float(eigvals[e])
                if lam < NORM_TOL:
                    continue
                chi = eigvecs[:, e]
                m = np.zeros((2, 2), dtype=complex)
                for p in (0, 1):
                    basis = np.zeros(2, dtype=complex)
                    basis[p] = 1.0
                    evolved = u3 @ np.kron(basis, chi)
                    for out in (0, 1):
                        m[out, p] = evolved[a * 4 + b * 2 + out]
                ops.append(np.sqrt(lam) * correction @ m)
            branches.append(((a, b), ops))
    return branches


def teleportation_circuit_channel(resource: DensityOperator) -> QuantumChannel:
    """Teleportation channel obtained by exact simulation of the 3-qubit circuit.

    Equals `teleportation_channel(resource)` as a channel for every valid
    resource state (verified via Choi matrices in the test suite).
    """
    kraus: list[Matrix] = []
    for _, ops in teleportation_circuit_branches(resource):
        kraus.extend(ops)
    return QuantumChannel(kraus, name="teleport-circuit")
