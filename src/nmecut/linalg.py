"""Dense complex-matrix kernel for systems of up to three qubits.

Everything here is exact double-precision arithmetic on small (at most 8x8)
matrices.  Qubit ordering convention: the leftmost tensor factor is qubit 0
and the most significant bit of a computational-basis index.  A state is
its array: `PureState` and `DensityOperator` read `dim` from its shape, and
`check_two_qubit` is the one check of a two-qubit state argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TypeVar

import numpy as np
import numpy.typing as npt

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotHermitianError,
    NotPositiveError,
    NotUnitaryError,
    NotUnitTraceError,
)

Matrix = npt.NDArray[np.complex128]
State = TypeVar("State")

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
NORM_TOL = 1e-12

VALID_DIMS = (2, 4, 8)

# Single-qubit building blocks.
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
# Phase convention: S = diag(1, i), so (SH) Z (SH)^dag = Y exactly.
S = np.array([[1, 0], [0, 1j]], dtype=complex)
PAULIS = {"I": I2, "X": X, "Y": Y, "Z": Z}

# CNOT with qubit 0 as control, qubit 1 as target.
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def as_matrix(a: npt.ArrayLike) -> Matrix:
    """Coerce to a complex128 2-d array, rejecting NaN/Inf entries."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2:
        raise InvalidParameterError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():  # a complex entry is finite only if both parts are
        raise InvalidParameterError("matrix contains non-finite entries")
    return m


def dagger(a: Matrix) -> Matrix:
    """Conjugate transpose of a matrix, or of each matrix in a (..., rows, cols) stack."""
    return a.conj().swapaxes(-1, -2)


def check_hermitian(m: Matrix) -> Matrix:
    """Returns `m`; NotHermitianError if it is not square or max |M - M^dag| > HERMITIAN_TOL."""
    if m.shape[0] != m.shape[1]:
        raise NotHermitianError(f"a Hermitian matrix must be square, got shape {m.shape}")
    herm = np.abs(m - dagger(m)).max()
    if herm > HERMITIAN_TOL:
        raise NotHermitianError(f"max |M - M^dag| = {herm:.3e} > {HERMITIAN_TOL}")
    return m


def as_unitary(u: npt.ArrayLike) -> Matrix:
    """as_matrix(u); NotUnitaryError if it is not square or max |U^dag U - I| > UNITARY_TOL."""
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise NotUnitaryError(f"a unitary must be square, got shape {u.shape}")
    residual = np.abs(dagger(u) @ u - np.eye(u.shape[0])).max()
    if residual > UNITARY_TOL:
        raise NotUnitaryError(f"max |U^dag U - I| = {residual:.3e} > {UNITARY_TOL}")
    return u


def kron(a: npt.ArrayLike, b: npt.ArrayLike) -> Matrix:
    """Kronecker product with the first factor as the most significant qubit."""
    return np.kron(as_matrix(a), as_matrix(b))


def check_two_qubit(state: object, kind: type[State]) -> State:
    """Returns `state`; InvalidParameterError unless it is a `kind`, DimensionMismatchError unless its dim is 4."""
    if not isinstance(state, kind):
        raise InvalidParameterError(f"expected a {kind.__name__}, got {type(state).__name__}")
    if state.dim != 4:
        raise DimensionMismatchError(f"expected a 2-qubit {kind.__name__}, got dim {state.dim}")
    return state


def _qubit_dim(dim: int) -> int:
    """`dim` if it is the dimension of 1-3 qubits; InvalidParameterError otherwise."""
    if dim not in VALID_DIMS:
        raise InvalidParameterError(f"dim must be one of {VALID_DIMS}, got {dim}")
    return dim


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive, Hermitian, unit-trace operator on 1-3 qubits; `dim` is read from the matrix."""

    matrix: Matrix
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        m = check_hermitian(as_matrix(self.matrix))
        object.__setattr__(self, "dim", _qubit_dim(m.shape[0]))
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise NotUnitTraceError(f"|tr(M) - 1| = {abs(tr - 1.0):.3e} > {TRACE_TOL}")
        # Full eigendecomposition: 8x8 is cheap and yields the residual.
        lo = float(np.linalg.eigvalsh(m).min())
        if lo < -POSITIVITY_TOL:
            raise NotPositiveError(f"minimum eigenvalue {lo:.3e} < -{POSITIVITY_TOL}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector on 1-3 qubits; `dim` is read from the vector."""

    amplitudes: npt.NDArray[np.complex128]
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        v = np.array(self.amplitudes, dtype=complex)
        if v.ndim != 1:
            raise InvalidParameterError(f"expected a 1-d amplitude vector, got ndim={v.ndim}")
        object.__setattr__(self, "dim", _qubit_dim(v.shape[0]))
        nrm = float(np.linalg.norm(v))
        if not abs(nrm - 1.0) <= NORM_TOL:  # also rejects a NaN norm
            raise InvalidParameterError(f"|norm - 1| = {abs(nrm - 1.0):.3e} > {NORM_TOL}")
        v.flags.writeable = False
        object.__setattr__(self, "amplitudes", v)

    def density(self) -> DensityOperator:
        """|psi><psi| as a validated density operator."""
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))
