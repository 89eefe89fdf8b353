"""Dense complex-matrix kernel for systems of up to three qubits.

Everything here is exact double-precision arithmetic on small (at most 8x8)
matrices.  Qubit ordering convention: the leftmost tensor factor is qubit 0
and the most significant bit of a computational-basis index.  A state is
its array: `PureState` and `DensityOperator` read `dim` from its shape, and
`check_two_qubit` is the one check of a two-qubit state argument.  Each kind
of argument has one door: `as_matrix`, `_integer`, `_require_real`, `_instance`,
`_one_of`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cache, lru_cache
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
    OutOfRangeError,
    _shown,
)

Matrix = npt.NDArray[np.complex128]
T = TypeVar("T")

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


def as_matrix(a: npt.ArrayLike, ndim: int = 2, name: str = "matrix") -> Matrix:
    """`a` as a complex128 array of `ndim` dimensions; InvalidParameterError unless numeric, of that ndim and finite."""
    try:
        raw = np.asarray(a)
        if raw.dtype.kind not in "biufc":  # a string or an object; np.array(a, dtype=complex) would parse "1" as 1
            raise InvalidParameterError(f"{name} must be a numeric array, got dtype {raw.dtype}")
        m = np.array(raw, dtype=complex)
    except (TypeError, ValueError) as exc:  # a ragged list ...
        raise InvalidParameterError(f"{name} must be a numeric array: {exc}") from None
    if m.ndim != ndim:
        raise InvalidParameterError(f"{name} must be {ndim}-d, got ndim={m.ndim}")
    if not all(np.isfinite(m).flat):  # on arrays this small, all() over .flat beats ndarray.all()
        raise InvalidParameterError(f"{name} must be finite, got a non-finite entry")
    return m


def _integer(name: str, value: object, lo: int | None = None, hi: int | None = None) -> int:
    """`value` as a plain int; InvalidParameterError unless it is an integer other than a bool, OutOfRangeError outside [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):  # True is an Integral
        raise InvalidParameterError(f"{name} must be an integer, got {_shown(value, repr)}")
    number = int(value)
    if lo is not None and hi is not None and not lo <= number <= hi:
        raise OutOfRangeError(f"{name} must lie in [{lo}, {hi}], got {_shown(number)}")
    if lo is not None and number < lo:
        raise OutOfRangeError(f"{name} must be >= {lo}, got {_shown(number)}")
    if hi is not None and number > hi:
        raise OutOfRangeError(f"{name} must be <= {hi}, got {_shown(number)}")
    return number


def _require_real(name: str, value: object) -> numbers.Real:
    """`value`, with a numpy float as a Python float; InvalidParameterError unless it is one real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameterError(f"{name} must be a real number, got {_shown(value, repr)}")
    return float(value) if isinstance(value, np.floating) else value


def _instance(value: object, kind: type[T]) -> T:
    """`value`; InvalidParameterError unless it is a `kind`."""
    if not isinstance(value, kind):
        raise InvalidParameterError(f"expected a {kind.__name__}, got {type(value).__name__}")
    return value


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


@lru_cache(maxsize=8)  # bounded: a caller's unitary may be of any size
def _identity(dim: int) -> np.ndarray:
    """Read-only real dim x dim identity, built once per dim for the checks that compare against I."""
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


def as_unitary(u: npt.ArrayLike) -> Matrix:
    """as_matrix(u); NotUnitaryError if it is not square or max |U^dag U - I| > UNITARY_TOL."""
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise NotUnitaryError(f"a unitary must be square, got shape {u.shape}")
    residual = np.abs(dagger(u) @ u - _identity(u.shape[0])).max()
    if residual > UNITARY_TOL:
        raise NotUnitaryError(f"max |U^dag U - I| = {residual:.3e} > {UNITARY_TOL}")
    return u


def check_two_qubit(state: object, kind: type[T]) -> T:
    """Returns `state`; InvalidParameterError unless it is a `kind`, DimensionMismatchError unless its dim is 4."""
    if _instance(state, kind).dim != 4:
        raise DimensionMismatchError(f"expected a 2-qubit {kind.__name__}, got dim {state.dim}")
    return state


def _one_of(name: str, value: T, choices: tuple[T, ...]) -> T:
    """`value`; InvalidParameterError unless it is one of `choices`."""
    # `in` would compare an array elementwise: ambiguous, or true when a one-element array matches.
    if isinstance(value, np.ndarray) or value not in choices:
        raise InvalidParameterError(f"{name} must be one of {choices}, got {_shown(value, repr)}")
    return value


def pauli_basis(dim: int) -> Matrix:
    """Read-only (dim^2, dim, dim) stack of the Pauli strings on 1-3 qubits, built once per dim.

    Each qubit takes I, X, Y, Z in the order of PAULIS, and the first factor is
    the most significant digit of the index, as in `np.kron`.
    """
    return _pauli_basis(_one_of("dim", dim, VALID_DIMS))  # checked before the cache, which would fail to hash an array


@cache
def _pauli_basis(dim: int) -> Matrix:
    single = np.array(list(PAULIS.values()))
    basis = single
    while len(basis[0]) < dim:
        basis = np.array([np.kron(p, q) for p in basis for q in single])
    basis.flags.writeable = False
    return basis


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive, Hermitian, unit-trace operator on 1-3 qubits; `dim` is read from the matrix."""

    matrix: Matrix
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        m = check_hermitian(as_matrix(self.matrix))
        object.__setattr__(self, "dim", _one_of("dim", m.shape[0], VALID_DIMS))
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
        v = as_matrix(self.amplitudes, ndim=1, name="amplitudes")
        object.__setattr__(self, "dim", _one_of("dim", v.shape[0], VALID_DIMS))
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > NORM_TOL:
            raise InvalidParameterError(f"|norm - 1| = {abs(nrm - 1.0):.3e} > {NORM_TOL}")
        v.flags.writeable = False
        object.__setattr__(self, "amplitudes", v)

    def density(self) -> DensityOperator:
        """|psi><psi| as a validated density operator, formed as the product np.outer makes, without its wrapper."""
        return DensityOperator(self.amplitudes[:, None] * self.amplitudes.conj())
