"""Tests for the dense matrix kernel."""

import numpy as np
import pytest

import nmecut
from nmecut.channels import (
    bell_overlaps,
    teleportation_channel,
    teleportation_circuit_channel,
    unitary_channel,
)
from nmecut.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotHermitianError,
    NotPositiveError,
    NotUnitaryError,
    NotUnitTraceError,
)
from nmecut.linalg import (
    I2,
    X,
    Y,
    Z,
    DensityOperator,
    PureState,
    _identity,
    as_matrix,
    as_unitary,
    check_hermitian,
    pauli_basis,
)
from nmecut.states import overlap_f_pure, schmidt_decompose


class TestPauliBasis:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_strings_in_kron_order(self, dim):
        basis = pauli_basis(dim)
        assert basis.shape == (dim * dim, dim, dim) and not basis.flags.writeable
        assert pauli_basis(dim) is basis  # built once
        single = [I2, X, Y, Z]
        for a in range(dim * dim):
            digits = [a // 4 ** q % 4 for q in reversed(range(dim.bit_length() - 1))]
            expected = single[digits[0]]
            for digit in digits[1:]:
                expected = np.kron(expected, single[digit])
            np.testing.assert_array_equal(basis[a], expected)
        # Orthogonal: tr(P_a P_b) = dim when a = b, else 0.
        np.testing.assert_allclose(np.einsum("aij,bji->ab", basis, basis), dim * np.eye(dim * dim), atol=0)

    @pytest.mark.parametrize("dim", [3, np.array([2]), np.array([2, 4])], ids=["three", "one-element-array", "array"])
    def test_other_dimension_is_a_named_error(self, dim):
        with pytest.raises(InvalidParameterError, match="dim must be one of"):
            pauli_basis(dim)


class TestIdentityChecks:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_identity_is_built_once_and_read_only(self, dim):
        eye = _identity(dim)
        np.testing.assert_array_equal(eye, np.eye(dim))
        assert eye.dtype == np.float64 and _identity(dim) is eye
        with pytest.raises(ValueError):
            eye[0, 0] = 2.0

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_unitary_boundary(self, dim):
        # sqrt(1 + delta) U has U^dag U = (1 + delta) I.
        rng = np.random.default_rng(dim)
        u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        as_unitary(np.sqrt(1 + 1e-12) * u)
        with pytest.raises(NotUnitaryError, match=r"^max \|U\^dag U - I\| = 1\.000e-09 > 1e-10$"):
            as_unitary(np.sqrt(1 + 1e-9) * u)


class TestAsMatrix:
    @pytest.mark.parametrize(
        "entry",
        [complex(np.inf, 0.0), complex(0.0, np.nan), complex(np.nan, np.inf), complex(0.0, -np.inf)],
        ids=["inf+0j", "0+nanj", "nan+infj", "0-infj"],
    )
    def test_rejects_a_non_finite_part(self, entry):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            as_matrix(np.array([[1.0, entry], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "check",
    [as_unitary, unitary_channel, lambda u: nmecut.exact_expectation(u, Z)],
    ids=["as_unitary", "unitary_channel", "exact_expectation"],
)
@pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
def test_non_square_unitary_is_a_named_error(check, shape):
    with pytest.raises(NotUnitaryError, match=rf"square, got shape \({shape[0]}, {shape[1]}\)"):
        check(np.ones(shape) / 2)


class TestValidateDensity:
    def test_maximally_mixed_ok(self):
        rho = DensityOperator(I2 / 2)
        assert rho.dim == 2

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositiveError) as excinfo:
            DensityOperator(np.diag([1.2, -0.2]))
        assert "-2" in str(excinfo.value)  # residual magnitude appears in message

    def test_traceless_pauli_rejected(self):
        with pytest.raises(NotUnitTraceError):
            DensityOperator(X)

    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotHermitianError):
            DensityOperator(m)

    def test_odd_dimension_rejected(self):
        with pytest.raises(InvalidParameterError):
            DensityOperator(np.eye(3) / 3)

    def test_too_large_dimension_rejected(self):
        with pytest.raises(InvalidParameterError):
            DensityOperator(np.eye(16) / 16)

    def test_matrix_is_immutable(self):
        rho = DensityOperator(I2 / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


class TestPureState:
    def test_norm_enforced(self):
        with pytest.raises(InvalidParameterError):
            PureState(np.array([1.0, 1.0]))

    def test_density_round_trip(self):
        psi = PureState(np.array([3 / 5, 4j / 5]))
        rho = psi.density()
        np.testing.assert_allclose(rho.matrix, np.outer(psi.amplitudes, psi.amplitudes.conj()))

    def test_sixteen_levels_rejected(self):
        # The rule DensityOperator applies: a 16-level state is not 1-3 qubits.
        with pytest.raises(InvalidParameterError, match=r"dim must be one of \(2, 4, 8\), got 16"):
            PureState(np.eye(16)[0])

    def test_nan_amplitude_rejected(self):
        with pytest.raises(InvalidParameterError, match="finite"):
            PureState(np.array([np.nan, 0.0]))


def test_dim_is_read_from_the_array():
    assert PureState(np.array([1.0, 0.0, 0.0, 0.0])).dim == 4
    assert DensityOperator(np.eye(8) / 8).dim == 8
    with pytest.raises(TypeError):
        PureState(dim=2, amplitudes=np.array([1.0, 0.0]))
    with pytest.raises(TypeError):
        DensityOperator(dim=2, matrix=I2 / 2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: PureState(np.array([1.0, 0.0])),
        lambda: DensityOperator(I2 / 2),
        lambda: schmidt_decompose(PureState(np.eye(4)[0])),
    ],
    ids=["PureState", "DensityOperator", "SchmidtForm"],
)
def test_states_compare_and_hash_by_identity(make):
    # Array fields make field-wise == ambiguous; equal arrays are still two states.
    a, b = make(), make()
    assert a == a
    assert a != b
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("check", [check_hermitian, DensityOperator], ids=["check_hermitian", "DensityOperator"])
def test_non_square_hermitian_is_a_named_error(check):
    with pytest.raises(NotHermitianError, match=r"square, got shape \(2, 3\)"):
        check(np.ones((2, 3)) / 2)


TWO_QUBIT_PURE = [schmidt_decompose, overlap_f_pure]
TWO_QUBIT_MIXED = [bell_overlaps, teleportation_channel, teleportation_circuit_channel]


@pytest.mark.parametrize("function", TWO_QUBIT_PURE + TWO_QUBIT_MIXED, ids=lambda fn: fn.__name__)
def test_two_qubit_argument_is_checked(function):
    kind, raw, one_qubit = (
        (PureState, np.eye(4)[0], PureState(np.array([1.0, 0.0])))
        if function in TWO_QUBIT_PURE
        else (DensityOperator, np.eye(4) / 4, DensityOperator(I2 / 2))
    )
    with pytest.raises(InvalidParameterError, match=f"expected a {kind.__name__}, got ndarray"):
        function(raw)
    with pytest.raises(DimensionMismatchError, match="expected a 2-qubit .*, got dim 2"):
        function(one_qubit)
