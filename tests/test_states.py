"""Tests for the state families, the overlap monotone and its norm."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import hurwitz_unitary, random_pure_vector
from nmecut.errors import InvalidParameterError, OutOfRangeError
from nmecut.linalg import H, I2, PureState, kron
from nmecut.channels import unitary_channel
from nmecut.experiment import DEFAULT_F_VALUES
from nmecut.qpd import QpdTerm, nme_wire_cut
from nmecut.states import (
    bell_state,
    checked_k,
    checked_overlap,
    k_from_f,
    m_distillation_norm,
    nme_state,
    overlap_f_pure,
    schmidt_decompose,
)

SQRT5 = math.sqrt(5.0)
PHI_VECTOR = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def f_closed_form(k: float) -> float:
    return (k + 1.0) ** 2 / (2.0 * (k * k + 1.0))


class TestNmeState:
    def test_maximally_entangled_at_k_one(self):
        np.testing.assert_allclose(nme_state(1.0).amplitudes, PHI_VECTOR, atol=1e-15)

    def test_separable_at_k_zero(self):
        np.testing.assert_allclose(nme_state(0.0).amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_half_entangled_amplitudes(self):
        # Oracle: normalize (1, 0, 0, 0.5).
        raw = np.array([1.0, 0.0, 0.0, 0.5])
        expected = raw / np.linalg.norm(raw)
        np.testing.assert_allclose(expected, [2 / SQRT5, 0, 0, 1 / SQRT5], atol=1e-15)
        np.testing.assert_allclose(nme_state(0.5).amplitudes, expected, atol=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_invalid_parameter(self, bad):
        with pytest.raises(InvalidParameterError):
            nme_state(bad)

    def test_normalizer(self):
        assert nme_state(0.0).amplitudes[0].real == 1.0
        assert nme_state(1.0).amplitudes[0].real == pytest.approx(1 / math.sqrt(2), abs=1e-15)


class TestBellState:
    def test_identity_label(self):
        np.testing.assert_allclose(bell_state("I").amplitudes, PHI_VECTOR, atol=1e-15)

    def test_x_label_permutes(self):
        np.testing.assert_allclose(
            bell_state("X").amplitudes, [0, 1, 1, 0] / np.sqrt(2), atol=1e-15
        )

    def test_z_label_flips_sign(self):
        np.testing.assert_allclose(
            bell_state("Z").amplitudes, [1, 0, 0, -1] / np.sqrt(2), atol=1e-15
        )

    def test_orthonormal_basis(self):
        vectors = [bell_state(s).amplitudes for s in "IXYZ"]
        gram = np.array([[vi.conj() @ vj for vj in vectors] for vi in vectors])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-14)

    def test_invalid_label(self):
        with pytest.raises(InvalidParameterError):
            bell_state("Q")


class TestSchmidtDecompose:
    def test_bell_state_coefficients(self):
        form = schmidt_decompose(nme_state(1.0))
        np.testing.assert_allclose(form.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)
        assert form.k == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        psi = PureState(np.array([0, 1, 0, 0], dtype=complex))  # |01>
        form = schmidt_decompose(psi)
        np.testing.assert_allclose(form.coefficients, [1.0, 0.0], atol=1e-12)
        assert form.k == pytest.approx(0.0, abs=1e-12)

    def test_local_unitary_preserves_coefficients(self):
        # Oracle: Schmidt coefficients are the singular values of the 2x2
        # amplitude matrix, invariant under one-sided unitaries.
        psi = nme_state(0.5)
        rotated = PureState(kron(H, I2) @ psi.amplitudes)
        form = schmidt_decompose(rotated)
        np.testing.assert_allclose(form.coefficients, [2 / SQRT5, 1 / SQRT5], atol=1e-12)
        assert form.k == pytest.approx(0.5, abs=1e-12)

    def test_reconstruction_and_orthonormality_random(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            psi = PureState(random_pure_vector(rng, 4))
            form = schmidt_decompose(psi)
            p0, p1 = form.coefficients
            assert p0 >= p1 >= 0
            assert p0 * p0 + p1 * p1 == pytest.approx(1.0, abs=1e-12)
            for pair in (form.left_basis, form.right_basis):
                assert abs(pair[0].amplitudes.conj() @ pair[1].amplitudes) <= 1e-10
            np.testing.assert_allclose(form.reconstruct(), psi.amplitudes, atol=1e-10)

    def test_coefficients_match_reduced_spectrum(self):
        # Independent oracle: squared coefficients are the eigenvalues of the
        # reduced density operator.
        rng = np.random.default_rng(8)
        psi = PureState(random_pure_vector(rng, 4))
        form = schmidt_decompose(psi)
        m = psi.amplitudes.reshape(2, 2)
        eigs = np.sort(np.linalg.eigvalsh(m @ m.conj().T))[::-1]
        np.testing.assert_allclose(np.array(form.coefficients) ** 2, eigs, atol=1e-12)


def direct_norm_minimum(coeffs, m):
    """Oracle: evaluate the norm formula at every j and take the minimum."""
    c = np.asarray(coeffs, dtype=float)
    best = np.inf
    for j in range(1, m + 1):
        tail = c[j:]
        best = min(best, float(c[:j].sum() + math.sqrt(j) * np.linalg.norm(tail)))
    return best


class TestMDistillationNorm:
    def test_maximally_entangled(self):
        assert m_distillation_norm((1 / np.sqrt(2), 1 / np.sqrt(2)), 2) == pytest.approx(
            np.sqrt(2), abs=1e-12
        )

    def test_separable(self):
        assert m_distillation_norm((1.0, 0.0), 2) == pytest.approx(1.0, abs=1e-15)

    def test_half_entangled(self):
        coeffs = (2 / SQRT5, 1 / SQRT5)
        expected = direct_norm_minimum(coeffs, 2)
        assert expected == pytest.approx(3 / SQRT5, abs=1e-12)
        assert m_distillation_norm(coeffs, 2) == pytest.approx(expected, abs=1e-12)

    def test_matches_direct_minimum_on_grid(self):
        for k in np.linspace(0.0, 1.0, 21):
            coeffs = tuple(sorted((1.0, k) / np.sqrt(1 + k * k), reverse=True))
            assert m_distillation_norm(coeffs, 2) == pytest.approx(
                direct_norm_minimum(coeffs, 2), abs=1e-12
            )

    def test_m_beyond_coefficient_count_is_not_scanned(self):
        # Above d the minimizing j is 1; scanning every j up to m = 10**9 would take about 40 minutes.
        assert m_distillation_norm((0.8, 0.6), 10**9) == 1.4

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidParameterError):
            m_distillation_norm((0.3, 0.9), 2)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            m_distillation_norm((0.9, -0.3), 2)

    def test_rejects_oversized_square_sum(self):
        with pytest.raises(InvalidParameterError):
            m_distillation_norm((1.0, 1.0), 2)

    def test_rejects_bad_m(self):
        with pytest.raises(InvalidParameterError):
            m_distillation_norm((1.0, 0.0), 0)

    @pytest.mark.parametrize(
        "coeffs, m, message",
        [
            ((1.0, 0.0), 2.5, "m must be an integer, got 2.5"),
            ((1.0, 0.0), "2", "m must be an integer, got '2'"),
            ((1.0, 0.0), None, "m must be an integer, got None"),
            ((1.0, 0.0), True, "m must be an integer, got True"),
            ((np.nan, 0.0), 2, "coefficients must be finite"),
            ((1.0, np.nan), 2, "coefficients must be finite"),
            ((np.inf, 0.0), 2, "coefficients must be finite"),
        ],
        ids=["float-m", "string-m", "none-m", "bool-m", "nan-head", "nan-tail", "inf"],
    )
    def test_rejects_malformed_input(self, coeffs, m, message):
        with pytest.raises(InvalidParameterError, match=message):
            m_distillation_norm(coeffs, m)


class TestOverlapF:
    def test_endpoints(self):
        assert overlap_f_pure(nme_state(1.0)) == pytest.approx(1.0, abs=1e-12)
        assert overlap_f_pure(nme_state(0.0)) == pytest.approx(0.5, abs=1e-15)

    def test_half_entangled(self):
        # Oracle: direct overlap |<phi|psi>|^2 with the maximally entangled state.
        psi = nme_state(0.5)
        direct = abs(PHI_VECTOR.conj() @ psi.amplitudes) ** 2
        assert direct == pytest.approx(0.9, abs=1e-12)
        assert overlap_f_pure(psi) == pytest.approx(0.9, abs=1e-12)

    def test_closed_form_on_grid(self):
        for k in np.linspace(0.0, 2.0, 41):
            assert overlap_f_pure(nme_state(k)) == pytest.approx(
                f_closed_form(k), abs=1e-12
            )

    def test_equals_direct_overlap_for_family(self):
        for k in np.linspace(0.0, 1.0, 11):
            psi = nme_state(k)
            direct = abs(PHI_VECTOR.conj() @ psi.amplitudes) ** 2
            assert overlap_f_pure(psi) == pytest.approx(direct, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(k=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    def test_symmetric_under_inversion(self, k):
        assert overlap_f_pure(nme_state(k)) == pytest.approx(
            overlap_f_pure(nme_state(1.0 / k)), abs=1e-12
        )

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            k = rng.uniform(0.0, 1.0)
            psi = nme_state(k)
            u = kron(hurwitz_unitary(rng), hurwitz_unitary(rng))
            rotated = PureState(u @ psi.amplitudes)
            assert overlap_f_pure(rotated) == pytest.approx(
                overlap_f_pure(psi), abs=1e-10
            )


def schmidt_oracle_f(psi: PureState) -> float:
    """Oracle for f: half the squared 2-distillation norm of the SVD Schmidt coefficients."""
    nrm = m_distillation_norm(schmidt_decompose(psi).coefficients, 2)
    return 0.5 * nrm * nrm


def assert_matches_schmidt_oracle(psi: PureState, tol: float = 1e-12) -> None:
    f = overlap_f_pure(psi)
    assert abs(f - schmidt_oracle_f(psi)) <= tol, psi.amplitudes


class TestOverlapFAgainstSchmidtOracle:
    """The determinant form of f against the Schmidt-coefficient form, its oracle."""

    def test_random_complex_states(self):
        rng = np.random.default_rng(2101)
        for _ in range(400):
            assert_matches_schmidt_oracle(PureState(random_pure_vector(rng, 4)))

    def test_random_real_states(self):
        rng = np.random.default_rng(2102)
        for _ in range(200):
            v = rng.normal(size=4)
            assert_matches_schmidt_oracle(PureState(v / np.linalg.norm(v)))

    def test_product_states(self):
        rng = np.random.default_rng(2103)
        for _ in range(100):
            psi = PureState(np.kron(random_pure_vector(rng, 2), random_pure_vector(rng, 2)))
            assert overlap_f_pure(psi) == pytest.approx(0.5, abs=1e-12)
            assert_matches_schmidt_oracle(psi)

    def test_near_maximal_states(self):
        rng = np.random.default_rng(2104)
        for sigma in ("I", "X", "Y", "Z"):
            assert overlap_f_pure(bell_state(sigma)) == pytest.approx(1.0, abs=1e-12)
            assert_matches_schmidt_oracle(bell_state(sigma))
        for eps in (1e-3, 1e-6, 1e-9, 1e-12):
            for _ in range(20):
                u = kron(hurwitz_unitary(rng), hurwitz_unitary(rng))
                v = u @ PHI_VECTOR + eps * random_pure_vector(rng, 4)
                assert_matches_schmidt_oracle(PureState(v / np.linalg.norm(v)))

    @pytest.mark.parametrize("k", [1e-300, 1e-150, 1e-8, 0.1, 0.5, 0.999, 1.0, 7.0, 1e8, 1e150])
    def test_family_and_its_mirror(self, k):
        assert_matches_schmidt_oracle(nme_state(k))
        assert_matches_schmidt_oracle(nme_state(1.0 / k))
        assert overlap_f_pure(nme_state(k)) == pytest.approx(f_closed_form(min(k, 1.0 / k)), abs=1e-12)

    def test_keeps_the_norm_off_unit_within_tolerance(self):
        # ||psi||^2 = 1 + 1.8e-12: taking it as 1 would be 9e-13 off the Schmidt form.
        rng = np.random.default_rng(2105)
        for _ in range(20):
            psi = PureState(random_pure_vector(rng, 4) * (1.0 + 9e-13))
            assert_matches_schmidt_oracle(psi, tol=1e-14)

    def test_round_trip_through_k_from_f(self):
        for f in list(DEFAULT_F_VALUES) + list(np.linspace(0.5, 1.0, 1001)):
            assert abs(overlap_f_pure(nme_state(k_from_f(f))) - f) <= 1e-12, f


def k_from_f_bisect(f: float) -> float:
    """Oracle: bisection on the monotone map k -> f(|phi_k>) over [0, 1]."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f_closed_form(mid) < f:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestKFromF:
    def test_maximal(self):
        assert k_from_f(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_separable(self):
        assert k_from_f(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_interior_value(self):
        oracle = k_from_f_bisect(0.9)
        assert oracle == pytest.approx(0.5, abs=1e-10)
        assert k_from_f(0.9) == pytest.approx(0.5, abs=1e-10)

    def test_round_trip_on_grid(self):
        for k in np.linspace(0.0, 1.0, 21):
            assert k_from_f(f_closed_form(k)) == pytest.approx(k, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(f=st.floats(min_value=0.5, max_value=1.0, allow_nan=False))
    def test_forward_inverse(self, f):
        k = k_from_f(f)
        assert 0.0 <= k <= 1.0
        assert f_closed_form(k) == pytest.approx(f, abs=1e-10)

    @pytest.mark.parametrize("bad", [0.49, 1.01, -1.0, 2.0])
    def test_out_of_range(self, bad):
        with pytest.raises(OutOfRangeError):
            k_from_f(bad)


class TestScalarChecks:
    """checked_overlap and checked_k return a float in range or raise InvalidParameterError."""

    def test_integer_beyond_float_range_is_a_named_error(self):
        for function in (nme_state, k_from_f):
            with pytest.raises(InvalidParameterError):
                function(10**400)

    @pytest.mark.parametrize(
        "value",
        ["abc", 1j, None, np.array([0.5, 2.0]), np.array([0.7]), np.complex128(0.7 + 1j)],
        ids=["str", "complex", "none", "array", "one-element-array", "numpy-complex"],
    )
    @pytest.mark.parametrize("function", [checked_overlap, checked_k, nme_wire_cut])
    def test_non_real_is_a_named_error(self, function, value):
        # Comparing these raises TypeError or ValueError, or passes and leaves
        # float() to fail (one-element array) or drop the imaginary part.
        with pytest.raises(InvalidParameterError, match=r"must be a real number, got "):
            function(value)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize(
        "function",
        [checked_k, checked_overlap, nme_wire_cut, lambda c: QpdTerm(c, unitary_channel(I2))],
        ids=["checked_k", "checked_overlap", "nme_wire_cut", "QpdTerm"],
    )
    def test_bool_is_not_a_real_number(self, function, value):
        # bool subclasses int, so True would otherwise pass as 1.
        with pytest.raises(InvalidParameterError, match=rf"must be a real number, got {value}"):
            function(value)

    @pytest.mark.parametrize("kind", [np.float16, np.float32, np.float64, np.int8, np.int64, np.uint64])
    @pytest.mark.parametrize("function", [checked_overlap, checked_k, nme_wire_cut])
    def test_numpy_scalars_are_checked_without_warnings(self, function, kind):
        # A float16 or float32 compared with the float64 bound for k used to
        # warn of an overflow in a cast, which -W error turns into a failure.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if function is nme_wire_cut:
                assert function(kind(1)).kappa == function(1.0).kappa
            else:
                value = function(kind(1))
                assert type(value) is float and value == 1.0
            bad = [2] if function is checked_overlap else [] if np.issubdtype(kind, np.unsignedinteger) else [-1]
            bad += [np.inf, np.nan] if np.issubdtype(kind, np.floating) else []
            for value in bad:
                with pytest.raises(InvalidParameterError):
                    function(kind(value))

    @settings(max_examples=300, deadline=None)
    @given(x=st.integers() | st.floats())
    @example(x=10**400)
    @example(x=-(10**400))
    @example(x=int(sys.float_info.max))
    @example(x=int(sys.float_info.max) + 1)
    @example(x=10**5000)  # too long for str(): the message must not raise
    @example(x=-(10**5000))
    def test_in_range_or_named_error(self, x):
        for check, lo, hi in ((checked_overlap, 0.5, 1.0), (checked_k, 0.0, sys.float_info.max)):
            try:
                value = check(x)
            except InvalidParameterError:
                continue
            assert type(value) is float and lo <= value <= hi
