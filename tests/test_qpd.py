"""Tests for the wire-cut decompositions and overhead formulas."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from nmecut.errors import DimensionMismatchError, InvalidParameterError, OutOfRangeError
from nmecut.channels import (
    QuantumChannel,
    conjugate_channel,
    measure_prepare_flip_channel,
    teleportation_channel,
    unitary_channel,
)
from nmecut.linalg import I2, PAULIS
from nmecut.qpd import (
    U1,
    U2,
    QpdTerm,
    QuasiProbDecomposition,
    _nme_wire_cut,
    harada_wire_cut,
    nme_wire_cut,
    optimal_overhead,
    optimal_overhead_pure,
    reconstruct_channel,
    resource_consumption_rate,
)
from nmecut.states import nme_state, overlap_f_pure


def identity_choi():
    return unitary_channel(I2).choi


def kraus_action_identity_deviation(qpd):
    """Oracle for reconstruction: act on the four basis operators |i><j|.

    Sums the signed Kraus actions directly instead of going through Choi
    matrices and reports the worst entrywise deviation from the input.
    """
    worst = 0.0
    for i in range(2):
        for j in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[i, j] = 1.0
            total = np.zeros((2, 2), dtype=complex)
            for term in qpd.terms:
                for kraus in term.channel.kraus:
                    total += term.coefficient * (kraus @ basis @ kraus.conj().T)
            worst = max(worst, float(np.abs(total - basis).max()))
    return worst


def closed_form_overhead(k: float) -> float:
    return 4.0 * (k * k + 1.0) / (k + 1.0) ** 2 - 1.0


class TestHaradaWireCut:
    def test_kappa_is_three(self):
        assert harada_wire_cut().kappa == pytest.approx(3.0, abs=1e-15)

    def test_coefficients_sum_to_one(self):
        total = sum(t.coefficient for t in harada_wire_cut().terms)
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_reconstructs_identity(self):
        qpd = harada_wire_cut()
        assert kraus_action_identity_deviation(qpd) <= 1e-10
        deviation = np.abs(reconstruct_channel(qpd) - identity_choi()).max()
        assert deviation <= 1e-10

    def test_no_term_consumes_resource(self):
        assert not any(t.consumes_resource for t in harada_wire_cut().terms)

    def test_built_once_with_read_only_channels(self):
        qpd = harada_wire_cut()
        assert harada_wire_cut() is qpd
        for t in qpd.terms:
            assert not t.channel.kraus.flags.writeable
            assert not t.channel.choi.flags.writeable


class TestNmeWireCut:
    def test_maximally_entangled_is_pure_teleportation(self):
        qpd = nme_wire_cut(1.0)
        assert [t.coefficient for t in qpd.terms] == [0.5, 0.5]
        assert qpd.kappa == pytest.approx(1.0, abs=1e-15)
        assert all(t.consumes_resource for t in qpd.terms)

    def test_separable_limit_recovers_entanglement_free_overhead(self):
        # Coefficients (1, 1, -1); the teleportation terms degenerate to
        # dephasing, so reconstruction still holds with kappa = 3.
        qpd = nme_wire_cut(0.0)
        np.testing.assert_allclose([t.coefficient for t in qpd.terms], [1.0, 1.0, -1.0])
        assert qpd.kappa == pytest.approx(3.0, abs=1e-15)
        assert kraus_action_identity_deviation(qpd) <= 1e-10

    def test_half_entangled_coefficients(self):
        # Oracle: kappa must equal 2/f - 1 at f = 0.9.
        qpd = nme_wire_cut(0.5)
        np.testing.assert_allclose(
            [t.coefficient for t in qpd.terms], [5 / 9, 5 / 9, -1 / 9], atol=1e-15
        )
        assert qpd.kappa == pytest.approx(2.0 / 0.9 - 1.0, abs=1e-12)

    def test_resource_flags(self):
        qpd = nme_wire_cut(0.5)
        assert [t.consumes_resource for t in qpd.terms] == [True, True, False]

    def test_negative_term_is_the_one_flip_channel(self):
        flip = measure_prepare_flip_channel()
        assert nme_wire_cut(0.5).terms[-1].channel is flip
        assert nme_wire_cut(0.25).terms[-1].channel is flip
        assert harada_wire_cut().terms[-1].channel is flip

    def test_the_shared_flip_channel_cannot_be_renamed(self):
        # The flip channel is one shared object, so a rename would reach every decomposition's negative term.
        before = nme_wire_cut(0.5).describe()
        with pytest.raises(dataclasses.FrozenInstanceError):
            measure_prepare_flip_channel().name = "renamed"
        assert nme_wire_cut(0.5).describe() == before
        assert measure_prepare_flip_channel().name == "measure-prepare-flip"

    @pytest.mark.parametrize("k", [0.0, 1e-300, 0.37, 0.5, 1.0, 3.0, 1e300])
    def test_teleport_terms_have_the_bits_of_conjugate_channel(self, k):
        # nme_wire_cut conjugates by both frames in one broadcast product; the checked one-frame
        # entry point is its oracle, to the bit.
        tel = teleportation_channel(nme_state(k).density())
        teleport_terms = [t for t in nme_wire_cut(k).terms if t.consumes_resource]
        assert [t.channel.name for t in teleport_terms] == ["teleport[H]", "teleport[SH]"]
        for term, u in zip(teleport_terms, (U1, U2)):
            assert np.array_equal(term.channel.kraus, conjugate_channel(u, tel).kraus)

    def test_invalid_parameter(self):
        with pytest.raises(InvalidParameterError):
            nme_wire_cut(-0.5)
        with pytest.raises(InvalidParameterError):
            nme_wire_cut(float("nan"))

    def test_reconstructs_identity_on_grid(self):
        for k in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            qpd = nme_wire_cut(k)
            assert kraus_action_identity_deviation(qpd) <= 1e-10
            deviation = np.abs(reconstruct_channel(qpd) - identity_choi()).max()
            assert deviation <= 1e-10, f"k={k}: {deviation}"

    def test_coefficient_sum_on_grid(self):
        for k in np.linspace(0.0, 1.0, 21):
            total = sum(t.coefficient for t in nme_wire_cut(k).terms)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_kappa_continuity_at_teleportation_limit(self):
        qpd = nme_wire_cut(1.0 - 1e-6)
        assert len(qpd.terms) == 3
        assert abs(qpd.terms[2].coefficient) <= 1e-12
        assert qpd.kappa == pytest.approx(1.0, abs=1e-11)

    def test_degeneration_matches_harada_reconstruction(self):
        # Same overhead and Choi reconstruction as the entanglement-free cut,
        # but a different channel list (teleportation vs measure-and-prepare).
        zero_cut = nme_wire_cut(0.0)
        harada = harada_wire_cut()
        assert zero_cut.kappa == pytest.approx(harada.kappa, abs=1e-15)
        np.testing.assert_allclose(
            reconstruct_channel(zero_cut), reconstruct_channel(harada), atol=1e-12
        )
        assert [t.channel.name for t in zero_cut.terms] != [
            t.channel.name for t in harada.terms
        ]

    def test_values_above_one_still_reconstruct(self):
        for k in (1.5, 2.0, 4.0):
            deviation = np.abs(reconstruct_channel(nme_wire_cut(k)) - identity_choi()).max()
            assert deviation <= 1e-10
            assert nme_wire_cut(k).kappa == pytest.approx(closed_form_overhead(k), abs=1e-12)


PAULI_STACK = np.array([PAULIS[name] for name in "IXYZ"])


def pauli_strings(dim):
    """Tensor products of (I, X, Y, Z) on log2(dim) qubits, the first factor most significant."""
    strings = PAULI_STACK
    while len(strings[0]) < dim:
        strings = np.array([np.kron(p, q) for p in strings for q in PAULI_STACK])
    return strings


def pauli_transfer_matrix(channel):
    """R[a, b] = tr(P_a F(P_b)) / d over the Pauli strings, from the Kraus operators one by one."""
    strings = pauli_strings(channel.in_dim)
    images = [sum(k @ p @ k.conj().T for k in channel.kraus) for p in strings]
    return np.array([[np.trace(pa @ image).real for image in images] for pa in strings]) / channel.in_dim


def random_channel(gen, dim, n_kraus):
    """CPTP channel whose Kraus set is cut from a random (n_kraus * dim, dim) isometry."""
    q, _ = np.linalg.qr(gen.standard_normal((n_kraus * dim, dim)) + 1j * gen.standard_normal((n_kraus * dim, dim)))
    return QuantumChannel(q.reshape(n_kraus, dim, dim))


def cut_bytes(qpd):
    """Every bit a decomposition holds: each term's coefficient, name, flag, Kraus and Choi arrays, and the PTM stack."""
    parts = [qpd.ptm.tobytes(), np.float64(qpd.kappa).tobytes()]
    for t in qpd.terms:
        parts += [np.float64(t.coefficient).tobytes(), t.channel.name, t.consumes_resource]
        parts += [t.channel.kraus.tobytes(), t.channel.choi.tobytes()]
    return parts


class TestBuiltOncePerK:
    """nme_wire_cut checks k on every call and builds each checked k once, in a bounded cache."""

    def test_repeat_call_is_the_same_object(self):
        qpd = nme_wire_cut(0.37)
        assert nme_wire_cut(0.37) is qpd
        assert nme_wire_cut(np.float64(0.37)) is qpd

    @pytest.mark.parametrize("k", [0.0, 1e-300, 0.37, 1.0, 3.0, 1e300])
    def test_cold_build_has_the_bytes_of_a_cache_hit(self, k):
        hit = nme_wire_cut(k)
        warm = cut_bytes(nme_wire_cut(k))
        _nme_wire_cut.cache_clear()
        cold = nme_wire_cut(k)
        assert cold is not hit
        assert cut_bytes(cold) == warm

    def test_negative_zero_has_its_own_entry(self):
        _nme_wire_cut.cache_clear()
        negative = nme_wire_cut(-0.0)
        positive = nme_wire_cut(0.0)
        assert positive is not negative
        assert nme_wire_cut(-0.0) is negative and nme_wire_cut(0.0) is positive
        for k, hit in ((-0.0, negative), (0.0, positive)):
            _nme_wire_cut.cache_clear()
            assert cut_bytes(nme_wire_cut(k)) == cut_bytes(hit)

    def test_cache_is_bounded(self):
        size = _nme_wire_cut.cache_info().maxsize
        assert size is not None
        for j in range(size + 5):
            nme_wire_cut(j / 7)
        assert _nme_wire_cut.cache_info().currsize == size

    @pytest.mark.parametrize("k", [-1, float("nan"), True, "1"], ids=["negative", "nan", "bool", "str"])
    def test_bad_k_is_rejected_on_every_call(self, k):
        nme_wire_cut(1.0)  # a warm 1.0 entry: True must not reach it
        messages = []
        for _ in range(2):
            with pytest.raises(InvalidParameterError) as caught:
                nme_wire_cut(k)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]


class TestPauliForm:
    """The paper's cut is diagonal in the Pauli basis: each term damps or flips X, Y and Z."""

    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0])
    def test_nme_terms_and_sum(self, k):
        f = (k + 1) ** 2 / (2 * (k * k + 1))
        terms = nme_wire_cut(k).terms
        forms = [pauli_transfer_matrix(t.channel) for t in terms]
        np.testing.assert_allclose(forms[0], np.diag([1, 1, 2 * f - 1, 2 * f - 1]), atol=1e-12)
        np.testing.assert_allclose(forms[1], np.diag([1, 2 * f - 1, 1, 2 * f - 1]), atol=1e-12)
        if k != 1.0:
            np.testing.assert_allclose(forms[2], np.diag([1, 0, 0, -1]), atol=1e-12)
        total = sum(t.coefficient * r for t, r in zip(terms, forms))
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)

    def test_harada_terms(self):
        forms = [pauli_transfer_matrix(t.channel) for t in harada_wire_cut().terms]
        expected = [np.diag([1, 1, 0, 0]), np.diag([1, 0, 1, 0]), np.diag([1, 0, 0, -1])]
        for form, diag in zip(forms, expected, strict=True):
            np.testing.assert_allclose(form, diag, atol=1e-12)

    @pytest.mark.parametrize("qpd", [nme_wire_cut(0.0), nme_wire_cut(0.5), nme_wire_cut(1.0), harada_wire_cut()])
    def test_cached_stack_matches_the_kraus_oracle(self, qpd):
        stack = qpd.ptm
        assert stack.dtype == np.float64 and stack.shape == (len(qpd.terms), 4, 4)
        oracle = [pauli_transfer_matrix(t.channel) for t in qpd.terms]
        assert np.abs(stack - oracle).max() <= 1e-12
        assert qpd.ptm is stack  # built once
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 2.0

    @pytest.mark.parametrize("seed", range(4))
    def test_cached_stack_on_random_two_qubit_terms(self, seed):
        gen = np.random.default_rng(seed)
        channels = [random_channel(gen, 4, n) for n in (1, 2, 4)]
        qpd = QuasiProbDecomposition(tuple(QpdTerm(c, ch) for c, ch in zip((1.5, 0.75, -1.25), channels)))
        assert qpd.ptm.shape == (3, 16, 16)
        assert np.abs(qpd.ptm - [pauli_transfer_matrix(ch) for ch in channels]).max() <= 1e-12
        # A trace-preserving map keeps tr(P_0 F(P_b)) = tr(P_b): the first row is (1, 0, ..., 0).
        assert np.abs(qpd.ptm[:, 0] - np.eye(16)[0]).max() <= 1e-12


class TestLargeK:
    """k > 1 goes through its mirror 1/k, which has the same a and b."""

    def test_huge_k_is_finite_and_reconstructs(self):
        assert abs(optimal_overhead_pure(1e200) - 3.0) <= 1e-12
        assert abs(resource_consumption_rate(1e200) - 2.0) <= 1e-12
        qpd = nme_wire_cut(1e200)
        assert np.abs(reconstruct_channel(qpd) - identity_choi()).max() <= 1e-10
        assert kraus_action_identity_deviation(qpd) <= 1e-10

    def test_matches_direct_formula_where_it_does_not_overflow(self):
        for k in np.geomspace(1.001, 1e150, 2001).tolist():
            a = (k * k + 1.0) / ((k + 1.0) * (k + 1.0))
            assert resource_consumption_rate(k) == pytest.approx(2.0 * a, rel=1e-15, abs=0)
            assert nme_state(k).amplitudes[0].real == pytest.approx(1.0 / math.sqrt(1.0 + k * k), rel=1e-15, abs=0)
            if k >= 2.0:  # nearer 1, k - 1 is exact but 1 - 1/k is not
                b = (k - 1.0) * (k - 1.0) / ((k + 1.0) * (k + 1.0))
                assert -nme_wire_cut(k).terms[2].coefficient == pytest.approx(b, rel=1e-15, abs=0)


    @pytest.mark.parametrize(
        "function", [nme_wire_cut, optimal_overhead_pure, resource_consumption_rate, optimal_overhead]
    )
    def test_integer_beyond_float_range_is_a_named_error(self, function):
        with pytest.raises(InvalidParameterError):
            function(10**400)


class TestOverheadFormulas:
    def test_optimal_overhead_endpoints(self):
        assert optimal_overhead(0.5) == pytest.approx(3.0, abs=1e-15)
        assert optimal_overhead(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_optimal_overhead_interior(self):
        assert optimal_overhead(0.9) == pytest.approx(11 / 9, abs=1e-15)

    def test_optimal_overhead_out_of_range(self):
        for bad in (0.4, 1.2, -1.0):
            with pytest.raises(OutOfRangeError):
                optimal_overhead(bad)

    def test_pure_overhead_examples(self):
        assert optimal_overhead_pure(0.0) == pytest.approx(3.0, abs=1e-15)
        assert optimal_overhead_pure(1.0) == pytest.approx(1.0, abs=1e-15)
        assert optimal_overhead_pure(0.5) == pytest.approx(11 / 9, abs=1e-12)

    def test_pure_overhead_invalid(self):
        with pytest.raises(InvalidParameterError):
            optimal_overhead_pure(-1.0)

    def test_three_way_consistency_on_grid(self):
        for k in np.linspace(0.0, 1.0, 21):
            kappa = nme_wire_cut(k).kappa
            assert kappa == pytest.approx(optimal_overhead_pure(k), abs=1e-12)
            assert kappa == pytest.approx(
                optimal_overhead(overlap_f_pure(nme_state(k))), abs=1e-12
            )

    def test_monotonicity(self):
        fs = np.linspace(0.5, 1.0, 26)
        gammas = [optimal_overhead(f) for f in fs]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))
        ks = np.linspace(0.0, 1.0, 26)
        pure = [optimal_overhead_pure(k) for k in ks]
        assert all(a > b for a, b in zip(pure, pure[1:]))


class TestResourceConsumption:
    def test_maximally_entangled_rate(self):
        assert resource_consumption_rate(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_half_entangled_rate(self):
        assert resource_consumption_rate(0.5) == pytest.approx(10 / 9, abs=1e-12)

    def test_equals_signed_weight_mass(self):
        for k in np.linspace(0.05, 1.0, 20):
            qpd = nme_wire_cut(k)
            probs = qpd.probabilities
            mass = sum(
                p for p, t in zip(probs, qpd.terms) if t.consumes_resource
            ) * qpd.kappa
            assert resource_consumption_rate(k) == pytest.approx(mass, abs=1e-12)

    def test_equals_inverse_overlap(self):
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        for k in np.linspace(0.05, 1.0, 20):
            rho = nme_state(k).density().matrix
            overlap = float(np.real(phi.conj() @ rho @ phi))
            assert resource_consumption_rate(k) == pytest.approx(1.0 / overlap, abs=1e-12)

    def test_monte_carlo_draw_fraction(self):
        # Oracle: resource-flagged draw fraction times kappa over many
        # multinomial samples.
        rng = np.random.default_rng(2024)
        qpd = nme_wire_cut(0.5)
        draws = rng.multinomial(200_000, qpd.probabilities)
        flagged = sum(
            int(n) for n, t in zip(draws, qpd.terms) if t.consumes_resource
        )
        empirical = flagged / 200_000 * qpd.kappa
        assert empirical == pytest.approx(resource_consumption_rate(0.5), rel=0.02)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            resource_consumption_rate(0.0)


class TestDecompositionType:
    def test_single_term_identity(self):
        qpd = QuasiProbDecomposition((QpdTerm(1.0, unitary_channel(I2, name="identity")),))
        assert qpd.kappa == 1.0
        np.testing.assert_array_equal(reconstruct_channel(qpd), identity_choi())

    def test_probabilities_and_signs(self):
        qpd = nme_wire_cut(0.5)
        np.testing.assert_allclose(qpd.probabilities, [5 / 11, 5 / 11, 1 / 11], atol=1e-12)
        assert qpd.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_coefficient_sum(self):
        with pytest.raises(InvalidParameterError):
            QuasiProbDecomposition(
                (
                    QpdTerm(1.0, unitary_channel(I2)),
                    QpdTerm(1.0, unitary_channel(I2)),
                )
            )

    @pytest.mark.parametrize(
        "second",
        [unitary_channel(np.eye(4)), QuantumChannel([np.eye(4)[:, :2]])],
        ids=["four-dim", "two-to-four"],
    )
    def test_rejects_terms_on_other_dims(self, second):
        with pytest.raises(DimensionMismatchError):
            QuasiProbDecomposition((QpdTerm(0.5, unitary_channel(I2)), QpdTerm(0.5, second)))

    def test_rejects_zero_coefficient(self):
        with pytest.raises(InvalidParameterError):
            QpdTerm(0.0, unitary_channel(I2))

    @pytest.mark.parametrize(
        "coefficient",
        [10**400, -(10**400), 10**5000, "x", None, 1j, float("inf"), float("nan")],
        ids=["10**400", "-10**400", "10**5000", "str", "none", "complex", "inf", "nan"],
    )
    def test_rejects_coefficient_before_float_conversion(self, coefficient):
        # float() would raise a bare OverflowError, ValueError or TypeError on the first five.
        with pytest.raises(InvalidParameterError):
            QpdTerm(coefficient, unitary_channel(I2))

    def test_stores_a_float_coefficient_without_warnings(self):
        # Comparing a float16 or float32 with the float64 limits would overflow in a cast and warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for coefficient in (1, np.int64(1), np.float32(1.0), np.float16(1.0)):
                assert type(QpdTerm(coefficient, unitary_channel(I2)).coefficient) is float

    def test_describe_is_line_oriented(self):
        text = nme_wire_cut(0.5).describe()
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0] == "0  +0.555555555556  teleport[H]  resource"
        assert lines[2] == "2  -0.111111111111  measure-prepare-flip  -"
        assert lines[3] == "kappa 1.22222222222"
