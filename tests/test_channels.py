"""Tests for the channel algebra and the teleportation constructions."""

import dataclasses

import numpy as np
import pytest

from helpers import random_density_matrix, random_pure_vector, teleportation_circuit_kraus
from nmecut.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotTracePreservingError,
    NotUnitaryError,
)
from nmecut.channels import (
    QuantumChannel,
    bell_overlaps,
    conjugate_channel,
    measure_prepare_channel,
    measure_prepare_flip_channel,
    teleportation_channel,
    teleportation_circuit_channel,
    unitary_channel,
)
from nmecut.linalg import H, I2, PAULIS, S, X, Y, Z, DensityOperator, PureState
from nmecut.states import bell_state, nme_state


def identity_choi():
    return unitary_channel(I2).choi


class TestUnitaryChannel:
    def test_identity(self):
        ch = unitary_channel(I2)
        rho = DensityOperator(np.diag([0.25, 0.75]))
        np.testing.assert_allclose(ch.act(rho.matrix), rho.matrix, atol=1e-15)

    def test_hadamard_action(self):
        ch = unitary_channel(H)
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = ch.act(DensityOperator(np.diag([1.0, 0.0])).matrix)
        np.testing.assert_allclose(out, plus, atol=1e-15)

    def test_basis_change_conjugations(self):
        # H Z H = X and (SH) Z (SH)^dag = Y, at machine precision.
        np.testing.assert_allclose(H @ Z @ H.conj().T, X, atol=1e-15)
        np.testing.assert_allclose((S @ H) @ Z @ (S @ H).conj().T, Y, atol=1e-15)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            unitary_channel(np.array([[1, 0], [0, 2]], dtype=complex))


class TestApplyAndChoi:
    def test_dephasing_erases_coherence(self):
        dephasing = QuantumChannel([np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)])
        plus = DensityOperator(np.full((2, 2), 0.5))
        np.testing.assert_allclose(dephasing.act(plus.matrix), I2 / 2, atol=1e-15)

    def test_teleportation_with_maximal_resource_is_identity(self):
        rng = np.random.default_rng(17)
        ch = teleportation_channel(nme_state(1.0).density())
        for _ in range(5):
            rho = DensityOperator(random_density_matrix(rng, 2))
            np.testing.assert_allclose(ch.act(rho.matrix), rho.matrix, atol=1e-12)

    def test_choi_of_identity(self):
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                expected += np.kron(e, e)
        np.testing.assert_allclose(identity_choi(), expected, atol=1e-15)

    def test_choi_of_depolarizing(self):
        depolarizing = QuantumChannel([0.5 * sigma for sigma in (I2, X, Y, Z)])
        np.testing.assert_allclose(depolarizing.choi, np.eye(4) / 2, atol=1e-14)

    def test_choi_trace_equals_input_dim(self):
        for ch in (
            unitary_channel(H),
            measure_prepare_flip_channel(),
            teleportation_channel(nme_state(0.3).density()),
        ):
            assert np.trace(ch.choi).real == pytest.approx(ch.in_dim, abs=1e-12)

    def test_choi_cached(self):
        ch = unitary_channel(H)
        assert ch.choi is ch.choi

    def test_trace_preservation_enforced(self):
        with pytest.raises(NotTracePreservingError):
            QuantumChannel([0.5 * I2])


class TestBasisChecks:
    def test_conjugate_rejects_a_unitary_of_another_dim(self):
        with pytest.raises(DimensionMismatchError, match="dim 3"):
            conjugate_channel(np.eye(3), measure_prepare_flip_channel())

    def test_conjugate_rejects_a_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            conjugate_channel(2 * I2, measure_prepare_flip_channel())

    def test_measure_prepare_rejects_a_non_square_basis(self):
        with pytest.raises(NotUnitaryError, match=r"shape \(2, 3\)"):
            measure_prepare_channel(np.ones((2, 3)))

    def test_measure_prepare_rejects_a_non_unitary_basis(self):
        with pytest.raises(NotUnitaryError):
            measure_prepare_channel(np.ones((2, 2)))

    def test_conjugate_matches_operator_by_operator_product(self):
        tel = teleportation_channel(DensityOperator(random_density_matrix(np.random.default_rng(5), 4)))
        got = conjugate_channel(S @ H, tel).kraus
        expected = [(S @ H) @ k @ (S @ H).conj().T for k in tel.kraus]
        np.testing.assert_allclose(got, expected, atol=1e-15)


class TestBellOverlaps:
    def test_half_entangled_frozen_values(self):
        # Oracle: explicit inner products with the four Bell vectors.
        rho = nme_state(0.5).density()
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        expected = {}
        for name, sigma in zip("IXYZ", (I2, X, Y, Z)):
            v = np.kron(sigma, I2) @ phi
            expected[name] = float(np.real(v.conj() @ rho.matrix @ v))
        assert expected["I"] == pytest.approx(0.9, abs=1e-12)
        assert expected["Z"] == pytest.approx(0.1, abs=1e-12)
        got = bell_overlaps(rho)
        for name in "IXYZ":
            assert got[name] == pytest.approx(expected[name], abs=1e-15)
        assert got["X"] == 0.0 and got["Y"] == 0.0

    def test_maximally_entangled(self):
        got = bell_overlaps(nme_state(1.0).density())
        assert got["I"] == pytest.approx(1.0, abs=1e-12)
        for name in "XYZ":
            assert got[name] == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        got = bell_overlaps(DensityOperator(np.eye(4) / 4))
        for name in "IXYZ":
            assert got[name] == pytest.approx(0.25, abs=1e-14)

    def test_sum_to_one_on_random_states(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            got = bell_overlaps(DensityOperator(random_density_matrix(rng, 4)))
            assert sum(got.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(v >= -1e-12 for v in got.values())

    def test_requires_two_qubits(self):
        with pytest.raises(DimensionMismatchError):
            bell_overlaps(DensityOperator(I2 / 2))

    def test_bits_of_the_vector_by_vector_product(self):
        # All four overlaps come from one (4, 4) product; each keeps the bits of v^dag rho v.
        rng = np.random.default_rng(43)
        rhos = [DensityOperator(random_density_matrix(rng, 4)) for _ in range(500)]
        rhos += [PureState(random_pure_vector(rng, 4)).density() for _ in range(100)]
        rhos += [nme_state(k).density() for k in (0.0, 1e-300, 0.1, 0.37, 0.5, 0.9, 1.0, 3.0, 1e300)]
        for rho in rhos:
            got = bell_overlaps(rho)
            assert list(got) == list(PAULIS)
            for name, value in got.items():
                v = bell_state(name).amplitudes
                assert value == float(np.real(v.conj() @ rho.matrix @ v))


class TestTeleportationChannel:
    def test_maximal_resource_gives_identity(self):
        ch = teleportation_channel(nme_state(1.0).density())
        np.testing.assert_allclose(ch.choi, identity_choi(), atol=1e-12)

    def test_separable_resource_gives_complete_dephasing(self):
        # Oracle: overlaps at k=0 are 1/2 on I and Z, so the channel is
        # rho -> (rho + Z rho Z)/2, built here term by term.
        ch = teleportation_channel(nme_state(0.0).density())
        dephasing = QuantumChannel([I2 / np.sqrt(2), Z / np.sqrt(2)])
        np.testing.assert_allclose(ch.choi, dephasing.choi, atol=1e-12)

    def test_only_identity_and_z_errors_for_pure_family(self):
        for k in np.linspace(0.0, 1.0, 11):
            ch = teleportation_channel(nme_state(k).density())
            for kraus in ch.kraus:
                # X and Y have only off-diagonal support; the family must not.
                assert abs(kraus[0, 1]) == 0.0
                assert abs(kraus[1, 0]) == 0.0


class TestTeleportationCircuit:
    def test_exact_teleportation_of_plus_state(self):
        ch = teleportation_circuit_channel(nme_state(1.0).density())
        plus = DensityOperator(np.full((2, 2), 0.5))
        np.testing.assert_allclose(ch.act(plus.matrix), plus.matrix, atol=1e-12)

    def test_matches_analytic_form_half_entangled(self):
        resource = nme_state(0.5).density()
        deviation = np.abs(
            teleportation_circuit_channel(resource).choi
            - teleportation_channel(resource).choi
        ).max()
        assert deviation <= 1e-10

    def test_matches_analytic_form_on_family_and_mixed(self):
        rng = np.random.default_rng(53)
        resources = [nme_state(k).density() for k in np.linspace(0.0, 1.0, 11)]
        resources += [DensityOperator(random_density_matrix(rng, 4)) for _ in range(20)]
        for resource in resources:
            deviation = np.abs(
                teleportation_circuit_channel(resource).choi
                - teleportation_channel(resource).choi
            ).max()
            assert deviation <= 1e-10

    def test_kraus_operators_match_the_gate_by_gate_reference(self):
        # Operator by operator, in the order (a, b, eigenvector): the Choi test
        # above would not see a reordering or a per-operator phase.
        rng = np.random.default_rng(53)
        resources = [nme_state(k).density() for k in np.linspace(0.0, 1.0, 11)]
        resources += [DensityOperator(random_density_matrix(rng, 4)) for _ in range(20)]
        for resource in resources:
            got = teleportation_circuit_channel(resource).kraus
            expected = teleportation_circuit_kraus(resource.matrix)
            assert len(got) == len(expected)
            assert np.abs(np.asarray(got) - np.asarray(expected)).max() <= 1e-14

    def test_branch_probabilities_uniform_for_bell_measurement(self):
        # A pure resource has one eigenvector, so each outcome (a, b) gives one Kraus operator.
        ch = teleportation_circuit_channel(nme_state(1.0).density())
        mixed = np.eye(2, dtype=complex) / 2
        assert len(ch.kraus) == 4
        for k in ch.kraus:
            prob = np.trace(k @ mixed @ k.conj().T).real
            assert prob == pytest.approx(0.25, abs=1e-12)


class TestMeasurePrepareChannels:
    def test_flip_on_basis_states(self):
        ch = measure_prepare_flip_channel()
        out0 = ch.act(DensityOperator(np.diag([1.0, 0.0])).matrix)
        np.testing.assert_allclose(out0, np.diag([0.0, 1.0]), atol=1e-15)
        out1 = ch.act(DensityOperator(np.diag([0.0, 1.0])).matrix)
        np.testing.assert_allclose(out1, np.diag([1.0, 0.0]), atol=1e-15)

    def test_flip_on_plus_state(self):
        # Oracle: (X|0><0|X + X|1><1|X) / 2 evaluated directly.
        e0 = np.diag([1.0, 0.0]).astype(complex)
        e1 = np.diag([0.0, 1.0]).astype(complex)
        expected = 0.5 * (X @ e0 @ X + X @ e1 @ X)
        np.testing.assert_allclose(expected, I2 / 2, atol=1e-15)
        out = measure_prepare_flip_channel().act(DensityOperator(np.full((2, 2), 0.5)).matrix)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_flip_channel_is_built_once_and_read_only(self):
        ch = measure_prepare_flip_channel()
        assert measure_prepare_flip_channel() is ch
        assert not ch.kraus.flags.writeable
        assert not ch.choi.flags.writeable

    def test_xy_mixture_equals_measure_flip(self):
        # (X rho X + Y rho Y)/2 and measure-then-flip are the same channel.
        mixture = QuantumChannel([X / np.sqrt(2), Y / np.sqrt(2)])
        deviation = np.abs(mixture.choi - measure_prepare_flip_channel().choi).max()
        assert deviation <= 1e-12

    def test_measure_prepare_in_rotated_basis(self):
        ch = measure_prepare_channel(H)
        plus = DensityOperator(np.full((2, 2), 0.5))
        np.testing.assert_allclose(ch.act(plus.matrix), plus.matrix, atol=1e-15)
        zero = DensityOperator(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(ch.act(zero.matrix), I2 / 2, atol=1e-15)


class TestConstructorContract:
    def test_empty_kraus_list_rejected(self):
        with pytest.raises(InvalidParameterError):
            QuantumChannel([])

    @pytest.mark.parametrize("shape", [(0, 2, 2), (1, 0, 0), (1, 2, 0), (1, 0, 2)])
    def test_zero_size_stack_rejected(self, shape):
        # A zero input dimension used to end in a bare ValueError from max() over an empty residual.
        with pytest.raises(InvalidParameterError, match="at least one nonempty Kraus operator"):
            QuantumChannel(np.zeros(shape))

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(InvalidParameterError):
            QuantumChannel([I2 / np.sqrt(2), np.eye(3) / np.sqrt(2)])

    @pytest.mark.parametrize(
        "op", [np.ones(2, dtype=complex), np.ones((1, 2, 2), dtype=complex)], ids=["1-d", "3-d"]
    )
    def test_operator_of_wrong_ndim_rejected(self, op):
        with pytest.raises(InvalidParameterError):
            QuantumChannel([op])

    def test_non_finite_entry_rejected(self):
        with pytest.raises(InvalidParameterError):
            QuantumChannel([np.array([[1.0, 0.0], [0.0, np.nan]])])

    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize(
        "shape",
        [lambda d: (1, d, d), lambda d: (5, d, d), lambda d: (2, 2 * d, d), lambda d: (d, max(d // 2, 1), d)],
        ids=["one-operator", "many-operators", "out-larger", "out-smaller"],
    )
    def test_trace_preserving_boundary(self, dim, shape):
        # Scaling an isometry's rows by sqrt(1 + delta) makes sum K^dag K = (1 + delta) I.
        n, out_dim, in_dim = shape(dim)
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(n * out_dim, in_dim)) + 1j * rng.normal(size=(n * out_dim, in_dim))
        isometry = np.linalg.qr(a)[0].reshape(n, out_dim, in_dim)
        ch = QuantumChannel(np.sqrt(1 + 1e-12) * isometry)
        assert (ch.in_dim, ch.out_dim) == (in_dim, out_dim)
        with pytest.raises(NotTracePreservingError, match=r"^max \|sum\(K\^dag K\) - I\| = 1\.000e-09 > 1e-10$"):
            QuantumChannel(np.sqrt(1 + 1e-9) * isometry)

    def test_input_is_neither_aliased_nor_frozen(self):
        op = np.array(H)
        ch = QuantumChannel([op])
        assert op.flags.writeable
        assert not np.shares_memory(op, ch.kraus)
        op[0, 0] = 7.0
        np.testing.assert_array_equal(ch.kraus[0], H)


@pytest.mark.parametrize(
    "build",
    [
        lambda: unitary_channel(H),
        lambda: conjugate_channel(H, teleportation_channel(nme_state(0.5).density())),
        lambda: measure_prepare_channel(S @ H),
        measure_prepare_flip_channel,
        lambda: teleportation_channel(nme_state(0.5).density()),
        lambda: teleportation_circuit_channel(nme_state(0.5).density()),
    ],
    ids=["unitary", "conjugate", "measure-prepare", "flip", "teleport", "teleport-circuit"],
)
def test_kraus_operators_are_immutable(build):
    ch = build()
    with pytest.raises(ValueError):
        ch.kraus[0][0, 0] = 1.0
    for name, value in (("kraus", np.array([I2])), ("name", "renamed"), ("in_dim", 3)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ch, name, value)


def test_all_constructed_channels_trace_preserving():
    rng = np.random.default_rng(7)
    channels = [
        unitary_channel(H),
        unitary_channel(S @ H),
        measure_prepare_channel(H),
        measure_prepare_channel(S @ H),
        measure_prepare_flip_channel(),
        teleportation_channel(nme_state(0.37).density()),
        teleportation_circuit_channel(nme_state(0.37).density()),
        teleportation_channel(DensityOperator(random_density_matrix(rng, 4))),
        conjugate_channel(H, teleportation_channel(nme_state(0.5).density())),
    ]
    for ch in channels:
        total = sum(k.conj().T @ k for k in ch.kraus)
        assert np.abs(total - np.eye(ch.in_dim)).max() <= 1e-10
