"""Tests for shot allocation and the Monte Carlo estimator."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import DATA_DIR, GOLDEN_PROVENANCE, assert_matches_golden, same_bits
from nmecut.errors import (
    DimensionMismatchError,
    InvalidObservableError,
    InvalidParameterError,
    InvalidProbabilityError,
    NotHermitianError,
    NotUnitaryError,
    OutOfRangeError,
    ZeroShotsError,
)
from nmecut.channels import (
    QuantumChannel,
    conjugate_channel,
    measure_prepare_flip_channel,
    teleportation_channel,
    unitary_channel,
)
from nmecut.estimator import (
    MAX_SHOTS,
    MODES,
    RandomSource,
    _BLOCK_ENTRIES,
    _budget,
    _plus_probabilities,
    _pm_one_observable,
    _rekey,
    allocate_shots,
    estimate_cut_expectation,
    exact_expectation,
)
from nmecut.experiment import _haar_columns, haar_random_unitary
from nmecut.linalg import H, I2, X, Z, DensityOperator
from nmecut.qpd import QpdTerm, QuasiProbDecomposition, harada_wire_cut, nme_wire_cut
from nmecut.states import nme_state

ZERO = DensityOperator(np.diag([1.0, 0.0]))
PLUS = DensityOperator(np.full((2, 2), 0.5))
ROTATION = haar_random_unitary(RandomSource(5, 0))


class TestRandomSource:
    def test_identical_keys_reproduce(self):
        a = RandomSource(123, 45).generator().random(8)
        b = RandomSource(123, 45).generator().random(8)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RandomSource(123, 0).generator().random(8)
        b = RandomSource(123, 1).generator().random(8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "seed, stream_id",
        [(-5, 0), (2**64, 0), (2**70 + 5, 2**65), (0, -1), (0, 2**64), (10**5000, 0), (0, -(10**5000))],
        ids=[
            "negative-seed", "seed-2**64", "both-above", "negative-stream", "stream-2**64",
            "seed-10**5000", "stream--10**5000",
        ],
    )
    def test_rejects_keys_outside_uint64(self, seed, stream_id):
        # Masking to 64 bits used to alias e.g. seed -5 with seed 2**64 - 5.
        with pytest.raises(OutOfRangeError):
            RandomSource(seed, stream_id)

    def test_message_names_a_huge_integer_by_its_digit_count(self):
        # str() of an integer over 4,300 digits raises ValueError; the message must not.
        with pytest.raises(OutOfRangeError, match="seed must lie in .*, got an integer of about 5001 digits"):
            RandomSource(10**5000, 0)
        with pytest.raises(OutOfRangeError, match="got a negative integer of about 5001 digits"):
            RandomSource(0, -(10**5000))
        with pytest.raises(InvalidParameterError, match="got a list holding an integer too long to print"):
            RandomSource([10**5000], 0)

    def test_stores_checked_keys_as_plain_ints(self):
        source = RandomSource(np.uint64(2**64 - 1), np.int64(3))
        assert (type(source.seed), type(source.stream_id)) == (int, int)
        assert (source.seed, source.stream_id) == (2**64 - 1, 3)

    def test_rejects_non_integer_keys(self):
        for seed, stream_id in ((1.5, 0), (True, 0), (False, 0), (0, True)):
            with pytest.raises(InvalidParameterError):
                RandomSource(seed, stream_id)

    @pytest.mark.parametrize("rng", [5, None, np.random.Philox(5)], ids=["int", "none", "bit-generator"])
    @pytest.mark.parametrize(
        "draw",
        [lambda rng: estimate_cut_expectation(nme_wire_cut(0.5), I2, Z, 10, rng), haar_random_unitary],
        ids=["estimate_cut_expectation", "haar_random_unitary"],
    )
    def test_rng_that_is_not_a_generator_is_a_named_error(self, draw, rng):
        with pytest.raises(InvalidParameterError, match=f"RandomSource or a numpy Generator, got {type(rng).__name__}"):
            draw(rng)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream_id=st.integers(0, 2**64 - 1),
        n=st.integers(0, 5000),
        p=st.floats(0.0, 1.0),
    )
    @example(seed=0, stream_id=0, n=10, p=0.5)
    @example(seed=2**64 - 1, stream_id=2**64 - 1, n=3000, p=0.9)
    @example(seed=0, stream_id=2**64 - 1, n=0, p=0.3)
    @example(seed=2**64 - 1, stream_id=0, n=1, p=1.0)
    def test_rekeyed_generator_matches_fresh_stream(self, seed, stream_id, n, p):
        def draws(gen):
            return (
                gen.binomial(n, p), gen.multinomial(n, [0.25, 0.5, 0.25]), gen.standard_normal(3), gen.random()
            )

        # Oracle: a Philox generator built fresh from the key (seed, stream_id).
        expected = draws(np.random.Generator(np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64))))
        # Leave buffered bits and a cached binomial set-up behind first.
        gen = RandomSource(7, 7).generator()
        gen.integers(0, 2**32, dtype=np.uint32)
        gen.binomial(77, 0.3)
        for got in (draws(_rekey(gen, seed, stream_id)), draws(RandomSource(seed, stream_id).generator())):
            assert got[0] == expected[0]
            np.testing.assert_array_equal(got[1], expected[1])
            assert same_bits(got[2], expected[2])
            assert got[3] == expected[3]


class TestExactExpectation:
    def test_computational_basis(self):
        assert exact_expectation(I2, Z) == 1.0
        assert exact_expectation(X, Z) == -1.0

    def test_balanced_superposition(self):
        assert exact_expectation(H, Z) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            exact_expectation(np.diag([1.0, 2.0]), Z)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            exact_expectation(I2, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_mis_shaped_observable(self):
        with pytest.raises(DimensionMismatchError):
            exact_expectation(I2, np.eye(3))


class TestAllocateShots:
    def test_exact_division(self):
        assert allocate_shots(harada_wire_cut(), 9) == (3, 3, 3)

    def test_half_entangled_exact_split(self):
        # Probabilities (5/11, 5/11, 1/11) with an 11-shot budget.
        assert allocate_shots(nme_wire_cut(0.5), 11) == (5, 5, 1)

    def test_zero_budget(self):
        assert allocate_shots(harada_wire_cut(), 0) == (0, 0, 0)

    def test_tie_break_favors_lower_index(self):
        assert allocate_shots(harada_wire_cut(), 10) == (4, 3, 3)

    @pytest.mark.parametrize("total", [0, 1, 7, 100, 4999, 5000])
    def test_sum_matches_total(self, total):
        for qpd in (harada_wire_cut(), nme_wire_cut(0.5), nme_wire_cut(1.0)):
            allocation = allocate_shots(qpd, total)
            assert sum(allocation) == total

    def test_minimum_one_shot_when_budget_allows(self):
        # The negative term has probability ~1e-3; rounding alone would
        # starve it, the allocator must not.
        qpd = nme_wire_cut(0.94)
        assert qpd.probabilities[2] > 0
        allocation = allocate_shots(qpd, 3)
        assert allocation == (1, 1, 1)

    def test_small_budget_cannot_cover_all_terms(self):
        allocation = allocate_shots(harada_wire_cut(), 2)
        assert sum(allocation) == 2

    def test_rejects_budget_beyond_max_shots(self):
        # Past 2**53 the float64 split no longer sums to the total.
        with pytest.raises(OutOfRangeError):
            allocate_shots(harada_wire_cut(), MAX_SHOTS + 1)
        for mode in ("stratified", "multinomial"):
            with pytest.raises(OutOfRangeError):
                estimate_cut_expectation(harada_wire_cut(), I2, Z, 10**20, RandomSource(0), mode=mode)

    @pytest.mark.parametrize("total", [2.5, 10.0, "10", True, False, None], ids=repr)
    def test_budget_must_be_an_integer(self, total):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            allocate_shots(nme_wire_cut(0.5), total)
        for mode in ("stratified", "multinomial"):
            with pytest.raises(InvalidParameterError, match="total_shots must be an integer"):
                estimate_cut_expectation(nme_wire_cut(0.5), I2, Z, total, RandomSource(0), mode=mode)

    def test_numpy_integer_budget_is_accepted(self):
        qpd = nme_wire_cut(0.5)
        assert allocate_shots(qpd, np.int64(11)) == allocate_shots(qpd, 11)
        for mode in ("stratified", "multinomial"):
            plain = estimate_cut_expectation(qpd, H, Z, 999, RandomSource(8, 4), mode=mode)
            assert estimate_cut_expectation(qpd, H, Z, np.uint16(999), RandomSource(8, 4), mode=mode) == plain

    @settings(max_examples=100, deadline=None)
    @given(k=st.floats(0.0, 1.0), total=st.integers(0, 10_000))
    @example(k=0.94, total=3)
    @example(k=1.0, total=1)
    def test_split_sums_to_total_and_covers_every_term(self, k, total):
        qpd = nme_wire_cut(k)
        allocation = allocate_shots(qpd, total)
        assert isinstance(allocation, tuple) and len(allocation) == len(qpd.terms)
        assert sum(allocation) == total and min(allocation) >= 0
        nonzero = [i for i, p in enumerate(qpd.probabilities) if p > 0]
        if total >= len(nonzero):
            assert all(allocation[i] >= 1 for i in nonzero)


def one_term(ch):
    return QuasiProbDecomposition((QpdTerm(1.0, ch),))


class TestSampleBranchExpectation:
    """A single branch sampled through a one-term decomposition."""

    def test_deterministic_branch(self):
        qpd = one_term(unitary_channel(I2))
        for shots in (1, 10, 1000):
            assert estimate_cut_expectation(qpd, I2, Z, shots, RandomSource(0, 0)) == 1.0

    def test_flip_branch_is_deterministically_negative(self):
        # Oracle: the flip channel maps |0><0| to |1><1|, so <Z> = -1 exactly.
        ch = measure_prepare_flip_channel()
        exact = float(np.real(np.trace(Z @ ch.act(ZERO.matrix))))
        assert exact == -1.0
        for shots in (1, 7, 500):
            assert estimate_cut_expectation(one_term(ch), I2, Z, shots, RandomSource(3, 1)) == -1.0

    def test_teleportation_branch_is_unbiased(self):
        # Oracle: exact channel application gives the target expectation;
        # the preparation H sends |0> to |+>.
        ch = conjugate_channel(H, teleportation_channel(nme_state(0.5).density()))
        exact = float(np.real(np.trace(Z @ ch.act(PLUS.matrix))))
        qpd = one_term(ch)
        gen = RandomSource(77, 0).generator()
        reps = 1000
        shots = 64
        draws = np.array([estimate_cut_expectation(qpd, H, Z, shots, gen) for _ in range(reps)])
        se = draws.std(ddof=1) / math.sqrt(reps)
        assert abs(draws.mean() - exact) <= 4 * se

    def test_rejects_bad_observable(self):
        with pytest.raises(InvalidObservableError):
            estimate_cut_expectation(
                one_term(unitary_channel(I2)), I2, np.diag([1.0, 0.5]), 10, RandomSource(0, 0)
            )

    def test_rejects_zero_shots(self):
        with pytest.raises(ZeroShotsError):
            estimate_cut_expectation(one_term(unitary_channel(I2)), I2, Z, 0, RandomSource(0, 0))


class TestEstimateCutExpectation:
    def test_single_term_identity_is_exact(self):
        qpd = QuasiProbDecomposition((QpdTerm(1.0, unitary_channel(I2, name="identity")),))
        for mode in ("stratified", "multinomial"):
            value = estimate_cut_expectation(qpd, I2, Z, 50, RandomSource(1, 1), mode=mode)
            assert value == 1.0

    def test_maximally_entangled_cut_has_plain_shot_noise(self):
        # kappa = 1: the estimate is the mean of N fair +/-1 draws when
        # <Z> = 0, with no decomposition inflation.
        qpd = nme_wire_cut(1.0)
        assert qpd.kappa == 1.0
        shots = 4096
        gen = RandomSource(11, 0).generator()
        draws = np.array(
            [estimate_cut_expectation(qpd, H, Z, shots, gen) for _ in range(400)]
        )
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean()) <= 4 * se
        expected_var = 1.0 / shots
        assert draws.var(ddof=1) == pytest.approx(expected_var, rel=0.25)

    def test_entanglement_free_variance_envelope(self):
        # Empirical standard deviation close to kappa / sqrt(N) at <Z> = 0,
        # and mean consistent with the exact value 0.
        qpd = harada_wire_cut()
        shots = 100_000
        gen = RandomSource(29, 0).generator()
        draws = np.array(
            [estimate_cut_expectation(qpd, H, Z, shots, gen) for _ in range(200)]
        )
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean()) <= 4 * se
        envelope = qpd.kappa * math.sqrt(1.0 / shots)
        assert draws.std(ddof=1) == pytest.approx(envelope, rel=0.25)

    @pytest.mark.parametrize("mode", ["stratified", "multinomial"])
    def test_unbiased_for_random_preparations(self, mode):
        rng = np.random.default_rng(5150)
        reps = 300
        for k in (0.0, 0.5, 1.0):
            qpd = nme_wire_cut(k)
            for _ in range(3):
                w = haar_random_unitary(rng)
                exact = exact_expectation(w, Z)
                draws = np.array(
                    [
                        estimate_cut_expectation(qpd, w, Z, 800, rng, mode=mode)
                        for _ in range(reps)
                    ]
                )
                se = draws.std(ddof=1) / math.sqrt(reps)
                assert abs(draws.mean() - exact) <= max(4 * se, 1e-12)

    def test_bitwise_determinism(self):
        qpd = nme_wire_cut(0.5)
        for mode in ("stratified", "multinomial"):
            a = estimate_cut_expectation(qpd, H, Z, 999, RandomSource(8, 4), mode=mode)
            b = estimate_cut_expectation(qpd, H, Z, 999, RandomSource(8, 4), mode=mode)
            assert a == b

    def test_variance_ordering_between_cuts(self):
        # kappa = 3 vs kappa = 1 at matched shots must separate at 4 sigma.
        shots = 2000
        reps = 500
        draws = {}
        for k in (0.0, 1.0):
            gen = RandomSource(31, int(k)).generator()
            qpd = nme_wire_cut(k)
            draws[k] = np.array(
                [estimate_cut_expectation(qpd, H, Z, shots, gen) for _ in range(reps)]
            )
        var_low = draws[0.0].var(ddof=1)
        var_high = draws[1.0].var(ddof=1)
        spread = math.sqrt(2.0 * (var_low**2 + var_high**2) / (reps - 1))
        assert (var_low - var_high) / spread > 4.0

    def test_rejects_zero_total_shots(self):
        with pytest.raises(ZeroShotsError):
            estimate_cut_expectation(nme_wire_cut(0.5), I2, Z, 0, RandomSource(0, 0))

    @pytest.mark.parametrize("mode", ["stratified", "multinomial"])
    def test_rejects_mis_shaped_observable(self, mode):
        with pytest.raises(DimensionMismatchError):
            estimate_cut_expectation(
                nme_wire_cut(0.5), I2, np.eye(3), 10, RandomSource(0, 0), mode=mode
            )

    @pytest.mark.parametrize("mode", ["stratified", "multinomial"])
    @pytest.mark.parametrize(
        "prep, observable, error",
        [
            (2.0 * I2, Z, NotUnitaryError),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), Z, InvalidParameterError),
            (np.eye(4), Z, DimensionMismatchError),
            (np.eye(4), np.kron(Z, Z), DimensionMismatchError),
        ],
        ids=["unnormalized", "nan", "four-by-four", "wider-than-the-cut"],
    )
    def test_rejects_bad_preparation(self, prep, observable, error, mode):
        with pytest.raises(error):
            estimate_cut_expectation(
                nme_wire_cut(0.5), prep, observable, 10, RandomSource(0, 0), mode=mode
            )


def signed_count_pmf(coefficients, p_plus, n):
    """Pmf of the +1 signed-outcome count of n multinomial shots, enumerated split by split.

    A split (n_i) of the shots over the terms has multinomial probability with weights
    |c_i| / kappa.  Given the split, term i's +1 count b_i is Binomial(n_i, p_i), and a shot
    on a negative term reports the opposite sign, so the term adds n_i - b_i, not b_i.
    """
    kappa = sum(abs(c) for c in coefficients)
    pmf = [0.0] * (n + 1)
    for split in itertools.product(range(n + 1), repeat=len(coefficients)):
        if sum(split) != n:
            continue
        weight = math.factorial(n)
        for c, ni in zip(coefficients, split):
            weight *= (abs(c) / kappa) ** ni / math.factorial(ni)
        for counts in itertools.product(*(range(ni + 1) for ni in split)):
            prob, m = weight, 0
            for c, ni, b, p in zip(coefficients, split, counts, p_plus):
                prob *= math.comb(ni, b) * p**b * (1.0 - p) ** (ni - b)
                m += b if c > 0 else ni - b
            pmf[m] += prob
    return pmf


def random_signed_decomposition(gen):
    """1-4 terms with coefficients drawn from [-2, 2], the last one making the sum 1."""
    head = gen.uniform(-2.0, 2.0, size=int(gen.integers(0, 4))).tolist()
    coefficients = [*head, 1.0 - sum(head)]
    return QuasiProbDecomposition(tuple(QpdTerm(c, unitary_channel(I2)) for c in coefficients))


class TestSignedCountIdentity:
    """Multinomial mode draws the count M of +1 signed outcomes as one Binomial(N, P+)."""

    CASES = {
        "harada": lambda gen: harada_wire_cut(),
        "nme-0.5": lambda gen: nme_wire_cut(0.5),
        **{f"random-{i}": random_signed_decomposition for i in range(24)},
    }

    @pytest.mark.parametrize("seed, case", enumerate(CASES), ids=list(CASES))
    def test_enumerated_pmf_is_binomial_in_the_budget_probability(self, seed, case):
        gen = np.random.default_rng(seed)
        qpd = self.CASES[case](gen)
        coefficients = [t.coefficient for t in qpd.terms]
        for n in range(1, 7):
            p_plus = gen.uniform(0.0, 1.0, size=len(coefficients)).tolist()
            budget = _budget(qpd, n, "multinomial")
            p = budget.beta + sum(alpha * q for alpha, q in zip(budget.weights, p_plus))
            binomial = [math.comb(n, m) * p**m * (1.0 - p) ** (n - m) for m in range(n + 1)]
            assert np.abs(np.subtract(signed_count_pmf(coefficients, p_plus, n), binomial)).max() <= 1e-12


@pytest.mark.parametrize(
    "call",
    [
        lambda prep: exact_expectation(prep, Z),
        lambda prep: estimate_cut_expectation(nme_wire_cut(0.5), prep, Z, 10, RandomSource(1)),
        lambda prep: estimate_cut_expectation(nme_wire_cut(0.5), prep, Z, 10, RandomSource(1), mode="multinomial"),
    ],
    ids=["exact_expectation", "stratified", "multinomial"],
)
@pytest.mark.parametrize(
    "prep, error",
    [
        (np.array([[1.0, 5.0], [0.0, 0.0]]), NotUnitaryError),
        (np.array([[1.0], [0.0]]), NotUnitaryError),
        (np.eye(2, 3), NotUnitaryError),
        (2.0 * I2, NotUnitaryError),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), InvalidParameterError),
        (np.eye(4), DimensionMismatchError),
    ],
    ids=["unit-first-column", "one-column", "two-by-three", "twice-identity", "nan", "four-by-four"],
)
def test_sampler_and_oracle_share_one_preparation_contract(call, prep, error):
    # The sampler reads only W|0>, but it accepts exactly the W the exact oracle accepts.
    with pytest.raises(error):
        call(prep)


def sweep_rows(seed, n):
    """(n, 2) W|0> rows built as the sweep builds them: one normal draw on one stream, normalized row by row."""
    return _haar_columns(RandomSource(seed).generator(), n)[0]


class TestPlusProbabilities:
    """The stacked probability table: each row gets the bits it would get alone."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 50), k=st.none() | st.floats(0.0, 1.0))
    @example(seed=0, n=1, k=None)
    @example(seed=2**64 - 1, n=50, k=0.0)
    @example(seed=1, n=7, k=1.0)
    def test_rows_match_one_row_calls_and_the_kraus_oracle(self, seed, n, k):
        qpd = harada_wire_cut() if k is None else nme_wire_cut(k)
        columns = sweep_rows(seed, n)
        table = _plus_probabilities(qpd, columns, Z)
        assert table.shape == (n, len(qpd.terms))
        for i, c in enumerate(columns):
            assert same_bits(table[i], _plus_probabilities(qpd, columns[i : i + 1], Z)[0])
            # Kraus oracle: the Schrodinger-picture expression, equal up to rounding.
            values = np.array([np.real(np.trace(Z @ t.channel.act(np.outer(c, c.conj())))) for t in qpd.terms])
            assert np.abs(table[i] - np.clip(0.5 * (1.0 + values), 0.0, 1.0)).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        dim=st.sampled_from([2, 4, 8]),
        n_kraus=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        n=st.integers(1, 20),
    )
    def test_effects_agree_with_the_kraus_action(self, seed, dim, n_kraus, n):
        # Random CPTP terms (Kraus sets cut from a random isometry), unit states
        # and +/-1 observables U diag(+/-1) U^dag; the oracle is QuantumChannel.act.
        # The kernel reads the decomposition's transfer matrices, never the Kraus operators.
        gen = np.random.default_rng(seed)

        def isometry(rows, cols):
            q, _ = np.linalg.qr(gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols)))
            return q

        channels = [QuantumChannel(isometry(m * dim, dim).reshape(m, dim, dim)) for m in n_kraus]
        qpd = QuasiProbDecomposition(tuple(QpdTerm(1.0 / len(channels), ch) for ch in channels))
        u = isometry(dim, dim)
        obs = u @ np.diag(gen.choice([-1.0, 1.0], size=dim)) @ u.conj().T
        columns = gen.standard_normal((n, dim)) + 1j * gen.standard_normal((n, dim))
        columns /= np.linalg.norm(columns, axis=1, keepdims=True)
        table = _plus_probabilities(qpd, columns, _pm_one_observable(obs, dim))
        for i in range(n):
            assert same_bits(table[i], _plus_probabilities(qpd, columns[i : i + 1], obs)[0])
        rho = columns[:, :, None] * columns.conj()[:, None, :]
        values = np.stack([np.real(np.trace(obs @ ch.act(rho), axis1=1, axis2=2)) for ch in channels], axis=1)
        assert np.abs(table - 0.5 * (1.0 + values)).max() <= 1e-12
        # tr(O F(rho)) = tr(F*(O) rho): the dual map against the same oracle.
        duals = np.stack([np.real(np.trace(ch.dual(obs) @ rho, axis1=1, axis2=2)) for ch in channels], axis=1)
        assert np.abs(duals - values).max() <= 1e-12

    @pytest.mark.parametrize("k", [0.3, 1.0])
    def test_rows_keep_their_bits_across_blocks(self, k):
        # The kernel takes rows in fixed blocks; a block boundary changes no row's bits.
        qpd = nme_wire_cut(k)
        step = _BLOCK_ENTRIES // qpd.dim**3
        columns = sweep_rows(11, 2 * step + 3)
        table = _plus_probabilities(qpd, columns, Z)
        for i in (0, step - 1, step, step + 1, 2 * step - 1, 2 * step, 2 * step + 2):
            assert same_bits(table[i], _plus_probabilities(qpd, columns[i : i + 1], Z)[0])
        pieces = [_plus_probabilities(qpd, columns[a : a + 5], Z) for a in range(0, len(columns), 5)]
        assert same_bits(table, np.concatenate(pieces))

    @pytest.mark.parametrize(
        "observable",
        [Z, X, -I2, ROTATION @ Z @ ROTATION.conj().T],
        ids=["Z", "X", "minus-identity", "rotated-Z"],
    )
    def test_square_to_identity_check_accepts(self, observable):
        assert same_bits(_pm_one_observable(observable, 2), np.asarray(observable, dtype=complex))

    @pytest.mark.parametrize(
        "observable, error",
        [
            (2.0 * Z, InvalidObservableError),
            (np.diag([1.0, 1.0 + 1e-6]), InvalidObservableError),
            (np.array([[1.0, 1.0], [0.0, -1.0]]), NotHermitianError),  # squares to I
        ],
        ids=["2Z", "eigenvalue-off-by-1e-6", "non-hermitian"],
    )
    def test_square_to_identity_check_rejects(self, observable, error):
        with pytest.raises(error):
            _pm_one_observable(observable, 2)

    def test_out_of_range_probability_row_is_named(self):
        # The kernel trusts its caller's observable.  With 3Z the |+> rows stay at
        # probability 1/2 on every term, while the |0> row leaves [0, 1].
        rows = np.full((5, 2), 1.0 / math.sqrt(2.0), dtype=complex)
        rows[2] = [1.0, 0.0]
        pattern = r"^row 2: outcome probabilities \[ *1\.7 +1\.7 +-1\. *\] outside \[0, 1\]$"
        with pytest.raises(InvalidProbabilityError, match=pattern):
            _plus_probabilities(nme_wire_cut(0.5), rows, 3.0 * Z)


def golden_estimates_text(seed=20240901, n_preps=23, n_streams=29):
    """CSV of library estimates for every mode, k in {0, 0.5, 1} and budget in {3, 777, 2000}.

    The preparations are `haar_random_unitary` draws from stream (seed, 0); row r
    samples stream (seed, r + 1).  Floats are written with repr, so equal text
    means equal bits.
    """
    gen = RandomSource(seed, 0).generator()
    preps = [haar_random_unitary(gen) for _ in range(n_preps)]
    exact = [exact_expectation(w, Z) for w in preps]
    lines = ["mode,k,shots,prep,stream,estimate,exact"]
    for mode in MODES:
        for k in (0.0, 0.5, 1.0):
            qpd = nme_wire_cut(k)
            for shots in (3, 777, 2000):
                for pi, w in enumerate(preps):
                    for _ in range(n_streams):
                        stream = len(lines)
                        value = estimate_cut_expectation(qpd, w, Z, shots, RandomSource(seed, stream), mode=mode)
                        lines.append(f"{mode},{k!r},{shots},{pi},{stream},{value!r},{exact[pi]!r}")
    return "\n".join(lines) + "\n"


def test_library_estimates_match_committed_golden_csv():
    # Cross-version pin of the library path, as the golden sweep CSVs pin the
    # sweep: a probability that moves by one ulp and flips a draw shows here.
    # The file was written once by golden_estimates_text(); a change that
    # fails here changed the draws, and the file is not rewritten to hide it.
    assert_matches_golden(golden_estimates_text().encode(), "golden_estimates.csv")


def test_golden_mismatch_names_both_numpy_versions():
    written = json.loads(GOLDEN_PROVENANCE.read_text(encoding="utf-8"))["golden_estimates.csv"]["numpy"]
    pattern = rf"written under numpy {re.escape(written)}, this run uses numpy {re.escape(np.__version__)}$"
    with pytest.raises(AssertionError, match=pattern):
        assert_matches_golden(b"mode,k\n", "golden_estimates.csv")


def test_every_golden_file_has_its_numpy_version():
    recorded = json.loads(GOLDEN_PROVENANCE.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(path.name for path in DATA_DIR.glob("*.csv"))
    assert all(isinstance(entry["numpy"], str) for entry in recorded.values())
