"""Monte Carlo estimation of cut expectation values.

Branch outcomes are drawn from their exact binomial distribution rather than
per-shot trajectories: for a +/-1 observable the sampled mean of n shots is
fully determined by the success count, so the two are statistically
identical and the binomial draw is orders of magnitude cheaper.  Randomness
comes from counter-based Philox streams keyed by (seed, stream_id), so
identical keys reproduce identical draws across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidObservableError,
    InvalidParameterError,
    InvalidProbabilityError,
    ZeroShotsError,
    _shown,
)
from .linalg import Matrix, _identity, _instance, _integer, _one_of, as_matrix, as_unitary, check_hermitian, pauli_basis
from .qpd import QuasiProbDecomposition

OBSERVABLE_TOL = 1e-10
PROBABILITY_TOL = 1e-10

MODES = ("stratified", "multinomial")
# Rows per probability block times dim**3, the size of the block's largest temporary (1024 rows at dim 2):
# the kernel's memory stays fixed however many rows a sweep passes it, and each temporary stays at or
# below 128 KiB, which the allocator reuses instead of mapping fresh pages on every call.
_BLOCK_ENTRIES = 1 << 13
MAX_SHOTS = 1 << 48  # far enough below 2**53 that allocate_shots' float64 split stays exact


# Two 64-bit words key a Philox stream; counter and buffer start empty.
_KEY_MAX = (1 << 64) - 1
_ZERO_WORDS = (0, 0, 0, 0)


def _rekey(gen: np.random.Generator, seed: int, stream_id: int) -> np.random.Generator:
    """Rewind a Philox-backed `gen` in place to the start of stream (seed, stream_id).

    The one definition of a stream start, for ints in [0, 2**64) the caller
    has checked; setting the state is cheaper than building a bit generator.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": (seed, stream_id)},
        "buffer": _ZERO_WORDS,
        "buffer_pos": len(_ZERO_WORDS),
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


@dataclass(frozen=True)
class RandomSource:
    """Reproducible stream key: (seed, stream_id) -> Philox generator.

    Both fields are integers in [0, 2**64), the two words of the Philox key,
    so distinct pairs always name distinct streams.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), lo=0, hi=_KEY_MAX))

    def generator(self) -> np.random.Generator:
        return _rekey(np.random.Generator(np.random.Philox(key=0)), self.seed, self.stream_id)


RngLike = Union[RandomSource, np.random.Generator]


def as_generator(rng: RngLike) -> np.random.Generator:
    """A numpy Generator unchanged, a RandomSource's generator; InvalidParameterError for anything else."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RandomSource):
        return rng.generator()
    raise InvalidParameterError(f"rng must be a RandomSource or a numpy Generator, got {type(rng).__name__}")


def _check_observable(observable: np.ndarray, dim: int) -> Matrix:
    """Coerce O and require it Hermitian on `dim` levels."""
    obs = as_matrix(observable)
    if obs.shape != (dim, dim):
        raise DimensionMismatchError(f"observable shape {obs.shape} is not ({dim}, {dim})")
    return check_hermitian(obs)


def _pm_one_observable(observable: np.ndarray, dim: int) -> Matrix:
    """Checks O once for sampling: Hermitian on `dim` levels and O^2 = I (eigenvalues all +/-1)."""
    obs = _check_observable(observable, dim)
    residual = np.abs(obs @ obs - _identity(dim)).max()
    if residual > OBSERVABLE_TOL:
        raise InvalidObservableError(f"max |O^2 - I| = {residual:.3e} > {OBSERVABLE_TOL}: eigenvalues not all +/-1")
    return obs


def exact_expectation(prep: np.ndarray, observable: np.ndarray) -> float:
    """<0| W^dag O W |0> for a unitary preparation W and Hermitian O."""
    w = as_unitary(prep)
    column = w[:, 0]
    return float(np.real(column.conj() @ _check_observable(observable, w.shape[0]) @ column))


def allocate_shots(qpd: QuasiProbDecomposition, total: int) -> tuple[int, ...]:
    """Largest-remainder split of `total` shots proportional to |c_i|/kappa.

    Ties go to the lower term index.  Whenever the budget covers every
    nonzero-probability term, each such term is guaranteed at least one shot
    so that no signed term is silently dropped.
    """
    probs = _instance(qpd, QuasiProbDecomposition).probabilities
    total = _integer("total", total, lo=0, hi=MAX_SHOTS)
    quotas = probs * total
    counts = np.floor(quotas).astype(int)
    remainder = total - int(counts.sum())
    order = sorted(range(len(probs)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:remainder]:
        counts[i] += 1
    nonzero = [i for i, p in enumerate(probs) if p > 0]
    if total >= len(nonzero):
        for i in nonzero:
            if counts[i] == 0:
                donor = max(range(len(counts)), key=lambda j: (counts[j], -j))
                counts[donor] -= 1
                counts[i] += 1
    return tuple(int(c) for c in counts)


@dataclass(frozen=True, eq=False)
class _Budget:
    """What one estimate needs of (decomposition, total shots, mode), whatever the preparation."""

    total: int
    allocation: tuple[int, ...] | None  # stratified split; None draws one count of +1 signed outcomes
    weights: tuple[float, ...]  # c_i (stratified) or alpha_i = c_i / kappa (multinomial)
    beta: float = 0.0  # multinomial: sum of |c_i| / kappa over c_i < 0
    kappa: float = 1.0


def _budget(qpd: QuasiProbDecomposition, total_shots: int, mode: str) -> _Budget:
    total_shots = _integer("total_shots", total_shots, hi=MAX_SHOTS)
    if total_shots < 1:
        raise ZeroShotsError(f"total_shots must be >= 1, got {_shown(total_shots)}")
    _one_of("mode", mode, MODES)
    coefficients = tuple(float(t.coefficient) for t in qpd.terms)
    if mode == "stratified":
        return _Budget(total_shots, allocate_shots(qpd, total_shots), coefficients)
    beta = sum(-c for c in coefficients if c < 0) / qpd.kappa
    return _Budget(total_shots, None, tuple(c / qpd.kappa for c in coefficients), beta, qpd.kappa)


@cache
def _pauli_tables(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Pauli strings P_b on `dim` levels as `_plus_probabilities` reads them.

    `coordinates @ vec(O)` is tr(P_a O) / dim for each a; row i of P_b holds its one nonzero,
    value[i, b, 0], in column[i, b].
    """
    basis = pauli_basis(dim)
    by_row = basis.transpose(1, 0, 2)  # [i, b, j]
    column = np.argmax(by_row != 0, axis=2)
    tables = (basis.conj().reshape(dim * dim, -1) / dim, column, np.take_along_axis(by_row, column[..., None], axis=2))
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _left_to_right_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the first axis, added left to right in elementwise operations."""
    total = a[0]
    for part in a[1:]:
        total = total + part
    return total


def _plus_probabilities(qpd: QuasiProbDecomposition, columns: np.ndarray, obs: Matrix) -> np.ndarray:
    """(n, terms) +1 probabilities in [0, 1] for an (n, dim) stack of rows W|0>, checked by the caller.

    The rows must be unit vectors on `qpd.dim` = d levels and O a +/-1 observable.  With
    o_a = tr(P_a O) the observable's Pauli vector and r_b = <psi|P_b|psi> the row's, term i's
    probability is (1 + e_i . r) / 2, where e_i = o^T R_i / d, the Pauli vector of the Heisenberg
    effect F_i*(O) over d, comes from the decomposition's cached transfer matrices `qpd.ptm`.
    Rows go through elementwise operations only, each sum added left to right and never a
    matmul, so every row has the bits of its one-row call; blocks of rows bound the temporaries.
    """
    dim = qpd.dim
    coordinates, column, value = _pauli_tables(dim)
    effects = (coordinates @ obs.ravel()).real @ qpd.ptm
    p_plus = np.empty((len(columns), len(effects)))
    step = _BLOCK_ENTRIES // dim**3
    for start in range(0, len(columns), step):
        psi = columns[start : start + step].T
        # r_b = sum_i conj(psi_i) P_b[i, j] psi_j over the one j of row i, then e_i . r; rows run along the last axis.
        pauli = _left_to_right_sum(psi.conj()[:, None] * (value * psi[column])).real
        p_plus[start : start + step] = 0.5 * (1.0 + _left_to_right_sum(effects.T[:, :, None] * pauli[:, None]).T)
    bad = ((p_plus < -PROBABILITY_TOL) | (p_plus > 1.0 + PROBABILITY_TOL)).any(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise InvalidProbabilityError(f"row {row}: outcome probabilities {p_plus[row]} outside [0, 1]")
    return np.clip(p_plus, 0.0, 1.0)


def _draw_signed(budget: _Budget, p_plus_columns: Sequence, gen: np.random.Generator) -> float | np.ndarray:
    """kappa (2M - N) / N, with M ~ Binomial(N, P+) the shots whose signed outcome is +1 (multinomial mode).

    A shot picks term i with probability |c_i| / kappa and reports sign(c_i) times its +/-1 outcome, so
    P+ = beta + sum_i alpha_i p_i, summed over the term columns (floats or row arrays), clipped for ulp overshoot.
    """
    p = budget.beta
    for alpha, column in zip(budget.weights, p_plus_columns):
        p = p + alpha * column
    count = gen.binomial(budget.total, np.clip(p, 0.0, 1.0))
    return budget.kappa * (2.0 * count - budget.total) / budget.total


def _draw_estimate(budget: _Budget, p_plus: Sequence[float], gen: np.random.Generator) -> float:
    """One signed recombination of binomial branch counts for checked inputs."""
    if budget.allocation is None:
        return _draw_signed(budget, p_plus, gen)
    # Terms without shots draw nothing.  The sum runs left to right from 0.0 in plain
    # float adds, as in `_draw_cell`; tests/data/golden_estimates.csv pins these bits.
    total = 0.0
    for weight, n, p in zip(budget.weights, budget.allocation, p_plus):
        if n:
            outcome_sum = 2.0 * gen.binomial(n, p) - n
            total += weight * (outcome_sum / n)
    return total


def _draw_cell(budget: _Budget, p_plus: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """One estimate per row of an (n, terms) probability table.

    The binomial array draw consumes `gen` as scalar draws in row order would, and rows are summed
    as `_draw_estimate` sums, so each row has the bits of those scalar draws.
    """
    if budget.allocation is None:
        return _draw_signed(budget, p_plus.T, gen)
    shots = budget.allocation
    outcome_sums = 2.0 * gen.binomial(shots, p_plus) - shots
    # A term without shots adds weight * 0.0, which leaves a sum that is never -0.0 as skipping it would.
    means = outcome_sums / np.maximum(shots, 1)
    total = np.zeros(len(p_plus))
    for weight, column in zip(budget.weights, means.T):
        total += weight * column
    return total


def estimate_cut_expectation(
    qpd: QuasiProbDecomposition,
    prep: np.ndarray,
    observable: np.ndarray,
    total_shots: int,
    rng: RngLike,
    mode: str = "stratified",
) -> float:
    """Signed recombination of finite-shot branch estimates for the state W|0>.

    W is checked as `exact_expectation` checks it, after the budget and O and
    before `rng`.  Each branch's +1 count is drawn from Binomial(shots_i, p_i)
    with the exact probability p_i of measuring +1 after its channel.
    stratified: the budget is split proportionally to the coefficients and
    each branch is sampled with its share; the estimate is sum_i c_i est_i.
    multinomial: every shot draws term i with probability |c_i|/kappa and a
    +/-1 outcome weighted by sign(c_i) * kappa; the shots' mean, drawn as one
    binomial count of +1 signed outcomes, is returned.  Both are unbiased for
    the exact expectation whenever the decomposition reconstructs the identity.
    """
    budget = _budget(_instance(qpd, QuasiProbDecomposition), total_shots, mode)
    obs = _pm_one_observable(observable, qpd.dim)
    w = as_unitary(prep)
    if w.shape[0] != qpd.dim:
        raise DimensionMismatchError(f"state dim {w.shape[0]} does not match the channels' dim {qpd.dim}")
    p_plus = _plus_probabilities(qpd, w[None, :, 0], obs)
    return _draw_estimate(budget, p_plus[0].tolist(), as_generator(rng))
