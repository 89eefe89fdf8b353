"""Monte Carlo estimation of cut expectation values.

Branch outcomes are drawn from their exact binomial distribution rather than
per-shot trajectories: for a +/-1 observable the sampled mean of n shots is
fully determined by the success count, so the two are statistically
identical and the binomial draw is orders of magnitude cheaper.  Randomness
comes from counter-based Philox streams keyed by (seed, stream_id), so
identical keys reproduce identical draws across runs and platforms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidObservableError,
    InvalidParameterError,
    InvalidProbabilityError,
    NotUnitTraceError,
    OutOfRangeError,
    ZeroShotsError,
    _shown,
)
from .linalg import TRACE_TOL, Matrix, as_matrix, as_unitary, check_hermitian, dagger
from .qpd import QuasiProbDecomposition

OBSERVABLE_TOL = 1e-10
PROBABILITY_TOL = 1e-10

MODES = ("stratified", "multinomial")
MAX_SHOTS = 1 << 48  # far enough below 2**53 that allocate_shots' float64 split stays exact


# Two 64-bit words key a Philox stream; counter and buffer start empty.
_KEY_LIMIT = 1 << 64
_ZERO_WORDS = (0, 0, 0, 0)


def _integer(name: str, value: object) -> int:
    """`value` as a plain int; InvalidParameterError unless it is an integer other than a bool."""
    try:
        if isinstance(value, bool):  # operator.index(True) is 1
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {_shown(value, repr)}") from None


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
            value = getattr(self, name)
            key = _integer(name, value)
            if not 0 <= key < _KEY_LIMIT:
                raise OutOfRangeError(f"{name} must lie in [0, 2**64), got {_shown(value)}")
            object.__setattr__(self, name, key)

    def generator(self) -> np.random.Generator:
        return _rekey(np.random.Generator(np.random.Philox(key=0)), self.seed, self.stream_id)


RngLike = Union[RandomSource, np.random.Generator]


def as_generator(rng: RngLike) -> np.random.Generator:
    """Materialize a generator; passes plain generators through unchanged."""
    if isinstance(rng, RandomSource):
        return rng.generator()
    return rng


def _check_observable(observable: np.ndarray, dim: int | None = None) -> Matrix:
    """Coerce O and require it square, Hermitian and, if given, acting on `dim` levels."""
    obs = as_matrix(observable)
    dim = obs.shape[0] if dim is None else dim
    if obs.shape != (dim, dim):
        raise DimensionMismatchError(f"observable shape {obs.shape} is not ({dim}, {dim})")
    return check_hermitian(obs)


def _pm_one_observable(observable: np.ndarray, dim: int | None = None) -> Matrix:
    """Checks O once for sampling: square, Hermitian and O^2 = I (eigenvalues all +/-1), on `dim` levels if given."""
    obs = _check_observable(observable, dim)
    residual = np.abs(obs @ obs - np.eye(obs.shape[0])).max()
    if residual > OBSERVABLE_TOL:
        raise InvalidObservableError(f"max |O^2 - I| = {residual:.3e} > {OBSERVABLE_TOL}: eigenvalues not all +/-1")
    return obs


def exact_expectation(prep: np.ndarray, observable: np.ndarray) -> float:
    """<0| W^dag O W |0> for a unitary preparation W and Hermitian O."""
    w = as_unitary(prep)
    return _expectation(w[:, 0], _check_observable(observable, w.shape[0]))


def _expectation(column: np.ndarray, obs: Matrix) -> float:
    """<psi| O |psi> for the state column psi = W|0> and a checked O."""
    return float(np.real(column.conj() @ obs @ column))


def allocate_shots(qpd: QuasiProbDecomposition, total: int) -> tuple[int, ...]:
    """Largest-remainder split of `total` shots proportional to |c_i|/kappa.

    Ties go to the lower term index.  Whenever the budget covers every
    nonzero-probability term, each such term is guaranteed at least one shot
    so that no signed term is silently dropped.
    """
    total = _integer("total", total)
    if not 0 <= total <= MAX_SHOTS:
        raise OutOfRangeError(f"total must lie in [0, 2**48], got {_shown(total)}")
    probs = qpd.probabilities
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


@dataclass(frozen=True)
class _Budget:
    """What one estimate needs of (decomposition, total shots, mode), whatever the preparation."""

    total: int
    allocation: tuple[int, ...] | None  # stratified split; None draws a multinomial split
    probabilities: np.ndarray  # term probabilities |c_i| / kappa
    weights: tuple[float, ...]  # c_i (stratified) or sign(c_i) * kappa (multinomial)


def _budget(qpd: QuasiProbDecomposition, total_shots: int, mode: str) -> _Budget:
    total_shots = _integer("total_shots", total_shots)
    if total_shots < 1:
        raise ZeroShotsError(f"total_shots must be >= 1, got {_shown(total_shots)}")
    if total_shots > MAX_SHOTS:
        raise OutOfRangeError(f"total_shots must be <= 2**48, got {_shown(total_shots)}")
    if mode not in MODES:
        raise InvalidParameterError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "stratified":
        allocation = allocate_shots(qpd, total_shots)
        weights = tuple(float(t.coefficient) for t in qpd.terms)
        return _Budget(total_shots, allocation, qpd.probabilities, weights)
    return _Budget(total_shots, None, qpd.probabilities, tuple((qpd.signs * qpd.kappa).tolist()))


def _plus_probabilities(qpd: QuasiProbDecomposition, columns: np.ndarray, obs: Matrix) -> np.ndarray:
    """(n, terms) +1 probabilities in [0, 1] for an (n, dim) stack of rows W|0>, each checked for dim and norm.

    Term i's probability is (1 + <psi|E_i|psi>) / 2, with E_i = sum_K K^dag O K
    the observable in the Heisenberg picture of its channel, built once per call.
    """
    if columns.shape[1] != qpd.dim:
        raise DimensionMismatchError(f"state dim {columns.shape[1]} does not match the channels' dim {qpd.dim}")
    norm_error = np.abs(np.einsum("ni,ni->n", columns.conj(), columns) - 1.0)
    if np.any(norm_error > TRACE_TOL):
        row = int(np.argmax(norm_error > TRACE_TOL))
        raise NotUnitTraceError(f"row {row}: |<0|W^dag W|0> - 1| = {norm_error[row]:.3e} > {TRACE_TOL}")

    effects = np.stack([sum(dagger(k) @ obs @ k for k in t.channel.kraus) for t in qpd.terms])
    p_plus = 0.5 * (1.0 + np.real(np.einsum("ni,tij,nj->nt", columns.conj(), effects, columns)))
    bad = ((p_plus < -PROBABILITY_TOL) | (p_plus > 1.0 + PROBABILITY_TOL)).any(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise InvalidProbabilityError(f"row {row}: outcome probabilities {p_plus[row]} outside [0, 1]")
    return np.clip(p_plus, 0.0, 1.0)


def _draw_estimate(budget: _Budget, p_plus: Sequence[float], gen: np.random.Generator) -> float:
    """One signed recombination of binomial branch counts for checked inputs."""
    stratified = budget.allocation is not None
    shots = budget.allocation if stratified else gen.multinomial(budget.total, budget.probabilities).tolist()
    # Scalar draws in term order consume the stream exactly as one array draw
    # would, and terms without shots draw nothing.  The sum runs left to right
    # from 0.0 in plain float adds; the golden CSVs pin these bits.
    total = 0.0
    for weight, n, p in zip(budget.weights, shots, p_plus):
        if n:
            outcome_sum = 2.0 * gen.binomial(n, p) - n
            total += weight * (outcome_sum / n) if stratified else weight * outcome_sum
    return total if stratified else total / budget.total


def estimate_cut_expectation(
    qpd: QuasiProbDecomposition,
    prep: np.ndarray,
    observable: np.ndarray,
    total_shots: int,
    rng: RngLike,
    mode: str = "stratified",
) -> float:
    """Signed recombination of finite-shot branch estimates.

    Each branch's +1 count is drawn from Binomial(shots_i, p_i) with the exact
    probability p_i of measuring +1 after its channel.
    stratified: the budget is split proportionally to the coefficients and
    each branch is sampled with its share; the estimate is sum_i c_i est_i.
    multinomial: every shot first draws a term index with probability p_i,
    then a single +/-1 outcome weighted by sign(c_i) * kappa; the mean over
    all shots is returned.  Both are unbiased for the exact expectation
    whenever the decomposition reconstructs the identity.
    """
    budget = _budget(qpd, total_shots, mode)
    p_plus = _plus_probabilities(qpd, as_matrix(prep)[None, :, 0], _pm_one_observable(observable, qpd.dim))
    return _draw_estimate(budget, p_plus[0].tolist(), as_generator(rng))
