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
from typing import Union

import numpy as np

from .channels import UNITARY_TOL
from .errors import (
    DimensionMismatchError,
    InvalidObservableError,
    InvalidParameterError,
    InvalidProbabilityError,
    NotHermitianError,
    NotUnitaryError,
    NotUnitTraceError,
    ZeroShotsError,
)
from .linalg import HERMITIAN_TOL, TRACE_TOL, Matrix, as_matrix, dagger
from .qpd import QuasiProbDecomposition

OBSERVABLE_TOL = 1e-10
PROBABILITY_TOL = 1e-10

MODES = ("stratified", "multinomial")


@dataclass(frozen=True)
class RandomSource:
    """Reproducible stream key: (seed, stream_id) -> Philox generator."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.seed & 0xFFFFFFFFFFFFFFFF, self.stream_id & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))


RngLike = Union[RandomSource, np.random.Generator]


def as_generator(rng: RngLike) -> np.random.Generator:
    """Materialize a generator; passes plain generators through unchanged."""
    if isinstance(rng, RandomSource):
        return rng.generator()
    return rng


@dataclass(frozen=True)
class ShotAllocation:
    """Deterministic split of a shot budget across decomposition terms."""

    total: int
    per_term: tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(self.per_term) != self.total:
            raise InvalidParameterError("per-term shots must sum to the total")


def _check_observable(observable: np.ndarray, dim: int) -> Matrix:
    """Coerce O and require it square, Hermitian and acting on `dim` levels."""
    obs = as_matrix(observable)
    if obs.shape != (dim, dim):
        raise DimensionMismatchError(
            f"observable shape {obs.shape} does not match state dim {dim}"
        )
    herm = np.abs(obs - dagger(obs)).max()
    if herm > HERMITIAN_TOL:
        raise NotHermitianError(f"max |O - O^dag| = {herm:.3e} > {HERMITIAN_TOL}")
    return obs


def exact_expectation(prep: np.ndarray, observable: np.ndarray) -> float:
    """<0| W^dag O W |0> for a unitary preparation W and Hermitian O."""
    w = as_matrix(prep)
    residual = np.abs(dagger(w) @ w - np.eye(w.shape[0])).max()
    if residual > UNITARY_TOL:
        raise NotUnitaryError(f"max |W^dag W - I| = {residual:.3e} > {UNITARY_TOL}")
    obs = _check_observable(observable, w.shape[0])
    column = w[:, 0]
    return float(np.real(column.conj() @ obs @ column))


def allocate_shots(qpd: QuasiProbDecomposition, total: int) -> ShotAllocation:
    """Largest-remainder split of `total` shots proportional to |c_i|/kappa.

    Ties go to the lower term index.  Whenever the budget covers every
    nonzero-probability term, each such term is guaranteed at least one shot
    so that no signed term is silently dropped.
    """
    if total < 0:
        raise InvalidParameterError(f"total must be >= 0, got {total}")
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
    return ShotAllocation(total=total, per_term=tuple(int(c) for c in counts))


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
    probability p_i of measuring +1 after its channel, all in one call.
    stratified: the budget is split proportionally to the coefficients and
    each branch is sampled with its share; the estimate is sum_i c_i est_i.
    multinomial: every shot first draws a term index with probability p_i,
    then a single +/-1 outcome weighted by sign(c_i) * kappa; the mean over
    all shots is returned.  Both are unbiased for the exact expectation
    whenever the decomposition reconstructs the identity.
    """
    if total_shots < 1:
        raise ZeroShotsError(f"total_shots must be >= 1, got {total_shots}")
    if mode not in MODES:
        raise InvalidParameterError(f"mode must be one of {MODES}, got {mode!r}")
    column = as_matrix(prep)[:, 0]
    dim = column.shape[0]
    obs = _check_observable(observable, dim)
    eigs = np.linalg.eigvalsh(obs)
    if np.any(np.abs(np.abs(eigs) - 1.0) > OBSERVABLE_TOL):
        raise InvalidObservableError(f"observable eigenvalues {eigs} are not all +/-1")
    rho = np.outer(column, column.conj())
    norm_error = abs(rho.trace() - 1.0)
    if norm_error > TRACE_TOL:
        raise NotUnitTraceError(f"|<0|W^dag W|0> - 1| = {norm_error:.3e} > {TRACE_TOL}")
    if any((t.channel.in_dim, t.channel.out_dim) != (dim, dim) for t in qpd.terms):
        raise DimensionMismatchError(f"state dim {dim} does not match every channel's dims")

    values = np.array([np.real(np.trace(obs @ t.channel.act(rho))) for t in qpd.terms])
    p_plus = 0.5 * (1.0 + values)
    if np.any((p_plus < -PROBABILITY_TOL) | (p_plus > 1.0 + PROBABILITY_TOL)):
        raise InvalidProbabilityError(f"outcome probabilities {p_plus} outside [0, 1]")
    gen = as_generator(rng)
    if mode == "stratified":
        shots = np.array(allocate_shots(qpd, total_shots).per_term)
    else:
        shots = gen.multinomial(total_shots, qpd.probabilities)
    # Terms without shots draw nothing: Binomial(0, p) consumes no randomness.
    outcome_sums = 2.0 * gen.binomial(shots, np.clip(p_plus, 0.0, 1.0)) - shots
    drawn = shots > 0
    # Python's sum adds left to right from 0.0; the golden CSVs pin these bits.
    if mode == "stratified":
        coefficients = np.array([t.coefficient for t in qpd.terms])
        return float(sum(coefficients[drawn] * (outcome_sums[drawn] / shots[drawn]), 0.0))
    return float(sum(qpd.signs[drawn] * qpd.kappa * outcome_sums[drawn], 0.0) / total_shots)
