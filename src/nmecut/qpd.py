"""Quasiprobability decompositions of the single-qubit identity wire.

Two decompositions are provided: the entanglement-free cut with overhead 3,
and the teleportation-based cut over the pair |phi_k> with coefficients

    a = (k^2 + 1) / (k + 1)^2    on each conjugated teleportation term,
    b = (k - 1)^2 / (k + 1)^2    on the negated measure-and-flip term,

whose overhead kappa = 2a + b = 4(k^2+1)/(k+1)^2 - 1 = 2/f - 1 is optimal.
Reconstruction of the identity is checked through Choi matrices; sampling
reads each decomposition's cached Pauli transfer matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from math import copysign, inf, isfinite

import numpy as np

from .channels import (
    QuantumChannel,
    _conjugated,
    measure_prepare_channel,
    measure_prepare_flip_channel,
    teleportation_channel,
)
from .errors import DimensionMismatchError, InvalidParameterError, _shown
from .linalg import H, S, Matrix, _instance, _require_real, as_unitary, pauli_basis
from .states import checked_k, checked_overlap, nme_state

COEFFICIENT_SUM_TOL = 1e-12

U1 = H
U2 = S @ H
# (U1, U2), checked unitary once, as a (2, 1, 2, 2) stack: nme_wire_cut conjugates by both in one product.
_FRAMES = np.array([as_unitary(U1), as_unitary(U2)])[:, None]
_FRAMES.flags.writeable = False


@dataclass(frozen=True)
class QpdTerm:
    """One signed term of a decomposition.

    `consumes_resource` marks terms whose execution uses up one copy of the
    entangled pair (the teleportation branches).
    """

    coefficient: float
    channel: QuantumChannel
    consumes_resource: bool = False

    def __post_init__(self) -> None:
        _require_real("coefficient", self.coefficient)
        _instance(self.channel, QuantumChannel)
        _instance(self.consumes_resource, bool)
        try:
            c = float(self.coefficient)
        except OverflowError:  # an integer beyond the float range
            c = inf
        if not isfinite(c) or c == 0.0:
            raise InvalidParameterError(f"coefficient must be finite and nonzero, got {_shown(self.coefficient)}")
        object.__setattr__(self, "coefficient", c)


@dataclass(frozen=True)
class QuasiProbDecomposition:
    """Ordered signed mixture sum_i c_i F_i with sum c_i = 1 of channels on `dim` levels.

    `terms` is an iterable of QpdTerm, stored as a tuple.  Two forms of the
    channels serve two purposes: their Kraus/Choi algebra is the exact oracle
    (`reconstruct_channel`), and `ptm`, their Pauli transfer matrices, is the
    numeric form that sampling reads.
    """

    terms: tuple[QpdTerm, ...]
    kappa: float = field(init=False)
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        try:
            items = iter(self.terms)
        except TypeError:
            raise InvalidParameterError(f"expected an iterable of QpdTerm, got {type(self.terms).__name__}") from None
        terms = tuple(_instance(t, QpdTerm) for t in items)
        if not terms:
            raise InvalidParameterError("a decomposition needs at least one term")
        total = sum(t.coefficient for t in terms)
        if abs(total - 1.0) > COEFFICIENT_SUM_TOL:
            raise InvalidParameterError(
                f"|sum of coefficients - 1| = {abs(total - 1.0):.3e} > {COEFFICIENT_SUM_TOL}"
            )
        dim = terms[0].channel.in_dim
        if any((t.channel.in_dim, t.channel.out_dim) != (dim, dim) for t in terms):
            raise DimensionMismatchError(f"every term must map dim {dim} to itself")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "kappa", float(sum(abs(t.coefficient) for t in terms)))

    @cached_property
    def ptm(self) -> np.ndarray:
        """Read-only real (terms, d^2, d^2) stack R_i[a, b] = tr(P_a F_i(P_b)) / d over `pauli_basis(d)`.

        Built from each channel's Kraus action on first access and cached (idempotent,
        safe under concurrent first access).  A valid wire cut has sum_i c_i R_i = I.
        """
        basis = pauli_basis(self.dim)
        images = np.stack([t.channel.act(basis) for t in self.terms])
        stack = np.einsum("aij,tbji->tab", basis, images).real / self.dim
        stack.flags.writeable = False
        return stack

    @property
    def probabilities(self) -> np.ndarray:
        """Sampling weights |c_i| / kappa."""
        return np.array([abs(t.coefficient) for t in self.terms]) / self.kappa

    def describe(self) -> str:
        """Line-oriented plain-text listing: index, coefficient, channel, flag."""
        lines = []
        for i, t in enumerate(self.terms):
            flag = "resource" if t.consumes_resource else "-"
            lines.append(f"{i}  {t.coefficient:+.12g}  {t.channel.name}  {flag}")
        lines.append(f"kappa {self.kappa:.12g}")
        return "\n".join(lines)


def _coefficients(k: float) -> tuple[float, float]:
    """(a, b) = ((k^2+1)/(k+1)^2, (k-1)^2/(k+1)^2) for the pair |phi_k>.

    Both are unchanged under k -> 1/k; k > 1 is evaluated through 1/k so that
    k*k cannot overflow.
    """
    kk = k if k <= 1.0 else 1.0 / k
    a = (kk * kk + 1.0) / ((kk + 1.0) * (kk + 1.0))
    b = (kk - 1.0) * (kk - 1.0) / ((kk + 1.0) * (kk + 1.0))
    return a, b


@cache
def harada_wire_cut() -> QuasiProbDecomposition:
    """Entanglement-free optimal cut of the identity wire (kappa = 3).

    Measure-and-prepare in the H and SH bases, minus the measure-and-flip
    channel.  The decomposition is immutable, so it is built once.
    """
    terms = (
        QpdTerm(1.0, measure_prepare_channel(U1, name="measure-prepare[H]")),
        QpdTerm(1.0, measure_prepare_channel(U2, name="measure-prepare[SH]")),
        QpdTerm(-1.0, measure_prepare_flip_channel()),
    )
    return QuasiProbDecomposition(terms)


def nme_wire_cut(k: float) -> QuasiProbDecomposition:
    """Teleportation-based cut of the identity wire using the pair |phi_k>.

    The two positive terms conjugate the teleportation channel by H and SH
    and each consume one entangled pair per shot; at k = 1 the negative term
    has coefficient zero and is omitted.  k is checked on every call.  The
    decomposition is immutable, so a bounded cache of recent k shares it:
    a repeated k returns the one object built for it, with its `ptm` and
    Choi matrices.
    """
    k = checked_k(k)
    return _nme_wire_cut(k, copysign(1.0, k))


@lru_cache(maxsize=64)  # bounded: a sweep uses a few k, but a caller may ask for any number
def _nme_wire_cut(k: float, sign: float) -> QuasiProbDecomposition:
    """nme_wire_cut for a checked k; `sign` keeps -0.0 and 0.0, which compare equal, in entries of their own."""
    a, b = _coefficients(k)
    kraus = _conjugated(_FRAMES, teleportation_channel(nme_state(k).density()).kraus)
    terms = [
        QpdTerm(a, QuantumChannel(kraus[0], name="teleport[H]"), consumes_resource=True),
        QpdTerm(a, QuantumChannel(kraus[1], name="teleport[SH]"), consumes_resource=True),
    ]
    if b != 0.0:
        terms.append(QpdTerm(-b, measure_prepare_flip_channel()))
    return QuasiProbDecomposition(tuple(terms))


def optimal_overhead(f: float) -> float:
    """Minimal sampling overhead 2/f - 1 for a resource of overlap f."""
    return 2.0 / checked_overlap(f) - 1.0


def optimal_overhead_pure(k: float) -> float:
    """Minimal sampling overhead 4(k^2+1)/(k+1)^2 - 1 = 4a - 1 for the pure pair |phi_k>."""
    a, _ = _coefficients(checked_k(k))
    return 4.0 * a - 1.0


def resource_consumption_rate(k: float) -> float:
    """Expected entangled pairs consumed per sampled shot: 2(k^2+1)/(k+1)^2.

    Equals the signed-weight mass (p1 + p2) * kappa on the teleportation
    terms and the inverse overlap of |phi_k> with the maximally entangled
    state.
    """
    k = checked_k(k)
    if k <= 0.0:
        raise InvalidParameterError(f"k must be > 0, got {k}")
    a, _ = _coefficients(k)
    return 2.0 * a


def reconstruct_channel(qpd: QuasiProbDecomposition) -> Matrix:
    """Signed Choi sum sum_i c_i Choi(F_i).

    Not a physical channel in general (coefficients may be negative); equals
    the identity Choi matrix exactly when the decomposition is a valid wire
    cut.
    """
    return sum(t.coefficient * t.channel.choi for t in _instance(qpd, QuasiProbDecomposition).terms)
