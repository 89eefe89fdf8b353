"""State families for the wire-cutting protocol.

Covers the one-parameter family of partially entangled pairs

    |phi_k> = K (|00> + k |11>),   K = 1 / sqrt(1 + k^2),   k >= 0,

Schmidt decomposition of any two-qubit `PureState`, the entanglement
overlap monotone f (from the amplitude determinant), and the distillation
norm that, with the Schmidt decomposition, is its test oracle.  The family is
separable at k = 0 and maximally entangled at k = 1; f interpolates between
1/2 and 1 accordingly via f = (k+1)^2 / (2 (k^2+1)).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError, OutOfRangeError, _shown
from .linalg import TRACE_TOL, PureState, _integer, _require_real, as_matrix, check_two_qubit

RANGE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Schmidt data of a two-qubit pure state.

    `coefficients` are the descending nonnegative pair (p0, p1) with
    p0^2 + p1^2 = 1; the bases are orthonormal single-qubit states such that
    p0 |xi0>|zeta0> + p1 |xi1>|zeta1> reconstructs the source state.
    """

    coefficients: tuple[float, float]
    left_basis: tuple[PureState, PureState]
    right_basis: tuple[PureState, PureState]


def nme_state(k: float) -> PureState:
    """The pair K(|00> + k|11>): separable at k=0, maximally entangled at k=1."""
    k = checked_k(k)
    if k > 1.0:  # K(k) = j K(j) with j = 1/k, so k*k cannot overflow
        j = 1.0 / k
        norm = j / math.sqrt(1.0 + j * j)
    else:
        norm = 1.0 / math.sqrt(1.0 + k * k)
    return PureState(norm * np.array([1.0, 0.0, 0.0, k]))


def schmidt_decompose(psi: PureState) -> SchmidtForm:
    """Schmidt decomposition of a two-qubit pure state via SVD.

    The 4-vector is reshaped into the 2x2 amplitude matrix M[a, b] and
    factored as M = U diag(p) V; columns of U and rows of V supply the local
    bases.  For product states the second basis vectors are whatever
    orthonormal completion the SVD returns.
    """
    m = check_two_qubit(psi, PureState).amplitudes.reshape(2, 2)
    u, s, vh = np.linalg.svd(m)
    left = (PureState(u[:, 0]), PureState(u[:, 1]))
    right = (PureState(vh[0, :]), PureState(vh[1, :]))
    return SchmidtForm(coefficients=(float(s[0]), float(s[1])), left_basis=left, right_basis=right)


def m_distillation_norm(coeffs: Sequence[float], m: int) -> float:
    """Distillation norm of a descending Schmidt-coefficient vector.

    With zeta the descending coefficients of length d, the norm is

        ||zeta[0:j*]||_1 + sqrt(j*) ||zeta[j*:d]||_2,
        j* = argmin_{1 <= j <= m} (1/j) ||zeta[m-j:d]||_2^2

    (slices 0-based, ties resolved toward the smaller j).  For two-qubit
    states with m = 2 this reduces to the plain coefficient sum.
    """
    z = as_matrix(coeffs, ndim=1, name="coefficients")
    m = _integer("m", m, lo=1)
    if z.size == 0:
        raise InvalidParameterError("coefficients must be a nonempty 1-d sequence")
    if any(z.imag):
        raise InvalidParameterError("coefficients must be real, got a nonzero imaginary part")
    c = z.real
    if np.any(c < -RANGE_TOL):
        raise InvalidParameterError("coefficients must be nonnegative")
    if np.any(np.diff(c) > RANGE_TOL):
        raise InvalidParameterError("coefficients must be sorted in descending order")
    if float(np.sum(c * c)) > 1.0 + TRACE_TOL:
        raise InvalidParameterError("squared coefficients must sum to at most 1")
    c = np.clip(c, 0.0, None)
    d = c.size

    def tail_sq(start: int) -> float:
        # 2-norm squared of zeta[start:d]; empty slice contributes 0.
        t = c[max(start, 0):]
        return float(np.dot(t, t))

    # For m > d the tail from m - 1 is empty, so j = 1 already reaches the least key (0, 1):
    # scanning j <= min(m, d) keeps j* and bounds the loop by d, not by m.
    j_star = min(range(1, min(m, d) + 1), key=lambda j: (tail_sq(m - j) / j, j))
    head = float(np.sum(c[:j_star]))
    return head + math.sqrt(j_star) * math.sqrt(tail_sq(j_star))


def overlap_f_pure(psi: PureState) -> float:
    """Entanglement monotone f of a two-qubit pure state, from its amplitude determinant.

    With M[a, b] = psi_{2a+b} the 2x2 amplitude matrix and p0 >= p1 its
    singular values (the Schmidt coefficients), f = (p0 + p1)^2 / 2 is half
    the squared 2-distillation norm.  Since p0^2 + p1^2 = ||psi||^2 and
    p0 p1 = |det M|, this is

        f = (||psi||^2 + 2 |psi_00 psi_11 - psi_01 psi_10|) / 2 = (1 + C) / 2,

    C the concurrence, with no SVD.  ||psi||^2 is kept rather than 1, so the
    value equals the Schmidt form even off unit norm within NORM_TOL.  Ranges
    from 1/2 (product state) to 1 (maximally entangled).
    """
    a0, a1, a2, a3 = check_two_qubit(psi, PureState).amplitudes.tolist()
    norm_sq = abs(a0) ** 2 + abs(a1) ** 2 + abs(a2) ** 2 + abs(a3) ** 2
    return 0.5 * (norm_sq + 2.0 * abs(a0 * a3 - a1 * a2))


# Both checks compare before converting an integer: float() of one beyond the
# float range raises OverflowError, and a comparison with NaN is false.  A
# numpy float is converted first: compared with the float64 bound for k, a
# float16 or float32 casts the bound to its own type and warns of an overflow.
def checked_overlap(f: float) -> float:
    """Overlap f clamped to [0.5, 1]; OutOfRangeError beyond RANGE_TOL outside."""
    f = _require_real("f", f)
    if not 0.5 - RANGE_TOL <= f <= 1.0 + RANGE_TOL:
        raise OutOfRangeError(f"f must lie in [0.5, 1], got {_shown(f)}")
    return min(max(float(f), 0.5), 1.0)


def checked_k(k: float) -> float:
    """Entanglement parameter k as a float; InvalidParameterError unless finite and >= 0."""
    k = _require_real("k", k)
    if not 0.0 <= k <= sys.float_info.max:
        raise InvalidParameterError(f"k must be finite and >= 0, got {_shown(k)}")
    return float(k)


def k_from_f(f: float) -> float:
    """Invert f = (k+1)^2 / (2(k^2+1)) to the canonical root k in [0, 1].

    The mirror root 1/k produces the same f; the sweep configuration uses the
    canonical one.
    """
    f = checked_overlap(f)
    c = 1.0 - 2.0 * f
    if c == 0.0:
        return 0.0
    # Quadratic c*k^2 + 2k + c = 0; the root in [0, 1] is (-1 + sqrt(1-c^2))/c.
    k = (-1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / c
    # max returns its first argument of a tie, so a root of -0.0 (f just above 1/2) becomes 0.0.
    return min(max(0.0, k), 1.0)
