"""Shared test utilities: random states and independent statistical oracles."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from nmecut.linalg import CNOT, NORM_TOL, H, I2, X, Z


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Ginibre construction: A A^dag normalized to unit trace."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_pure_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def hurwitz_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar 2x2 unitary from the angle parametrization (QR-free oracle).

    cos^2(theta) is uniform on [0, 1]; the two phases are uniform on
    [0, 2pi); a global phase completes U(2).
    """
    theta = math.acos(math.sqrt(rng.uniform(0.0, 1.0)))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    chi = rng.uniform(0.0, 2.0 * math.pi)
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(theta), math.sin(theta)
    su2 = np.array(
        [
            [np.exp(1j * phi) * c, np.exp(1j * chi) * s],
            [-np.exp(-1j * chi) * s, np.exp(-1j * phi) * c],
        ]
    )
    return np.exp(1j * alpha) * su2


DATA_DIR = Path(__file__).parent / "data"
# The numpy version each golden file was written under: numpy does not promise Generator streams across its
# versions (NEP 19), so after an upgrade a golden can differ with nothing else changed.
GOLDEN_PROVENANCE = DATA_DIR / "golden_provenance.json"


def assert_matches_golden(actual: bytes, name: str) -> None:
    """`actual` equals the bytes of tests/data/`name`; a mismatch names the numpy it was written under and this one."""
    if actual != (DATA_DIR / name).read_bytes():
        written = json.loads(GOLDEN_PROVENANCE.read_text(encoding="utf-8"))[name]["numpy"]
        raise AssertionError(
            f"{name}: output differs from the committed bytes; the file was written under numpy {written}, "
            f"this run uses numpy {np.__version__}"
        )


def teleportation_circuit_kraus(resource: np.ndarray) -> list[np.ndarray]:
    """Gate-by-gate reference for the teleportation circuit's Kraus operators.

    Qubits (A, B, C): A holds the input, (B, C) the resource.  For each input
    basis state |p> and resource eigenvector chi, apply CNOT(A -> B) then H on
    A, project A and B on the outcome (a, b), and correct C with Z^a X^b.
    Operators come in the order a, b, eigenvector, each scaled by sqrt(lambda).
    """
    u3 = np.kron(np.kron(H, I2) @ CNOT, I2)
    eigvals, eigvecs = np.linalg.eigh(resource)
    kraus = []
    for a in (0, 1):
        for b in (0, 1):
            correction = (Z if a else I2) @ (X if b else I2)
            for e in range(4):
                lam = float(eigvals[e])
                if lam < NORM_TOL:
                    continue
                chi = eigvecs[:, e]
                m = np.zeros((2, 2), dtype=complex)
                for p in (0, 1):
                    basis = np.zeros(2, dtype=complex)
                    basis[p] = 1.0
                    evolved = u3 @ np.kron(basis, chi)
                    for out in (0, 1):
                        m[out, p] = evolved[a * 4 + b * 2 + out]
                kraus.append(np.sqrt(lam) * correction @ m)
    return kraus


def rank_sum_z(a: np.ndarray, b: np.ndarray) -> float:
    """Mann-Whitney z statistic (normal approximation, midranks for ties).

    Positive when `a` is stochastically larger than `b`.
    """
    combined = np.concatenate([a, b])
    order = np.argsort(combined, kind="mergesort")
    ranks = np.empty(combined.size)
    sorted_vals = combined[order]
    i = 0
    while i < combined.size:
        j = i
        while j + 1 < combined.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n1, n2 = a.size, b.size
    rank_sum = ranks[:n1].sum()
    mean = n1 * (n1 + n2 + 1) / 2.0
    std = math.sqrt(n1 * n2 * (n1 + n2 + 1) / 12.0)
    return (rank_sum - mean) / std


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: stricter than ==, which equates -0.0 with 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
