"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (every criterion is a single
test) or execute the file directly.  Tolerances are pinned here and never
loosened at runtime.
"""

import math
import time

import numpy as np
import pytest

from helpers import random_density_matrix
from nmecut.channels import (
    teleportation_channel,
    teleportation_circuit_channel,
    unitary_channel,
)
from nmecut.cli import main as cli_main
from nmecut.estimator import RandomSource, estimate_cut_expectation, exact_expectation
from nmecut.experiment import haar_random_unitary, loglog_slope
from nmecut.linalg import I2, Z, DensityOperator, PureState
from nmecut.qpd import harada_wire_cut, nme_wire_cut, reconstruct_channel
from nmecut.states import m_distillation_norm, nme_state, overlap_f_pure, schmidt_decompose

CHOI_TOL = 1e-10
EXACT_TOL = 1e-12

K_GRID_11 = [round(0.1 * i, 10) for i in range(11)]
K_GRID_21 = [round(0.05 * i, 10) for i in range(21)]


def report(criterion: str, passed: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed


def closed_form_f(k: float) -> float:
    return (k + 1.0) ** 2 / (2.0 * (k * k + 1.0))


def closed_form_overhead(k: float) -> float:
    return 4.0 * (k * k + 1.0) / (k + 1.0) ** 2 - 1.0


def test_criterion_1_identity_reconstruction():
    """Choi deviation of every decomposition from the identity <= 1e-10."""
    start = time.perf_counter()
    identity = unitary_channel(I2).choi
    worst = np.abs(reconstruct_channel(harada_wire_cut()) - identity).max()
    for k in K_GRID_11:
        deviation = np.abs(reconstruct_channel(nme_wire_cut(k)) - identity).max()
        worst = max(worst, deviation)
    elapsed = time.perf_counter() - start
    report("1 identity reconstruction", worst <= CHOI_TOL and elapsed < 1.0)


def test_criterion_2_overhead_closed_forms():
    """gamma endpoints and the three-way overhead identity on a 21-point grid."""
    start = time.perf_counter()
    ok = abs(nme_wire_cut(0.0).kappa - 3.0) <= EXACT_TOL
    ok &= abs(nme_wire_cut(1.0).kappa - 1.0) <= EXACT_TOL
    for k in K_GRID_21:
        kappa = nme_wire_cut(k).kappa
        ok &= abs(kappa - closed_form_overhead(k)) <= EXACT_TOL
        ok &= abs(kappa - (2.0 / closed_form_f(k) - 1.0)) <= EXACT_TOL
    elapsed = time.perf_counter() - start
    report("2 overhead closed forms", ok and elapsed < 1.0)


def test_criterion_3_distillation_norm_and_overlap():
    """Norm K(1+k), overlap closed form, and local-unitary invariance of f."""
    ok = True
    for k in K_GRID_21:
        K = 1.0 / math.sqrt(1.0 + k * k)
        coeffs = schmidt_decompose(nme_state(k)).coefficients
        ok &= abs(m_distillation_norm(coeffs, 2) - K * (1.0 + k)) <= EXACT_TOL
        ok &= abs(overlap_f_pure(nme_state(k)) - closed_form_f(k)) <= EXACT_TOL
    rng = np.random.default_rng(314159)
    for _ in range(100):
        k = rng.uniform(0.0, 1.0)
        psi = nme_state(k)
        theta, phi, lam = rng.uniform(0.0, 2.0 * math.pi, size=3)
        ua = np.array(
            [
                [math.cos(theta / 2), -np.exp(1j * lam) * math.sin(theta / 2)],
                [np.exp(1j * phi) * math.sin(theta / 2), np.exp(1j * (phi + lam)) * math.cos(theta / 2)],
            ]
        )
        theta, phi, lam = rng.uniform(0.0, 2.0 * math.pi, size=3)
        ub = np.array(
            [
                [math.cos(theta / 2), -np.exp(1j * lam) * math.sin(theta / 2)],
                [np.exp(1j * phi) * math.sin(theta / 2), np.exp(1j * (phi + lam)) * math.cos(theta / 2)],
            ]
        )
        rotated = PureState(np.kron(ua, ub) @ psi.amplitudes)
        ok &= abs(overlap_f_pure(rotated) - overlap_f_pure(psi)) <= 1e-10
    report("3 distillation norm and overlap", bool(ok))


def test_criterion_4_bell_overlaps_and_z_only_errors():
    """Bell overlaps of the pure family, and Z-only Kraus mass."""
    from nmecut.channels import bell_overlaps

    ok = True
    for k in K_GRID_21:
        got = bell_overlaps(nme_state(k).density())
        ok &= abs(got["I"] - closed_form_f(k)) <= EXACT_TOL
        ok &= abs(got["X"]) <= EXACT_TOL
        ok &= abs(got["Y"]) <= EXACT_TOL
        ok &= abs(got["Z"] - (k - 1.0) ** 2 / (2.0 * (k * k + 1.0))) <= EXACT_TOL
        for kraus in teleportation_channel(nme_state(k).density()).kraus:
            ok &= abs(kraus[0, 1]) == 0.0 and abs(kraus[1, 0]) == 0.0
    report("4 bell overlaps / Z-only errors", bool(ok))


def test_criterion_5_circuit_vs_analytic_teleportation():
    """Choi agreement of the circuit and analytic forms <= 1e-10."""
    start = time.perf_counter()
    rng = np.random.default_rng(271828)
    resources = [nme_state(k).density() for k in K_GRID_11]
    resources += [DensityOperator(random_density_matrix(rng, 4)) for _ in range(20)]
    worst = 0.0
    for resource in resources:
        deviation = np.abs(
            teleportation_circuit_channel(resource).choi
            - teleportation_channel(resource).choi
        ).max()
        worst = max(worst, deviation)
    elapsed = time.perf_counter() - start
    report("5 circuit vs analytic teleportation", worst <= CHOI_TOL and elapsed < 5.0)


def test_criterion_6_error_sweep_reproduction(acceptance_sweep):
    """Desk-scale sweep: error ratio, log-log slope band, strict f ordering."""
    from conftest import ACCEPTANCE_SWEEP_CONFIG as config

    records, elapsed = acceptance_sweep
    by_cell = {(r.f, r.shots): r.avg_error for r in records}

    ratio = by_cell[(0.5, 5000)] / by_cell[(1.0, 5000)]
    ratio_ok = 2.0 <= ratio <= 4.5

    slopes_ok = True
    for f in config.f_values:
        shots = list(config.shot_grid)
        errors = [by_cell[(f, s)] for s in shots]
        slope = loglog_slope(shots, errors)
        slopes_ok &= -0.65 <= slope <= -0.35

    ordering_ok = all(
        by_cell[(0.5, s)] > by_cell[(1.0, s)]
        for s in config.shot_grid
        if s >= 1000
    )
    print(
        f"  ratio@5000={ratio:.3f}, runtime={elapsed:.1f}s, "
        f"slopes within band: {slopes_ok}, ordering: {ordering_ok}"
    )
    report(
        "6 shot-budget sweep reproduction",
        ratio_ok and slopes_ok and ordering_ok and elapsed < 180.0,
    )


def test_criterion_7_estimator_unbiasedness():
    """Mean of 500 repeated estimates within 4 standard errors of exact."""
    gen = RandomSource(8675309, 0).generator()
    reps = 500
    shots = 2000
    ok = True
    preparations = [haar_random_unitary(gen) for _ in range(20)]
    for k in (0.0, 0.5, 1.0):
        qpd = nme_wire_cut(k)
        for w in preparations:
            exact = exact_expectation(w, Z)
            draws = np.array(
                [estimate_cut_expectation(qpd, w, Z, shots, gen) for _ in range(reps)]
            )
            se = draws.std(ddof=1) / math.sqrt(reps)
            ok &= abs(draws.mean() - exact) <= max(4.0 * se, 1e-12)
    report("7 estimator unbiasedness", bool(ok))


def test_criterion_8_resource_consumption():
    """Empirical teleportation mass within 1% of 2(k^2+1)/(k+1)^2."""
    total = 1_000_000
    ok = True
    for i, k in enumerate((0.25, 0.5, 1.0)):
        qpd = nme_wire_cut(k)
        gen = RandomSource(424242, i).generator()
        draws = gen.multinomial(total, qpd.probabilities)
        flagged = sum(int(n) for n, t in zip(draws, qpd.terms) if t.consumes_resource)
        empirical = flagged / total * qpd.kappa
        target = 2.0 * (k * k + 1.0) / (k + 1.0) ** 2
        ok &= abs(empirical - target) <= 0.01 * target
    report("8 resource consumption rate", bool(ok))


def test_criterion_9_experiment_determinism(tmp_path):
    """Fixed seed produces byte-identical CSV across two CLI runs."""
    args = [
        "experiment",
        "--n-states", "25",
        "--shots", "250", "500", "1000",
        "--f", "0.5", "0.9", "1.0",
        "--seed", "1234",
    ]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    code_a = cli_main(args + ["--out", str(first)])
    code_b = cli_main(args + ["--out", str(second)])
    same = first.read_bytes() == second.read_bytes()
    report("9 byte-identical CSV", code_a == 0 and code_b == 0 and same)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
