"""The four benchmark workloads and the output checks that feed `failed`.

Every workload drives nmecut's public API only.  Construction is the
workload's set-up (inputs and decompositions); `batch(i, clock, checks)` runs
one timed unit of work, times only the nmecut calls through `clock`, and then
checks the outputs outside the timed region.  Batch `i` is a pure function of
(seed, i), so re-running a batch reproduces its inputs exactly.

Run.py's default seeds are the ones the acceptance suite pins: the sweep
seed 20240901 (criterion 6) and the estimator-loop seed 8675309
(criterion 7).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import nmecut
import nmecut.cli
import nmecut.errors
import nmecut.experiment
import nmecut.linalg

CHOI_TOL = 1e-10
CLOSED_FORM_TOL = 1e-12
RATIO_RANGE = (2.0, 4.5)  # f = 0.5 over f = 1.0 error at the top budget
CSV_HEADER = ["f", "k", "shots", "avg_error", "std_error", "n_states"]


@dataclass
class Checks:
    """Counts output checks; keeps the first failure messages for the report."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


class Clock:
    """Times nmecut calls with `now`; with a tracer, spans are recorded only while timing."""

    def __init__(self, now=time.perf_counter, tracer=None) -> None:
        self.now = now
        self.tracer = tracer

    @contextlib.contextmanager
    def timed(self):
        lap = Lap()
        if self.tracer is not None:
            self.tracer.enabled = True
        start = self.now()
        try:
            yield lap
        finally:
            lap.seconds = self.now() - start
            if self.tracer is not None:
                self.tracer.enabled = False


@dataclass
class Lap:
    seconds: float = 0.0


@dataclass
class Batch:
    """One timed unit: work items done, nmecut time spent, per-call latencies."""

    items: int
    seconds: float
    calls: list[float]


class CliSweep:
    """In-process `nmecut experiment` then `nmecut plot --assert`, via cli.main.

    Batch i sweeps with seed + i, so no two timed batches share inputs.  The
    traced run repeats batch 0, and every repeat must write the same CSV bytes.
    """

    item = "trial"
    trace_batches = 1

    def __init__(self, seed: int, workdir: str, n_states: int, extra: list[str]) -> None:
        self.seed = seed
        self.workdir = workdir
        self.n_states = n_states
        self.extra = extra
        self.csv_bytes: dict[int, bytes] = {}

    def batch(self, index: int, clock: Clock, checks: Checks) -> Batch:
        csv_path = os.path.join(self.workdir, f"sweep{index}.csv")
        svg_path = os.path.join(self.workdir, f"sweep{index}.svg")
        argv = [
            "experiment",
            "--seed", str(self.seed + index),
            "--n-states", str(self.n_states),
            "--out", csv_path,
            *self.extra,
        ]
        out = io.StringIO()
        with clock.timed() as lap, contextlib.redirect_stdout(out):
            code_experiment = nmecut.cli.main(argv)
            code_plot = nmecut.cli.main(["plot", "--in", csv_path, "--out", svg_path, "--assert"])
        label = f"seed {self.seed + index}"
        checks.check(code_experiment == 0, f"{label}: experiment exit {code_experiment}")
        checks.check(code_plot == 0, f"{label}: plot --assert exit {code_plot}")
        trials = self._check_csv(csv_path, label, index, checks)
        return Batch(items=trials, seconds=lap.seconds, calls=[lap.seconds])

    def _check_csv(self, path: str, label: str, index: int, checks: Checks) -> int:
        """Checks one sweep's CSV; returns its trial count (0 if unreadable)."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
            header, *rows = csv.reader(io.StringIO(data.decode("utf-8")))
            cells = {(float(r[0]), int(r[2])): (float(r[3]), int(r[5])) for r in rows}
            top = max(shots for _, shots in cells)
            failures = nmecut.experiment.check_records(nmecut.experiment.read_csv(path))
        except (OSError, ValueError, IndexError, nmecut.errors.NmecutError) as exc:
            checks.check(False, f"{label}: unreadable CSV: {exc}")
            return 0
        if index in self.csv_bytes:
            checks.check(data == self.csv_bytes[index], f"{label}: CSV differs between two passes")
        self.csv_bytes[index] = data
        checks.check(header == CSV_HEADER, f"{label}: CSV header {header}")
        checks.check(len(cells) == len(rows), f"{label}: {len(rows)} rows but {len(cells)} distinct cells")
        for (f, shots), (avg_error, _) in cells.items():
            checks.check(
                math.isfinite(avg_error) and avg_error > 0.0,
                f"{label}: avg_error {avg_error} at f={f:g}, shots={shots}",
            )
        # check_records skips NaN series, hence the finite/positive check above.
        checks.check(not failures, f"{label}: check_records: {failures}")
        low, high = cells.get((0.5, top)), cells.get((1.0, top))
        ratio = low[0] / high[0] if low and high else float("nan")
        checks.check(
            RATIO_RANGE[0] <= ratio <= RATIO_RANGE[1],
            f"{label}: error ratio f=0.5/f=1.0 at {top} shots = {ratio:.4f}",
        )
        return sum(n for _, n in cells.values())


def cli_sweep(seed: int, workdir: str, small: bool) -> CliSweep:
    """Default grid (6 f x 20 budgets), stratified and paired: the paper's figure."""
    if small:
        return CliSweep(seed, workdir, 100, ["--shots", "1000", "2500", "5000"])
    return CliSweep(seed, workdir, 200, [])


def unpaired_multinomial(seed: int, workdir: str, small: bool) -> CliSweep:
    """Other estimator branch, 10x the states over two budgets: same trial count."""
    n_states = 300 if small else 2000
    return CliSweep(
        seed, workdir, n_states, ["--mode", "multinomial", "--unpaired", "--shots", "1000", "5000"]
    )


class EstimateLoop:
    """Criterion-7 loop: R repeated estimates per (k, preparation) on one generator.

    Batch i is one (k, prep) group; k cycles fastest so every run covers all
    three decompositions.  Check: the group mean lies within 4 standard
    errors of the exact expectation.
    """

    item = "trial"
    trace_batches = 3
    KS = (0.0, 0.5, 1.0)
    N_PREPS = 20
    SHOTS = 2000

    def __init__(self, seed: int, workdir: str, small: bool) -> None:
        self.reps = 200 if small else 2000
        self.generator = nmecut.RandomSource(seed, 0).generator()
        self.preps = [nmecut.haar_random_unitary(self.generator) for _ in range(self.N_PREPS)]
        self.observable = nmecut.linalg.Z
        self.decompositions = [nmecut.nme_wire_cut(k) for k in self.KS]
        self.exact = [nmecut.exact_expectation(w, self.observable) for w in self.preps]

    def batch(self, index: int, clock: Clock, checks: Checks) -> Batch:
        ki, pi = index % len(self.KS), (index // len(self.KS)) % self.N_PREPS
        qpd, prep, gen, obs = self.decompositions[ki], self.preps[pi], self.generator, self.observable
        draws = np.empty(self.reps)
        latencies = [0.0] * self.reps
        estimate = nmecut.estimate_cut_expectation
        clock_now = clock.now
        with clock.timed() as lap:
            for r in range(self.reps):
                start = clock_now()
                draws[r] = estimate(qpd, prep, obs, self.SHOTS, gen)
                latencies[r] = clock_now() - start
        se = draws.std(ddof=1) / math.sqrt(self.reps)
        error = abs(draws.mean() - self.exact[pi])
        checks.check(
            error <= max(4.0 * se, 1e-12),
            f"k={self.KS[ki]}, prep {pi}: |mean - exact| = {error:.3e} > 4 SE = {4.0 * se:.3e}",
        )
        return Batch(items=self.reps, seconds=lap.seconds, calls=latencies)


class ExactOracle:
    """Exact algebra on a dense k grid plus the entanglement-free cut; no sampling.

    Batch i verifies k = (j + u_i)/N for j < N (u_i uniform from the seed),
    the endpoints k = 0 and k = 1, and harada_wire_cut.  A verified cut has
    Choi reconstruction of the identity <= 1e-10, circuit vs analytic
    teleportation <= 1e-10, and kappa and f within 1e-12 of their closed forms.
    """

    item = "cut"
    trace_batches = 10

    def __init__(self, seed: int, workdir: str, small: bool) -> None:
        self.seed = seed
        self.n_grid = 20 if small else 100
        self.identity = nmecut.unitary_channel(nmecut.linalg.I2).choi

    def batch(self, index: int, clock: Clock, checks: Checks) -> Batch:
        offset = float(np.random.default_rng([self.seed, index]).random())
        ks = [(j + offset) / self.n_grid for j in range(self.n_grid)] + [0.0, 1.0]
        latencies = []
        for k in ks:
            with clock.timed() as lap:
                qpd = nmecut.nme_wire_cut(k)
                reconstructed = nmecut.reconstruct_channel(qpd)
                psi = nmecut.nme_state(k)
                rho = psi.density()
                circuit = nmecut.teleportation_circuit_channel(rho).choi
                analytic = nmecut.teleportation_channel(rho).choi
                f = nmecut.overlap_f_pure(psi)
            latencies.append(lap.seconds)
            self._check_choi(reconstructed, f"k={k!r}", checks)
            deviation = float(np.abs(circuit - analytic).max())
            checks.check(deviation <= CHOI_TOL, f"k={k!r}: circuit vs analytic {deviation:.3e}")
            kappa_closed = 4.0 * (k * k + 1.0) / (k + 1.0) ** 2 - 1.0
            checks.check(
                abs(qpd.kappa - kappa_closed) <= CLOSED_FORM_TOL,
                f"k={k!r}: kappa {qpd.kappa!r} vs closed form {kappa_closed!r}",
            )
            f_closed = (k + 1.0) ** 2 / (2.0 * (k * k + 1.0))
            checks.check(
                abs(f - f_closed) <= CLOSED_FORM_TOL, f"k={k!r}: f {f!r} vs closed form {f_closed!r}"
            )
        with clock.timed() as lap:
            qpd = nmecut.harada_wire_cut()
            reconstructed = nmecut.reconstruct_channel(qpd)
        latencies.append(lap.seconds)
        self._check_choi(reconstructed, "harada", checks)
        checks.check(abs(qpd.kappa - 3.0) <= CLOSED_FORM_TOL, f"harada: kappa {qpd.kappa!r} != 3")
        return Batch(items=len(latencies), seconds=sum(latencies), calls=latencies)

    def _check_choi(self, reconstructed, label: str, checks: Checks) -> None:
        deviation = float(np.abs(reconstructed - self.identity).max())
        checks.check(deviation <= CHOI_TOL, f"{label}: Choi deviation {deviation:.3e}")


WORKLOADS = {
    "cli_sweep": cli_sweep,
    "unpaired_multinomial": unpaired_multinomial,
    "estimate_loop": EstimateLoop,
    "exact_oracle": ExactOracle,
}
