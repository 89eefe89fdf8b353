"""A clock that runs at the speed of a nominal host.

The benchmark shares a small virtual machine with other tenants, and the
speed of its CPU drifts by tens of percent over seconds to minutes: the same
loop of nmecut calls runs 30 % slower in one minute than in the next.  That
drift moves every wall-clock figure together, so it cannot be averaged away
within a ten-second run.  `NominalClock` measures it and takes it out.

Every `PERIOD_S` of wall time a SIGALRM handler runs `reference_slice`, a
fixed mix of interpreter work and tiny NumPy calls like nmecut's own, and
times it.  The wall time from one tick to the next is scaled by
NOMINAL_SLICE_S / (slice time measured at the first tick), and the slices
themselves are left out.  `now()` therefore advances by the seconds the same
work would take on a host that runs the slice in exactly NOMINAL_SLICE_S.
A change to nmecut changes its work, not the slice, so ratios between two
commits keep their meaning; the slice uses nothing from nmecut.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.025
# The slice's duration on the nominal host: about its time on a quiet
# 2.1 GHz core with Python 3.11 and NumPy 2.4.
NOMINAL_SLICE_S = 0.001

_A = np.array([[0.8, -0.6], [0.6, 0.8]], dtype=complex)
_B = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_GENERATOR = np.random.Generator(np.random.Philox(key=12345))


@dataclass(frozen=True)
class _Operator:
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise ValueError("non-finite")
        object.__setattr__(self, "matrix", m)


def reference_slice() -> None:
    """Fixed work shaped like nmecut's hot path, about 1 ms on the nominal host.

    Small complex matmuls behind a validating frozen dataclass, reductions,
    eigvalsh, a trace and a binomial draw, all driven from Python.
    """
    a, b = _A, _B
    for _ in range(16):
        rho = _Operator(a @ b @ a.conj().T)
        float(np.abs(rho.matrix - rho.matrix.conj().T).max())
        np.linalg.eigvalsh(rho.matrix)
        p = 0.5 * (1.0 + float(np.real(np.trace(b @ rho.matrix))))
        int(_GENERATOR.binomial(100, min(max(p, 0.0), 1.0)))


class NominalClock:
    """Context manager; `now()` is only meaningful inside it.

    The interval between two ticks is scaled by the speed measured at its
    first tick, so `now()` is continuous and never runs backwards.
    """

    def __init__(self) -> None:
        self.slices: list[float] = []
        self._nominal = 0.0  # nominal seconds up to the end of the last tick
        self._last = 0.0  # wall time at the end of the last tick
        self._scale = 1.0  # nominal seconds per wall second since the last tick
        self._busy = False
        self._version = 0  # bumped by every tick, so now() can detect one
        self._previous_handler = None

    def __enter__(self) -> "NominalClock":
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        self._last = time.perf_counter()
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self._nominal += (start - self._last) * self._scale
        reference_slice()
        end = time.perf_counter()
        self.slices.append(end - start)
        # Median of the last three slices: one interrupted slice moves nothing.
        self._scale = NOMINAL_SLICE_S / statistics.median(self.slices[-3:])
        self._last = end
        self._version += 1
        self._busy = False

    def now(self) -> float:
        while True:  # retry if a tick ran while the three fields were read
            version = self._version
            value = self._nominal + (time.perf_counter() - self._last) * self._scale
            if version == self._version:
                return value

    def speed(self) -> float:
        """Median host speed over the ticks so far, as nominal / measured."""
        return NOMINAL_SLICE_S / statistics.median(self.slices)


def measure_speed(slices: int = 15) -> float:
    """Host speed now, from the median of a few back-to-back slices."""
    times = []
    for _ in range(slices):
        start = time.perf_counter()
        reference_slice()
        times.append(time.perf_counter() - start)
    return NOMINAL_SLICE_S / statistics.median(times)
