"""Shot-budget sweep over entanglement degrees, with CSV and SVG output.

For each requested overlap f the sweep draws Haar-random single-qubit
preparations W, runs the teleportation-based wire cut of the matching k at
every shot budget, and aggregates the absolute error

    eps = |<Z>_sampled - <0|W^dag Z W|0>|

over all random states.  By default the same W sequence (common random
numbers) is reused across every (f, shots) cell so that series are paired;
independent sequences per f are available via `paired=False`.  All
randomness derives from (seed, stream_id) Philox keys, so a fixed
configuration reproduces byte-identical CSV output.
"""

from __future__ import annotations

import contextlib
import csv
import math
import numbers
import os
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, fields
from typing import Sequence, TextIO

import numpy as np

from .errors import InvalidParameterError, NmecutError, _shown
from .estimator import MODES, RandomSource, RngLike, as_generator
from .estimator import _budget, _draw_estimate, _expectation, _integer
from .estimator import _plus_probabilities, _pm_one_observable, _rekey
from .linalg import Z
from .qpd import nme_wire_cut
from .states import checked_overlap, k_from_f

DEFAULT_F_VALUES = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
DEFAULT_SHOT_GRID = tuple(range(250, 5001, 250))
DEFAULT_N_STATES = 1000
DEFAULT_SEED = 12345

CSV_HEADER = ("f", "k", "shots", "avg_error", "std_error", "n_states")

# Acceptance band for the log-log slope of avg_error vs shots (theory: -0.5).
SLOPE_RANGE = (-0.65, -0.35)
# Shot threshold above which the f-ordering must hold strictly.
ORDERING_MIN_SHOTS = 1000

# Stream-id roles; the sampling role is disjoint from the W roles by
# construction so preparation and shot noise never share a stream.
_W_ROLE = 1 << 40
_W_UNPAIRED_ROLE = 1 << 41
_SAMPLE_ROLE = 1 << 62
# Index slots packed below the role bits; ExperimentConfig bounds every index
# to its slot, so distinct (role, indices) give distinct stream ids.
_STATE_BITS = 24
_SHOT_BITS = 16
_F_BITS = 16


class CsvFormatError(NmecutError):
    """CSV file does not match the sweep schema."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep parameters, checked on construction; defaults mirror the desk-scale study."""

    f_values: tuple[float, ...] = DEFAULT_F_VALUES
    shot_grid: tuple[int, ...] = DEFAULT_SHOT_GRID
    n_states: int = DEFAULT_N_STATES
    seed: int = DEFAULT_SEED
    mode: str = "stratified"
    paired: bool = True

    def __post_init__(self) -> None:
        # Stored as plain float and int, so a numpy or JSON-integer f writes the CSV text `--f` does.
        for name, bits, kind, noun, cast in (
            ("f_values", _F_BITS, numbers.Real, "numbers", checked_overlap),
            ("shot_grid", _SHOT_BITS, numbers.Integral, "integers", int),
        ):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise InvalidParameterError(f"{name} must be a list, got {_shown(values, repr)}")
            if not 1 <= len(values) <= 1 << bits:
                raise InvalidParameterError(f"{name} must hold 1 to 2**{bits} entries, got {len(values)}")
            for value in values:
                if isinstance(value, bool) or not isinstance(value, kind):  # a bool is not a number here
                    raise InvalidParameterError(f"{name} must hold {noun}, got {_shown(value, repr)}")
            object.__setattr__(self, name, tuple(cast(value) for value in values))
        for name in ("n_states", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not isinstance(self.paired, bool):
            raise InvalidParameterError(f"paired must be true or false, got {self.paired!r}")
        if any(b <= a for a, b in zip((0,) + self.shot_grid, self.shot_grid)):
            raise InvalidParameterError("shot_grid must be positive and strictly increasing")
        if not 1 <= self.n_states <= 1 << _STATE_BITS:
            raise InvalidParameterError(f"n_states must lie in [1, 2**{_STATE_BITS}], got {_shown(self.n_states)}")
        if self.mode not in MODES:
            raise InvalidParameterError(f"unknown mode {self.mode!r}")
        RandomSource(self.seed)  # rejects seeds outside [0, 2**64)

    @classmethod
    def from_mapping(cls, values: object) -> ExperimentConfig:
        """Config from a JSON object keyed by field names; absent fields keep their defaults."""
        names = [f.name for f in fields(cls)]
        if not isinstance(values, Mapping):
            raise InvalidParameterError(
                f"config must be an object keyed by {', '.join(names)}, not {type(values).__name__}"
            )
        unknown = [key for key in values if key not in names]
        if unknown:
            raise InvalidParameterError(f"unknown config key {unknown[0]!r}; the keys are {', '.join(names)}")
        return cls(**values)


@dataclass(frozen=True)
class ExperimentRecord:
    """Aggregated error for one (f, shots) cell of the sweep."""

    f: float
    k: float
    shots: int
    avg_error: float
    std_error: float
    n_states: int


def haar_random_unitary(rng: RngLike) -> np.ndarray:
    """Haar-distributed 2x2 unitary via QR of a complex Gaussian matrix."""
    return _haar_unitaries(as_generator(rng).standard_normal((1, 2, 2, 2)))[0]


def _haar_unitaries(normals: np.ndarray) -> np.ndarray:
    """Haar unitaries from (n, 2, 2, 2) standard normals by one stacked QR.

    normals[i, 0] and normals[i, 1] are the real and imaginary parts of the
    i-th unit-variance complex Gaussian matrix.  Rephasing each R diagonal to
    unit modulus removes the bare QR's bias.
    """
    q, r = np.linalg.qr((normals[:, 0] + 1j * normals[:, 1]) / math.sqrt(2.0))
    diagonal = np.diagonal(r, axis1=1, axis2=2)
    return q * (diagonal / np.abs(diagonal))[:, None, :]


def _w_stream(config: ExperimentConfig, f_index: int, state_index: int) -> int:
    if config.paired:
        return _W_ROLE + state_index
    return _W_UNPAIRED_ROLE + (f_index << _STATE_BITS) + state_index


def _sample_stream(f_index: int, shot_index: int, state_index: int) -> int:
    return _SAMPLE_ROLE + (f_index << (_SHOT_BITS + _STATE_BITS)) + (shot_index << _STATE_BITS) + state_index


def run_sweep(config: ExperimentConfig) -> list[ExperimentRecord]:
    """One record per (f, shots) pair, averaged over `n_states` random states.

    Each trial's error is |estimate_cut_expectation - exact_expectation| on
    its own (seed, stream) keys.  One generator is re-keyed for every stream;
    each state stream makes one standard-normal draw into an (n, 2, 2, 2)
    array, and the states of an f share one Haar QR and one probability table.
    """
    gen = RandomSource(config.seed).generator()
    obs = _pm_one_observable(Z)

    def preparations(fi: int) -> tuple[np.ndarray, list[float]]:
        """W|0> rows as an (n, 2) stack, and <0|W^dag Z W|0> for every state of the f-index `fi`."""
        normals = np.empty((config.n_states, 2, 2, 2))
        for si in range(config.n_states):
            _rekey(gen, config.seed, _w_stream(config, fi, si)).standard_normal(out=normals[si])
        columns = _haar_unitaries(normals)[:, :, 0]
        return columns, [_expectation(column, obs) for column in columns]

    # Paired preparations use the same streams for every f.
    shared = preparations(0) if config.paired else None
    records: list[ExperimentRecord] = []
    for fi, f in enumerate(config.f_values):
        k = k_from_f(f)
        decomposition = nme_wire_cut(k)
        columns, exact = shared if shared is not None else preparations(fi)
        p_plus = _plus_probabilities(decomposition, columns, obs).tolist()
        for ji, shots in enumerate(config.shot_grid):
            budget = _budget(decomposition, shots, config.mode)
            errors = np.empty(config.n_states)
            for si, (value, probs) in enumerate(zip(exact, p_plus)):
                _rekey(gen, config.seed, _sample_stream(fi, ji, si))
                errors[si] = abs(_draw_estimate(budget, probs, gen) - value)
            std_error = (
                float(errors.std(ddof=1) / math.sqrt(config.n_states))
                if config.n_states > 1
                else 0.0
            )
            records.append(
                ExperimentRecord(
                    f=f,
                    k=k,
                    shots=shots,
                    avg_error=float(errors.mean()),
                    std_error=std_error,
                    n_states=config.n_states,
                )
            )
    return records


@contextlib.contextmanager
def _replacing(path: str) -> Iterator[TextIO]:
    """Text handle on a temporary file beside `path` that replaces `path` on success.

    A write that fails midway removes the temporary file and leaves `path` as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_csv(records: Sequence[ExperimentRecord], path: str) -> None:
    """Write records in the sweep schema; floats use shortest round-trip form."""
    with _replacing(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow(
                [repr(r.f), repr(r.k), r.shots, repr(r.avg_error), repr(r.std_error), r.n_states]
            )


def read_csv(path: str) -> list[ExperimentRecord]:
    """Parse a sweep CSV; raises CsvFormatError on schema violations."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise CsvFormatError(f"{path}: expected header {','.join(CSV_HEADER)}")
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(CSV_HEADER):
            raise CsvFormatError(f"{path}:{lineno}: expected {len(CSV_HEADER)} fields")
        try:
            records.append(
                ExperimentRecord(
                    f=float(row[0]),
                    k=float(row[1]),
                    shots=int(row[2]),
                    avg_error=float(row[3]),
                    std_error=float(row[4]),
                    n_states=int(row[5]),
                )
            )
        except ValueError as exc:
            raise CsvFormatError(f"{path}:{lineno}: {exc}") from exc
    return records


def _series_by_f(records: Sequence[ExperimentRecord]) -> dict[float, list[ExperimentRecord]]:
    series: dict[float, list[ExperimentRecord]] = {}
    for r in records:
        series.setdefault(r.f, []).append(r)
    for rows in series.values():
        rows.sort(key=lambda r: r.shots)
    return series


def loglog_slope(shots: Sequence[int], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(shots)."""
    xs = np.log(np.asarray(shots, dtype=float))
    ys = np.log(np.asarray(errors, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def check_records(records: Sequence[ExperimentRecord]) -> list[str]:
    """Validate the sweep invariants; returns one message per failure.

    Every avg_error cell must be positive and finite.  Checks the per-f
    log-log slope band over those cells and, when at least two f values are
    present, strict error ordering between the least and most entangled
    series at every budget of ORDERING_MIN_SHOTS shots or more.
    """
    failures: list[str] = []
    series = _series_by_f(records)
    for f, rows in sorted(series.items()):
        points = []
        for r in rows:
            if math.isfinite(r.avg_error) and r.avg_error > 0:
                points.append((r.shots, r.avg_error))
            else:
                failures.append(
                    f"f={f:g}, shots={r.shots}: avg_error {r.avg_error!r} is not a positive finite number"
                )
        if len(points) < 2:
            continue
        slope = loglog_slope([p[0] for p in points], [p[1] for p in points])
        if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
            failures.append(
                f"f={f:g}: log-log slope {slope:.4f} outside [{SLOPE_RANGE[0]}, {SLOPE_RANGE[1]}]"
            )
    if len(series) >= 2:
        low_f, high_f = min(series), max(series)
        low = {r.shots: r.avg_error for r in series[low_f]}
        high = {r.shots: r.avg_error for r in series[high_f]}
        for shots in sorted(set(low) & set(high)):
            if shots < ORDERING_MIN_SHOTS:
                continue
            if not low[shots] > high[shots]:
                failures.append(
                    f"shots={shots}: avg_error(f={low_f:g}) = {low[shots]:.6g} "
                    f"not above avg_error(f={high_f:g}) = {high[shots]:.6g}"
                )
    return failures


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")

_SVG_WIDTH = 720
_SVG_HEIGHT = 480
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 150
_MARGIN_TOP = 30
_MARGIN_BOTTOM = 55


def render_svg(records: Sequence[ExperimentRecord], path: str) -> None:
    """Log-y line chart of avg_error vs shots, one series per f value.

    Points with nonpositive error cannot be placed on the log axis and are
    skipped; a series reduced to a single point is drawn as a marker only.
    """
    if not records:
        raise InvalidParameterError("cannot render an empty record list")
    series = _series_by_f(records)
    points = {
        f: [(r.shots, r.avg_error) for r in rows if r.avg_error > 0]
        for f, rows in series.items()
    }
    all_points = [p for pts in points.values() for p in pts]

    x_min = min(r.shots for r in records)
    x_max = max(r.shots for r in records)
    if x_max == x_min:
        x_min, x_max = x_min - 1, x_max + 1
    if all_points:
        y_lo = math.floor(math.log10(min(p[1] for p in all_points)))
        y_hi = math.ceil(math.log10(max(p[1] for p in all_points)))
        if y_hi == y_lo:
            y_hi += 1
    else:
        y_lo, y_hi = -2, 0

    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(shots: float) -> float:
        return _MARGIN_LEFT + plot_w * (shots - x_min) / (x_max - x_min)

    def sy(error: float) -> float:
        frac = (math.log10(error) - y_lo) / (y_hi - y_lo)
        return _MARGIN_TOP + plot_h * (1.0 - frac)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>',
    ]

    # y-axis: one tick per decade.
    for decade in range(y_lo, y_hi + 1):
        y = sy(10.0 ** decade)
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 4}" y1="{y:.2f}" x2="{_MARGIN_LEFT}" y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.2f}" font-size="12" text-anchor="end" '
            f'font-family="sans-serif">1e{decade}</text>'
        )
    # x-axis: at most 8 evenly spaced ticks drawn from the shot grid.
    xticks = sorted({r.shots for r in records})
    step = max(1, math.ceil(len(xticks) / 8))
    for shots in xticks[::step]:
        x = sx(shots)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_TOP + plot_h}" x2="{x:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MARGIN_TOP + plot_h + 18}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{shots}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" y="{_SVG_HEIGHT - 12}" font-size="13" '
        'text-anchor="middle" font-family="sans-serif">total shots</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.2f}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.2f})">'
        "average error</text>"
    )

    for idx, f in enumerate(sorted(points)):
        pts = points[f]
        color = _PALETTE[idx % len(_PALETTE)]
        if len(pts) >= 2:
            coords = " ".join(f"{sx(s):.2f},{sy(e):.2f}" for s, e in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for s, e in pts:
            parts.append(f'<circle cx="{sx(s):.2f}" cy="{sy(e):.2f}" r="2.5" fill="{color}"/>')
        legend_y = _MARGIN_TOP + 16 + 18 * idx
        parts.append(
            f'<rect x="{_SVG_WIDTH - _MARGIN_RIGHT + 14}" y="{legend_y - 9}" width="12" '
            f'height="12" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_SVG_WIDTH - _MARGIN_RIGHT + 32}" y="{legend_y + 2}" font-size="12" '
            f'font-family="sans-serif">f = {f:g}</text>'
        )

    parts.append("</svg>")
    with _replacing(path) as handle:
        handle.write("\n".join(parts) + "\n")
