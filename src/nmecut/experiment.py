"""Shot-budget sweep over entanglement degrees, with CSV and SVG output.

For each requested overlap f the sweep draws Haar-random single-qubit
preparations W, runs the teleportation-based wire cut of the matching k at
every shot budget, and aggregates the absolute error

    eps = |<Z>_sampled - <0|W^dag Z W|0>|

over all random states.  By default the same W sequence (common random
numbers) is reused across every (f, shots) cell so that series are paired;
independent sequences per f are available via `paired=False`.  All
randomness derives from (seed, stream_id) Philox keys (see STREAM_LAYOUT),
so a fixed configuration reproduces byte-identical CSV output.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, fields
from typing import Sequence, TextIO

import numpy as np

from .errors import InvalidParameterError, NmecutError, _shown
from .estimator import MAX_SHOTS, MODES, RandomSource, RngLike, as_generator
from .estimator import _budget, _draw_cell, _plus_probabilities, _rekey
from .linalg import Z, _integer, _one_of, _require_real, as_matrix
from .qpd import nme_wire_cut
from .states import checked_k, checked_overlap, k_from_f

DEFAULT_F_VALUES = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
DEFAULT_SHOT_GRID = tuple(range(250, 5001, 250))
DEFAULT_N_STATES = 1000
DEFAULT_SEED = 12345

CSV_HEADER = ("f", "k", "shots", "avg_error", "std_error", "n_states")

# Acceptance band for the log-log slope of avg_error vs shots (theory: -0.5).
SLOPE_RANGE = (-0.65, -0.35)
# Shot threshold above which the f-ordering must hold strictly.
ORDERING_MIN_SHOTS = 1000

# Version of the sweep's streams: one per set of preparations, _W_ROLE when paired and _W_UNPAIRED_ROLE + f index
# when not, and one per (f, shots) cell, _SAMPLE_ROLE + (f index << _INDEX_BITS) + shot index, disjoint for configs
# in range.  Layout 3 keeps layout 2's keys; only multinomial draws differ (one binomial per estimate).
STREAM_LAYOUT = 3
_W_ROLE = 1 << 40
_W_UNPAIRED_ROLE = 1 << 41
_SAMPLE_ROLE = 1 << 62
_INDEX_BITS = 16
# Memory cap for a 1 GiB budget: peak RSS grows <= 134 B per state (getrusage at 2**18 states, both modes, paired
# and unpaired), so 2**22 states need about 0.6 GB with the interpreter's 37 MB; 2**23 would need <= 123 B per state.
MAX_STATES = 1 << 22


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
        for name in ("f_values", "shot_grid"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise InvalidParameterError(f"{name} must be a list, got {_shown(values, repr)}")
            if not 1 <= len(values) <= 1 << _INDEX_BITS:
                raise InvalidParameterError(f"{name} must hold 1 to 2**{_INDEX_BITS} entries, got {len(values)}")
        object.__setattr__(self, "f_values", tuple(checked_overlap(_require_real("f_values", f)) for f in self.f_values))
        shots = tuple(_integer("shot_grid", n, lo=1, hi=MAX_SHOTS) for n in self.shot_grid)
        if any(b <= a for a, b in zip(shots, shots[1:])):
            raise InvalidParameterError("shot_grid must be strictly increasing")
        object.__setattr__(self, "shot_grid", shots)
        object.__setattr__(self, "n_states", _integer("n_states", self.n_states, lo=1, hi=MAX_STATES))
        object.__setattr__(self, "seed", RandomSource(self.seed).seed)
        if not isinstance(self.paired, bool):
            raise InvalidParameterError(f"paired must be true or false, got {self.paired!r}")
        _one_of("mode", self.mode, MODES)

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
    """Haar-distributed 2x2 unitary via QR of a complex Gaussian matrix.

    Rephasing R's diagonal to unit modulus removes the bare QR's bias.
    """
    real, imag = as_generator(rng).standard_normal((2, 2, 2))
    q, r = np.linalg.qr((real + 1j * imag) / math.sqrt(2.0))
    diagonal = np.diag(r)
    return q * (diagonal / np.abs(diagonal))


def _haar_columns(gen: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2) rows psi = W|0> of Haar-random W from one normal draw, and <0|W^dag Z W|0> for each.

    W|0> is uniform on the unit sphere of C^2, as is a normalized complex Gaussian 2-vector: no QR.
    """
    normals = gen.standard_normal((n, 2, 2))
    columns = normals[:, 0] + 1j * normals[:, 1]
    columns /= np.linalg.norm(columns, axis=1, keepdims=True)
    return columns, np.abs(columns[:, 0]) ** 2 - np.abs(columns[:, 1]) ** 2


def run_sweep(config: ExperimentConfig) -> list[ExperimentRecord]:
    """One record per (f, shots) pair, averaged over `n_states` random states.

    A trial's error is |estimate - <0|W^dag Z W|0>| for the cut estimate of <Z>.  Each set of
    preparations is one normal draw and each f one (n, terms) probability table; each cell
    draws all its estimates in one `_draw_cell` call, on its own stream of STREAM_LAYOUT.
    """
    gen = RandomSource(config.seed).generator()
    records: list[ExperimentRecord] = []
    for fi, f in enumerate(config.f_values):
        if fi == 0 or not config.paired:
            columns = exact = None  # not held while the next set is drawn
            prep_stream = _W_ROLE if config.paired else _W_UNPAIRED_ROLE + fi
            columns, exact = _haar_columns(_rekey(gen, config.seed, prep_stream), config.n_states)
        k = k_from_f(f)
        decomposition = nme_wire_cut(k)
        p_plus = _plus_probabilities(decomposition, columns, Z)
        for ji, shots in enumerate(config.shot_grid):
            _rekey(gen, config.seed, _SAMPLE_ROLE + (fi << _INDEX_BITS) + ji)
            errors = np.abs(_draw_cell(_budget(decomposition, shots, config.mode), p_plus, gen) - exact)
            std_error = float(errors.std(ddof=1) / math.sqrt(config.n_states)) if config.n_states > 1 else 0.0
            records.append(ExperimentRecord(f, k, shots, float(errors.mean()), std_error, config.n_states))
            del errors  # not held while the next cell is drawn
        del p_plus  # not held while the next table is built
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
    """Parse a sweep CSV; CsvFormatError, naming the line, for a row off the schema or one no sweep writes.

    f, k, shots and n_states are checked as a sweep checks them, and a repeated (f, shots) cell is
    an error; avg_error and std_error are read as they are, so that `check_records` flags them.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise CsvFormatError(f"{path}: expected header {','.join(CSV_HEADER)}")
    records: dict[tuple[float, int], ExperimentRecord] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(CSV_HEADER):
            raise CsvFormatError(f"{path}:{lineno}: expected {len(CSV_HEADER)} fields")
        try:
            record = ExperimentRecord(
                f=checked_overlap(float(row[0])),
                k=checked_k(float(row[1])),
                shots=_integer("shots", int(row[2]), lo=1),
                avg_error=float(row[3]),
                std_error=float(row[4]),
                n_states=_integer("n_states", int(row[5]), lo=1),
            )
        except (ValueError, InvalidParameterError) as exc:
            raise CsvFormatError(f"{path}:{lineno}: {exc}") from exc
        cell = (record.f, record.shots)
        if cell in records:
            raise CsvFormatError(f"{path}:{lineno}: repeats the cell f={record.f!r}, shots={record.shots}")
        records[cell] = record
    return list(records.values())


def _series_by_f(records: Sequence[ExperimentRecord]) -> dict[float, list[ExperimentRecord]]:
    series: dict[float, list[ExperimentRecord]] = {}
    for r in records:
        series.setdefault(r.f, []).append(r)
    for rows in series.values():
        rows.sort(key=lambda r: r.shots)
    return series


def loglog_slope(shots: Sequence[int], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(shots)."""
    xs = np.log(as_matrix(shots, ndim=1, name="shots").real)
    ys = np.log(as_matrix(errors, ndim=1, name="errors").real)
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


def _text(x: object, y: object, label: str, size: int = 12, anchor: str | None = "middle", transform: str = "") -> str:
    """One SVG <text> element at (x, y) as the caller formats them; a None anchor leaves text-anchor out."""
    attributes = f'x="{x}" y="{y}" font-size="{size}"'
    if anchor is not None:
        attributes += f' text-anchor="{anchor}"'
    attributes += ' font-family="sans-serif"'
    if transform:
        attributes += f' transform="{transform}"'
    return f"<text {attributes}>{label}</text>"


def render_svg(records: Sequence[ExperimentRecord], path: str) -> None:
    """Log-y line chart of avg_error vs shots, one series per f value.

    Points with a nonpositive or non-finite error cannot be placed on the log
    axis and are skipped; a series reduced to a single point is drawn as a marker only.
    """
    if not records:
        raise InvalidParameterError("cannot render an empty record list")
    series = _series_by_f(records)
    points = {
        f: [(r.shots, r.avg_error) for r in rows if math.isfinite(r.avg_error) and r.avg_error > 0]
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
        parts.append(_text(_MARGIN_LEFT - 8, f"{y + 4:.2f}", f"1e{decade}", anchor="end"))
    # x-axis: at most 8 evenly spaced ticks drawn from the shot grid.
    xticks = sorted({r.shots for r in records})
    step = max(1, math.ceil(len(xticks) / 8))
    for shots in xticks[::step]:
        x = sx(shots)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_TOP + plot_h}" x2="{x:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h + 4}" stroke="black"/>'
        )
        parts.append(_text(f"{x:.2f}", _MARGIN_TOP + plot_h + 18, str(shots)))
    parts.append(_text(f"{_MARGIN_LEFT + plot_w / 2:.2f}", _SVG_HEIGHT - 12, "total shots", size=13))
    y_title = f"{_MARGIN_TOP + plot_h / 2:.2f}"
    parts.append(_text(18, y_title, "average error", size=13, transform=f"rotate(-90 18 {y_title})"))

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
        parts.append(_text(_SVG_WIDTH - _MARGIN_RIGHT + 32, legend_y + 2, f"f = {f:g}", anchor=None))

    parts.append("</svg>")
    with _replacing(path) as handle:
        handle.write("\n".join(parts) + "\n")
