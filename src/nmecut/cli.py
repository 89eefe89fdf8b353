"""Command-line interface.

Subcommands: overhead, decompose, verify, experiment, plot.  Exit codes,
chosen in `main` only: 0 success; 1 failed check, runtime failure or
unwritable output; 2 usage error, including a missing or unreadable
--config or --in.  Numeric output uses 12 significant digits so
golden-output tests stay stable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from functools import cache

import numpy as np

from .channels import unitary_channel
from .errors import InvalidParameterError, NmecutError
from .estimator import MODES
from .experiment import (
    DEFAULT_F_VALUES,
    DEFAULT_N_STATES,
    DEFAULT_SEED,
    CsvFormatError,
    ExperimentConfig,
    check_records,
    read_csv,
    render_svg,
    run_sweep,
    write_csv,
)
from .linalg import I2, _identity
from .qpd import (
    harada_wire_cut,
    nme_wire_cut,
    optimal_overhead,
    optimal_overhead_pure,
    reconstruct_channel,
)

SEED_ENV_VAR = "NMECUT_SEED"
VERIFY_TOL = 1e-10
USAGE_ERROR = 2
CHECK_FAILURE = 1


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def cmd_overhead(args: argparse.Namespace) -> int:
    if (args.k is None) == (args.f is None):
        raise InvalidParameterError("pass exactly one of --k or --f")
    print(_fmt(optimal_overhead_pure(args.k) if args.k is not None else optimal_overhead(args.f)))
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    print(nme_wire_cut(args.k).describe())
    return 0


def _max_deviations(decomposition) -> tuple[float, float]:
    """max |sum c_i Choi(F_i) - Choi(id)| (the Kraus/Choi oracle) and max |sum c_i R_i - I| (the sampling form)."""
    identity = unitary_channel(I2, name="identity").choi
    choi = float(np.abs(reconstruct_channel(decomposition) - identity).max())
    ptm = sum(t.coefficient * r for t, r in zip(decomposition.terms, decomposition.ptm))
    return choi, float(np.abs(ptm - _identity(len(ptm))).max())


def cmd_verify(args: argparse.Namespace) -> int:
    if args.all == (args.k is not None):
        raise InvalidParameterError("pass exactly one of --k or --all")
    cases: list[tuple[str, object]] = []
    if args.all:
        cases.append(("harada", harada_wire_cut()))
        ks = [round(0.1 * i, 10) for i in range(11)]
    else:
        ks = [args.k]
    cases += [(f"k={k:g}", nme_wire_cut(k)) for k in ks]
    worst = 0.0
    for label, decomposition in cases:
        choi, ptm = _max_deviations(decomposition)
        worst = max(worst, choi, ptm)
        status = "ok" if max(choi, ptm) <= VERIFY_TOL else "FAIL"
        print(f"{label:<10} max-choi-deviation {choi:.3e}  max-ptm-deviation {ptm:.3e}  {status}")
    return 0 if worst <= VERIFY_TOL else CHECK_FAILURE


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """File values overlaid by the given flags; $NMECUT_SEED sets the seed only if neither does."""
    values: object = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as handle:
                values = json.load(handle)
        except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON, or an integer over 4300 digits
            raise InvalidParameterError(f"--config {args.config}: {exc}") from exc
    if isinstance(values, dict):  # from_mapping rejects anything else
        for field in fields(ExperimentConfig):
            if getattr(args, field.name) is not None:
                values[field.name] = getattr(args, field.name)
        env_seed = os.environ.get(SEED_ENV_VAR)
        if "seed" not in values and env_seed is not None:
            try:
                values["seed"] = int(env_seed)
            except ValueError:
                raise InvalidParameterError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from None
    return ExperimentConfig.from_mapping(values)


def cmd_experiment(args: argparse.Namespace) -> int:
    records = run_sweep(_experiment_config(args))
    write_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    print(f"{'f':>6} {'k':>14} {'shots':>6} {'avg_error':>14} {'std_error':>14}")
    for r in records:
        print(f"{r.f:>6g} {_fmt(r.k):>14} {r.shots:>6} {_fmt(r.avg_error):>14} {_fmt(r.std_error):>14}")
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    try:
        records = read_csv(args.infile)
    except OSError as exc:
        raise InvalidParameterError(f"--in {args.infile}: {exc}") from exc
    if not records:
        raise CsvFormatError(f"{args.infile}: CSV contains no records")
    render_svg(records, args.out)
    print(f"wrote {args.out}")
    if args.check:
        failures = check_records(records)
        for message in failures:
            print(f"check failed: {message}", file=sys.stderr)
        if failures:
            return CHECK_FAILURE
        print("all checks passed")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `nmecut` parser, built once per process; parsing leaves it unchanged, so every `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="nmecut",
        description="Wire cutting with partially entangled resource states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("overhead", help="print the optimal sampling overhead")
    p.add_argument("--k", type=float, help="entanglement parameter k >= 0")
    p.add_argument("--f", type=float, help="overlap f in [0.5, 1]")
    p.set_defaults(func=cmd_overhead)

    p = sub.add_parser("decompose", help="print the wire-cut decomposition for k")
    p.add_argument("--k", type=float, required=True, help="entanglement parameter k >= 0")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="check identity reconstruction of the decompositions")
    p.add_argument("--k", type=float, help="single k value to verify")
    p.add_argument("--all", action="store_true", help="verify k in {0, 0.1, ..., 1.0} plus the entanglement-free cut")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="run the shot-budget sweep and write CSV")
    # Each dest is an ExperimentConfig field name, so given flags overlay the config file by name.
    p.add_argument(
        "--f", dest="f_values", metavar="F", type=float, nargs="+",
        help=f"overlap values (default {list(DEFAULT_F_VALUES)})",
    )
    p.add_argument(
        "--shots", dest="shot_grid", metavar="SHOTS", type=int, nargs="+",
        help="shot budgets (default 250..5000 step 250)",
    )
    p.add_argument("--n-states", type=int, help=f"random states per cell (default {DEFAULT_N_STATES})")
    p.add_argument(
        "--seed",
        type=int,
        help=f"random seed (default ${SEED_ENV_VAR} if set, else {DEFAULT_SEED})",
    )
    p.add_argument("--mode", choices=MODES, help=f"sampling mode (default {ExperimentConfig.mode})")
    p.add_argument(
        "--unpaired", dest="paired", action="store_false", default=None,
        help="draw independent W sequences per f value",
    )
    p.add_argument("--config", help="JSON object keyed by ExperimentConfig field names; flags override it")
    p.add_argument("--out", default="experiment.csv", help="output CSV path")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("plot", help="render a sweep CSV as an SVG chart")
    p.add_argument("--in", dest="infile", required=True, help="input CSV path")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--assert", dest="check", action="store_true", help="fail unless slope and ordering checks pass")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameterError, CsvFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (NmecutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
