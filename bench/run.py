"""nmecut benchmark entry point: one workload run, one JSON result line.

    python3 bench/run.py --workload cli_sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout that holds `src/nmecut`.  Each run starts a
fresh single-threaded child process (BLAS and OpenMP pinned to one thread,
NMECUT_SEED removed from its environment) that imports nmecut from `src/`,
builds the workload's inputs from --seed and measures it.  With --trace 0,
five more children only set up, and `setup_s` is the median over all six;
times are in seconds of the nominal host (see hostspeed.py).  With
--trace 1, the child wraps nmecut's public functions from outside and
reports per-layer numbers instead.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
metric names and units come from BENCHMARK.json.  The line before it records
the environment and the run's sample counts.  Exit code 0 means the run
completed (check `correct`); anything else means it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Workload -> default seed: the acceptance suite's sweep and criterion-7 seeds.
DEFAULT_SEEDS = {
    "cli_sweep": 20240901,
    "unpaired_multinomial": 20240901,
    "estimate_loop": 8675309,
    "exact_oracle": 20240901,
}
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RUN_LIMIT_S = 170.0


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("NMECUT_SEED", "PYTHONPATH")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: argparse.Namespace, workdir: str, deadline: float, setup_only: bool) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--root", ROOT,
        "--workdir", workdir,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    if args.small:
        command.append("--small")
    command += ["--spawned-at", repr(time.monotonic())]
    result = subprocess.run(
        command,
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if result.returncode != 0:
        raise RuntimeError(f"child exited with code {result.returncode}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=15.0, help="length of the timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args()
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "nmecut", "__init__.py")):
        print(f"error: no nmecut package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    setups = []
    try:
        if not args.trace:
            setups = [run_child(args, workdir, deadline, True) for _ in range(SETUP_PROBES)]
        result = run_child(args, workdir, deadline, False)
        setups.append(result)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    if set(values) != set(units):
        print(
            f"error: metrics emitted {sorted(set(values) ^ set(units))} do not match BENCHMARK.json",
            file=sys.stderr,
        )
        return 1

    for message in result["failures"]:
        print(f"check failed: {message}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "batches": result["batches"],
        "calls": result["calls"],
        "item": result["item"],
        "host_speed": result["host_speed"],
        "tail": result["tail"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "setup_wall_samples_s": [s["setup_wall_s"] for s in setups],
        "python": sys.version.split()[0],
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "blas_threads": {var: "1" for var in THREAD_VARS},
    }
    print(json.dumps({"environment": record}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and result["attempted"] > 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(units)},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
