"""One workload run in a fresh process; prints one JSON line for run.py.

Started by run.py, never by hand: it expects `--root` (the checkout) and
`--spawned-at` (the parent's monotonic clock just before the spawn), so that
set-up time covers interpreter start, `import nmecut` and building the
workload's inputs.  Modes:

  --setup-only   stop once the workload is ready and report set-up time;
  --trace 0      run batches until --seconds have passed, timed by the
                 nominal-host clock; report throughput, call latency and
                 peak RSS;
  --trace 1      run the trace unit once untraced and once traced, on the
                 wall clock; report the per-layer counts and self times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import nmecut

    if os.path.dirname(os.path.abspath(nmecut.__file__)) != os.path.join(src, "nmecut"):
        print(f"error: imported nmecut from {nmecut.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir, args.small)
    setup_wall_s = time.monotonic() - args.spawned_at
    import hostspeed

    setup_s = setup_wall_s * hostspeed.measure_speed()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    checks = workloads.Checks()
    if args.trace:
        import tracer

        indices = range(workload.trace_batches)
        untraced = sum(workload.batch(i, workloads.Clock(), checks).seconds for i in indices)
        with tracer.Tracer() as tr:
            clock = workloads.Clock(tracer=tr)
            traced = sum(workload.batch(i, clock, checks).seconds for i in indices)
        metrics = tr.metrics(traced, untraced)
        metrics.update(tracer.source_lines(src))
        batches, calls, host_speed, tail = workload.trace_batches, None, None, {}
    else:
        rates, latencies = [], []
        index = 0
        with hostspeed.NominalClock() as nominal:
            clock = workloads.Clock(nominal.now)
            deadline = time.perf_counter() + args.seconds
            while index == 0 or time.perf_counter() < deadline:
                batch = workload.batch(index, clock, checks)
                rates.append(batch.items / batch.seconds)
                latencies.extend(batch.calls)
                index += 1
        metrics = {
            "work_per_s": statistics.median(rates),
            "call_p50_ms": percentile(latencies, 50) * 1e3,
            "call_p90_ms": percentile(latencies, 90) * 1e3,
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        batches, calls, host_speed = index, len(latencies), nominal.speed()
        tail = {"call_p99_ms": percentile(latencies, 99) * 1e3}

    import numpy

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "setup_wall_s": setup_wall_s,
                "host_speed": host_speed,
                "tail": tail,
                "metrics": metrics,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "failures": checks.messages,
                "batches": batches,
                "calls": calls,
                "item": workload.item,
                "numpy": numpy.__version__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
