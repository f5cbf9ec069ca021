#!/usr/bin/env python3
"""Tracing-overhead gate over the BM_AskTracedOverhead arms.

The observability subsystem's cost discipline is "disarmed tracing is
one pointer test / one relaxed atomic": this script holds it to that.
It reads one google-benchmark JSON (``--benchmark_out`` format)
containing the BM_AskTracedOverhead arms —

    BM_AskTracedOverhead/0   tracing disarmed (plain RequestContext)
    BM_AskTracedOverhead/1   sampled: every 64th request traced
    BM_AskTracedOverhead/2   every request traced (optional)

— and fails when the sampled arm's median CPU time exceeds the
disarmed arm's by more than the threshold (3% by default, the
acceptance bound set when tracing was introduced). Comparing two
arms of the SAME run cancels runner-generation skew, unlike the
absolute-time baseline gate next door (check_bench_regression.py).
CPU time is used rather than wall time: a CI neighbour's noise lands on
wall clock first.

One run of each arm is too noisy for a 3% bound: over eight runs of
unchanged code on a 4-vCPU VM the ratio read 0.77-1.21x. So the input
should hold several repetitions of each arm, randomly interleaved,
e.g.

    bench_micro_perf --benchmark_filter='BM_AskTracedOverhead/[01]' \
        --benchmark_repetitions=9 \
        --benchmark_enable_random_interleaving=true \
        --benchmark_out=BENCH_traced_overhead.json

and the gate compares the median of each arm's repetitions. A single
run per arm still works (its median is that run).

The full-tracing arm is reported for visibility and never gates — a
traced request pays for its spans by design.

Usage:
    check_traced_overhead.py BENCH.json [--threshold 1.03]

Exit status: 0 when sampled/disarmed <= threshold, 1 otherwise (or
when either arm is missing from the input).
"""

import argparse
import json
import statistics
import sys

ARMS = {
    0: "disarmed",
    1: "sampled (1/64)",
    2: "full",
}


def arm_cpu_times(path):
    """arm index -> median cpu_time over its non-aggregate entries."""
    with open(path) as f:
        data = json.load(f)
    runs = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name", "")
        if not name.startswith("BM_AskTracedOverhead/"):
            continue
        try:
            arm = int(name.split("/")[1])
        except (IndexError, ValueError):
            continue
        cpu = bench.get("cpu_time")
        if isinstance(cpu, (int, float)):
            runs.setdefault(arm, []).append(cpu)
    return {arm: (statistics.median(cpus), len(cpus))
            for arm, cpus in runs.items()}


def main():
    parser = argparse.ArgumentParser(
        description="Fail when sampled tracing costs more than the "
                    "threshold over the disarmed arm.")
    parser.add_argument("bench_json",
                        help="google-benchmark JSON with the "
                             "BM_AskTracedOverhead arms")
    parser.add_argument("--threshold", type=float, default=1.03,
                        help="maximum sampled/disarmed ratio of median "
                             "cpu times (default: %(default)s)")
    args = parser.parse_args()

    times = arm_cpu_times(args.bench_json)
    missing = [arm for arm in (0, 1) if arm not in times]
    if missing:
        print(f"error: {args.bench_json}: missing "
              f"BM_AskTracedOverhead arm(s) {missing} — was the "
              "benchmark filtered out?", file=sys.stderr)
        return 1

    base = times[0][0]
    print(f"{'arm':<16} {'runs':>5} {'median cpu':>12} "
          f"{'vs disarmed':>12}")
    for arm in sorted(times):
        cpu, runs = times[arm]
        ratio = cpu / base if base else float("inf")
        print(f"{ARMS.get(arm, str(arm)):<16} {runs:>5} "
              f"{cpu:>10.2f}us {ratio:>11.3f}x")

    ratio = times[1][0] / base if base else float("inf")
    if ratio > args.threshold:
        print(f"\ntraced-overhead gate FAILED: sampled arm is "
              f"{ratio:.3f}x the disarmed arm "
              f"(> {args.threshold:g}x). Disarmed tracing must stay "
              "one pointer test per span site — look for work done "
              "before the `if (!trace)` early-outs.", file=sys.stderr)
        return 1
    print(f"\ntraced-overhead gate passed (sampled/disarmed "
          f"{ratio:.3f}x <= {args.threshold:g}x).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
