#!/usr/bin/env python3
"""Perf regression gate over the micro-perf bench trajectory.

Compares a freshly produced ``BENCH_micro_perf.json`` (google-benchmark
``--benchmark_out`` format) against the checked-in baseline
``bench/baseline_micro_perf.json`` and fails when any *tracked*
benchmark's wall time regressed by more than the threshold factor.

Only the indexed/cached serving-path benchmarks are tracked: they are
the ones whose speedups past PRs paid for, and they are stable enough
to gate on. The threshold is deliberately generous (2x by default) so
CI-runner noise does not fire it; genuine algorithmic regressions
(dropping an index, losing the cache, serializing the stream) blow
well past 2x. Benchmarks *faster* than baseline never fail; refresh
the baseline in the PR that makes them faster to ratchet the gate.

Usage:
    check_bench_regression.py CURRENT.json [--baseline PATH]
                              [--threshold FACTOR]

Exit status: 0 when every tracked benchmark is within threshold (or
is missing from the baseline, reported as a warning), 1 otherwise.
"""

import argparse
import json
import sys

# Tracked: the sublinear/cached hot paths. Names are prefixes so
# repetition-suffixed entries ("BM_Foo/1" vs "BM_Foo/1/repeats:3")
# keep matching if runner flags change.
TRACKED = [
    "BM_TraceIndexBuild",          # one-time per-shard index build
    "BM_PostingsIntersect/10/10",  # balanced-sparse SIMD merge kernel
    "BM_PostingsIntersect/200/200",  # dense bitmap word-AND kernel
    "BM_ColdQuestionRetrieval/1",  # cold sweep on the postings index
    "BM_MultiProgramPlan",         # multi-program policy comparison
    "BM_AskBatchRepeatedSlots/1",  # repeated slots, bundle cache on
    "BM_AskStreamFirstEvent/1",    # time to first streamed evidence
    "BM_ServeRoundTrip",           # line-protocol ask round trip
    "BM_CacheHitConcurrent/real_time/threads:16",  # 16-thread hot hit path
    "BM_CacheDemotionChurn",       # secondary-tier codec round trip
]

TIME_UNIT_NS = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times(path):
    """name -> real_time in nanoseconds, first entry per name wins.

    Tolerant of benchmark-set drift: entries missing a name or a
    real_time (error entries, future format additions) and entries in
    an unrecognized time unit are skipped with a note instead of
    raising — a renamed or retired benchmark must degrade to a named
    warning at the gate, never a KeyError before it.
    """
    with open(path) as f:
        data = json.load(f)
    times = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        real_time = bench.get("real_time")
        if name is None or not isinstance(real_time, (int, float)):
            print(f"note: {path}: skipping malformed benchmark entry "
                  f"({name!r})")
            continue
        if name in times:
            continue
        scale = TIME_UNIT_NS.get(bench.get("time_unit", "ns"))
        if scale is None:
            print(f"note: {path}: skipping {name} "
                  f"(unknown time_unit {bench.get('time_unit')!r})")
            continue
        times[name] = real_time * scale
    return times


def context_of(path):
    with open(path) as f:
        return json.load(f).get("context", {})


def warn_on_machine_skew(current_path, baseline_path):
    """Absolute wall-time gates skew with hardware: make it visible.

    The baseline is refreshed wherever the refreshing PR ran it, not
    necessarily on this runner; when core count or clock differ, say
    so in the log so a surprising verdict is attributable. (A faster
    runner makes the gate more lenient, a slower one stricter — the
    2x threshold absorbs typical runner-generation spread.)
    """
    cur = context_of(current_path)
    base = context_of(baseline_path)
    for key in ("num_cpus", "mhz_per_cpu"):
        if cur.get(key) != base.get(key):
            print(f"note: baseline machine differs ({key}: "
                  f"baseline={base.get(key)} current={cur.get(key)}); "
                  "absolute-time ratios include hardware skew.")


def first_match(times, prefix):
    for name in sorted(times):
        if name == prefix or name.startswith(prefix + "/"):
            return name, times[name]
    return None, None


def main():
    parser = argparse.ArgumentParser(
        description="Fail on >threshold wall-time regressions "
                    "against the checked-in bench baseline.")
    parser.add_argument("current",
                        help="BENCH_micro_perf.json from this run")
    parser.add_argument("--baseline",
                        default="bench/baseline_micro_perf.json")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="maximum allowed current/baseline ratio "
                             "(default: %(default)s)")
    args = parser.parse_args()

    current = load_times(args.current)
    baseline = load_times(args.baseline)
    warn_on_machine_skew(args.current, args.baseline)

    failures = []
    rows = []
    for prefix in TRACKED:
        cur_name, cur_ns = first_match(current, prefix)
        base_name, base_ns = first_match(baseline, prefix)
        if cur_ns is None:
            # Benchmark-set drift (renamed / filtered / retired), not
            # a perf regression: name it loudly, but only an actual
            # slowdown may fail the gate.
            print(f"warning: {prefix}: missing from current run "
                  "(benchmark set drifted? update TRACKED in "
                  "scripts/check_bench_regression.py)")
            rows.append((prefix, base_ns, None, None,
                         "missing (warning)"))
            continue
        if base_ns is None:
            rows.append((prefix, None, cur_ns, None,
                         "no baseline (warning)"))
            continue
        ratio = cur_ns / base_ns if base_ns else float("inf")
        verdict = "ok" if ratio <= args.threshold else "REGRESSED"
        rows.append((prefix, base_ns, cur_ns, ratio, verdict))
        if ratio > args.threshold:
            failures.append(
                f"{cur_name}: {cur_ns / 1e6:.3f} ms vs baseline "
                f"{base_ns / 1e6:.3f} ms ({ratio:.2f}x > "
                f"{args.threshold:g}x)")

    print(f"{'benchmark':<44} {'baseline':>12} {'current':>12} "
          f"{'ratio':>7}  verdict")
    for prefix, base_ns, cur_ns, ratio, verdict in rows:
        base = f"{base_ns / 1e6:.3f}ms" if base_ns else "-"
        cur = f"{cur_ns / 1e6:.3f}ms" if cur_ns else "-"
        ratio_s = f"{ratio:.2f}x" if ratio is not None else "-"
        print(f"{prefix:<44} {base:>12} {cur:>12} "
              f"{ratio_s:>7}  {verdict}")

    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        print("\nIf the slowdown is intended, refresh "
              "bench/baseline_micro_perf.json in this PR.",
              file=sys.stderr)
        return 1
    print("\nbench regression gate passed "
          f"(threshold {args.threshold:g}x).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
