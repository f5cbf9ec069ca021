#!/usr/bin/env python3
"""Build the benchmark binary (once per checkout) and run one workload.

    python3 e2ebench/run.py --workload serve_hot --seed 7 --seconds 5 --trace 0

Run from the repository root. The binary is built from the sources
under src/ into .bench_build/e2ebench; later runs only re-check the
build. The binary's standard output is passed through; its last line
is the JSON result. Exit codes: 0 ok, 2 no sources to build, 3 build
failed, 4 run timed out, 5 the run printed no valid result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
RUN_LIMIT_S = 175.0


def fail(code, message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "cachemind.cc")):
        fail(2, "no CacheMind sources under src/ to build the benchmark from")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen
        if run_logged(cfg, log) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail(3, f"cmake configure failed (see {log})")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", BUILD, "-j", jobs], log) != 0:
        fail(3, f"build failed (see {log})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    build()
    started = time.monotonic()
    spans = os.path.join(BUILD, "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--span-dir", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        fail(4, "run exceeded its time limit")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(proc.returncode, f"e2ebench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail(5, "no result line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
