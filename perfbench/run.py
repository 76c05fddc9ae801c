#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload adhoc_compile --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The factlog library and the benchmark
binary are built from source with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then the binary runs one workload. Its
result, one JSON object with the keys correct, attempted, failed and
metrics, is the last line of standard output; build and progress output go
to standard error. The exit code is nonzero, with no result printed, when
the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("adhoc_compile", "closure_eval", "view_serve")
BUILD_JOBS = 3
RUN_TIMEOUT_S = 170


def build(build_dir):
    subprocess.run(
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(BUILD_JOBS)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys: %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    return lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1

    # Scratch space for the run's durable database and span dump.
    workdir = os.path.join(build_root, "perfbench-run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            print("perfbench: run exited with %d" % proc.returncode,
                  file=sys.stderr)
            return 1
        result = parse_result(proc.stdout)
        # Keep the spans of a traced run beside the build.
        traces = os.path.join(build_root, "perfbench-traces")
        for name in os.listdir(workdir):
            if name.endswith(".spans.jsonl"):
                os.makedirs(traces, exist_ok=True)
                shutil.move(os.path.join(workdir, name),
                            os.path.join(traces, "seed%d.%s" % (args.seed, name)))
    except (subprocess.TimeoutExpired, ValueError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
