#!/usr/bin/env python3
"""Builds the FUSE serving benchmark from source and runs one workload.

Usage (from the repository root):

    python3 servebench/run.py --workload <ward|edge_int8|fleet_ops> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (servebench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then run
from the repository root with one glibc malloc arena (MALLOC_ARENA_MAX=1), so
that its peak resident memory follows what the program holds rather than how
its threads' buffers spread over per-thread arenas (see README.md). Its
standard output is passed through; the last line is the JSON result. The exit
code is non-zero when the build fails, the run fails or times out, or an
output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ward", "edge_int8", "fleet_ops")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"servebench: build did not finish: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("servebench: build failed", file=sys.stderr)
        return 1

    out_dir = os.path.join(ROOT, ".bench_work")
    os.makedirs(out_dir, exist_ok=True)
    command = [
        os.path.join(target, "release", "servebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--out", out_dir,
    ]
    try:
        ran = subprocess.run(command, cwd=ROOT, env=dict(env, MALLOC_ARENA_MAX="1"),
                             stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"servebench: {args.workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    sys.stdout.write(ran.stdout)
    sys.stdout.flush()
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
