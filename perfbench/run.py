#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload steady-224 --seed 1 --seconds 40 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root),
then run with the same arguments. Its standard output is passed through;
the last line is the JSON result. Any failure to build, any failed check
and any missing or malformed result exits non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, env, timeout, stdout):
    """Runs cmd to completion; on timeout the child is killed and reaped."""
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout, stdout=stdout, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} timed out after {timeout} s")
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    # Build output goes to stderr: stdout carries only the benchmark's report.
    if run(build, env, BUILD_TIMEOUT_S, sys.stderr).returncode != 0:
        fail("build failed")

    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    proc = run(cmd, env, RUN_TIMEOUT_S, subprocess.PIPE)
    if proc.returncode != 0:
        fail(f"benchmark exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        fail(f"no JSON result line: {e}")
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        fail(f"malformed or incorrect result: {lines[-1]}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
