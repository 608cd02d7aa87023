#!/usr/bin/env python3
"""Build the lifecycle benchmark from source and run one workload.

Usage (from the repository root):

    python3 lifecycle_bench/run.py
        --workload <lifecycle_4k|lifecycle_1m|net_convert|all>
        --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs the three workloads one after another, each in its
own process, and exits non-zero if any of them does.

The first call configures and builds into .bench_build/ (or
$CARGO_TARGET_DIR when set); later calls only re-check the build.  Build
output goes to stderr.  The workload's report goes to stdout, ending with
one JSON line: {"correct", "attempted", "failed", "metrics"}.  A traced run
(--trace 1) also writes a Chrome trace to
<build dir>/traces/<workload>.trace.json.

Exit status: the benchmark program's (0 = every check passed, 1 = a check
failed, 2 = bad arguments), or 3 when the build fails; no result line is
printed then.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lifecycle_4k", "lifecycle_1m", "net_convert")


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, configured)


def build(out):
    """Configure (once) and build the program; returns its path or None."""
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "lifecycle_bench",
                  "-j", jobs])
    # Concurrent runs in one checkout share the build directory.
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                if cmd[1] == "-S":
                    # A failed configure must not leave a cache that makes
                    # the next call skip configuring.
                    cache = os.path.join(out, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                return None
    binary = os.path.join(out, "lifecycle_bench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("lifecycle_bench: build failed", file=sys.stderr)
        return 3
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
        if args.trace == "1":
            traces = os.path.join(out, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(traces, workload + ".trace.json")]
        sys.stdout.flush()
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
