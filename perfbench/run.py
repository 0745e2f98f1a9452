#!/usr/bin/env python3
"""Build and run the end-to-end simulator benchmark.

    python3 perfbench/run.py --workload walk_heavy --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (the simulator library from src/ plus
the benchmark program) into .bench_build/perfbench under the repository
root, then runs it. Build output goes to stderr; the benchmark's last
stdout line is its JSON result. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("walk_heavy", "tlb_resident", "shared_mc")


def run(cmd, timeout, stdout):
    """Run cmd in its own process group and wait for it. On timeout the
    whole group is killed, so no compiler or benchmark outlives us."""
    try:
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                                process_group=0)
    except OSError as err:
        sys.exit(f"perfbench: {' '.join(cmd)}: {err}")
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"perfbench: {' '.join(cmd)}: timed out after {timeout} s")
    return proc.returncode, out


def sh(cmd, timeout):
    """Run a build step, its output sent to stderr; exit on failure."""
    code, _ = run(cmd, timeout, sys.stderr)
    if code != 0:
        sys.exit(f"perfbench: {' '.join(cmd)} exited {code}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found; run from "
                 "a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", BUILD], timeout=120)
    jobs = str(min(4, os.cpu_count() or 1))
    sh(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
       timeout=700)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD, f"spans-{args.workload}-{args.seed}.json")]
    code, out = run(cmd, args.seconds + 120, subprocess.PIPE)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
