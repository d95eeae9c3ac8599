#!/usr/bin/env python3
"""Build and run the end-to-end compile benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper_mid_j2 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --workload-seed 11  # held-out instances

The first call configures and builds perfbench/ (Release) into
.bench_build/perfbench; later calls rebuild incrementally. One workload runs
in one process and prints its result as the last stdout line. With
--workload all, each workload runs in its own process in turn and every
result line is printed; the exit code is non-zero if any run failed.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["paper_mid_j2", "long_sharded", "ham15_j1"]
BUILD_JOBS = "2"


def build():
    """Configure and build the benchmark; build output goes to stderr."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                      "-j", BUILD_JOBS])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def command(workload, args):
    return [str(BINARY), "--workload", workload, "--seed", str(args.seed),
            "--workload-seed", str(args.workload_seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]


def run_all(args):
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(command(workload, args),
                              stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
        if result is None or not result["correct"] or result["failed"]:
            status = 1
        print(json.dumps({"workload": workload,
                          "workload_seed": args.workload_seed,
                          "result": result}))
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=7,
                   help="run seed (recorded; does not change the circuits)")
    p.add_argument("--workload-seed", type=int, default=7,
                   help="seed of the generated circuits (held-out: 11)")
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0 or args.workload_seed < 0 or args.seconds < 1:
        p.error("seeds must be >= 0 and --seconds >= 1")

    build()
    # The benchmark's own stdout must end with its result line.
    sys.stdout.flush()
    if args.workload == "all":
        return run_all(args)
    return subprocess.run(command(args.workload, args)).returncode


if __name__ == "__main__":
    sys.exit(main())
