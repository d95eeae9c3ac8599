#!/usr/bin/env python3
"""Release timing gate for the route kernel and the sharded compile (CI job
timing-gate).

Reads google-benchmark JSON files and checks *self-relative* ratios —
time(variant) / time(reference variant), both measured on the same machine
in the same process — against a committed baseline. Same-host
ratios cancel out runner speed, so the gate is stable across runner
generations where absolute wall-clock thresholds would flake.

Each baseline file names its ratios explicitly:

    {
      "tolerance": 1.2,
      "ratios": {
        "<ratio name>": {
          "numerator":   "<benchmark entry name>",
          "denominator": "<benchmark entry name>",
          "baseline":    <expected ratio>
        }
      }
    }

The gate fails when a measured ratio exceeds baseline * tolerance — i.e.
when the variant's overhead grew by more than (tolerance - 1) relative to
its reference. Repetition entries (run_type other than
"iteration") are ignored; the minimum over iterations is used, which is
the standard noise-robust statistic for benchmark gating.

Usage: check_timing.py <benchmark.json> <baseline.json> [<benchmark.json> <baseline.json> ...]

Known pairs in this repo:
    route-kernel.json  bench/route_timing_baseline.json   (micro_route_kernel:
                       warm_over_cold, warm-started vs cold negotiation)
    shard-bench.json   bench/shard_timing_baseline.json   (micro_shard:
                       sharded_over_unsharded, window=8 vs window=0)
"""
import json
import sys


def min_time(benchmarks, name):
    times = [
        b["real_time"]
        for b in benchmarks
        if b["name"] == name and b.get("run_type", "iteration") == "iteration"
    ]
    if not times:
        raise SystemExit(f"timing gate: no benchmark entry named {name!r}")
    return min(times)


def check_pair(benchmark_path, baseline_path):
    with open(benchmark_path) as f:
        benchmarks = json.load(f)["benchmarks"]
    with open(baseline_path) as f:
        baseline = json.load(f)

    tolerance = baseline["tolerance"]
    failed = False
    for name, spec in baseline["ratios"].items():
        ratio = min_time(benchmarks, spec["numerator"]) / min_time(
            benchmarks, spec["denominator"]
        )
        limit = spec["baseline"] * tolerance
        verdict = "FAIL" if ratio > limit else "ok"
        if ratio > limit:
            failed = True
        print(
            f"timing gate: {name} = {ratio:.3f} "
            f"(baseline {spec['baseline']:.3f}, limit {limit:.3f}) {verdict}"
        )
    if failed:
        raise SystemExit(
            f"timing gate: {benchmark_path} regressed more than "
            f"{(tolerance - 1) * 100:.0f}% vs {baseline_path}"
        )


def main():
    args = sys.argv[1:]
    if not args or len(args) % 2 != 0:
        raise SystemExit(__doc__)
    for i in range(0, len(args), 2):
        check_pair(args[i], args[i + 1])


if __name__ == "__main__":
    main()
