#!/usr/bin/env python3
"""Perf-regression gate: compare a smoke-run bench JSON against the
committed baseline (BENCH_data_plane.json) and fail on regressions.

Comparisons only make sense like-for-like, so two guards apply before any
metric is graded:

  * workload scale (`tuples`) must match between the two files -- a 400k
    smoke run is cache-resident in ways a 1M run is not, and even the
    dimensionless speedup ratios shift by 2x across that boundary.  On a
    scale mismatch everything is skipped (loudly); the CI job runs the
    bench at baseline scale (~10s) precisely so this never trips there.
  * absolute throughput (keys ending in `_tps`, or `tuples_per_sec`) is
    additionally gated on matching `host_cores`: tuples/sec on a 4-vCPU
    runner says nothing about a baseline taken on a different box.
    Speedup ratios (keys ending in `speedup`) are
    batched-vs-scalar on the same host, so they gate on any machine.

A metric fails when candidate < baseline * (1 - threshold); the default
threshold is 25%.  Exit 1 on any failure, 0 otherwise.  Missing paths are
ignored (new benches may add sections before the baseline is regenerated).

Usage:
  check_bench.py --baseline BENCH_data_plane.json \
                 --candidate bench-data-plane-smoke.json [--threshold 0.25]
"""

import argparse
import json
import re
import sys

THROUGHPUT_RE = re.compile(r"(_tps|tuples_per_sec)(\.\d+)*$")
SPEEDUP_RE = re.compile(r"speedup(\.\d+)*$")


def flatten(obj, prefix=""):
    """Flatten nested dicts/lists to {dotted.path: float}."""
    out = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(flatten(value, f"{prefix}{key}."))
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            out.update(flatten(value, f"{prefix}{index}."))
    elif isinstance(obj, bool):
        pass
    elif isinstance(obj, (int, float)):
        out[prefix[:-1]] = float(obj)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON")
    parser.add_argument("--candidate", required=True,
                        help="fresh smoke-run JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max tolerated fractional regression "
                             "(default 0.25 = 25%%)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = flatten(json.load(f))
    with open(args.candidate) as f:
        candidate = flatten(json.load(f))

    scale_match = (baseline.get("tuples") is not None
                   and baseline.get("tuples") == candidate.get("tuples"))
    if not scale_match:
        print(f"note: workload scale differs (baseline tuples "
              f"{baseline.get('tuples')}, candidate "
              f"{candidate.get('tuples')}); nothing is comparable -- rerun "
              f"the candidate at baseline scale")
    cores_match = (baseline.get("host_cores") is not None
                   and baseline.get("host_cores") == candidate.get("host_cores"))
    if not cores_match:
        print(f"note: host_cores differ (baseline "
              f"{baseline.get('host_cores')}, candidate "
              f"{candidate.get('host_cores')}); absolute tuples/sec paths "
              f"are skipped, speedup ratios still gate")

    compared = 0
    skipped = 0
    failures = []
    for path in sorted(baseline):
        if path not in candidate:
            continue
        is_throughput = bool(THROUGHPUT_RE.search(path))
        is_speedup = bool(SPEEDUP_RE.search(path))
        if not (is_throughput or is_speedup):
            continue
        if not scale_match or (is_throughput and not cores_match):
            skipped += 1
            continue
        base = baseline[path]
        cand = candidate[path]
        if base <= 0:
            continue
        compared += 1
        ratio = cand / base
        marker = ""
        if cand < base * (1.0 - args.threshold):
            failures.append(path)
            marker = "  <-- REGRESSION"
        print(f"{path}: baseline {base:.6g}, candidate {cand:.6g} "
              f"({ratio:.2f}x){marker}")

    print(f"\ncompared {compared} metric(s), skipped {skipped}, "
          f"{len(failures)} regression(s) past the "
          f"{args.threshold:.0%} threshold")
    if failures:
        for path in failures:
            print(f"FAIL: {path}", file=sys.stderr)
        return 1
    if compared == 0:
        print("warning: no comparable metrics found "
              "(baseline schema mismatch?)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
