#!/usr/bin/env python3
"""Compare a google-benchmark JSON run against a checked-in baseline.

Machine speeds differ between the box that recorded the baseline and the CI
runner, so raw nanoseconds are not comparable. Every guarded benchmark is
instead normalized by an anchor benchmark (BM_RowWalkAnchor, bench/anchor.h:
a fixed multiply-xorshift walk over RowBits-sized buffers). The anchor runs
no simulator code, so no change to the simulator can move it: it tracks
only the machine, and a change that speeds up one path (BM_ActPrePair, say)
moves that benchmark's ratio alone. Both inputs are runs with
--benchmark_repetitions=5 --benchmark_report_aggregates_only=true, and
each benchmark's time is its `_median` aggregate: one sample of a guarded
benchmark varies by more than the tolerance between runs, the median of
five much less. The check fails when

    (current[name] / current[anchor]) >
        (baseline[name] / baseline[anchor]) * (1 + tolerance)

i.e. when the benchmark got slower *relative to the machine* by more than
the tolerance.

Usage:
    bench_check.py BASELINE.json CURRENT.json [--tolerance 0.20]
                   [--anchor BM_RowWalkAnchor] [NAME ...]

With no NAMEs, every non-anchor benchmark present in the baseline is
checked (benchmarks missing from the current run fail the check).
"""

import argparse
import json
import sys


# google-benchmark reports real_time in each benchmark's own time_unit.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times(path):
    """Median real time of every benchmark in `path`, in ns, by run name."""
    with open(path) as fh:
        doc = json.load(fh)
    times = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("aggregate_name") != "median":
            continue
        unit = bench.get("time_unit", "ns")
        if unit not in NS_PER_UNIT:
            sys.exit(f"bench_check: unknown time_unit {unit!r} for "
                     f"{bench['name']} in {path}")
        times[bench["run_name"]] = (float(bench["real_time"]) *
                                    NS_PER_UNIT[unit])
    if not times:
        sys.exit(f"bench_check: no median aggregates in {path}; run with "
                 f"--benchmark_repetitions=5 "
                 f"--benchmark_report_aggregates_only=true")
    return times


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("names", nargs="*")
    parser.add_argument("--tolerance", type=float, default=0.20)
    parser.add_argument("--anchor", default="BM_RowWalkAnchor")
    args = parser.parse_args()

    baseline = load_times(args.baseline)
    current = load_times(args.current)
    for source, times in (("baseline", baseline), ("current", current)):
        if args.anchor not in times:
            sys.exit(f"bench_check: anchor {args.anchor} missing from {source}")

    names = args.names or [n for n in baseline if n != args.anchor]

    # A benchmark present in either input but absent from the baseline is a
    # setup error (someone added a benchmark or widened the CI filter
    # without recording it), not a performance regression — fail with the
    # fix spelled out rather than a bare KeyError.
    guarded = set(names) | {n for n in current if n != args.anchor}
    missing_from_baseline = sorted(n for n in guarded if n not in baseline)
    if missing_from_baseline:
        howto = (f"add one to {args.baseline}: re-run the benchmark with "
                 f"--benchmark_repetitions=5 "
                 f"--benchmark_report_aggregates_only=true "
                 f"--benchmark_format=json and merge its aggregates (keep "
                 f"the {args.anchor} anchor from the same run)")
        for name in missing_from_baseline:
            print(f"bench_check: no baseline entry for {name}; {howto}",
                  file=sys.stderr)
        return 1

    scale = current[args.anchor] / baseline[args.anchor]
    print(f"machine scale via {args.anchor}: {scale:.3f}x "
          f"({current[args.anchor]:.0f}ns vs {baseline[args.anchor]:.0f}ns)")

    failures = []
    for name in names:
        if name not in current:
            failures.append(f"{name}: missing from current run")
            continue
        normalized = current[name] / scale
        limit = baseline[name] * (1.0 + args.tolerance)
        verdict = "FAIL" if normalized > limit else "ok"
        print(f"  {verdict} {name}: {current[name]:.0f}ns raw, "
              f"{normalized:.0f}ns normalized vs {baseline[name]:.0f}ns "
              f"baseline (limit {limit:.0f}ns)")
        if normalized > limit:
            failures.append(
                f"{name}: {normalized:.0f}ns normalized > {limit:.0f}ns limit")

    if failures:
        print("bench_check: performance regression detected", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"bench_check: {len(names)} benchmark(s) within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
