#!/usr/bin/env python3
"""Perf-regression gate over two recorded ablation_runtime reports.

Usage: compare_bench.py OLD.json NEW.json [--threshold 0.25]

Both inputs are google-benchmark JSON reports as written by
`bench/ablation_runtime --json` (which also embeds an `altis_metrics`
snapshot, see docs/OBSERVABILITY.md). The gate:

  * fails (exit 1) when any *gated* benchmark's real_time regressed by more
    than --threshold relative to the baseline. Gated benchmarks are the
    dispatch and pipe paths (BM_ParallelFor*, BM_PipeThroughput*) -- the two
    the paper's dataflow designs lean on hardest -- plus the memory
    subsystem's alloc-churn and transfer paths (BM_AllocChurn*,
    BM_Transfer*, docs/PERFORMANCE.md "Memory subsystem") and the command
    graph scheduler (BM_GraphOverlap*, BM_SchedLatency*);
  * fails (exit 1) when the current report contains both graph-overlap
    benchmarks and out-of-order execution is not at least
    --overlap-speedup x faster than in-order on wall clock (the whole
    point of the scheduler, docs/PERFORMANCE.md "Graph overlap"); skipped
    silently when either benchmark is absent;
  * reports every other benchmark's delta informationally;
  * diffs the embedded engine telemetry (counters only: pool jobs, pipe
    parks, ...) informationally, so a timing regression arrives with the
    counter shifts that usually explain it;
  * exits 0 with a note when the baseline is missing or unreadable (first
    run of a new repo/branch has no previous artifact to compare against);
  * exits 0 with a "not comparable" note when the two reports come from
    different hosts or builds: `num_cpus` or `altis_build_type` (this
    repository's CMAKE_BUILD_TYPE, recorded by ablation_runtime) differ.
    A baseline older than `altis_build_type` is compared on `num_cpus`
    alone. google-benchmark's own `library_build_type` says how the
    benchmark library was built, not this repository, so it is ignored.
"""

import argparse
import json
import sys

GATED_PREFIXES = ("BM_ParallelFor", "BM_PipeThroughput", "BM_AllocChurn",
                  "BM_Transfer", "BM_GraphOverlap", "BM_SchedLatency")


def prefixed_time(times, prefix):
    """real_time of the single benchmark whose name starts with `prefix`.

    The overlap benches run with ->UseRealTime(), which suffixes the
    reported name with "/real_time" -- hence prefix match, not exact.
    Returns None when absent or ambiguous.
    """
    hits = [t for n, t in times.items() if n.startswith(prefix)]
    return hits[0] if len(hits) == 1 else None


def load_report(path):
    with open(path) as f:
        return json.load(f)


def benchmark_times(report):
    """name -> real_time (ns); aggregate entries are skipped."""
    times = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("name")
        if name is None or "real_time" not in b:
            continue
        times[name] = float(b["real_time"])
    return times


def metric_totals(report):
    """counter name -> value from the embedded altis_metrics snapshot."""
    snap = report.get("altis_metrics")
    if not isinstance(snap, dict):
        return {}
    totals = {}
    for m in snap.get("metrics", []):
        if m.get("type") == "counter" and "value" in m:
            totals[m["name"]] = float(m["value"])
    return totals


def is_gated(name):
    return any(name.startswith(p) for p in GATED_PREFIXES)


def context_mismatch(old_report, new_report):
    """Why two reports cannot be compared ("" when they can)."""
    old_ctx = old_report.get("context", {})
    new_ctx = new_report.get("context", {})
    keys = ["num_cpus"]
    if "altis_build_type" in old_ctx:
        keys.append("altis_build_type")
    return ", ".join(f"{k} {old_ctx.get(k)} vs {new_ctx.get(k)}"
                     for k in keys if old_ctx.get(k) != new_ctx.get(k))


def gate(old_report, new_report, threshold=0.25, overlap_speedup=1.5):
    """Compares two loaded reports; returns the process exit code."""
    old_times = benchmark_times(old_report)
    new_times = benchmark_times(new_report)
    if not old_times:
        print("compare_bench: baseline has no benchmarks; skipping gate")
        return 0
    mismatch = context_mismatch(old_report, new_report)
    if mismatch:
        print(f"compare_bench: not comparable: {mismatch}; skipping gate")
        return 0

    failures = []
    for name in sorted(new_times):
        if name not in old_times or old_times[name] <= 0:
            print(f"  NEW    {name}: {new_times[name]:.1f} ns (no baseline)")
            continue
        delta = (new_times[name] - old_times[name]) / old_times[name]
        tag = "GATED " if is_gated(name) else "      "
        print(f"  {tag}{name}: {old_times[name]:.1f} -> "
              f"{new_times[name]:.1f} ns ({delta:+.1%})")
        if is_gated(name) and delta > threshold:
            failures.append((name, delta))

    old_metrics = metric_totals(old_report)
    new_metrics = metric_totals(new_report)
    shifts = []
    for name in sorted(set(old_metrics) | set(new_metrics)):
        ov, nv = old_metrics.get(name, 0.0), new_metrics.get(name, 0.0)
        if ov == nv:
            continue
        rel = f" ({(nv - ov) / ov:+.1%})" if ov > 0 else ""
        shifts.append(f"  {name}: {ov:.0f} -> {nv:.0f}{rel}")
    if shifts:
        print("engine telemetry shifts (informational):")
        print("\n".join(shifts))

    in_order = prefixed_time(new_times, "BM_GraphOverlapInOrder")
    ooo = prefixed_time(new_times, "BM_GraphOverlapOOO")
    if in_order is not None and ooo is not None and ooo > 0:
        speedup = in_order / ooo
        print(f"graph overlap: in-order {in_order:.1f} ns vs OOO "
              f"{ooo:.1f} ns -> {speedup:.2f}x speedup "
              f"(required >= {overlap_speedup:.2f}x)")
        if speedup < overlap_speedup:
            print(f"\ncompare_bench: out-of-order graph overlap speedup "
                  f"{speedup:.2f}x is below the required "
                  f"{overlap_speedup:.2f}x", file=sys.stderr)
            return 1

    if failures:
        print(f"\ncompare_bench: {len(failures)} gated benchmark(s) "
              f"regressed beyond +{threshold:.0%}:", file=sys.stderr)
        for name, delta in failures:
            print(f"  {name}: {delta:+.1%}", file=sys.stderr)
        return 1
    print(f"\ncompare_bench: OK (gated regressions within "
          f"+{threshold:.0%})")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("old", help="baseline BENCH_runtime.json")
    ap.add_argument("new", help="current BENCH_runtime.json")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="max allowed relative real_time regression on "
                         "gated benchmarks (default 0.25 = +25%%)")
    ap.add_argument("--overlap-speedup", type=float, default=1.5,
                    help="min required BM_GraphOverlapInOrder / "
                         "BM_GraphOverlapOOO wall-clock ratio in the "
                         "current report (default 1.5)")
    args = ap.parse_args()

    try:
        old_report = load_report(args.old)
    except (OSError, ValueError) as e:
        print(f"compare_bench: no usable baseline ({e}); skipping gate")
        return 0
    try:
        new_report = load_report(args.new)
    except (OSError, ValueError) as e:
        print(f"compare_bench: cannot read current report: {e}",
              file=sys.stderr)
        return 2

    return gate(old_report, new_report, args.threshold, args.overlap_speedup)


if __name__ == "__main__":
    sys.exit(main())
