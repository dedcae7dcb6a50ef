#!/usr/bin/env python3
"""Bench regression guard: diff a google-benchmark JSON run against the
committed baseline (bench/baseline_ci.json).

Each row is compared by the median of its repetitions: both files come
from the bench_micro command below, whose 5 repetitions per row are
interleaved at random over the whole run, so neither one slow repetition
nor one noisy stretch of a shared host moves a row. A file without
median aggregates has no rows to compare; produce it with that command.

Raw times are machine-dependent — a CI runner is not the laptop that
committed the baseline — so the comparison is *normalized*: compute each
common row's current/baseline ratio, take the geometric mean of those
ratios as the machine-speed factor, and flag rows whose ratio deviates
from that factor by more than the tolerance. A uniformly 2x-slower
machine has factor 2.0 and every normalized ratio 1.0; a single kernel
that regressed 2x sticks out at normalized 2.0 regardless of host speed.

Noisy rows (allocation-bound, sub-microsecond) can be excluded via the
allowlist; they are reported informationally but never fail the gate.
Rows present on only one side are reported (new rows are fine; vanished
rows fail — a deleted benchmark must update the baseline).

Usage:
  check_bench.py CURRENT.json [--baseline bench/baseline_ci.json]
                 [--tolerance 0.30] [--allowlist name-substr ...]

Producing CURRENT.json, and refreshing the baseline after an intentional
perf change (the same command, written to bench/baseline_ci.json):
  ./build/bench_micro --benchmark_min_time=0.5 \
      --benchmark_repetitions=5 --benchmark_enable_random_interleaving=true \
      --benchmark_report_aggregates_only=true \
      --benchmark_format=json > bench/baseline_ci.json
"""

import argparse
import json
import math
import sys


def load_rows(path):
    """run name -> cpu_time (ns) of each row's median aggregate."""
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("aggregate_name") != "median":
            continue
        time = float(bench.get("cpu_time", bench.get("real_time", 0.0)))
        if time > 0.0:
            rows[bench["run_name"]] = time
    return rows


def fmt_table(header, rows):
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in [header] + rows:
        lines.append(
            "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"
        )
    lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("current", help="freshly produced benchmark JSON")
    parser.add_argument(
        "--baseline",
        default="bench/baseline_ci.json",
        help="committed baseline JSON (default: bench/baseline_ci.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional deviation of a row's normalized ratio "
        "(default 0.30 = +/-30%%)",
    )
    parser.add_argument(
        "--allowlist",
        nargs="*",
        # Sub-microsecond rows jitter with frequency scaling; the snapshot
        # loads are page-cache-bound rather than CPU-bound. The SIMD rows
        # (BM_PredictAllBatch, BM_AccumulateColumnDense, BM_Crc32HW)
        # depend on the *detected* instruction-set tier, which differs
        # between the baseline host and CI runners — their ratio measures
        # the machine, not the change.
        default=[
            "BM_ZipfSample",
            "BM_IngestQueuePush",
            "BM_MartPredict",
            "BM_SnapshotMmapLoad",
            "BM_SnapshotReadLoad",
            "BM_PredictAllBatch",
            "BM_AccumulateColumnDense",
            "BM_Crc32HW",
        ],
        help="benchmarks excluded from the gate (noisy rows); an entry "
        "matches a whole name or an arg-family prefix (BM_Foo matches "
        "BM_Foo and BM_Foo/8, not BM_FooBar); reported but never failing",
    )
    args = parser.parse_args()

    current = load_rows(args.current)
    baseline = load_rows(args.baseline)
    for path, rows in ((args.baseline, baseline), (args.current, current)):
        if not rows:
            print(f"error: {path} has no benchmark rows (median aggregates); "
                  "produce it with the bench_micro command in --help")
            return 1

    def allowlisted(name):
        return any(
            name == pat or name.startswith(pat + "/")
            for pat in args.allowlist
        )

    common = sorted(set(current) & set(baseline))
    gated = [n for n in common if not allowlisted(n)]
    vanished = sorted(set(baseline) - set(current))
    added = sorted(set(current) - set(baseline))

    if not gated:
        print("error: no common non-allowlisted rows between baseline and "
              "current run — the gate would be vacuous")
        return 1

    # Machine-speed factor: geometric mean of current/baseline over the
    # gated rows. Uniform speed differences cancel out of every row.
    ratios = {n: current[n] / baseline[n] for n in common}
    factor = math.exp(
        sum(math.log(ratios[n]) for n in gated) / len(gated)
    )

    failures = []
    report = []
    for name in common:
        normalized = ratios[name] / factor
        drift = normalized - 1.0
        flag = ""
        if abs(drift) > args.tolerance:
            if allowlisted(name):
                flag = "noisy (allowlisted)"
            else:
                flag = "REGRESSED" if drift > 0 else "improved*"
                failures.append((name, normalized))
        report.append(
            (
                name,
                f"{baseline[name]:.1f}",
                f"{current[name]:.1f}",
                f"{drift:+.1%}".replace("%", " %"),
                flag,
            )
        )

    print(f"machine-speed factor (geomean over {len(gated)} rows): "
          f"{factor:.3f}x")
    print(
        fmt_table(
            ["benchmark", "baseline ns", "current ns", "norm drift", ""],
            report,
        )
    )
    if added:
        print(f"\nnew rows (not in baseline, informational): "
              f"{', '.join(added)}")
    if vanished:
        print(f"\nerror: rows vanished from the bench run: "
              f"{', '.join(vanished)}")
        print("(deleting a benchmark requires refreshing "
              "bench/baseline_ci.json in the same change)")
        return 1

    if failures:
        print(f"\n{len(failures)} row(s) outside the "
              f"+/-{args.tolerance:.0%} normalized tolerance:")
        for name, normalized in failures:
            print(f"  {name}: {normalized:.2f}x the machine-adjusted "
                  "baseline")
        print("\nIf intentional, refresh the baseline (see --help). "
              "(*an improvement outside tolerance also requires a "
              "baseline refresh, so the gate keeps teeth)")
        return 1
    print("\nbench guard: all rows within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
