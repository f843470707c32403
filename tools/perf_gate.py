#!/usr/bin/env python3
"""Perf gate for the kernel and container-codec rows of bench_micro.

Compares a fresh BENCH_micro.json against the checked-in baseline and
enforces two properties:

  1. No gated row regresses more than --tolerance (default 30%) in
     real_time against the same-named row of the baseline. The gated rows
     are the per-backend kernels (BM_Kernel*) and the .stpt codec
     (BM_SnapshotEncode, BM_SnapshotDecode, BM_Crc32). Hard failure on an
     AVX2-capable runner; downgraded to a warning when the runner lacks AVX2
     (the committed baseline is recorded on an AVX2 machine, so absolute
     times are not comparable there).
  2. Within the fresh run, the avx2 backend is at least --min-speedup
     (default 1.5x) faster than naive on the MatMul and PrefixSum kernel
     families. Skipped when the runner lacks AVX2.

Rows present in only one file are reported but never fail the gate, so
adding or retiring benchmarks does not require lockstep baseline updates.

Usage:
  tools/perf_gate.py --fresh build/bench/BENCH_micro.json \
                     --baseline BENCH_micro.json
"""

import argparse
import json
import sys

GATED_PREFIXES = ("BM_Kernel", "BM_SnapshotEncode", "BM_SnapshotDecode",
                  "BM_Crc32")
SPEEDUP_FAMILIES = ("BM_KernelMatMul", "BM_KernelPrefixSum")


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        rows[b["name"]] = (float(b["real_time"]), b.get("time_unit", "ns"))
    return doc.get("context", {}), rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh", required=True, help="just-produced BENCH_micro.json")
    ap.add_argument("--baseline", required=True, help="checked-in BENCH_micro.json")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="max allowed fractional regression per gated row")
    ap.add_argument("--min-speedup", type=float, default=1.5,
                    help="required naive/avx2 ratio for MatMul and PrefixSum")
    args = ap.parse_args()

    fresh_ctx, fresh = load_rows(args.fresh)
    _, baseline = load_rows(args.baseline)
    has_avx2 = fresh_ctx.get("stpt_avx2") == "1"
    hard = has_avx2  # warn-only on runners without AVX2

    failures = []
    warnings = []

    # 1. Regression check, row by row.
    gated_rows = sorted(n for n in fresh if n.startswith(GATED_PREFIXES))
    for prefix in GATED_PREFIXES:
        if not any(n.startswith(prefix) for n in gated_rows):
            failures.append(f"fresh run contains no {prefix}* rows "
                            "(wrong --benchmark_filter?)")
    for name in gated_rows:
        if name not in baseline:
            print(f"note: {name}: no baseline row (new benchmark), skipping")
            continue
        (t_fresh, unit), (t_base, _) = fresh[name], baseline[name]
        ratio = t_fresh / t_base
        line = (f"{name}: baseline={t_base:.0f}{unit} "
                f"fresh={t_fresh:.0f}{unit} ratio={ratio:.2f}")
        if ratio > 1.0 + args.tolerance:
            (failures if hard else warnings).append(
                f"{line} — regressed more than {args.tolerance:.0%}")
        else:
            print(line)
    for name in sorted(baseline):
        if name.startswith(GATED_PREFIXES) and name not in fresh:
            print(f"note: {name}: row retired (present only in baseline)")

    # 2. AVX2-vs-naive speedup inside the fresh run.
    if has_avx2:
        for family in SPEEDUP_FAMILIES:
            pairs = 0
            for name, (t_naive, _) in fresh.items():
                if not name.startswith(family + "/backend:naive"):
                    continue
                other = name.replace("/backend:naive", "/backend:avx2")
                if other not in fresh:
                    continue
                pairs += 1
                speedup = t_naive / fresh[other][0]
                line = f"{family}: naive/avx2 speedup {speedup:.2f}x ({name})"
                if speedup < args.min_speedup:
                    failures.append(
                        f"{line} — below required {args.min_speedup:.2f}x")
                else:
                    print(line)
            if pairs == 0:
                failures.append(f"{family}: no naive/avx2 row pair found")
    else:
        print("runner lacks AVX2: speedup check skipped, "
              "regressions reported as warnings")

    for w in warnings:
        print(f"::warning title=perf gate::{w}")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
