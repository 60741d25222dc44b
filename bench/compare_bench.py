#!/usr/bin/env python3
"""Diff two google-benchmark JSON files and print per-benchmark speedups.

Usage: compare_bench.py BEFORE.json AFTER.json [--threshold PCT]

Benchmarks are matched by name; the table reports before/after wall
time and after-vs-before speedup (>1 = AFTER is faster). Benchmarks
present in only one file are listed separately. Exit code is always 0
unless an input is unreadable — this is a reporting tool, not a gate
(use --threshold to flag regressions louder than PCT percent).

Context sanity: if either run was recorded from a debug build of the
photofourier library (the "photofourier_build_type" custom context
stamped by bench/micro_kernels.cc), the comparison is headed with a
warning — debug timings are not meaningful perf evidence. If the two
runs disagree on machine or build provenance — core count, build
type, SIMD dispatch level, or FFT pool size (the photofourier_*
custom contexts, or num_cpus/build_type/simd_level/fft_threads in a
serve_loadgen record) — the
comparison is refused with a nonzero exit: a different machine,
build, instruction set, or pool size is a different experiment, not a
regression. Pass --allow-cross-machine to compare anyway. Differing
git shas are reported but allowed — diffing two commits is the whole
point of the tool.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"error: cannot read benchmark JSON {path!r}: {err}")


def benchmarks(doc):
    """name -> real_time in ns. With --benchmark_repetitions, the
    per-repetition rows share one name: they are averaged, and a
    "_mean" aggregate row (keyed back to its run_name) overrides the
    average, so the table always reports a mean, never whichever
    repetition happened to parse last."""
    sums, counts, means = {}, {}, {}
    for row in doc.get("benchmarks", []):
        name = row.get("name")
        if name is None or "real_time" not in row:
            continue
        unit = row.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None:
            continue
        ns = row["real_time"] * scale
        if row.get("run_type") == "aggregate":
            if row.get("aggregate_name") != "mean":
                continue
            base = row.get("run_name")
            if base is None and name.endswith("_mean"):
                base = name[: -len("_mean")]
            means[base or name] = ns
        else:
            sums[name] = sums.get(name, 0.0) + ns
            counts[name] = counts.get(name, 0) + 1
    out = {n: sums[n] / counts[n] for n in sums}
    out.update(means)
    return out


def provenance(doc):
    """{"build_type", "num_cpus", "git_sha", "simd_level",
    "fft_threads"} from
    either record flavor: google-benchmark custom context
    (micro_kernels) or top-level keys (serve_loadgen). Missing facts
    map to None — records predating the provenance stamp stay
    comparable."""
    ctx = doc.get("context", {})
    out = {
        "build_type": ctx.get("photofourier_build_type",
                              doc.get("build_type")),
        "num_cpus": ctx.get("photofourier_num_cpus",
                            doc.get("num_cpus")),
        "git_sha": ctx.get("photofourier_git_sha", doc.get("git_sha")),
        "simd_level": ctx.get("photofourier_simd_level",
                              doc.get("simd_level")),
        "fft_threads": ctx.get("photofourier_fft_threads",
                               doc.get("fft_threads")),
    }
    return {k: (str(v) if v is not None else None)
            for k, v in out.items()}


def check_provenance(before_doc, after_doc, allow_cross_machine):
    before, after = provenance(before_doc), provenance(after_doc)
    mismatched = []
    for key in ("build_type", "num_cpus", "simd_level", "fft_threads"):
        b, a = before[key], after[key]
        if b is not None and a is not None and b != a:
            mismatched.append(f"{key}: BEFORE={b} AFTER={a}")
        elif b is None or a is None:
            print(f"WARNING: {key} missing from "
                  f"{'BEFORE' if b is None else 'AFTER'} record — "
                  f"cannot verify same-machine comparison")
    if before["git_sha"] and after["git_sha"] \
            and before["git_sha"] != after["git_sha"]:
        print(f"comparing {before['git_sha']} -> {after['git_sha']}")
    if not mismatched:
        return
    for line in mismatched:
        print(f"PROVENANCE MISMATCH: {line}")
    if allow_cross_machine:
        print("continuing anyway (--allow-cross-machine)")
        return
    sys.exit("error: refusing to compare runs from different "
             "machines/builds — a different experiment is not a "
             "regression (--allow-cross-machine to override)")


def fmt_ns(ns):
    for unit, div in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= div:
            return f"{ns / div:.3g} {unit}"
    return f"{ns:.3g} ns"


# The batched-optics benchmark families whose Arg is a fan-out count
# k (planes / kernels / requests fused into one pass), not a problem
# size. For these, per-item amortization vs their own /1 row is the
# number that matters — see --amortization.
AMORTIZED_FAMILIES = (
    "BM_Fft2dRealBatch",
    "BM_System4fTiled",
    "BM_JtcBatchedCorrelate",
    "BM_ConvEngineBatch",
)


def report_amortization(path):
    """Per-item speedup of each batched family's /k rows vs its /1
    row, from one benchmark JSON: speedup = (t_1 * k) / t_k, >1 means
    fusing k items into one pass beats k solo passes."""
    doc = load(path)
    build = provenance(doc)["build_type"]
    if build and build != "release":
        print(f"WARNING: '{build}' build — timings are not "
              f"meaningful perf evidence")
    bench = benchmarks(doc)
    any_family = False
    for family in AMORTIZED_FAMILIES:
        rows = {}
        for name, ns in bench.items():
            base, _, arg = name.partition("/")
            if base == family and arg.isdigit():
                rows[int(arg)] = ns
        if 1 not in rows or len(rows) < 2:
            continue
        if not any_family:
            print(f"{'benchmark':<28}  {'per-item':>10}  "
                  f"{'vs /1':>8}")
            any_family = True
        for k in sorted(rows):
            per_item = rows[k] / k
            ratio = rows[1] / per_item
            print(f"{family + '/' + str(k):<28}  "
                  f"{fmt_ns(per_item):>10}  {ratio:>7.2f}x")
    if not any_family:
        print("no batched benchmark families found "
              f"in {path!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("before")
    parser.add_argument("after", nargs="?")
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="flag changes larger than this percent "
                             "(default 5)")
    parser.add_argument("--allow-cross-machine", action="store_true",
                        help="compare despite mismatched machine/"
                             "build provenance")
    parser.add_argument("--amortization", action="store_true",
                        help="report per-item amortization of the "
                             "batched families in ONE file instead "
                             "of diffing two")
    args = parser.parse_args()

    if args.amortization:
        if args.after is not None:
            sys.exit("error: --amortization takes one file")
        report_amortization(args.before)
        return
    if args.after is None:
        sys.exit("error: AFTER.json required (or --amortization)")

    before_doc = load(args.before)
    after_doc = load(args.after)
    check_provenance(before_doc, after_doc, args.allow_cross_machine)
    for label, doc in (("BEFORE", before_doc), ("AFTER", after_doc)):
        build = doc.get("context", {}).get("photofourier_build_type")
        if build and build != "release":
            print(f"WARNING: {label} run was recorded from a "
                  f"'{build}' build of photofourier — timings are not "
                  f"meaningful perf evidence")

    before = benchmarks(before_doc)
    after = benchmarks(after_doc)
    common = [n for n in before if n in after]
    if not common:
        print("no common benchmarks between the two files")
        return

    width = max(len(n) for n in common)
    print(f"{'benchmark':<{width}}  {'before':>10}  {'after':>10}  "
          f"{'speedup':>8}")
    flagged = []
    for name in common:
        ratio = before[name] / after[name] if after[name] > 0 else 0.0
        mark = ""
        if ratio >= 1.0 + args.threshold / 100.0:
            mark = "  +"
        elif ratio <= 1.0 - args.threshold / 100.0:
            mark = "  -"
            flagged.append((name, ratio))
        print(f"{name:<{width}}  {fmt_ns(before[name]):>10}  "
              f"{fmt_ns(after[name]):>10}  {ratio:>7.2f}x{mark}")

    only_before = sorted(set(before) - set(after))
    only_after = sorted(set(after) - set(before))
    if only_before:
        print(f"\nonly in BEFORE ({len(only_before)}): "
              + ", ".join(only_before[:8])
              + (" ..." if len(only_before) > 8 else ""))
    if only_after:
        print(f"\nonly in AFTER ({len(only_after)}): "
              + ", ".join(only_after[:8])
              + (" ..." if len(only_after) > 8 else ""))
    if flagged:
        print(f"\n{len(flagged)} benchmark(s) regressed more than "
              f"{args.threshold:g}%:")
        for name, ratio in flagged:
            print(f"  {name}: {ratio:.2f}x")


if __name__ == "__main__":
    main()
