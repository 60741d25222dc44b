#!/usr/bin/env python3
"""Build the benchmark in Release and run one workload.

Usage (from the root of a photofourier checkout):

    python3 perfbench/run.py --workload serve-fused|cluster-open|optical-offline
                             --seed N --seconds S --trace 0|1
                             [--in-flight N] [--open-rate R]

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) inside the checkout, configured from
perfbench/CMakeLists.txt, which compiles the library from the checkout's
sources. The benchmark refuses to run from a build that is not Release.
The last line of standard output is the run's JSON result.
--in-flight and --open-rate override the offered load of serve-fused
and cluster-open (used to repeat the sweep in perfbench/README.md).
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    env = dict(os.environ, TMPDIR=str(build_dir / "tmp"))
    (build_dir / "tmp").mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    cache = (build_dir / "CMakeCache.txt").read_text()
    match = re.search(r"^CMAKE_BUILD_TYPE:[A-Z]*=(.*)$", cache, re.M)
    build_type = match.group(1).strip() if match else ""
    if build_type != "Release":
        fail(f"build tree {build_dir} is configured as "
             f"'{build_type or 'unset'}', not Release; refusing to record")
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, env=env)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["serve-fused", "cluster-open",
                                 "optical-offline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--in-flight", type=int)
    parser.add_argument("--open-rate", type=float)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a photofourier checkout "
             "(no CMakeLists.txt and src/ beside perfbench/)")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir.resolve() / "perfbench"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        fail(f"build failed: {err}")

    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-dir", str(trace_dir)]
    if args.in_flight is not None:
        command += ["--in-flight", str(args.in_flight)]
    if args.open_rate is not None:
        command += ["--open-rate", str(args.open_rate)]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was killed", code=3)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
