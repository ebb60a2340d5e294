#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compile|solve|serve --seed N \
        --seconds S --trace 0|1

The library and the benchmark program are built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
reuse the build. Build output goes to stderr. The program's output is passed
through: its last line is the JSON result. Any failure to build or run
exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    # CMake writes the Makefile only once configuration has succeeded.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["compile", "solve", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_dir, "work-" + args.workload)]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = out.stdout.rstrip("\n").split("\n")
    if out.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"run failed with exit code {out.returncode}")
        return 1
    sys.stdout.write(out.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
