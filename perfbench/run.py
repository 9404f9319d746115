#!/usr/bin/env python3
"""Builds the benchmark driver in Release and runs one workload.

    python3 perfbench/run.py --workload covid-cluster --seed 1 \
        --seconds 40 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout, run outputs (spill directory, trace,
per-layer JSON) to .perfbench_out/. The driver prints every metric with its
unit; the last line of standard output is the machine-readable result. See
perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("covid-cluster", "geolife-collect", "ingest-tenants")


def build(build_dir):
    """Configures and builds the driver; returns its path (None on failure)."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench_build.log")
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench_driver",
              "-j", str(os.cpu_count() or 1)]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                sys.stderr.write(open(log_path).read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return None
    return os.path.join(build_dir, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir, "perfbench")
    driver = build(build_dir)
    if driver is None:
        return 2
    out_dir = os.path.join(ROOT, ".perfbench_out", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=175)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: driver timed out\n")
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: driver failed (exit %d)\n" %
                         proc.returncode)
        return 4
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
