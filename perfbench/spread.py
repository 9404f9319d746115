#!/usr/bin/env python3
"""Repeats benchmark runs and prints each metric's median and quartiles.

    python3 perfbench/spread.py --runs 10 --seconds 40
    python3 perfbench/spread.py --workloads ingest-tenants --runs 5 --trace 1

Run from the root of a checkout. Each run uses another seed (seed-base,
seed-base + 1, ...). For every workload and metric it prints the median,
the first and third quartiles (statistics.quantiles(values, n=4)) and the
spread: (q3 - q1) / median. It also prints the share of failed operations,
and with --bounds, each end-to-end metric's bound from BENCHMARK.json
beside its spread. --json writes every value to a file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                       proc.returncode))
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=["covid-cluster", "geolife-collect",
                             "ingest-tenants"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bounds", action="store_true")
    ap.add_argument("--json", help="write every run's values here")
    args = ap.parse_args()

    bounds = {}
    if args.bounds:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bounds = {m["name"]: m["bound"]
                      for m in json.load(f)["end_to_end"]}
    everything = {}
    for workload in args.workloads:
        values = {}
        units = {}
        failed = []
        for i in range(args.runs):
            seed = args.seed_base + i
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                print("  seed %d: correct=false" % seed)
            failed.append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print("  %s seed %d done" % (workload, seed), file=sys.stderr)
        everything[workload] = values
        print("%s: %d runs, failed share %s" % (
            workload, args.runs, sorted(set(failed))))
        print("  %-36s %12s %12s %12s %8s %s" % (
            "metric", "median", "q1", "q3", "spread",
            "bound" if bounds else ""))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print("  %-36s %12.6g %12.6g %12.6g %8.3f %s %s" % (
                name, med, q1, q3, spread, units[name],
                "" if bound is None else
                "bound %.2f%s" % (bound, " OVER THIRD" if
                                  spread > bound / 3 else "")))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(everything, f, indent=1)


if __name__ == "__main__":
    main()
