#!/usr/bin/env python3
"""Runs the whole benchmark as alternating sets on one build and checks it
against its own bounds the way the driver does: per workload and metric,
the spread of each set (distance between the first and third quartile of
its runs, as a share of their median) must stay within the bound (setup_s
is exempt from this one), and no later set's median may be worse than the
first's by more than the bound. Every run uses another seed.

    python3 smvbench/tools/selftest.py --sets 2 --runs 10
"""

import argparse
import statistics
import sys

from bench_common import load_manifest, run_benchmark


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*")
    args = ap.parse_args()

    m = load_manifest()
    workloads = [w["name"] for w in m["workloads"] if not args.workloads or w["name"] in args.workloads]
    # values[workload][metric][set] = the runs' values
    values = {w: {e["name"]: [[] for _ in range(args.sets)] for e in m["end_to_end"]} for w in workloads}
    broken = 0
    for run in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                seed = 1 + s * args.runs + run
                result = run_benchmark(m, w, seed, m["run_seconds"], 0)
                if result["correct"] is not True or result["failed"] != 0:
                    print(f"{w} seed {seed}: {result['failed']} of {result['attempted']} failed")
                    broken += 1
                for name, v in result["metrics"].items():
                    values[w][name][s].append(v["value"])
                print(f"run {run + 1}/{args.runs} set {s + 1} {w} done", file=sys.stderr, flush=True)

    print(f"{'workload':<10} {'metric':<26} {'bound':>5}  " + "  ".join(
        f"{'median ' + str(s + 1):>14} {'spread':>6}" for s in range(args.sets)) + "  worse by")
    for w in workloads:
        for e in m["end_to_end"]:
            sets = values[w][e["name"]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            sign = 1 if e["better"] == "lower" else -1
            worse = max(sign * (med - medians[0]) / medians[0] for med in medians)
            flags = []
            if e["name"] != "setup_s" and max(spreads) > e["bound"]:
                flags.append("SPREAD")
            if worse > e["bound"]:
                flags.append("DRIFT")
            if e["name"] != "setup_s" and max(spreads) > e["bound"] / 3:
                flags.append("(above a third)")
            broken += bool({"SPREAD", "DRIFT"} & set(flags))
            print(f"{w:<10} {e['name']:<26} {e['bound']:>5}  " + "  ".join(
                f"{med:>14.6g} {sp:>6.3f}" for med, sp in zip(medians, spreads))
                + f"  {worse:>+7.3f} " + " ".join(flags))
    print("selftest ok" if not broken else f"selftest: {broken} failures")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
