#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload of BENCHMARK.json once per seed, seeds 1 to --runs,
untraced. Then prints for every end-to-end metric the median, the quartiles
and the spread (interquartile distance as a share of the median) against the
metric's bound in BENCHMARK.json. A spread at or under a third of the bound
reads "steady"; up to the bound, "in bound"; beyond it, "UNSTEADY". With
--traced it also makes one traced run per
workload and prints the per-layer metrics and the tracing overhead (the
traced run's wall_s against the untraced median).

Run it from the repository root:

    python3 perfbench/steady.py --runs 10 --traced --json .bench_build/steady.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    took = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), took


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(s, bound):
    if s <= bound / 3:
        return "steady"
    if s <= bound:
        return "in bound"
    return "UNSTEADY"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per workload")
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--json", default="", help="also write every run's result to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd, seconds = bench["command"], bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = range(1, args.runs + 1)

    record = {}
    for w in names:
        runs = []
        for seed in seeds:
            res, took = run_once(cmd, w, seed, seconds, 0)
            runs.append(res)
            print(f"  {w} seed {seed}: {took:.1f}s correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)
        record[w] = {"untraced": runs}
        if args.traced:
            res, took = run_once(cmd, w, 1, seconds, 1)
            record[w]["traced"] = res
            print(f"  {w} traced seed 1: {took:.1f}s correct={res['correct']}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)

    for w in names:
        runs = record[w]["untraced"]
        print(f"\n{w}: {len(runs)} runs (seeds 1..{args.runs}), run_seconds {seconds}")
        print(f"  correct in every run: {all(r['correct'] for r in runs)}")
        shares = sorted({r['failed'] / r['attempted'] for r in runs})
        print(f"  failed share per run: {shares}")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, s = spread(vals)
            b = bounds[m["name"]]
            v = verdict(s, b)
            print(f"  {m['name']:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {s:>8.3f} {b:>6}  {v}")
        res = record[w].get("traced")
        if res:
            wall = statistics.median(r["metrics"]["wall_s"]["value"] for r in runs)
            traced_wall = res["metrics"]["trace.wall_s"]["value"]
            print(f"  traced run (seed 1): correct={res['correct']}, "
                  f"wall_s {traced_wall:.6g} vs untraced median {wall:.6g}: "
                  f"tracing overhead {100 * (traced_wall / wall - 1):+.1f}%")
            for name, v in res["metrics"].items():
                print(f"    {name:<26} {v['value']:>14.6g} {v['unit']}")


if __name__ == "__main__":
    main()
