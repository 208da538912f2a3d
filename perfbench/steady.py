#!/usr/bin/env python3
"""Run one workload several times and summarise each metric's spread.

    python3 perfbench/steady.py --workload encode_fp32 [--runs 10] [--trace 0|1]
                                [--against <other checkout>]

Run i uses seed i (1..N) and lasts BENCHMARK.json's run_seconds. For every
metric it prints the median, the first and third quartiles (Python's
statistics.quantiles, n=4) and the quartile spread as a share of the
median, next to the metric's bound from BENCHMARK.json.

--against alternates this checkout with another (a parent commit, say)
run by run, swapping which side goes first in each pair, and also prints
how many pairs each side won on every metric. Run it from the root of
either checkout; each side builds in its own .bench_build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    if p.returncode:
        sys.exit(f"run failed ({root}, seed {seed})")
    return json.loads(p.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--against")
    a = ap.parse_args()
    if a.runs < 2:
        sys.exit("--runs must be at least 2")
    here = os.path.dirname(HERE)
    with open(os.path.join(here, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    metrics = spec["per_layer" if a.trace else "end_to_end"]
    sides = {"this": here}
    if a.against:
        sides["other"] = os.path.abspath(a.against)

    results = {s: [] for s in sides}
    for i in range(a.runs):
        seed = i + 1
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for side in order:
            r = run(sides[side], a.workload, seed, seconds, a.trace)
            results[side].append(r)
            print(f"run {i + 1}/{a.runs} {side} seed {seed}: correct="
                  f"{r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", file=sys.stderr)

    for side, rs in results.items():
        print(f"== {side} ({sides[side]}): {a.workload}, {len(rs)} runs of "
              f"{seconds:g} s, trace={a.trace}")
        shares = {r["failed"] / r["attempted"] for r in rs}
        print(f"   failed share per run: {sorted(shares)}")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            med, q1, q3, spread = summary(vals)
            bound = m.get("bound")
            flag = "" if bound is None else (
                f"  bound {bound:.2f}" + ("  OVER" if spread > bound else
                                          "  >1/3" if spread > bound / 3 else ""))
            print(f"   {m['name']:28s} median {med:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {spread:7.2%}{flag}")
    if a.against:
        print("== pairs won (this vs other)")
        for m in metrics:
            sign = 1 if m["better"] == "higher" else -1
            wins = [0, 0]
            for x, y in zip(results["this"], results["other"]):
                dx = x["metrics"][m["name"]]["value"]
                dy = y["metrics"][m["name"]]["value"]
                if dx != dy:
                    wins[0 if sign * (dx - dy) > 0 else 1] += 1
            print(f"   {m['name']:28s} this {wins[0]:3d}  other {wins[1]:3d}")


if __name__ == "__main__":
    main()
