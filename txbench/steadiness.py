#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how much each metric spreads.

Run from the repository root:

    python3 txbench/steadiness.py --runs 10 [--first-seed 1] [--trace 0]
        [--workloads escrow_oltp,bulk_churn] [--out results.json]

Each run uses the command in BENCHMARK.json with its own seed. For every
workload and metric it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`), the spread (Q3 - Q1) / median, and
that spread against the metric's bound; then each workload's failed share.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {}
    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            t0 = time.time()
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}")
            runs.append(json.loads(p.stdout.strip().splitlines()[-1]))
            print(f"{w} seed {seed}: {time.time() - t0:.1f}s", file=sys.stderr)
        results[w] = runs

    print("| workload | metric | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for w, runs in results.items():
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            unit = runs[0]["metrics"][name]["unit"]
            print(f"| {w} | {name} ({unit}) | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{spread:.3f} | {bound if bound is not None else '-'} |")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"| {w} | failed / attempted | {failed} / {attempted} | | | | |")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f)


if __name__ == "__main__":
    main()
