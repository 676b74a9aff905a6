#!/usr/bin/env python3
"""Repeat the benchmark and report how steady its end-to-end metrics are.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] \
        [--workloads ingest_bulk,chase_deep,serve_mixed] [--out FILE]

Each workload runs `--runs` times, each time with the next seed, through
the command in BENCHMARK.json with its `run_seconds`. For every
end-to-end metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them), the spread (q3 - q1 as
a share of the median), the min/max ratio, and whether the spread is
below a third of the metric's bound. `--out` also writes every run's
result line, and its line of raw (unnormalized) figures, as JSON.
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
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (
        args.workloads.split(",")
        if args.workloads
        else [w["name"] for w in bench["workloads"]]
    )
    record = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            t = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
            result = json.loads(p.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect run\n{p.stdout[-2000:]}")
            raw = [l for l in p.stdout.splitlines() if l.startswith("raw ")]
            runs.append({"seed": seed, "result": result, "raw": raw[0] if raw else None})
            print(f"{w} seed {seed}: {time.time() - t:.1f} s", file=sys.stderr, flush=True)
        record["workloads"][w] = runs

        print(f"\n{w} ({len(runs)} runs, seeds {runs[0]['seed']}..{runs[-1]['seed']})")
        print("| metric | median | q1 | q3 | spread | min/max | bound | spread < bound/3 |")
        print("|---|---|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            v = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            ok = "yes" if spread < bound / 3 else "NO"
            print(
                f"| {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} "
                f"| {min(v) / max(v):.3f} | {bound} | {ok} |"
            )
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
