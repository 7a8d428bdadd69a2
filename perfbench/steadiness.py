#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

    python3 perfbench/steadiness.py --workloads cv_medium,route_medium --seeds 1-10

Run from the repository root. Runs every workload once per seed through
perfbench/run.py, untraced and with BENCHMARK.json's run_seconds, then
prints, per workload and end-to-end metric (gated and reported), the
median, the quartiles from statistics.quantiles(values, n=4), and the
spread (Q3 - Q1) / median next to the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7,11")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])

    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            started = time.monotonic()
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            elapsed = time.monotonic() - started
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                sys.exit(1)
            result = json.loads(lines[-1])
            # Reported (ungated) end-to-end metrics appear only in the
            # `metric <name> <value> <unit> ...` lines.
            for line in lines[:-1]:
                parts = line.split()
                if parts[:1] == ["metric"] and line.endswith("[reported]"):
                    result["metrics"].setdefault(parts[1], {"value": float(parts[2]), "unit": parts[3]})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items() if k in bounds),
                  file=sys.stderr)
        print(f"\n{workload} ({len(seeds(args.seeds))} seeds: {args.seeds})")
        print("| metric | median | Q1 | Q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        for name, v in values.items():
            if len(v) < 2:
                print(f"| {name} | {v[0]:.6g} | - | - | - | {bounds.get(name, '-')} |")
                continue
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            bound = bounds.get(name)
            print(f"| {name} | {q2:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | {bound if bound is not None else '-'} |")


if __name__ == "__main__":
    main()
