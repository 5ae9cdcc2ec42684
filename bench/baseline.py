"""Repeat bench/run.py over seeds and summarise, for a committed baseline.

    python3 bench/baseline.py          # about 25 minutes

For each workload: RUNS untraced runs with seeds 1..RUNS, then TRACED
traced runs, one process at a time.  Reports per end-to-end metric the ten
values, their median, quartiles (statistics.quantiles, n=4) and spread
(interquartile distance over the median), and the traced per-layer values,
flagging any call or item count that differs between traced runs.  The
summary is written to bench/results/baseline.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "results", "baseline.json")
RUNS = 10
TRACED = 2


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: failed\n{proc.stdout}")
    return result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"environment": run.environment(), "run_seconds": seconds,
           "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs = [bench(workload, seed, seconds, 0)
                for seed in range(1, RUNS + 1)]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bounds[name]
            entry["end_to_end"][name] = s
            print(f"{workload:16s} {name:14s} median {s['median']:10.4f} "
                  f"spread {s['spread']:.3f} (bound {bounds[name]})",
                  flush=True)
        traced = [bench(workload, 100 + i, seconds, 1) for i in range(TRACED)]
        layers = {}
        for name, m in traced[0]["metrics"].items():
            values = [t["metrics"][name]["value"] for t in traced]
            layers[name] = {"values": values, "unit": m["unit"]}
            if m["unit"] == "count" and len(set(values)) > 1:
                layers[name]["count_differs"] = True
                print(f"{workload}: {name} differs between traced runs {values}")
        entry["per_layer"] = layers
        out["workloads"][workload] = entry
    with open(OUT, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
