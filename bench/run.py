"""The glgeom benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/workloads.py and BENCHMARK.json): exhaustive-scan,
orbit-partition, witness-sweep.  A single closed-loop client drives glgeom's
public Python API, one process and one thread, each query sent only after
the previous one returned.  Every pass runs in its own fresh worker process,
one after another, so caches start cold and peak RSS belongs to that pass.

--trace 0 measures the end-to-end metrics: several set-up-only processes,
then whole passes until the next one would overrun --seconds (at least
one).  setup_s and wall_s are medians over the run's samples, each
taken at a fixed reference speed by a speed probe (bench/speed.py).
--trace 1 runs one untraced and one traced pass, whatever --seconds says,
and reports the per-layer metrics of the traced one.  Every query is checked against its
reference and every record against bench/expected.json; the last line of
stdout is {"correct", "attempted", "failed", "metrics"}, and the exit code
is 0 only if every query passed.  A run record with the environment goes to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import worker
import workloads

WORKER = os.path.join(worker.HERE, "worker.py")
ROOT, OUT = worker.ROOT, worker.OUT
SETUP_SAMPLES = 5
WORKER_TIMEOUT = 170


def run_worker(args):
    """One fresh worker process; returns (spawn time, parsed last line)."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER] + args, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return spawned, json.loads(lines[-1])


def environment():
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "note": "one worker process at a time, single-threaded; "
                    "nothing pinned, no system-wide tracing"}


def setup_time(spawned, out):
    """Process start to first query, without the probe's time, at the
    reference speed (bench/speed.py)."""
    return ((out["first_query_at"] - spawned - out["setup_probe_s"])
            * out["setup_speed"])


def untraced(workload, seed, seconds):
    base = ["--workload", workload, "--seed", str(seed)]
    start = time.monotonic()
    setups, passes = [], []

    def sample_setup():
        for _ in range(SETUP_SAMPLES):
            setups.append(setup_time(*run_worker(base + ["--setup-only"])))

    while True:
        # set-up is sampled before every pass and after the last one, so
        # the samples spread over the run instead of one window of the
        # machine's speed
        sample_setup()
        spawned, out = run_worker(base)
        setups.append(setup_time(spawned, out))
        passes.append(out)
        elapsed = time.monotonic() - start
        if elapsed + out["wall_s"] > seconds:
            break
    sample_setup()
    latencies = [x for p in passes for x in p["latencies_ms"]]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] * p["speed"]
                                     for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
    }
    # per-query latency quantiles are recorded, not gated: they are raw
    # times and follow the machine's speed swings
    detail = {"setup_samples": setups,
              "query_latency_ms": {"p50": deciles[4], "p90": deciles[8],
                                   "samples": len(latencies)},
              "passes": [{k: p[k] for k in ("wall_s", "speed", "digest",
                                            "peak_rss_mb", "failures")}
                         for p in passes]}
    return passes, metrics, detail


def traced(workload, seed):
    base = ["--workload", workload, "--seed", str(seed)]
    _, plain = run_worker(base)
    _, tr = run_worker(base + ["--trace", "1"])
    metrics = {k: (v, tr["units"][k]) for k, v in tr["layers"].items()}
    metrics["trace.overhead_frac"] = (tr["wall_s"] / plain["wall_s"] - 1,
                                      "ratio")
    passes = [plain, tr]
    if tr["digest"] != plain["digest"]:
        tr["failed"] = max(tr["failed"], 1)
        tr["failures"].append("traced digest differs from the untraced one")
    detail = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": tr["wall_s"],
              "kept_spans": tr["kept_spans"],
              "spans_file": worker.spans_path(workload, seed),
              "failures": plain["failures"] + tr["failures"]}
    return passes, metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "glgeom")):
        print(f"no glgeom sources under {ROOT}/src", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            passes, metrics, detail = traced(args.workload, args.seed)
        else:
            passes, metrics, detail = untraced(args.workload, args.seed,
                                               args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "attempted": attempted,
              "failed": failed, "failed_frac": failed / attempted,
              "metrics": {k: v for k, (v, _) in metrics.items()}, **detail}
    path = os.path.join(OUT, f"run-{args.workload}-{args.seed}-"
                             f"trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for p in passes:
        for why in p["failures"]:
            print(f"FAILED {why}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"failed_frac {failed / attempted:.4g}, record {path}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
