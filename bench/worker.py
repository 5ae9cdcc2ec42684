"""One pass of one workload in a fresh process; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N [--trace 0|1]
                            [--setup-only] [--emit-expected]

The pass runs every query of the workload once, closed loop (the next query
starts when the previous one returns), times each query, checks each record
against its reference and against bench/expected.json, and reports the
process's own peak RSS.  `first_query_at` is time.monotonic() just before
the first timed query, so the parent can measure set-up from process start.
A speed probe (bench/speed.py) runs from the start of main(); the time it
took and the speed it saw are reported for the set-up and for the pass,
and `wall_s` excludes the probe's time.
A traced pass writes its kept spans to .bench_out/spans-NAME-SEED.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import speed
import tracing as tr
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
EXPECTED = os.path.join(HERE, "expected.json")


def spans_path(workload, seed):
    return os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")


class Api:
    """The public glgeom calls the queries make.  Functions are looked up
    on their module at every call, so installed wrappers are seen."""

    _HOME = {
        "ProjParams": "geometry", "BisParams": "geometry",
        "proj_collinear_oracle": "oracle", "bis_collinear_oracle": "oracle",
        "concurrent_oracle": "oracle",
        "stabiliser_orbits_on_bisections": "orbits",
        "proj_collinear_witness": "witness", "bis_collinear_witness": "witness",
        "proj_witness_certificate": "witness",
        "bis_witness_certificate": "witness",
        "PredicateFailsError": "witness",
    }

    def __init__(self, modules, qs):
        self._modules = modules
        gfq = modules["gfq"]
        self._fields = {q: gfq.field_make(*gfq.factor_prime_power(q))
                        for q in qs}

    def field(self, q):
        return self._fields[q]

    def __getattr__(self, name):
        return getattr(self._modules[self._HOME[name]], name)


def load_modules():
    sys.path.insert(0, SRC)
    import importlib
    return {name: importlib.import_module(f"glgeom.{name}")
            for name in ("gfq", "subspace", "geometry", "witness", "oracle",
                         "orbits")}


def load_expected(workload, keys):
    """(key string -> fingerprint, digest) recorded in bench/expected.json;
    no fingerprints if the workload or its query list changed."""
    with open(EXPECTED) as fh:
        entry = json.load(fh).get(workload, {"fingerprints": "", "digest": None})
    fps, ordered = entry["fingerprints"], sorted(keys)
    if len(fps) != 8 * len(ordered):
        return {}, entry["digest"]
    return ({k: fps[8 * i:8 * i + 8] for i, k in enumerate(ordered)},
            entry["digest"])


def run_pass(api, queries, tracer=None):
    """Run the queries in order; returns (records, latencies, failures)."""
    ctx, records, latencies, failures = {}, [], [], []
    clock = time.perf_counter
    for query in queries:
        frame = tracer.open("bench.query", keep=True) if tracer else None
        start = clock()
        try:
            record = query.run(api, ctx)
        except Exception as exc:  # a raising query is a failed query
            record = {"query": list(query.key), "error": type(exc).__name__}
            latencies.append(clock() - start)
            failures.append((query.key, f"raised {exc!r}"))
        else:
            latencies.append(clock() - start)
            why = query.check(record)
            if why:
                failures.append((query.key, why))
        finally:
            if frame:
                tracer.close(frame)
        records.append(record)
    return records, latencies, failures


def gate(queries, records, failures, fps, want_digest):
    """Add a failure for every record that differs from its recorded
    fingerprint (and for a digest mismatch no record explains); returns the
    number of failed queries."""
    for query, record in zip(queries, records):
        if fps.get(wl.key_string(query.key)) != wl.fingerprint(record):
            failures.append((query.key, "output differs from the recorded output"))
    if wl.digest(records) != want_digest and not failures:
        failures.append((("digest",), "digest differs from the recorded one"))
    return len({k for k, _ in failures})


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--emit-expected", action="store_true",
                    help="print this workload's expected.json entry")
    args = ap.parse_args(argv)
    probe = speed.Probe()
    try:
        modules = load_modules()
    except ImportError as exc:
        print(f"cannot import glgeom from {SRC}: {exc}", file=sys.stderr)
        return 2
    queries = wl.ordered_queries(args.workload, args.seed)
    api = Api(modules, {q.key[1] for q in queries})  # key[1] is q
    keys = [wl.key_string(q.key) for q in queries]
    tracer = None
    if args.trace:
        tracer = tr.Tracer(refused_exc=modules["witness"].PredicateFailsError)
        tracer.install()
    first_query_at = time.monotonic()
    setup = dict(zip(("setup_probe_s", "setup_speed"), probe.lap()))
    if args.setup_only:
        probe.stop()
        print(json.dumps({"first_query_at": first_query_at, **setup}))
        return 0

    t0 = time.perf_counter()
    records, latencies, failures = run_pass(api, queries, tracer)
    wall_s = time.perf_counter() - t0
    pass_probe_s, pass_speed = probe.lap()
    probe.stop()
    if tracer:
        tracer.uninstall()

    if args.emit_expected:
        fps = dict(zip(keys, (wl.fingerprint(r) for r in records)))
        entry = {"records": len(records), "digest": wl.digest(records),
                 "fingerprints": "".join(fps[k] for k in sorted(keys))}
        print(json.dumps({args.workload: entry, "failed": len(failures)}))
        return 1 if failures else 0

    out_digest = wl.digest(records)
    failed = gate(queries, records, failures,
                  *load_expected(args.workload, keys))
    result = {
        "first_query_at": first_query_at,
        **setup,
        "wall_s": wall_s - pass_probe_s,
        "speed": pass_speed,
        "latencies_ms": [x * 1e3 for x in latencies],
        "attempted": len(queries),
        "failed": failed,
        "failures": [f"{wl.key_string(k)}: {why}" for k, why in failures[:20]],
        "digest": out_digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        metrics = tr.layer_metrics(tracer)
        result["layers"] = {k: v[0] for k, v in metrics.items()}
        result["units"] = {k: v[1] for k, v in metrics.items()}
        result["kept_spans"] = len(tracer.spans)
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(spans_path(args.workload, args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
