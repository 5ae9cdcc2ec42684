"""Command-line driver: reproducible experiments with machine-readable output.

Exit codes: 0 success, 1 bad parameters (a usage error or a ParamError),
2 internal disagreement or golden mismatch, 3 enumeration budget exceeded
(TooLargeError), 4 internal error (any other exception from the engine,
such as a broken runtime invariant or an unimplemented case; its
traceback follows the one-line message on stderr).  JSON
output is byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import oracle as oc
from . import orbits as ob
from . import weyl as wy
from . import witness as wt
from .errors import ParamError, TooLargeError
from .gfq import field_make, factor_prime_power
from .geometry import BisParams, ProjParams
from .predicates import (bis_collinear_predicate, bis_concurrent_predicate,
                         proj_collinear_predicate)

SCHEMA = "glgeom/1"

EXIT_OK = 0
EXIT_BAD_PARAMS = 1
EXIT_DISAGREE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_BAD_PARAMS, f"{self.prog}: error: {message}\n")


def _field(q):
    p, e = factor_prime_power(q)
    return field_make(p, e)


def _field_orders(text):
    """--qs: comma-separated field orders; empty means the default q = 2."""
    return [int(x) for x in text.split(",")] if text else [2]


def _emit(args, payload):
    payload["schema"] = SCHEMA
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for key in sorted(payload):
            if key == "schema":
                continue
            print(f"{key}: {payload[key]}")


def _verdict_word(complete):
    return "complete" if complete else "incomplete"


def cmd_proj_collinear(args):
    field = _field(args.q)
    params = ProjParams(args.n, args.m, args.k, args.j, field)
    pred = proj_collinear_predicate(args.n, args.m, args.k, args.j)
    payload = {"params": params.to_json_dict()}
    results = {}
    if args.mode in ("predicate", "all"):
        results["predicate"] = _verdict_word(pred)
    if args.mode in ("oracle", "all"):
        v = oc.proj_collinear_oracle(params, budget=args.budget)
        results["oracle"] = _verdict_word(v.complete)
        if v.failing_t is not None:
            payload["failing_t"] = v.failing_t
    if args.mode in ("witness", "all"):
        ok = True
        certs = []
        try:
            t_lo = max(0, 2 * args.m - args.n)
            for t in range(t_lo, args.m):
                w = wt.proj_collinear_witness(args.n, args.m, args.k, args.j,
                                              t, field)
                certs.append(wt.proj_witness_certificate(
                    args.n, args.m, args.k, args.j, t, field, w))
        except wt.PredicateFailsError:
            ok = False
        results["witness"] = _verdict_word(ok)
        if args.certificate and ok:
            payload["certificates"] = certs
    payload["results"] = results
    _emit(args, payload)
    if len(set(results.values())) > 1:
        return EXIT_DISAGREE
    return EXIT_OK


def cmd_bis_collinear(args):
    field = _field(args.q)
    params = BisParams(args.k, args.m, args.k1, args.k2, field)
    pred = bis_collinear_predicate(args.q, args.m, args.k, args.k1, args.k2)
    payload = {"params": params.to_json_dict()}
    results = {}
    if args.mode in ("predicate", "all"):
        results["predicate"] = _verdict_word(pred)
    if args.mode in ("oracle", "all"):
        v = oc.bis_collinear_oracle(params, budget=args.budget)
        results["oracle"] = _verdict_word(v.complete)
        if v.failing_t is not None:
            payload["failing_t"] = v.failing_t
    if args.mode in ("witness", "all"):
        work = params if params.m <= params.k else params.dual()
        ok = True
        certs = []
        try:
            for t in range(work.m):
                b = wt.bis_collinear_witness(work, t)
                certs.append(wt.bis_witness_certificate(work, t, b))
        except wt.PredicateFailsError:
            ok = False
        results["witness"] = _verdict_word(ok)
        if args.certificate and ok:
            payload["certificates"] = certs
    payload["results"] = results
    _emit(args, payload)
    if len(set(results.values())) > 1:
        return EXIT_DISAGREE
    return EXIT_OK


def cmd_bis_concurrent(args):
    field = _field(args.q)
    params = BisParams(args.k, args.m, args.k1, args.k2, field)
    pred = bis_concurrent_predicate(args.q, args.m, args.k, args.k1, args.k2)
    payload = {"params": params.to_json_dict()}
    results = {}
    if args.mode in ("predicate", "all"):
        results["predicate"] = pred if pred != "unresolved" else "unresolved(paper)"
    if args.mode in ("oracle", "all"):
        reps = ob.stabiliser_orbits_on_bisections(
            params.k, field, budget=args.budget).representatives
        v = oc.concurrent_oracle(params, orbit_reps=reps, budget=args.budget)
        results["oracle"] = _verdict_word(v.complete)
    payload["results"] = results
    _emit(args, payload)
    if ("predicate" in results and "oracle" in results
            and results["predicate"] in ("complete", "incomplete")
            and results["predicate"] != results["oracle"]):
        return EXIT_DISAGREE
    return EXIT_OK


def cmd_scan(args):
    qs = args.qs
    rows = []
    mism = 0
    if args.family == "proj":
        for q in qs:
            field = _field(q)
            for n in range(2, args.max_n + 1):
                for m in range(1, n):
                    for k in range(1, n):
                        for j in range(max(0, m + k - n), min(m, k) + 1):
                            if m == k == j:
                                continue  # degenerate geometry, skipped
                            pred = proj_collinear_predicate(n, m, k, j)
                            v = oc.proj_collinear_oracle(
                                ProjParams(n, m, k, j, field),
                                budget=args.budget)
                            rows.append({"n": n, "m": m, "k": k, "j": j,
                                         "q": q, "predicate": pred,
                                         "oracle": v.complete})
        mism = sum(1 for r in rows if r["predicate"] != r["oracle"])
    elif args.family == "bis-col":
        for q in qs:
            field = _field(q)
            for k in range(1, args.max_k + 1):
                for m in range(1, 2 * k):
                    for k1 in range(0, k + 1):
                        for k2 in range(k1, k + 1):
                            try:
                                params = BisParams(k, m, k1, k2, field)
                            except ParamError:
                                continue
                            pred = bis_collinear_predicate(q, m, k, k1, k2)
                            v = oc.bis_collinear_oracle(params, budget=args.budget)
                            rows.append({"q": q, "k": k, "m": m, "k1": k1,
                                         "k2": k2, "predicate": pred,
                                         "oracle": v.complete})
        mism = sum(1 for r in rows if r["predicate"] != r["oracle"])
    elif args.family == "bis-con":
        reps_cache = {}
        for q in qs:
            field = _field(q)
            for k in range(1, args.max_k + 1):
                for m in range(1, k + 1):
                    for k1 in range(0, k + 1):
                        for k2 in range(k1, k + 1):
                            try:
                                params = BisParams(k, m, k1, k2, field)
                            except ParamError:
                                continue
                            pred = bis_concurrent_predicate(q, m, k, k1, k2)
                            if pred == "unresolved":
                                continue
                            if (q, k) not in reps_cache:
                                reps_cache[(q, k)] = \
                                    ob.stabiliser_orbits_on_bisections(
                                        k, field, budget=args.budget).representatives
                            v = oc.concurrent_oracle(
                                params, orbit_reps=reps_cache[(q, k)],
                                budget=args.budget)
                            rows.append({"q": q, "k": k, "m": m, "k1": k1,
                                         "k2": k2, "predicate": pred,
                                         "oracle": _verdict_word(v.complete)})
        mism = sum(1 for r in rows if r["predicate"] != r["oracle"])
    elif args.family == "sn":
        for n in range(2, args.max_n + 1):
            for m in range(1, n // 2 + 1):
                for k in range(1, n):
                    for j in range(max(0, m + k - n), min(m, k) + 1):
                        got = wy.subset_geometry_oracle(n, m, k, j)
                        want = wy.subset_geometry_closed_form(n, m, k, j)
                        rows.append({"n": n, "m": m, "k": k, "j": j,
                                     "oracle": got, "closed_form": want})
        mism = sum(1 for r in rows if r["oracle"] != r["closed_form"])
    payload = {"family": args.family, "points": len(rows), "mismatches": mism}
    if args.format == "json":
        payload["rows"] = rows
    _emit(args, payload)
    return EXIT_DISAGREE if mism else EXIT_OK


def cmd_orbits(args):
    field = _field(args.q)
    report = ob.stabiliser_orbits_on_bisections(args.k, field,
                                                budget=args.budget)
    payload = {
        "q": args.q, "k": args.k,
        "num_orbits": report.num_orbits,
        "total": report.total,
        "orbit_lengths": report.format_multiset(),
    }
    code = EXIT_OK
    if args.golden:
        golden = ob.GOLDEN_ORBITS.get((args.q, args.k))
        if golden is None:
            payload["golden"] = "no stored values for these parameters"
            code = EXIT_BAD_PARAMS
        else:
            match = dict(report.multiset()) == golden
            payload["golden"] = "match" if match else "MISMATCH"
            if not match:
                code = EXIT_DISAGREE
    _emit(args, payload)
    return code


def cmd_counts(args):
    from . import counts as ct  # loads fractions, which no other verb needs
    q, k, m = _field(args.q).q, args.k, args.m
    a = k - m + 1
    h = ct.h_value(a, k, q)
    f = ct.f_value(a, k, q)
    payload = {
        "gaussian(2k,m,q)": str(ct.gaussian(2 * k, m, q)),
        "bisections(2k,k,q)": str(ct.bisection_count(k, q)),
        "F(a,k,q)": f"{f} ~ {float(f):.6f}",
        "H(a,k,q)": f"{h} ~ {float(h):.6f}",
        "a": a,
        "more_than_half": ct.restricted_movement_sufficient(m, k, q),
    }
    if 2 <= a <= k:
        b = ct.h_lower_bound(a, k, q)
        payload["H_lower_bound"] = f"{b} ~ {float(b):.6f}"
    _emit(args, payload)
    return EXIT_OK


def cmd_weyl(args):
    got = wy.subset_geometry_oracle(args.n, args.m, args.k, args.j)
    want = wy.subset_geometry_closed_form(args.n, args.m, args.k, args.j)
    payload = {
        "params": {"n": args.n, "m": args.m, "k": args.k, "j": args.j},
        "oracle": _verdict_word(got),
        "closed_form": _verdict_word(want),
        "double_cosets": wy.double_coset_count(
            args.n, range(1, args.m + 1), range(1, args.k + 1)),
    }
    _emit(args, payload)
    return EXIT_DISAGREE if got != want else EXIT_OK


def _add_common(p, budget=False, certificate=False):
    p.add_argument("--format", choices=["text", "json"], default="text")
    if certificate:
        p.add_argument("--certificate", action="store_true",
                       help="attach witness certificates to the output")
    if budget:
        p.add_argument("--budget", type=int, default=10**7,
                       help="max enumeration elements before refusing")


def build_parser():
    top = _Parser(prog="glgeom")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("proj-collinear", help="m-vs-k subspace geometry")
    for flag in ("--n", "--m", "--k", "--j", "--q"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--mode", choices=["predicate", "oracle", "witness", "all"],
                   default="all")
    _add_common(p, budget=True, certificate=True)
    p.set_defaults(func=cmd_proj_collinear)

    p = sub.add_parser("bis-collinear", help="subspace/bisection, point pairs")
    for flag in ("--k", "--m", "--k1", "--k2", "--q"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--mode", choices=["predicate", "oracle", "witness", "all"],
                   default="all")
    _add_common(p, budget=True, certificate=True)
    p.set_defaults(func=cmd_bis_collinear)

    p = sub.add_parser("bis-concurrent", help="subspace/bisection, line pairs")
    for flag in ("--k", "--m", "--k1", "--k2", "--q"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--mode", choices=["predicate", "oracle", "all"], default="all")
    _add_common(p, budget=True)
    p.set_defaults(func=cmd_bis_concurrent)

    p = sub.add_parser("scan", help="oracle-vs-closed-form regression sweep")
    p.add_argument("--family", choices=["proj", "bis-col", "bis-con", "sn"],
                   required=True)
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--max-k", type=int, default=2)
    p.add_argument("--qs", type=_field_orders, default="2")
    _add_common(p, budget=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("orbits", help="bisection-stabiliser orbit lengths")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--golden", action="store_true",
                   help="compare against the stored reference multisets")
    _add_common(p, budget=True)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("counts", help="exact counting functions")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("weyl", help="subset geometry over the symmetric group")
    for flag in ("--n", "--m", "--k", "--j"):
        p.add_argument(flag, type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_weyl)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TooLargeError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ParamError as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except Exception as exc:
        import traceback  # only this branch needs it, so a run skips the load
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
