"""Command-line driver: reproducible experiments with machine-readable output.

Exit codes: 0 success, 1 bad parameters (a usage error or a ParamError),
2 disagreement (two routes' decided verdicts, complete and incomplete,
differ; unresolved(paper) decides nothing), a scan mismatch or a golden
mismatch, 3 enumeration budget exceeded
(TooLargeError), 4 internal error (any other exception from the engine,
such as a broken runtime invariant or an unimplemented case; its
traceback follows the one-line message on stderr), 141 stdout closed
before the output was written (as `| head` does; the shell's code for a
SIGPIPE death, with nothing on stderr).  JSON output is byte-identical
across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import os
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
EXIT_CLOSED_PIPE = 141


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


def _routes(args, params, routes):
    """Run the (mode, route) pairs that --mode selects, in order, and emit
    their verdicts.  A route returns its verdict word and the payload
    fields it adds.  Exit 2 when two decided words (complete, incomplete)
    differ; unresolved(paper) decides nothing."""
    payload = {"params": params.to_json_dict()}
    results = {}
    for mode, route in routes:
        if args.mode in (mode, "all"):
            results[mode], fields = route()
            payload.update(fields)
    payload["results"] = results
    _emit(args, payload)
    decided = set(results.values()) & {"complete", "incomplete"}
    return EXIT_DISAGREE if len(decided) > 1 else EXIT_OK


def _collinear_oracle(verdict):
    if verdict.failing_t is None:
        return _verdict_word(verdict.complete), {}
    return _verdict_word(verdict.complete), {"failing_t": verdict.failing_t}


def _witness(args, certificates):
    """The witness route: complete iff a certificate exists at every overlap
    t (PredicateFailsError at the first that has none), attached under
    --certificate."""
    try:
        certs = list(certificates)
    except wt.PredicateFailsError:
        return "incomplete", {}
    return "complete", ({"certificates": certs} if args.certificate else {})


def cmd_proj_collinear(args):
    n, m, k, j, field = args.n, args.m, args.k, args.j, _field(args.q)
    params = ProjParams(n, m, k, j, field)
    certificates = (wt.proj_witness_certificate(
        n, m, k, j, t, field, wt.proj_collinear_witness(n, m, k, j, t, field))
        for t in range(max(0, 2 * m - n), m))
    return _routes(args, params, [
        ("predicate", lambda: (
            _verdict_word(proj_collinear_predicate(n, m, k, j)), {})),
        ("oracle", lambda: _collinear_oracle(
            oc.proj_collinear_oracle(params, budget=args.budget))),
        ("witness", lambda: _witness(args, certificates))])


def cmd_bis_collinear(args):
    params = BisParams(args.k, args.m, args.k1, args.k2, _field(args.q))
    work = params if params.m <= params.k else params.dual()
    certificates = (wt.bis_witness_certificate(
        work, t, wt.bis_collinear_witness(work, t)) for t in range(work.m))
    return _routes(args, params, [
        ("predicate", lambda: (_verdict_word(bis_collinear_predicate(
            args.q, args.m, args.k, args.k1, args.k2)), {})),
        ("oracle", lambda: _collinear_oracle(
            oc.bis_collinear_oracle(params, budget=args.budget))),
        ("witness", lambda: _witness(args, certificates))])


def cmd_bis_concurrent(args):
    params = BisParams(args.k, args.m, args.k1, args.k2, _field(args.q))

    def predicate():
        word = bis_concurrent_predicate(args.q, args.m, args.k, args.k1,
                                        args.k2)
        return ("unresolved(paper)" if word == "unresolved" else word), {}
    return _routes(args, params, [
        ("predicate", predicate),
        ("oracle", lambda: (_verdict_word(oc.concurrent_oracle(
            params, budget=args.budget).complete), {}))])


def _bis_points(field, max_k, m_past_k):
    """The admissible BisParams over the field with k <= max_k, in scan
    order (k, m, k1, k2); m runs up to 2k - 1, or up to k."""
    for k in range(1, max_k + 1):
        for m in range(1, 2 * k if m_past_k else k + 1):
            for k1 in range(0, k + 1):
                for k2 in range(k1, k + 1):
                    try:
                        yield BisParams(k, m, k1, k2, field)
                    except ParamError:
                        continue


def _scan_rows(args, q, field):
    """The scan's rows at one field order, closed form against oracle."""
    if args.family == "proj":
        for n in range(2, args.max_n + 1):
            for m in range(1, n):
                for k in range(1, n):
                    for j in range(max(0, m + k - n), min(m, k) + 1):
                        if m == k == j:
                            continue  # degenerate geometry, skipped
                        pred = proj_collinear_predicate(n, m, k, j)
                        v = oc.proj_collinear_oracle(
                            ProjParams(n, m, k, j, field), budget=args.budget)
                        yield {"n": n, "m": m, "k": k, "j": j, "q": q,
                               "predicate": pred, "oracle": v.complete}
    elif args.family == "bis-col":
        for p in _bis_points(field, args.max_k, m_past_k=True):
            pred = bis_collinear_predicate(q, p.m, p.k, p.k1, p.k2)
            v = oc.bis_collinear_oracle(p, budget=args.budget)
            yield {"q": q, "k": p.k, "m": p.m, "k1": p.k1, "k2": p.k2,
                   "predicate": pred, "oracle": v.complete}
    else:
        reps = {}  # one orbit partition per k, at its first resolved point
        for p in _bis_points(field, args.max_k, m_past_k=False):
            pred = bis_concurrent_predicate(q, p.m, p.k, p.k1, p.k2)
            if pred == "unresolved":
                continue
            if p.k not in reps:
                reps[p.k] = ob.stabiliser_orbits_on_bisections(
                    p.k, field, budget=args.budget).representatives
            v = oc.concurrent_oracle(p, orbit_reps=reps[p.k],
                                     budget=args.budget)
            yield {"q": q, "k": p.k, "m": p.m, "k1": p.k1, "k2": p.k2,
                   "predicate": pred, "oracle": _verdict_word(v.complete)}


def cmd_scan(args):
    rows = []
    if args.family == "sn":
        for n in range(2, args.max_n + 1):
            for m in range(1, n // 2 + 1):
                for k in range(1, n):
                    for j in range(max(0, m + k - n), min(m, k) + 1):
                        got = wy.subset_geometry_oracle(n, m, k, j)
                        want = wy.subset_geometry_closed_form(n, m, k, j)
                        rows.append({"n": n, "m": m, "k": k, "j": j,
                                     "oracle": got, "closed_form": want})
        mism = sum(r["oracle"] != r["closed_form"] for r in rows)
    else:
        for q in args.qs:
            rows.extend(_scan_rows(args, q, _field(q)))
        mism = sum(r["predicate"] != r["oracle"] for r in rows)
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
    # first, so that a bad m is refused as m, not as a = k - m + 1
    more_than_half = ct.restricted_movement_sufficient(m, k, q)
    a = k - m + 1
    h = ct.h_value(a, k, q)
    f = ct.f_value(a, k, q)
    payload = {
        "gaussian(2k,m,q)": str(ct.gaussian(2 * k, m, q)),
        "bisections(2k,k,q)": str(ct.bisection_count(k, q)),
        "F(a,k,q)": f"{f} ~ {float(f):.6f}",
        "H(a,k,q)": f"{h} ~ {float(h):.6f}",
        "a": a,
        "more_than_half": more_than_half,
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send the unwritten rest to devnull, so the
        # flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
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
