"""Tracing glgeom from outside: wrappers around the public functions of each
module, installed into every glgeom namespace that binds them and removed
again after the run.

Every wrapped call opens a span on one stack.  When it closes, its self time
(duration minus the time its wrapped children cover) and its call or item
count go into per-name totals.  Route-level spans (oracles, orbit BFS,
witnesses, certificates, and the benchmark's own query spans) are also kept
in memory as (name, start, end, parent) and written out when the run ends;
kernel-level spans are folded into the totals as they close, because one
pass opens hundreds of thousands of them.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute, span name, kind).  Kinds: "call" (a kernel), "gen"
# (a generator, timed per next()), "init" (a constructor), "route"
# (a route-level call whose span is kept).
LAYERS = [
    ("gfq", "pk_rank", "gfq.pk_rank", "call"),
    ("gfq", "rank_of_rows", "gfq.rank_of_rows", "call"),
    ("gfq", "rref", "gfq.rref", "call"),
    ("gfq", "rref_trim", "gfq.rref_trim", "call"),
    ("gfq", "kernel", "gfq.kernel", "call"),
    ("gfq", "mat_inverse", "gfq.mat_inverse", "call"),
    ("gfq", "pk_rref", "gfq.pk_rref", "call"),
    ("subspace", "intersection_dim", "subspace.intersection_dim", "call"),
    ("subspace", "perp", "subspace.perp", "call"),
    ("subspace", "complement", "subspace.complement", "call"),
    ("subspace", "transport_pair", "subspace.transport_pair", "call"),
    ("subspace", "apply_mat", "subspace.apply_mat", "call"),
    ("subspace", "Subspace", "subspace.Subspace", "init"),
    ("subspace", "grassmannian", "subspace.grassmannian", "gen"),
    ("subspace", "bisections", "subspace.bisections", "gen"),
    ("subspace", "packed_grassmannian", "subspace.packed_grassmannian", "gen"),
    ("subspace", "packed_bisection_pairs", "subspace.packed_bisection_pairs",
     "gen"),
    ("geometry", "incident_bis", "geometry.incident_bis", "call"),
    ("witness", "proj_collinear_witness", "witness.proj_collinear_witness",
     "route"),
    ("witness", "bis_collinear_witness", "witness.bis_collinear_witness",
     "route"),
    ("witness", "proj_witness_certificate", "witness.certificate", "route"),
    ("witness", "bis_witness_certificate", "witness.certificate", "route"),
    ("oracle", "proj_collinear_oracle", "oracle.proj_collinear_oracle", "route"),
    ("oracle", "bis_collinear_oracle", "oracle.bis_collinear_oracle", "route"),
    ("oracle", "concurrent_oracle", "oracle.concurrent_oracle", "route"),
    ("orbits", "stabiliser_orbits_on_bisections",
     "orbits.stabiliser_orbits_on_bisections", "route"),
]

# spans whose open interval defines a scope: wrapped calls made inside are
# also counted per scope (oracle.rank_calls, orbits.intersection_dim_calls)
SCOPES = {
    "oracle.proj_collinear_oracle": "oracle",
    "oracle.bis_collinear_oracle": "oracle",
    "oracle.concurrent_oracle": "oracle",
    "orbits.stabiliser_orbits_on_bisections": "orbits",
}


class Stat:
    __slots__ = ("calls", "self_s", "items", "refused", "returned", "witness")

    def __init__(self):
        self.calls = self.items = self.refused = self.returned = 0
        self.witness = 0
        self.self_s = 0.0


class Tracer:
    """Span stack plus per-name totals.  `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter, refused_exc=()):
        self.clock = clock
        self.refused_exc = refused_exc
        self.stats = {}
        self.spans = []          # kept spans: [name, start, end, parent]
        self.scoped = {}         # (scope, name) -> calls made inside scope
        self._stack = []         # open frames: [start, child_time]
        self._kept = []          # indices of open kept spans
        self._scopes = {}        # scope -> open depth
        self._open_scopes = ()
        self._restore = []

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    # -- spans -----------------------------------------------------------

    def open(self, name, keep=False):
        """Open a span; returns the frame that close() takes."""
        if self._open_scopes:
            for scope in self._open_scopes:
                k = (scope, name)
                self.scoped[k] = self.scoped.get(k, 0) + 1
        scope = SCOPES.get(name)
        if scope is not None:
            self._scopes[scope] = self._scopes.get(scope, 0) + 1
            self._open_scopes = tuple(s for s, d in self._scopes.items() if d)
        start = self.clock()
        if keep:
            parent = self._kept[-1] if self._kept else -1
            self._kept.append(len(self.spans))
            self.spans.append([name, start, None, parent])
        frame = [start, 0.0, name, keep]
        self._stack.append(frame)
        return frame

    def close(self, frame):
        end = self.clock()
        stack = self._stack
        stack.pop()
        dur = end - frame[0]
        name = frame[2]
        st = self.stat(name)
        st.calls += 1
        st.self_s += dur - frame[1]
        if stack:
            stack[-1][1] += dur
        if frame[3]:
            self.spans[self._kept.pop()][2] = end
        scope = SCOPES.get(name)
        if scope is not None:
            self._scopes[scope] -= 1
            self._open_scopes = tuple(s for s, d in self._scopes.items() if d)

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, name, fn):
        """Hot path for kernels: no kept span, no scope of its own."""
        stack, clock, st, tr = self._stack, self.clock, self.stat(name), self

        def traced(*args, **kwargs):
            if tr._open_scopes:
                for scope in tr._open_scopes:
                    k = (scope, name)
                    tr.scoped[k] = tr.scoped.get(k, 0) + 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                st.calls += 1
                st.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
        return traced

    def _wrap_gen(self, name, fn):
        tr, st = self, self.stat(name)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    frame = tr.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tr.close(frame)
                    st.items += 1
                    yield item
            finally:
                it.close()
        return traced

    def _wrap_route(self, name, fn):
        tr, st, refused = self, self.stat(name), self.refused_exc

        def traced(*args, **kwargs):
            frame = tr.open(name, keep=True)
            try:
                out = fn(*args, **kwargs)
            except refused:
                st.refused += 1
                raise
            finally:
                tr.close(frame)
            st.returned += 1
            if getattr(out, "method", None) == "witness":
                st.witness += 1
            return out
        return traced

    def _wrap_init(self, name, cls):
        tr, orig = self, cls.__init__

        def traced(obj, *args, **kwargs):
            frame = tr.open(name)
            try:
                orig(obj, *args, **kwargs)
            finally:
                tr.close(frame)
        return orig, traced

    def install(self):
        """Wrap every LAYERS entry in every glgeom namespace that binds it.
        Entries missing from the program are skipped; their metrics then
        read 0."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "glgeom"
                                         or n.startswith("glgeom."))]
        for mod_name, attr, name, kind in LAYERS:
            home = sys.modules.get(f"glgeom.{mod_name}")
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            self.stat(name)
            if kind == "init":
                before, after = self._wrap_init(name, orig)
                orig.__init__ = after
                self._restore.append((orig, "__init__", before))
                continue
            wrap = {"call": self._wrap_call, "gen": self._wrap_gen,
                    "route": self._wrap_route}[kind]
            traced = wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, orig))

    def uninstall(self):
        for target, key, orig in reversed(self._restore):
            setattr(target, key, orig)
        self._restore.clear()

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def self_times(spans):
    """Self time per name from a list of closed spans (name, start, end,
    parent index): each span's duration minus the durations of its direct
    children.  The reference for the arithmetic Tracer does online."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, every name present."""
    s = tracer.stat
    out = {}
    for mod_name, attr, name, kind in LAYERS:
        st = s(name)
        if kind == "gen":
            out[f"{name}.items"] = (st.items, "count")
        elif kind == "init":
            out[f"{name}.created"] = (st.calls, "count")
        else:
            out[f"{name}.calls"] = (st.calls, "count")
        if name in ("witness.proj_collinear_witness",
                    "witness.bis_collinear_witness"):
            out[f"{name}.refused"] = (st.refused, "count")
        out[f"{name}.self_s"] = (st.self_s, "s")
    wit = [s("witness.proj_collinear_witness"), s("witness.bis_collinear_witness")]
    attempts = sum(w.calls for w in wit)
    out["witness.hit_ratio"] = (
        sum(w.returned for w in wit) / attempts if attempts else 0.0, "ratio")
    scoped = tracer.scoped
    out["oracle.rank_calls"] = (
        scoped.get(("oracle", "gfq.pk_rank"), 0)
        + scoped.get(("oracle", "gfq.rank_of_rows"), 0), "count")
    oracles = [s(n) for n, scope in SCOPES.items() if scope == "oracle"]
    calls = sum(o.calls for o in oracles)
    out["oracle.witness_shortcut_ratio"] = (
        sum(o.witness for o in oracles) / calls if calls else 0.0, "ratio")
    out["orbits.intersection_dim_calls"] = (
        scoped.get(("orbits", "subspace.intersection_dim"), 0), "count")
    return out
