"""Self-tests of the benchmark machinery (stdlib unittest, about 15 s).

    python3 bench/selftest.py

They cover the tracer's self-time arithmetic, that uninstalled wrappers
record nothing, that the speed probe samples while it runs and leaves no
timer behind, that the digest does not depend on the seed, and that one
corrupted record is counted as one failed query.
"""

from __future__ import annotations

import os
import signal
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

MODULES = worker.load_modules()


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class SelfTime(unittest.TestCase):
    def test_nested_span_tree(self):
        # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and c [5, 9]
        clock = FakeClock([0, 1, 2, 3, 4, 5, 9, 10])
        t = tracing.Tracer(clock=clock)
        a = t.open("a", keep=True)
        b = t.open("b", keep=True)
        c = t.open("c", keep=True)
        t.close(c)
        t.close(b)
        c = t.open("c", keep=True)
        t.close(c)
        t.close(a)
        got = {name: st.self_s for name, st in t.stats.items()}
        self.assertEqual(got, {"a": 3, "b": 2, "c": 5})
        self.assertEqual(tracing.self_times(t.spans), got)
        self.assertEqual([s[3] for s in t.spans], [-1, 0, 1, 0])
        self.assertEqual(t.stat("c").calls, 2)

    def test_scoped_counts(self):
        t = tracing.Tracer(clock=FakeClock(range(100)))
        kernel = t._wrap_call("gfq.pk_rank", lambda: None)
        kernel()
        frame = t.open("oracle.bis_collinear_oracle", keep=True)
        kernel()
        kernel()
        t.close(frame)
        self.assertEqual(t.stat("gfq.pk_rank").calls, 3)
        self.assertEqual(t.scoped, {("oracle", "gfq.pk_rank"): 2})


class Uninstall(unittest.TestCase):
    def test_nothing_recorded_after_uninstall(self):
        sub, orbits = MODULES["subspace"], MODULES["orbits"]
        bound = {(name, key): value for name, mod in MODULES.items()
                 for key, value in vars(mod).items() if callable(value)}
        init = sub.Subspace.__init__
        field = MODULES["gfq"].field_make(2)
        u = sub.coordinate_subspace(field, 4, [0, 1])
        w = sub.coordinate_subspace(field, 4, [1, 2])

        t = tracing.Tracer(refused_exc=MODULES["witness"].PredicateFailsError)
        t.install()
        self.assertIsNot(MODULES["oracle"].pk_rank, bound[("gfq", "pk_rank")])
        self.assertEqual(sub.intersection_dim(u, w), 1)
        list(sub.grassmannian(3, field, 1))
        self.assertEqual(t.stat("subspace.intersection_dim").calls, 1)
        self.assertEqual(t.stat("gfq.pk_rank").calls, 1)
        self.assertEqual(t.stat("subspace.grassmannian").items, 7)
        self.assertEqual(t.stat("subspace.Subspace").calls, 7)
        t.uninstall()

        before = {n: (st.calls, st.items) for n, st in t.stats.items()}
        sub.intersection_dim(u, w)
        list(sub.grassmannian(3, field, 1))
        orbits.stabiliser_orbits_on_bisections(1, field)
        after = {n: (st.calls, st.items) for n, st in t.stats.items()}
        self.assertEqual(before, after)
        self.assertIs(sub.Subspace.__init__, init)
        for (name, key), value in bound.items():
            self.assertIs(getattr(MODULES[name], key), value, (name, key))


class SpeedProbe(unittest.TestCase):
    def test_samples_while_running_and_stops(self):
        previous = signal.getsignal(signal.SIGALRM)
        probe = speed.Probe()
        start = time.perf_counter()
        while time.perf_counter() - start < 10 * speed.INTERVAL:
            pass
        probe_s, factor = probe.lap()
        probe.stop()
        self.assertGreater(probe_s, 0)
        self.assertGreater(factor, 0)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)


def _api():
    return worker.Api(MODULES, (2, 3, 4))


class OutputGate(unittest.TestCase):
    def test_two_seeds_same_digest(self):
        digests, orders = [], []
        for seed in (1, 2):
            queries = [x for x in wl.ordered_queries("witness-sweep", seed)
                       if x.key[1] in (2, 3) and x.key[2] <= 6]
            records, _, failures = worker.run_pass(_api(), queries)
            self.assertEqual(failures, [])
            digests.append(wl.digest(records))
            orders.append([x.key for x in queries])
        self.assertNotEqual(orders[0], orders[1])
        self.assertEqual(digests[0], digests[1])

    def test_dependent_queries_stay_after_their_partition(self):
        for seed in range(20):
            seen = set()
            for x in wl.ordered_queries("orbit-partition", seed):
                self.assertTrue(x.after is None or x.after in seen)
                seen.add(x.key)

    def test_one_corrupted_record_is_one_failure(self):
        queries = [x for x in wl.ordered_queries("exhaustive-scan", 3)
                   if x.key[0] == "proj-oracle" and x.key[2] <= 4]
        records, _, failures = worker.run_pass(_api(), queries)
        self.assertEqual(failures, [])
        fps = {wl.key_string(x.key): wl.fingerprint(r)
               for x, r in zip(queries, records)}
        want = wl.digest(records)
        self.assertEqual(worker.gate(queries, records, [], fps, want), 0)

        # a changed method passes the reference check, not the fingerprint
        records[5] = dict(records[5], method="bogus")
        failures = []
        self.assertEqual(worker.gate(queries, records, failures, fps, want), 1)
        # a flipped verdict fails both checks, and still counts once
        records[5] = dict(records[5], complete=not records[5]["complete"])
        failures = [(queries[5].key, queries[5].check(records[5]))]
        self.assertIsNotNone(failures[0][1])
        self.assertEqual(worker.gate(queries, records, failures, fps, want), 1)


if __name__ == "__main__":
    unittest.main()
