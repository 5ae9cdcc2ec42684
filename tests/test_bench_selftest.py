"""The benchmark's self-tests, run as the benchmark runs them.

bench/selftest.py pins what the benchmark relies on in the engine: that
tracing rebinds `oracle.pk_rank`, and that one `intersection_dim` at q = 2
calls `gfq.pk_rank` once.  Running it here means an engine change that
breaks the benchmark fails the suite instead of going unseen.
"""

import pathlib
import subprocess
import sys

SELFTEST = pathlib.Path(__file__).resolve().parents[1] / "bench" / "selftest.py"


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
