"""A speed probe interleaved with the measured work.

The shared virtual machine the benchmark was tuned on runs the same
pure-Python code up to 1.8x slower or faster from one phase to the next,
and a phase lasts from seconds to minutes, so a raw time depends on when it
was taken more than on the code.  Every INTERVAL seconds a SIGALRM handler
times a fixed pure-Python loop.  REF_S divided by the loop's time is the
machine's speed at that moment relative to a reference speed; a time
multiplied by the mean of that ratio over its interval is the time the same
work takes at the reference speed.  On that machine this cut the spread of
pass times between ten runs from 0.04-0.19 to 0.03-0.08.
"""

from __future__ import annotations

import signal
import time

INTERVAL = 0.02   # seconds between probes, about 1% of the time
LOOP = 2000       # iterations of the probe loop
REF_S = 170e-6    # the loop's time at the reference speed (a fast phase)


def probe_once():
    start = time.perf_counter()
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return time.perf_counter() - start


class Probe:
    """Probes from construction until stop(); lap() closes an interval."""

    def __init__(self):
        self._times = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def _tick(self, signum, frame):
        self._times.append(probe_once())

    def lap(self):
        """(seconds spent probing, speed) since the last lap.  Call it after
        reading the interval's end; it probes once more itself, so the
        speed has at least one sample."""
        times, self._times = self._times, []
        inverse = [1 / t for t in times + [probe_once()]]
        return sum(times), REF_S * sum(inverse) / len(inverse)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
