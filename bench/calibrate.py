"""Calibration against the speed of the machine while a run lasts.

The interpreter's speed on a shared machine drifts by up to a factor of two
over seconds, which would swamp any change in the library. Between queries,
at most every CAL_EVERY_S seconds, the loop times a fixed pure-Python kernel
(dicts, tuples, sorting: the same kind of work as the library). Each query's
latency is then scaled by REF_S over the kernel's median time around that
query. The result is the latency on an interpreter that runs the kernel in
REF_S seconds. A slower library moves it; a slower machine does not. Raw
wall times stay in the report.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

CAL_EVERY_S = 0.1
REF_S = 0.0005
WINDOW_S = 0.5


def kernel():
    d = {}
    t = ()
    for i in range(1500):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + 1
        if i % 50 == 0:
            t = tuple(sorted(d.values()))[:5]
    return len(d), t


def sample():
    """Kernel time, the faster of two tries."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


class Calibration:
    """Kernel samples over a run, and the latency scaling they imply."""

    def __init__(self):
        self.times, self.values = [], []
        self._next = 0.0

    def maybe_sample(self):
        now = perf_counter()
        if now >= self._next:
            self.times.append(now)
            self.values.append(sample())
            self._next = perf_counter() + CAL_EVERY_S

    def factor(self, t0, dt):
        """REF_S over the median kernel time within WINDOW_S of a query."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t0 + dt + WINDOW_S)
        window = self.values[lo:hi] or [self.values[min(lo, len(self.values)
                                                        - 1)]]
        return REF_S / statistics.median(window)
