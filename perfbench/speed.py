"""Speed of the core a run is pinned to, sampled while the run goes on.

On a shared machine the same pure-Python work can take up to twice as long
from one second to the next, because other tenants load the physical core.
A run therefore pins itself, and so every child it starts, to one core,
and a thread times a fixed kernel of exact-rational arithmetic (the kind of
work jackb2 does most) on that core every ``PERIOD_S``, in thread CPU time,
which slows with the core as wall time does.  A time measured
over an interval is reported at reference speed:

    corrected = measured * REFERENCE_S / mean kernel time in the interval

so it reads as the time the work takes on a core that runs the kernel in
``REFERENCE_S``.  The sampler takes about 4% of the core.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from fractions import Fraction

PERIOD_S = 0.025
REFERENCE_S = 1.0e-3
KERNEL_TERMS = 256
MIN_SAMPLES = 3


def kernel():
    total = Fraction(0)
    for i in range(1, KERNEL_TERMS):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return total


def pin_to_one_core():
    """Pin this process (and its future children) to its lowest allowed core."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Background sampler; use as a context manager around the run."""

    def __init__(self):
        self.times = []     # sample start, perf_counter seconds, increasing
        self.kernel_s = []  # kernel duration of each sample
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        # The kernel is timed in thread CPU time: the children share the
        # core, and time spent preempted by them is not the core's speed.
        while not self._stop.wait(PERIOD_S):
            start = time.perf_counter()
            cpu_start = time.thread_time()
            kernel()
            self.kernel_s.append(time.thread_time() - cpu_start)
            self.times.append(start)

    def slowdown(self, start, end):
        """Mean kernel time over [start, end] relative to REFERENCE_S.

        A short interval borrows the nearest samples around its middle, so
        the estimate always rests on at least MIN_SAMPLES samples.
        """
        times, kernel_s = list(self.times), list(self.kernel_s)
        n = min(len(times), len(kernel_s))
        if n == 0:
            raise RuntimeError("no speed samples were taken")
        lo = bisect.bisect_left(times, start, 0, n)
        hi = bisect.bisect_right(times, end, 0, n)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(times, 0.5 * (start + end), 0, n)
            lo = max(0, min(mid - MIN_SAMPLES // 2, n - MIN_SAMPLES))
            hi = min(n, lo + MIN_SAMPLES)
        return statistics.fmean(kernel_s[lo:hi]) / REFERENCE_S

    def corrected(self, seconds, start, end):
        return seconds / self.slowdown(start, end)
