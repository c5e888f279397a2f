"""Host-speed sampling, to take a shared host's speed swings out of timings.

On a small shared VM the same code runs up to about 1.5x slower in phases
that switch within seconds, for Python loops and BLAS calls alike, and
process CPU time slows with it. While a `SpeedSampler` is active, a timer
signal runs a fixed probe (a short Python loop and a small numpy
reduction) in the main thread every INTERVAL_S seconds and records when it
ran and how long it took. `scale(start, end)` is REFERENCE_PROBE_S over
the trimmed mean probe time around an interval. A wall time multiplied by
it reads in seconds on a host where the probe takes REFERENCE_PROBE_S, so
a slow phase counts much less.

The probe runs between bytecodes of the measured code, so each sample adds
its own time (about 0.2% of the interval) to the wall time it scales.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# about the probe's median time, under load, on the 2-vCPU host the
# benchmark's bounds were set on; any constant works, this one keeps scaled
# seconds near wall seconds there
REFERENCE_PROBE_S = 100e-6
# fewest probes averaged for one interval
MIN_SAMPLES = 10

_VECTOR = np.arange(4096, dtype=np.float64)


def probe() -> float:
    """Run the fixed probe once; return its wall seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(300):
        total += i & 7
    for _ in range(10):
        (_VECTOR * 1.5).sum()
    return time.perf_counter() - start


class SpeedSampler:
    """Context manager that samples `probe()` on SIGALRM; main thread only."""

    def __init__(self):
        self.times = []      # perf_counter time each probe started
        self.seconds = []    # how long it took

    def _on_alarm(self, signum, frame):
        self.times.append(time.perf_counter())
        self.seconds.append(probe())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_PROBE_S over the trimmed mean probe time during
        [start, end], widened to the MIN_SAMPLES probes nearest its middle
        when fewer ran inside it."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            hi = min(len(self.times), max(hi, mid + MIN_SAMPLES // 2))
            lo = max(0, min(lo, hi - MIN_SAMPLES))
        if hi <= lo:
            raise RuntimeError("no speed probe ran around the interval")
        # a tenth trimmed from each end: a probe hit by an interrupt says
        # little about the host's speed over the next INTERVAL_S
        probes = sorted(self.seconds[lo:hi])
        cut = len(probes) // 10
        return REFERENCE_PROBE_S / statistics.fmean(
            probes[cut:len(probes) - cut])
