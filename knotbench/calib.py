"""Machine-speed calibration for the end-to-end times.

The speed of the machine this benchmark was built on (2 vCPUs) changes
from one second to the next, whatever runs on it: the same computation
takes up to 1.6 times as long, in process time as in wall time.  So a fixed kernel that
does not touch knotvol is timed at least every EVERY_S seconds during a
run, between ops, and each time the run measures is multiplied by
REFERENCE_S over the median kernel time within WINDOW_S of it.  The
end-to-end times are therefore seconds at the reference speed: the speed
at which the kernel takes REFERENCE_S.  Raw times are printed next to them.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

REFERENCE_S = 0.02
EVERY_S = 0.1  # least time between two kernel samples
WINDOW_S = 0.5  # samples within this distance of a measurement scale it ...
MIN_SAMPLES = 3  # ... but never fewer than the nearest three


def kernel() -> float:
    """Fixed work, half numpy arrays and half interpreted object arithmetic,
    like the state-sum engine and the exact engine."""
    x = np.linspace(0.0, 1.0, 100_000)
    total = 0.0
    for _ in range(8):
        idx = np.searchsorted(x, x[::3], side="right") - 1
        total += float(np.sum(np.exp(1j * x[idx]).real))
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, 7 * i + 1)
    return total + float(acc) + sum(i * i % 7 for i in range(60_000))


class Calibrator:
    def __init__(self):
        self.times: list[float] = []  # midpoint of each sample, ascending
        self.samples: list[float] = []  # kernel seconds of each sample
        self._last = float("-inf")

    def sample(self) -> None:
        """Time the kernel once."""
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.samples.append(t1 - t0)
        self._last = t1

    def tick(self) -> None:
        """Sample if EVERY_S has passed since the last sample."""
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor_at(self, t: float) -> float:
        """REFERENCE_S over the median kernel time of the samples near t."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            near = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - t))[:MIN_SAMPLES]
            return REFERENCE_S / statistics.median(self.samples[i] for i in near)
        return REFERENCE_S / statistics.median(self.samples[lo:hi])
