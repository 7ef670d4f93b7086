"""Machine speed, probed alongside a run, to put its times on one scale.

On a shared 2-core machine the same pure-Python work takes up to a third
longer from one second to the next and from one minute to the next, well
beyond any bound a benchmark could hold.  A run therefore times a fixed
reference kernel every ``every`` seconds between operations, and scales
each measured time by ``REFERENCE_S`` over the kernel's time around that
moment: the times reported are those of a machine at the reference speed.
The kernel uses only the standard library (``Fraction`` arithmetic and dict
updates, the same kind of work as the calculus), so no change to
``ncresidue`` can move it.  Runs also report their unscaled figures.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# Median time of ``reference_kernel`` on the machine the bounds were set on
# (2-core x86-64, Python 3.11.7).
REFERENCE_S = 0.0054

WINDOW_S = 1.0


def reference_kernel() -> Fraction:
    acc = Fraction(0)
    bag: dict = {}
    for i in range(1, 600):
        f = Fraction(i, i + 1) * Fraction(3, 7) + Fraction(1, i)
        acc += f
        key = (i % 17, i % 5)
        bag[key] = bag.get(key, 0) + f
    return acc


class SpeedProbe:
    """Reference-kernel timings with their start times, and the scale they imply."""

    def __init__(self, every: float = 0.2):
        self.every = every
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._due = 0.0

    def measure(self) -> None:
        # Without the cyclic collector, the kernel's time does not depend on
        # how many objects the workload keeps alive.
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_kernel()
            t1 = time.perf_counter()
        finally:
            gc.enable()
        self.starts.append(t0)
        self.seconds.append(t1 - t0)
        self._due = t1 + self.every

    def maybe_measure(self) -> None:
        if time.perf_counter() >= self._due:
            self.measure()

    def factor(self, t: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of ``t``."""
        lo = bisect.bisect_left(self.starts, t - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t + WINDOW_S)
        near = self.seconds[lo:hi]
        if not near:
            i = bisect.bisect_left(self.starts, t)
            near = self.seconds[max(0, i - 1) : i + 1]
        return REFERENCE_S / statistics.median(near)
