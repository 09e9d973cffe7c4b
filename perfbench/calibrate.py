"""Machine-speed calibration for shared, noisy hosts.

On the 2-CPU virtual machine this benchmark was built on, neighbours on
the same physical cores slow pure-Python code by up to a half, in bursts
that last from milliseconds to minutes, and the two CPUs are affected
independently.  No hardware counters are exposed, so the benchmark samples
the speed of the core it runs on with a fixed reference kernel of exact
arithmetic, taken between operations, and reports operation times as
*calibrated* times: the time the operation would take on a machine where
the reference kernel runs in `NOMINAL_S`.

    calibrated = measured * NOMINAL_S / local reference time

The kernel is this file's own code and never calls the library, so a
change to the library cannot move the reference.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# reference() on a quiet core of the machine the benchmark was tuned on
# (an Intel Xeon VM at 2.1 GHz, Python 3.11): the fastest tenth of samples
NOMINAL_S = 0.00175
SAMPLE_EVERY_S = 0.2
WINDOW_S = 1.0

_A = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(24)]
_M = [[(i * 7 + j * 13) % 19 - 9 for j in range(16)] for i in range(16)]


def reference() -> None:
    """A fixed mix of Fraction products and integer Bareiss elimination,
    the two kinds of arithmetic the library spends its time in."""
    acc = [Fraction(0)] * (2 * len(_A) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_A):
            acc[i + j] += x * y
    rows = [r[:] for r in _M]
    prev = 1
    for k in range(len(rows) - 1):
        for i in range(k + 1, len(rows)):
            for j in range(k + 1, len(rows)):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
        prev = rows[k][k] or 1


def reference_time(reps: int = 3) -> float:
    """Median time of `reps` reference runs."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class SpeedLog:
    """Reference timings taken between operations, at most every
    SAMPLE_EVERY_S, and the calibration factor around any interval."""

    def __init__(self):
        self.at: list[float] = []
        self.ref: list[float] = []
        self._last = float("-inf")

    def sample(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            t0 = time.perf_counter()
            reference()
            t1 = time.perf_counter()
            self.at.append((t0 + t1) / 2)
            self.ref.append(t1 - t0)
            self._last = t1

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the median reference time taken within WINDOW_S
        of [start, end], or the nearest sample on each side if none is."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        window = self.ref[lo:hi]
        if len(window) < 2:
            i = bisect.bisect_left(self.at, start)
            window = self.ref[max(0, i - 1):i + 1]
        return NOMINAL_S / statistics.median(window)
