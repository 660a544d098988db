"""Machine-speed probe: rescale measured times to a fixed reference speed.

On a small shared machine the speed of a core drifts by half or more for
seconds to minutes at a time, with the load on the cores it shares, so the
raw wall time of a command says as much about the machine as about the
program.  The probe times a fixed pure-Python loop (exact fractions and
dict updates, like the engine's own arithmetic) in the benchmark's own
process, between commands and never beside them, and a time measured
between two readings is rescaled by
``REFERENCE_S / mean(reading before, reading after)``.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# The probe's time on an idle core of the machine the benchmark was defined
# on (one Intel Xeon vCPU of two, Python 3.11); reported seconds are
# seconds at that speed.
REFERENCE_S = 0.02
ROUNDS = 3  # probe rounds per reading; the reading is their median
MIN_GAP_S = 1.0  # commands shorter than this share a reading


def probe_loop() -> float:
    start = time.perf_counter()
    acc, buckets = Fraction(0), {}
    for i in range(1, 3000):
        acc += Fraction(i % 97 + 1, i) * Fraction(3, i % 7 + 2)
        buckets[i % 101] = buckets.get(i % 101, 0) + i * i
    return time.perf_counter() - start


class SpeedProbe:
    """Readings of the probe over a run, with the time each was taken."""

    def __init__(self):
        self.times: list[float] = []
        self.readings: list[float] = []

    def read(self, force: bool = True) -> None:
        """Take a reading, unless one was taken less than MIN_GAP_S ago."""
        if not force and self.times and time.perf_counter() - self.times[-1] < MIN_GAP_S:
            return
        reading = statistics.median(probe_loop() for _ in range(ROUNDS))
        self.times.append(time.perf_counter())
        self.readings.append(reading)

    def scale(self, start: float, end: float) -> float:
        """The factor for a time measured from ``start`` to ``end``: the
        reference over the mean of the last reading before it and the
        first reading after it."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        around = [self.readings[i] for i in (before, after) if 0 <= i < len(self.readings)]
        return REFERENCE_S / statistics.mean(around)
