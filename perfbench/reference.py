"""A reference loop that tells how fast the host runs at a given moment.

The host this benchmark runs on changes speed by up to 1.5x over tens of
seconds, and that drift moves a workload's wall time more than most code
changes would.  So a fixed pure-Python loop of set and list work, as in the
DFS, the BFS and the classifier, is timed five times on each side of the
set-up and about every SAMPLE_EVERY_S of the timed phase, after each
operation, outside what it times.  The set-up's time, and the timed phase's,
are then scaled by NOMINAL_S over the median time of the loop so far in that
process: the seconds they would take on a host where the loop always takes
NOMINAL_S.  Over the same runs, this steadied the timed phase more than a
scale taken from the loop's samples within 0.25 s or 1 s of each operation.

The NumPy subset sweep does not slow down with interpreted code: scaled by
this loop, or by a loop of its own array operations, its time spread more
from run to run than unscaled.  So the operations it serves are taken as
measured.
"""

from __future__ import annotations

import statistics
import time

SAMPLE_EVERY_S = 0.05
LOOPS = 6000
NOMINAL_S = 0.001  # the loop takes 0.7-1.2 ms on the baseline host as its speed drifts
SWEEP_KINDS = frozenset({"gamma", "Gamma"})  # operations the NumPy subset sweep serves


def python_loop() -> None:
    seen, order = set(), []
    for i in range(LOOPS):
        k = i * 7919 % 4099
        if k not in seen:
            seen.add(k)
            order.append(k)


class Clock:
    """Times of the reference loop in one process."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            started = time.perf_counter()
            python_loop()
            self.samples.append(time.perf_counter() - started)

    def sample_after(self, took: float) -> None:
        """Sample once per SAMPLE_EVERY_S of `took`, at least once, so that
        the samples spread evenly over the time measured."""
        self.sample(max(1, round(took / SAMPLE_EVERY_S)))

    def median_ms(self) -> float:
        return 1000 * statistics.median(self.samples)

    def scale(self) -> float:
        """Factor from seconds measured to seconds at the nominal speed."""
        return NOMINAL_S / statistics.median(self.samples)
