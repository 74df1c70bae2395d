"""Machine-speed calibration.

On a shared machine the same work can take twice as long from one minute
to the next, because other tenants share the CPUs.  That drift swamps any
change to the program.  The benchmark therefore times a fixed kernel
beside its requests and reports every time scaled to a reference speed:

    scaled time = measured time * REFERENCE_MS / median(kernel time)

The kernel does in pure Python what answers are made of: rows filtered
and projected through small functions (as compiled plans do), tuples
hashed into sets, dictionary accumulation and set difference.  Of the
kernels tried, this one's time tracked the answers' time best as the
machine's speed changed (the ratio of the two varied by about 3% over
10-second windows while raw answer time varied by 35%, on 2 shared
CPUs).  It is timed in thread CPU time, so a kernel that waits for the
interpreter lock (the service's other client thread) does not read as a
slow machine.  Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

__all__ = ["REFERENCE_MS", "Speed"]

#: Kernel time at the reference speed.
REFERENCE_MS = 0.45

_NAMES = ("Flash Cab", "Yellow Cab", "Sun Taxi", "Blue Diamond",
          "City Service", "Medallion", "Chicago", "Taxi Affiliation")


def _kernel() -> None:
    rows = [(i, i * 7 % 101, i * 0.5, _NAMES[i % 8]) for i in range(1_000)]
    keep = lambda row: row[1] > 20  # noqa: E731 - calls, as in a plan
    project = lambda row: (row[0], row[2] + 1.0, row[3])  # noqa: E731
    out = frozenset(project(row) for row in rows if keep(row))
    sums: dict[str, float] = {}
    for row in rows:
        sums[row[3]] = sums.get(row[3], 0.0) + row[2]
    out - frozenset(project(row) for row in rows[:250])


class Speed:
    """Kernel timings of one run; safe to sample from several threads.

    Speed drifts within a run too, so a request is scaled by the kernel
    samples taken within ``WINDOW_S`` of its start (:meth:`factor_at`);
    totals over the whole run by all of them (:attr:`factor`).
    """

    WINDOW_S = 2.0
    #: Fewer local samples than this fall back to the whole run's.
    MIN_LOCAL = 5

    def __init__(self) -> None:
        #: (perf_counter seconds, kernel ms), in the order taken.
        self.samples: list[tuple[float, float]] = []
        self._sorted: list[tuple[float, float]] | None = None

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.thread_time_ns()
            _kernel()
            elapsed = (time.thread_time_ns() - start) / 1e6
            self.samples.append((time.perf_counter(), elapsed))
        self._sorted = None

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to scale it to the reference."""
        return REFERENCE_MS / statistics.median(ms for _, ms in self.samples)

    def factor_at(self, moment: float) -> float:
        """:attr:`factor` from the samples near ``moment``
        (``perf_counter`` seconds)."""
        if self._sorted is None:
            self._sorted = sorted(self.samples)
        low = bisect.bisect_left(self._sorted, (moment - self.WINDOW_S,))
        high = bisect.bisect_right(self._sorted, (moment + self.WINDOW_S,))
        local = [ms for _, ms in self._sorted[low:high]]
        if len(local) < self.MIN_LOCAL:
            return self.factor
        return REFERENCE_MS / statistics.median(local)
