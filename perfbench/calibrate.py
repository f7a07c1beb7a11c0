"""Host-speed calibration: wall time expressed at a reference host speed.

On a shared 2-core host the same query runs up to 1.8x slower for
minutes at a time while other tenants are busy, and the slowdown does
not average out within a run.  A fixed pure-Python kernel shaped like
the checker's hot loop (DBM closure over tuples, dict counting) slows
down with it: over 100 s of alternating runs its time ratio to a
pipeline query varied by 5% (interquartile, 3 s windows) while the
query's own time varied by 28%.

`HostClock` runs that kernel every INTERVAL_S between queries and
scales each measured interval by REFERENCE_KERNEL_S over the kernel
times around it.  The kernel never touches tolmc, so a faster or slower
program moves the scaled times exactly as it moves wall time on a quiet
host.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

INF = 1 << 60
# Median kernel time on a quiet 2-core Xeon host with Python 3.11.7; it
# sets the scale only, so scaled times read as milliseconds on that host.
REFERENCE_KERNEL_S = 0.0037
INTERVAL_S = 0.05


def _closure(d):
    n = len(d)
    m = [list(row) for row in d]
    for k in range(n):
        mk = m[k]
        for i in range(n):
            dik = m[i][k]
            if dik >= INF:
                continue
            mi = m[i]
            for j in range(n):
                dkj = mk[j]
                if dkj >= INF:
                    continue
                via = dik + dkj - ((dik | dkj) & 1)
                if via < mi[j]:
                    mi[j] = via
    return tuple(tuple(row) for row in m)


def _matrices():
    rng = random.Random(0)
    return [tuple(tuple(1 if i == j else rng.choice((INF, 2 * rng.randint(-5, 20) + 1))
                        for j in range(4)) for i in range(4))
            for _ in range(64)]


_MATRICES = _matrices()


def kernel() -> int:
    seen: dict = {}
    for _ in range(6):
        for d in _MATRICES:
            c = _closure(d)
            seen[c] = seen.get(c, 0) + 1
    return len(seen)


class HostClock:
    """Calibration points taken between measured intervals."""

    def __init__(self):
        self.times: list[float] = []     # when each calibration ended
        self.kernel_s: list[float] = []  # how long its kernel took

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.kernel_s.append(t1 - t0)

    def maybe_calibrate(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.calibrate()

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds between t0 and t1, at the reference host speed.

        Uses the kernel times taken within INTERVAL_S of the interval (at
        least the nearest one on each side).
        """
        before = max(0, bisect.bisect_right(self.times, t0) - 1)
        after = bisect.bisect_left(self.times, t1)
        lo = min(before, bisect.bisect_left(self.times, t0 - INTERVAL_S))
        hi = max(after + 1, bisect.bisect_right(self.times, t1 + INTERVAL_S))
        near = self.kernel_s[lo:hi]
        return (t1 - t0) * REFERENCE_KERNEL_S / statistics.median(near)
