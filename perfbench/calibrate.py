"""Machine-speed calibration.

On a shared 2-core VM (Intel Xeon, 7.8 GB), identical work runs up to
25% slower or faster from one second to the next (neighbours on the host).
A fixed kernel, independent of qsep, is timed between units; each unit's
wall time is then scaled by REF_S over the kernel's median time near that
unit. The reported times read as on a machine where the kernel takes
REF_S, so drift in machine speed cancels while changes in qsep do not.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REF_S = 1.5e-3        # kernel time that maps to a factor of 1
EVERY_S = 0.025       # minimum spacing between kernel samples
WINDOW_S = 0.1        # kernel samples this close to a unit set its factor
MIN_SAMPLES = 3


class Calibrator:
    """Times the kernel on demand and turns unit times into reference time."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._perm = rng.permutation(1 << 18)      # 2 MiB, beyond L2
        self.at: list[float] = []                  # sample mid-points
        self.took: list[float] = []
        self._last = -1.0

    def _pass(self) -> int:
        perm = self._perm
        seen = {}
        x = 1
        for i in range(800):
            x = int(perm[x])
            seen[x] = i
        return int(perm[perm].sum()) + len(seen)

    def kernel(self) -> float:
        """Time one kernel pass (dict bookkeeping, scalar reads, a gather)
        after an untimed pass, so the reading does not depend on what the
        preceding unit left in the caches."""
        self._pass()
        t0 = time.perf_counter()
        self._pass()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self._last = t1
        return t1 - t0

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.kernel()

    def factor(self, start: float, end: float) -> float:
        """REF_S over the median kernel time around [start, end]."""
        at = self.at
        if not at:
            return 1.0
        lo = bisect.bisect_left(at, start - WINDOW_S)
        hi = bisect.bisect_right(at, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(at, (start + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2 - 1, len(at) - MIN_SAMPLES))
            hi = min(len(at), lo + MIN_SAMPLES + 1)
        return REF_S / statistics.median(self.took[lo:hi])
