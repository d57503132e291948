"""Machine-speed calibration for the benchmark's end-to-end times.

On the shared 2-vCPU Xeon host the benchmark was tuned on, speed
drifted by up to a third within tens of seconds, moving every timing
alike.  A fixed calibration unit, timed between ops in the same run,
measures it: one int64 convolution of ring size and one Python pass
plus a JSON round trip over its results, the two kinds of work bfvlab
does.  It never calls bfvlab, so a change to the program cannot move
it.

Each time is reported at reference speed: multiplied by
``REFERENCE_MS`` over the mean of the calibration samples timed just
before and just after it, so that slowdowns shorter than a second are
caught as well.  Raw times are written next to the result.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

import numpy as np

REFERENCE_MS = 5.0
# Share of the measured op time spent on calibration units.
SHARE = 0.15
# How many calibration samples, nearest in time, scale one op.
NEAREST = 2

_A = (np.arange(2048, dtype=np.int64) * 1_000_003) % (1 << 40)
_B = np.arange(2048, dtype=np.int64) % 2


def calibration_unit() -> None:
    values = [v % 1_000_003 - 500_000 for v in np.convolve(_A, _B).tolist()]
    json.loads(json.dumps(values))


class Calibrator:
    """Calibration samples of one run, in the order they were taken."""

    def __init__(self) -> None:
        self._times: list[int] = []
        self._samples: list[int] = []
        self._spent_ns = 0
        self._work_ns = 0

    def sample(self) -> None:
        start = time.perf_counter_ns()
        calibration_unit()
        elapsed = time.perf_counter_ns() - start
        self._times.append(start + elapsed // 2)
        self._samples.append(elapsed)
        self._spent_ns += elapsed

    def keep_up(self, work_ns: int) -> None:
        """Add work_ns of measured work; sample until calibration is SHARE of it."""
        self._work_ns += work_ns
        while self._spent_ns < SHARE * self._work_ns:
            self.sample()

    def scale(self, at_ns: int | None = None) -> float:
        """Reference over measured speed, near perf_counter_ns() time at_ns
        or, without it, over the whole run."""
        pool = self._samples
        if at_ns is not None:
            mid = bisect.bisect(self._times, at_ns)
            lo = max(0, min(mid - NEAREST // 2, len(pool) - NEAREST))
            pool = pool[lo : lo + NEAREST]
        return REFERENCE_MS * 1e6 / statistics.median(pool)
