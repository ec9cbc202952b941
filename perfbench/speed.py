"""Machine-speed calibration.

On a shared machine the speed of the CPU drifts by a quarter or more between
runs of half a minute, and every case of a run drifts together.  A fixed
numpy kernel, shaped like the order-matrix row tests of the map searches,
drifts the same way, so the run's median kernel time measures the speed the
run saw.  ``scale`` converts the run's seconds to seconds at the reference
speed: the kernel's median time on the machine of the recorded baseline.
"""

import statistics
import time

import numpy as np

REFERENCE_S = 0.0158  # about the kernel's median on the baseline machine
EVERY_S = 1.0  # least time between two sampling points
REPEATS = 2  # kernel samples per sampling point


class Speed:
    def __init__(self):
        rng = np.random.default_rng(12345)  # fixed work, not the run's seed
        self.rows = rng.integers(0, 4, size=(3000, 16))
        self.le = rng.integers(0, 2, size=(4, 4)).astype(bool)
        self.samples = []
        self.last = -EVERY_S

    def _kernel(self):
        start = time.perf_counter()
        for i in range(40):
            np.flatnonzero(self.le[self.rows[i][None, :], self.rows].all(1))
        return time.perf_counter() - start

    def sample(self):
        """Time the kernel if the last sampling point is older than EVERY_S."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.samples += [self._kernel() for _ in range(REPEATS)]
            self.last = time.perf_counter()

    def scale(self):
        return REFERENCE_S / statistics.median(self.samples)
