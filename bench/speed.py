"""Host speed calibration.

The speed a shared host gives a process drifts by tens of percent over
seconds and minutes: the same pass over a workload takes from 0.6 s to
1.4 s.  Every timing of the benchmark is therefore scaled to a reference
speed.  A short kernel of fixed interpreter work, of the same kind as the
library's scalar jet arithmetic (complex arithmetic and ``cmath`` calls),
runs in the same process as the work it calibrates, just before and just
after it; the work's time is multiplied by ``CAL_REF_S`` over the mean of
the two kernel times.
"""

import cmath
import math
import time

CAL_LOOPS = 15_000
CAL_REF_S = 0.005     # the kernel's time on an unloaded 2-CPU Xeon host
CAL_EVERY_S = 0.1     # in-process work is calibrated at least this often


def kernel() -> float:
    """Run the calibration kernel once; returns its duration in seconds."""
    t0 = time.perf_counter()
    acc, z = 0j, 0.3 + 0.1j
    for k in range(CAL_LOOPS):
        w = z + k * 1e-6
        acc += cmath.log(w) * (w - 0.5) / (1 + w * w)
    return time.perf_counter() - t0


def scale(kernel_before: float, kernel_after: float) -> float:
    """Factor from raw time to reference time for work done between two
    kernel runs."""
    return CAL_REF_S / (0.5 * (kernel_before + kernel_after))


class Speed:
    """The kernel samples taken in this process, in order."""

    def __init__(self):
        self.samples = []
        self.last = -math.inf

    def sample(self) -> int:
        """Run the kernel once; returns the sample's index."""
        self.samples.append(kernel())
        self.last = time.perf_counter()
        return len(self.samples) - 1

    def due(self) -> bool:
        return time.perf_counter() - self.last >= CAL_EVERY_S

    def scale(self, before: int, after: int) -> float:
        return scale(self.samples[before], self.samples[after])
