"""Host-speed reference for normalizing measured times.

On a shared machine the speed available to one process swings by up to
~1.8x over periods of seconds, which moves every timing of a run
together. The benchmark therefore times a fixed reference loop next to
the work it measures and reports each time scaled by
REF_NOMINAL_MS / (reference time at that moment). Scaled times read as
milliseconds on a host where the reference loop takes REF_NOMINAL_MS;
the raw wall times are printed in the details line.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Typical reference loop time on a shared 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4).
REF_NOMINAL_MS = 0.5
# Reference samples within this many seconds of a request set its scale.
WINDOW_S = 0.5

_A = np.array([[1.0, 2.0j], [3.0, 4.0]], dtype=complex)


def reference_ns() -> int:
    """Time one pass of a fixed mix of interpreter work and 2x2 numpy calls."""
    t0 = time.perf_counter_ns()
    table = {}
    acc = 0.0
    for i in range(150):
        m = _A @ _A.conj().T
        acc += float(m[0, 0].real)
        table[i] = (i, str(i))
    return time.perf_counter_ns() - t0


class SpeedLog:
    """Reference samples over time, to scale intervals measured in between."""

    def __init__(self):
        self._times: list = []
        self._refs: list = []

    def sample(self, count: int = 1):
        for _ in range(count):
            t = time.perf_counter()
            self._refs.append(reference_ns())
            self._times.append(t)

    def scale(self, start: float, end: float) -> float:
        """REF_NOMINAL over the median reference time around [start, end]."""
        lo = bisect.bisect_left(self._times, start - WINDOW_S)
        hi = bisect.bisect_right(self._times, end + WINDOW_S)
        refs = self._refs[lo:hi] or self._refs
        return REF_NOMINAL_MS * 1e6 / statistics.median(refs)
