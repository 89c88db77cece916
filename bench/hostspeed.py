"""Host-speed calibration shared by the benchmark process and its set-up children.

The host's speed drifts by up to 2.4x over tens of seconds, because other
tenants share the machine, and it moves every timed operation by nearly the
same factor.  ``calibration_kernel`` is fixed work that no change to pairsim
can alter: numpy Philox draws mixed with interpreter work, as pairsim does.
A rate measured between two kernels, times their mean time over
``REFERENCE_S``, is the rate at the reference speed; a time is divided by
that factor.
"""

import math
import time

import numpy as np

# calibration_kernel's time on an Intel Xeon host (2 vCPUs) at its fast speed
REFERENCE_S = 0.006


def calibration_kernel() -> float:
    """Seconds taken by the fixed calibration work."""
    start = time.perf_counter()
    draws = np.random.Generator(np.random.Philox(12345)).poisson(0.01, 200_000)
    total = float(draws.sum())
    for i in range(30_000):
        total += (i * i) % 7
    table: dict[int, float] = {}
    for i in range(10_000):
        table[i % 97] = table.get(i % 97, 0.0) + math.exp(-i * 1e-4)
    return time.perf_counter() - start
