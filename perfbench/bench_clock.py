"""Timings scaled to the speed of a reference kernel.

Machines shared with other work change speed by tens of percent within
seconds, and a run that lands in a slow spell reads as a slow program.  A
ScaledClock runs fixed kernels after each timed region.  A region's timing
is divided by the median time of a kernel over the four runs nearest to it
(two before, two after) and multiplied by the kernel's nominal time, so
figures read as seconds at the speed where the kernel takes its nominal time
(about its median on a 2.1 GHz Xeon container with two cores).  The median
keeps one disturbed kernel run from moving a timing.  Each input names the
kernel that does the kind of work it spends its time on: exact Fraction
elimination for the LP layers, numpy blocks for the enumeration oracle.
"""

from __future__ import annotations

import gc
import random
import statistics
from fractions import Fraction
from time import perf_counter
from typing import Dict, Iterable, List


def fraction_kernel() -> float:
    """Seconds for a fixed Gauss-Jordan elimination over Fractions."""
    rng = random.Random(0)
    n = 14
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)] for _ in range(n)]
    gc.collect()
    start = perf_counter()
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return perf_counter() - start


def numpy_kernel() -> float:
    """Seconds for masked row sums over a fresh 16 MB integer block."""
    import numpy as np

    gc.collect()
    start = perf_counter()
    counts = np.arange(1 << 21, dtype=np.int64).reshape(-1, 8) % 21
    mask = counts[:, [1, 3, 5, 7]].sum(axis=1) * 4 >= counts[:, [0, 2]].sum(axis=1) * 3
    kept = counts[mask]
    np.unique(np.stack((kept[:, 1], kept[:, 2] + 1), axis=1)[:5000], axis=0)
    return perf_counter() - start


# name -> (kernel, nominal seconds)
KERNELS = {
    "fraction": (fraction_kernel, 0.015),
    "numpy": (numpy_kernel, 0.040),
}


class ScaledClock:
    """Call tick() right after each timed region; it returns the region's index."""

    def __init__(self, kinds: Iterable[str]):
        self.times: Dict[str, List[float]] = {kind: [KERNELS[kind][0]()] for kind in kinds}

    def tick(self) -> int:
        for kind, times in self.times.items():
            times.append(KERNELS[kind][0]())
        return len(times) - 2

    def scale(self, kind: str, index: int) -> float:
        """Factor for region `index`, which ran between kernel runs index and index+1."""
        nearest = self.times[kind][max(0, index - 1) : index + 3]
        return KERNELS[kind][1] / statistics.median(nearest)
