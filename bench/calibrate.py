"""Host-speed calibration.

The host this benchmark was defined on shares its cores with other tenants.
Its speed drifted by up to half over a few minutes, and at times it switched
between a fast and a slow mode every few ops.  Every time metric is
therefore scaled by REFERENCE_S over the time of a fixed kernel that runs
before each op, off the clock (the median of that sample and its two
neighbours, against noise in single samples).

The kernel has the two kinds of work the workloads do: pure-Python dict
lookups, small tuples and integer work, as in most of hog, and products of a
dense 2000 x 2000 matrix with a vector, as in PageRank.  The host's slow
spells did not slow the two alike.  A kernel of Python work alone left
web-rank about as noisy as unscaled, and a small in-cache matrix did not
track it either (bench/README.md has the figures).  The kernel is benchmark
code that runs with the collector off and keeps only its matrix (32 MB, in
every workload's peak RSS), so no change to hog can move it; only the speed
of the host can.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.026  # about the kernel's median time on the defining host

_KEYS = tuple(f"n{i}" for i in range(4096))
_INDEX = {k: i for i, k in enumerate(_KEYS)}
_ORDER = 2000  # PageRank's matrix order in web-rank
_matrix: np.ndarray | None = None


def kernel() -> float:
    """Seconds for fixed Python work, then four dense matrix-vector products."""
    global _matrix
    if _matrix is None:
        _matrix = np.full((_ORDER, _ORDER), 1.0 / _ORDER)
    vec = np.full(_ORDER, 1.0 / _ORDER)
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        total = 0
        for _ in range(24):
            for key in _KEYS:
                pair = (_INDEX[key], total & 255)
                total += pair[0] ^ pair[1]
        for _ in range(4):
            vec = _matrix @ vec
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(kernel())

    def factor(self) -> float:
        """Multiply a measured time by this to get reference-host time."""
        return REFERENCE_S / statistics.median(self.samples)

    def local_factors(self) -> list[float]:
        """One factor per sample, from the median of it and its neighbours."""
        s = self.samples
        return [REFERENCE_S / statistics.median(s[max(0, i - 1):i + 2]) for i in range(len(s))]
