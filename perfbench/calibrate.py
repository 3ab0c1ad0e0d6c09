"""A fixed calibration kernel that measures how fast this machine runs now.

On a shared host the same op can take 1.5-2x longer from one minute to
the next, and CPU time drifts as much as wall time, so the slowdown is
the processor's, not the scheduler's. The kernel mixes the three kinds
of work ponte does (interpreter loops, small-array numpy, a dense LAPACK
factorization); dividing an op's time by the kernel's time measured
around it removes most of that drift.

REFERENCE_S is the kernel's median time on the machine the baselines in
README.md were measured on, so calibrated times read as seconds there.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 6.0e-3

_rng = np.random.default_rng(0)
_a = _rng.standard_normal((300, 300))
_SPD = _a @ _a.T + 300.0 * np.eye(300)
_IDX = [1, 5, 7, 9, 11, 20]


def kernel_seconds() -> float:
    """Wall time of one run of the kernel (about 5 ms)."""
    start = perf_counter()
    counts: dict[int, int] = {}
    for k in range(4000):
        counts[k % 97] = counts.get(k % 97, 0) + k
    for _ in range(150):
        block = np.zeros((60, 60))
        block[np.ix_(_IDX, _IDX)] += 1.0
    for _ in range(3):
        np.linalg.cholesky(_SPD)
    return perf_counter() - start
