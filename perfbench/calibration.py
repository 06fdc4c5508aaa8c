"""Machine-speed calibration for the hermwave benchmark.

The benchmark's host is shared: its speed changes by up to 50 % over
minutes, as other tenants load the same cores and caches, and a whole
55 s run can fall in a slow or a fast spell. Per-call medians cannot
remove that, so each measuring process also times a fixed reference
kernel, written here and independent of hermwave, once before every
timed CLI call. The run's median kernel time says how fast the machine
was during the run, and the end-to-end times are rescaled to the speed
at which the kernel takes REFERENCE_NS:

    reported = measured * REFERENCE_NS / median(kernel times of the run)

A change to hermwave moves the measured time and not the kernel, so it
shows in full. The kernel mixes what hermwave's time is made of: plain
interpreter work, numpy calls on tiny arrays (dispatch overhead), small
matrix products and elementwise work on arrays larger than L2.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

# Median kernel time on the 2-vCPU Xeon VM described in README.md, in a
# fast spell. Only the scale of the reported times depends on it.
REFERENCE_NS = 8_000_000

_RNG = np.random.default_rng(0)
_TINY = _RNG.random((30, 3))
_SMALL = _RNG.random((64, 64))
_LARGE = _RNG.random(300_000)


def _kernel() -> float:
    s = 0
    for i in range(30_000):
        s += i * i % 7
    x = _TINY
    for _ in range(1_000):
        x = (x[::-1] * _TINY + _TINY).copy()
    for _ in range(200):
        x = _SMALL @ _SMALL
    return s + float(np.sin(_LARGE).sum()) + float(x[0, 0])


def kernel_ns() -> int:
    """Wall time of one run of the reference kernel, in ns."""
    t0 = perf_counter_ns()
    _kernel()
    return perf_counter_ns() - t0
