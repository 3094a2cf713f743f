"""Host-speed correction for timings taken on a shared machine.

On a shared host, other tenants' load slows this machine's CPUs by up to
~1.8x, switching on and off every second or so.  A run's median then moves
by 20-30% between runs, more than any change worth detecting.

Each timed interval (a library op, one CLI process, a set-up) is therefore
bracketed by executions of a fixed reference kernel that runs no fracspec
code, and its wall time is scaled by REFERENCE_S over the mean of the
reference times measured just before and just after it.  The kernel mixes
the work fracspec does: an interpreted loop, small numpy convolutions and
FFTs, and transcendental functions over arrays of tens of thousands of
points.  Corrected times read as seconds on a host where the kernel takes
REFERENCE_S; a change to fracspec moves them as it moves wall time.  This
tracks contention only over intervals of about a second or less, so every
corrected interval is kept that short or is split at process boundaries.
"""

import statistics
import time

import numpy as np

# About the 5th percentile of ``reference`` times on a 2-vCPU Intel Xeon VM
# (Python 3.11, numpy 2.4); it only sets the scale of corrected times.
REFERENCE_S = 1.4e-3

_SERIES = np.random.default_rng(0).standard_normal(4096)
_WEIGHTS = _SERIES[:257].copy()
_GRIDS = [np.linspace(1e-3, 3.1, 16 * (m + 3)) for m in (200, 800, 1600)]


def reference() -> float:
    """Wall time of one execution of the reference kernel."""
    start = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i
    for _ in range(2):
        np.convolve(_SERIES, _WEIGHTS)
        np.fft.rfft(_SERIES)
    for x in _GRIDS:
        np.sum(x**0.5 * np.cos(7.0 * x))
    return time.perf_counter() - start


def sample(k: int = 5) -> float:
    """Median of k reference executions."""
    return statistics.median(reference() for _ in range(k))


def corrected(elapsed: float, before: float, after: float) -> float:
    """Wall time ``elapsed`` scaled to the reference host speed."""
    return elapsed * REFERENCE_S * 2.0 / (before + after)
