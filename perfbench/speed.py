"""Machine-speed adjustment of op times.

Shared machines drift in speed.  On a 2-vCPU Xeon VM the mean time of
one analyze op ranged from 0.09 to 0.17 s between quarter-minute windows
of one run, with CPU time tracking wall time, so neither repeating
inputs nor reading CPU time removes the drift.  Over the same windows the
op's time divided by a fixed calibration kernel's time stayed within 5%.

So every op (and every set-up interpreter) is followed by a short run of
the kernel, and the op's time is divided by the kernel's mean time over
the runs before and after it, then multiplied by ``REFERENCE_S``.  An
adjusted time reads as the op's time on a machine where the kernel takes
``REFERENCE_S`` seconds, about its median time on that VM.  In ten
25-second runs per workload there, on seeds 11 to 20, the quartile
spread of each end-to-end metric was 1% to 9% of its median adjusted,
against 3% to 30% unadjusted.  Each run's record also reports the
unadjusted figures.

The kernel mixes what lvmkit's hot paths do: exact ``Fraction``
elimination, small numpy matrix calls, a pass over arrays larger than
the L1 cache and plain Python complex arithmetic.  Python-bound and
memory-bound code slow down differently on a busy machine; the array
pass is sized to about a quarter of the kernel's time.  The kernel uses
nothing from lvmkit, so no change to lvmkit can move it.
"""

import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 8e-4
SHARE = 0.1

_MATRIX = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
_RHS = np.ones(3)
_GRID = np.linspace(0.0, 50.0, 12288)


def kernel():
    """One fixed unit of work of about REFERENCE_S seconds."""
    rows = [[Fraction((7 * i * i + 3 * j ** 3 + i * j + 1) % 13
                      + (10 if i == j else 0), j + 2) for j in range(5)]
            for i in range(5)]
    for col in range(5):
        for row in range(col + 1, 5):
            factor = rows[row][col] / rows[col][col]
            for k in range(col, 5):
                rows[row][k] -= factor * rows[col][k]
    matrix = _MATRIX
    for _ in range(15):
        np.linalg.solve(matrix, _RHS)
        matrix = matrix @ _MATRIX / 4.0
    # a pass over arrays larger than L1, like the resonance box search
    wrapped = np.remainder(_GRID * 1.37 + 0.5, 2 * np.pi)
    np.abs(wrapped - np.pi).sum()
    z = 0.5 + 0.25j
    for _ in range(800):
        z = z * z * 0.5 + 0.1j
    return rows[4][4], z


class SpeedProbe:
    """Runs the kernel between timed calls and adjusts their times.

    After each call, the kernel runs for ``SHARE`` of the call's time (at
    least once), so the probe costs about that share of the run.
    """

    def __init__(self):
        self.kernel_runs = 0
        self.kernel_s = 0.0
        self._last = self._block(0.0)

    def _block(self, budget):
        """Mean kernel time over runs lasting at least ``budget``."""
        runs = 0
        start = time.perf_counter()
        while True:
            kernel()
            runs += 1
            spent = time.perf_counter() - start
            if spent >= budget:
                break
        self.kernel_runs += runs
        self.kernel_s += spent
        return spent / runs

    def adjust(self, elapsed):
        """``elapsed``, measured just now, at the reference speed."""
        after = self._block(SHARE * elapsed)
        adjusted = elapsed * 2 * REFERENCE_S / (self._last + after)
        self._last = after
        return adjusted

    def mean_kernel_s(self):
        return self.kernel_s / self.kernel_runs
