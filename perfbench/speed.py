"""Host-speed probe: a fixed kernel timed between operations.

On a shared 2-core VM the CPU speed drifts by tens of percent within
seconds, and every operation slows with it: over 3-second buckets the
median latency of the exact, coverage and certify operations correlates
at 0.95 to 0.99 with the time of a fixed eigensolve. Scaling each latency
by the kernel's nominal time over its time measured around the operation
removes that drift and leaves the program's own cost, in milliseconds of a
host running at the nominal speed.

The drift is not the same for all code: in one half-hour stretch,
interpreter-bound work (scalar special functions, dicts) slowed far more
than a 128x128 eigensolve. So there are two kernels, and each workload
uses the one whose drift follows its own: "blas" (a dense Hermitian
eigensolve) for exact, coverage and the CLI children, or "python" (scalar
numpy ufunc calls summed into a dict) for certify. The latter tracks the
certify operation as closely as scalar `scipy.special.betainc` calls do,
without loading scipy into the benchmark process.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

# kernel times of a 2-core x86-64 VM (Python 3.11, OpenBLAS 0.3.31, one
# thread) in its fast phase; only scales, so scaled times read like wall times
NOMINAL_S = {"blas": 1.5e-3, "python": 0.66e-3}
INTERVAL_S = 0.2
WINDOW_S = 1.0
# kernel runs per sample: one sub-millisecond run is itself noisy, and a CLI
# operation of half a second leaves only a few samples in a window
REPEATS = 5


def _python_kernel() -> dict:
    acc: dict = {}
    for i in range(600):
        x = (i + 0.5) / 600.0
        term = np.exp(np.log(x) * (2.0 + i % 5) + np.log1p(-x) * 3.0)
        acc[i % 17] = acc.get(i % 17, 0.0) + float(term)
    return acc


class SpeedProbe:
    def __init__(self, kind: str = "blas"):
        self.nominal = NOMINAL_S[kind]
        if kind == "blas":
            rng = np.random.default_rng(0)
            a = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
            matrix = a + a.conj().T
            eig = np.linalg.eigvalsh  # bound before a tracer can wrap it
            self._kernel = lambda: eig(matrix)
        else:
            self._kernel = _python_kernel
        self.times: list[float] = []
        self.costs: list[float] = []

    def sample(self, n: int = REPEATS) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            self._kernel()
            t1 = time.perf_counter()
            self.times.append(t1)
            self.costs.append(t1 - t0)

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S

    def scale(self, t: float, t_end: float | None = None) -> float:
        """The nominal kernel time over the median within WINDOW_S of t
        (or of the interval from t to t_end)."""
        lo = bisect_left(self.times, t - WINDOW_S)
        hi = bisect_right(self.times, (t if t_end is None else t_end) + WINDOW_S)
        near = self.costs[lo:hi] or [self.costs[min(lo, len(self.costs) - 1)]]
        return self.nominal / statistics.median(near)
