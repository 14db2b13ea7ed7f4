"""Machine-speed probe that corrects pass times for a noisy shared host.

On a small shared machine the speed of the same single-threaded Python code
drifts by a factor of about 1.5 over tens of seconds, as other tenants load
the host. Repeating passes cannot average that out within one run. The probe
measures the drift while the workload runs: a SIGALRM handler, which runs in
the main thread between bytecodes, times a fixed kernel every PERIOD_S
seconds. A pass's speed factor is the mean kernel time during the pass over
REFERENCE_S, and dividing the pass's wall time by it gives the wall time at
the reference speed.

The kernel is a loop of small numpy operations, like the workloads, whose
numpy calls act on 2x2 to 3x3 arrays or short stacks of them. It runs twice
per sample and only the second run is timed, so it measures the core's speed
with its own code and data in cache, not how much of the cache the workload
displaced. It costs about 2% of the run.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
# About the kernel's mean time on a 2-core 2 GHz Xeon VM, one BLAS thread,
# in its fast state, so that corrected times are close to raw times there.
REFERENCE_S = 2.2e-4

_M = np.array([[1.0, 0.2], [0.2, -1.0]], dtype=complex)


def _kernel() -> float:
    acc = _M
    for _ in range(40):
        acc = 0.5 * (acc @ _M + _M.conj().T)
    return float(np.abs(acc).max())


class SpeedProbe:
    """Context manager that samples the kernel time while it is active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        _kernel()
        started = time.perf_counter()
        _kernel()
        self.samples.append((started, time.perf_counter() - started))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Mean kernel time within [start, end] over REFERENCE_S.

        Above 1 the machine ran slower than the reference. An interval with
        no sample (shorter than PERIOD_S) takes the nearest earlier sample.
        """
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            earlier = [s for t, s in self.samples if t <= end]
            inside = earlier[-1:] or [REFERENCE_S]
        return statistics.fmean(inside) / REFERENCE_S
