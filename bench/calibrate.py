"""Calibration: how fast the machine runs while the workload runs.

A calibration block does, in miniature, the kinds of work the workloads do,
with numpy, scipy and plain Python only, never with mutsel: large and small
real FFT round trips, a dense nonsymmetric eigensolve, a pass over an array
and an interpreter loop.  Its time does not depend on the code under test,
so it changes only when the machine's speed does (other tenants, clock
frequency, shared caches).  Its FFTs are numpy's, not scipy's, because
mutsel convolves with scipy and scipy caches FFT plans: had mutsel's sizes
pushed the block's plans out of that cache, making them again would have
cost the block up to a millisecond, and the code under test would have
changed the calibration.

``Sampler`` runs one block every ``interval`` seconds from a timer signal,
in the benchmark's own thread, while the commands run; ``scale`` turns a
measured time into seconds of a machine on which the block takes
``NOMINAL_S``.  The handler runs between Python bytecodes, so it never
changes a computed value.  ``scale`` divides by the mean block time, not the
median: the mean of samples spread over an interval is the machine's mean
slowdown over it, also when the slowdown comes in bursts.
"""

from __future__ import annotations

import signal
import statistics
import time

# near the block's mean time during the passes on the machine the baseline
# was recorded on (2 vCPU Intel Xeon, one BLAS thread) when it runs fast
NOMINAL_S = 0.0075

_STATE: dict = {}


def _inputs() -> dict:
    if not _STATE:
        import numpy as np

        rng = np.random.default_rng(12345)
        _STATE.update(
            big=rng.standard_normal(24576),
            small=rng.standard_normal(2646),
            dense=rng.standard_normal((64, 64)),
            array=np.empty(500_000),
        )
    return _STATE


def block() -> float:
    """Run the calibration block once; return its wall time in seconds."""
    import numpy as np

    fft = np.fft
    x = _inputs()
    start = time.perf_counter()
    for _ in range(3):
        fft.irfft(fft.rfft(x["big"]) * 0.5, n=x["big"].size)
    for _ in range(20):
        fft.irfft(fft.rfft(x["small"]) * 0.5, n=x["small"].size)
    np.linalg.eigvals(x["dense"])
    x["array"].fill(1.0)
    x["array"].sum()
    total = 0
    for i in range(8_000):
        total += i * i % 7
    return time.perf_counter() - start


class Sampler:
    """Calibration blocks every ``interval`` seconds between ``start`` and ``stop``."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.samples: list[float] = []
        self._busy = False
        self._old = None

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self.samples.append(self.sample())

    def sample(self) -> float:
        """One block now; a timer tick that falls inside it is skipped."""
        self._busy = True
        try:
            return block()
        finally:
            self._busy = False

    def start(self) -> None:
        block()  # warm the inputs and scipy's plan cache outside the timed commands
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        """Stop the timer; calling it again does nothing."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def take(self) -> list[float]:
        """The samples since the last ``take``."""
        out, self.samples = self.samples, []
        return out


def scale(seconds: float, samples: list[float]) -> float:
    """``seconds`` in seconds of the nominal machine, given the blocks run beside it."""
    return seconds * NOMINAL_S / statistics.fmean(samples)
