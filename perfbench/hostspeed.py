"""Host speed, sampled while the benchmark runs, to normalise its timings.

A shared host runs the same code at speeds that drift by tens of percent
within seconds, and the two vCPUs drift independently.  So the host's speed
is measured on the core and at the moments the program runs: a SIGALRM
timer interrupts the main thread every ``INTERVAL_S`` and times a fixed
reference kernel there.  ``ArrayKernel``, for operations, mixes interpreter
work with small dense eigensolves and products, as the program's solves do;
over 20 s windows it tracked a ``rayleigh_point`` loop better than either
half alone.  ``python_kernel``, for set-up, needs no numpy.

A timing normalised to reference speed is ``net seconds * REF_KERNEL_S /
mean kernel seconds`` around it: the time the operation would take on a
host that runs the kernel in exactly ``REF_KERNEL_S``.  The kernels are
part of the benchmark, not of the program, so a change to the program
moves the normalised time by the same share as the raw time.

This module imports nothing outside the standard library at load time, so
that set-up probes can start sampling before numpy is imported.
"""

import bisect
import signal
import time

INTERVAL_S = 0.1
REF_KERNEL_S = 1e-3
WINDOW_S = 1.0


def python_kernel(n: int = 5000) -> float:
    """Interpreter-bound work of fixed size: calls, float arithmetic, tuples."""
    acc = 0.0
    pair = (0.5, 7.0)
    for j in range(n):
        a, b = pair
        acc += _step(j * a, b)
    return acc


def _step(x: float, m: float) -> float:
    return x % m - 0.25 * m


class ArrayKernel:
    """Half ``python_kernel``, half 6x6 eigenvalue solves and products."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._mats = np.random.default_rng(0).standard_normal((4, 6, 6))

    def __call__(self) -> float:
        acc = python_kernel(2500)
        for m in self._mats:
            acc += float(self._np.linalg.eigvals(m).real.sum()) + float((m @ m).trace())
        return acc


class Speedometer:
    """Times ``kernel`` on every SIGALRM between start() and stop().

    ``samples`` holds (start, timed seconds) pairs in time order.  The
    handler's own time, both kernel calls, is subtracted from the operations
    it interrupts by ``net``.
    """

    def __init__(self, kernel=python_kernel):
        self.kernel = kernel
        self.samples = []
        self._starts = []
        self._spent = [0.0]  # cumulative handler seconds, before each sample
        self._timed = [0.0]  # cumulative timed kernel seconds
        self._previous = None

    def _tick(self, signum, frame):
        # The untimed first call brings the kernel back into the caches that
        # the interrupted operation has filled, so the timed call measures
        # the core's speed rather than what the operation left behind.
        start = time.perf_counter()
        self.kernel()
        mid = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.samples.append((start, end - mid))
        self._starts.append(start)
        self._spent.append(self._spent[-1] + (end - start))
        self._timed.append(self._timed[-1] + (end - mid))

    def start(self, warm: bool = True):
        for _ in range(20 if warm else 0):
            self.kernel()
        self._tick(None, None)  # so that every window has a sample to fall back on
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def pause(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def resume(self):
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def handler_seconds(self, t0: float, t1: float) -> float:
        """Time spent in the handler by samples that started in [t0, t1)."""
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_left(self._starts, t1)
        return self._spent[hi] - self._spent[lo]

    def net(self, t0: float, t1: float) -> float:
        """Wall time from t0 to t1 without the handler's time."""
        return (t1 - t0) - self.handler_seconds(t0, t1)

    def kernel_seconds(self, t0: float = float("-inf"), t1: float = float("inf"),
                       pad: float = WINDOW_S) -> float:
        """Mean kernel time of the samples within ``pad`` of [t0, t1]."""
        lo = bisect.bisect_left(self._starts, t0 - pad)
        hi = bisect.bisect_left(self._starts, t1 + pad)
        if hi <= lo:
            lo, hi = 0, len(self.samples)
        return (self._timed[hi] - self._timed[lo]) / (hi - lo)

    def normalised(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 at reference speed, handler time removed."""
        return self.net(t0, t1) * REF_KERNEL_S / self.kernel_seconds(t0, t1)
