"""Host-speed normalisation of command times.

On a shared host (measured on 2 vCPUs of a 2 GHz Xeon) a process's speed
changes by up to 1.7x within seconds, and its mean over a minute drifts by
15% or more.  Raw wall times of the same commands therefore spread more
between runs than the changes the benchmark has to resolve.  A short fixed
reference kernel slows down in step with the program, as long as the two are
timed in close alternation.

SpeedSampler runs the kernel from a SIGALRM handler every INTERVAL_S while
commands run.  A command's normalised time is its wall time minus the time
spent in the handler, scaled by REF_NOMINAL_S times the mean speed (1 / kernel
time) sampled during the command: the seconds it would take on a host where
the kernel takes REF_NOMINAL_S.  Over ten 44-second runs per workload the
quartile spread of the command time, as a share of the median, was 0.013,
0.008 and 0.056 normalised against 0.091, 0.121 and 0.117 raw (bound-2d,
montecarlo-2d, verify-4d).  The handler runs between the program's Python
bytecodes, never inside a C call, so the program sees only a pause.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
REF_NOMINAL_S = 1.6e-3  # the kernel's typical time when sampled on a shared 2 GHz Xeon vCPU
REF_LOOPS = 350

_M = np.array([[0.6, 0.3, 0.0, 0.1],
               [-0.2, 0.5, 0.2, 0.0],
               [0.1, 0.0, 0.7, -0.3],
               [0.0, 0.2, 0.1, 0.4]])


def reference_kernel() -> float:
    """Fixed work in the program's mix: small numpy products in a Python loop."""
    x = np.ones(4)
    s = 0.0
    for i in range(REF_LOOPS):
        x = _M @ x + 1.0
        s += float(x @ x) / (i + 1)
    return s


def time_kernel(repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return times


def normalise(elapsed: float, kernel_times) -> float:
    """elapsed seconds rescaled to a host where the kernel takes REF_NOMINAL_S.

    The samples are spread evenly over the elapsed time, and the work done in
    a stretch of time goes as the speed then, 1 / kernel time: so the mean
    speed, not the mean kernel time, rescales.
    """
    return elapsed * REF_NOMINAL_S * statistics.fmean(1.0 / k for k in kernel_times)


class SpeedSampler:
    """Times the reference kernel every INTERVAL_S while active (main thread only)."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalised(self, start: float, end: float) -> float:
        """Normalised time of the interval [start, end) measured while sampling."""
        inside = [d for t, d in self.samples if start <= t < end]
        if not inside:  # shorter than one interval: use the nearest sample
            nearest = min(self.samples, key=lambda s: abs(s[0] - start), default=None)
            return end - start if nearest is None else normalise(end - start, [nearest[1]])
        return normalise(end - start - sum(inside), inside)
