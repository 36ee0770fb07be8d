"""Speed normalization against a fixed calibration kernel.

The benchmark's host shares physical cores with other machines, and its speed
drifts by tens of percent over seconds to minutes; raw times of the same code
differed by up to 2x between runs. While a run measures, a fixed kernel that
does not call ilvseq runs every TICK_S: between tasks, or from a timer signal
inside a task that has run longer than LONG_TASK_S. The kernel's own time is
excluded from every measured interval, and the work between two kernel runs
is counted as

    normalized seconds = measured seconds * REFERENCE_S / kernel seconds

where ``kernel seconds`` is the mean of the two kernel runs that bracket it.
A normalized second is a second at the speed where the kernel takes
``REFERENCE_S``. Raw seconds (kernel time excluded) are kept beside them.

The kernel mixes the kinds of work the workloads do: interpreted modular
arithmetic and list indexing (search), a transform whose result becomes a
tuple of Python ints that is scanned with ``abs``, comparisons and list
appends (the correlation pair scan), and many small numpy calls (per-call
overhead).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Kernel time that defines one normalized second (about the kernel's median
#: time on the 2-vCPU Xeon at 2.0 GHz where the benchmark was defined).
REFERENCE_S = 0.010

#: Interval between kernel ticks while a clock is running.
TICK_S = 0.1

#: Tasks that have run this long take their ticks inside the task.
LONG_TASK_S = 0.2

#: Kernel runs at start-up, and the window for ``SpeedClock.scale``.
SMOOTH = 5

_WAVE = np.rint(100 * np.cos(np.arange(1024) * 0.37))
_SMALL = np.arange(64, dtype=np.float64)


def kernel() -> int:
    """Fixed work, independent of ilvseq; returns a value so nothing is skipped."""
    counts = [0] * 13
    acc = 0
    for i in range(18000):
        d = (i * 7 - acc) % 13
        counts[d] += 1
        acc = (acc + counts[d]) % 1009
    for _ in range(6):
        raw = np.fft.ifft(np.conj(np.fft.fft(_WAVE)) * np.fft.fft(_WAVE))
        values = tuple(int(c) for c in np.rint(raw.real))
        best = None
        hits = []
        for tau, value in enumerate(values):
            mag = abs(value)
            if best is None or mag > best:
                best = mag
                hits = [(tau, value)]
            elif mag == best:
                hits.append((tau, value))
        acc += best + len(hits)
    for _ in range(120):
        spectrum = np.fft.fft(_SMALL)
        acc += int(np.rint(np.fft.ifft(np.conj(spectrum) * spectrum).real[1]))
    return acc


class SpeedClock:
    """A raw clock that advances only inside ``running``, and its normalization.

    ``read`` gives raw seconds with kernel time left out. Every kernel run
    marks a boundary; ``normalized(r0, r1)`` scales each stretch of
    [r0, r1] between two boundaries by REFERENCE_S over the mean of the two
    kernel times that bracket it, so it is known once ``running`` has ended.

    Call ``start_task`` before each task. A tick that falls in a task younger
    than LONG_TASK_S only marks the kernel as due, and ``start_task`` runs it
    before the next task, so short tasks are never interrupted. Inside longer
    tasks the kernel runs from the signal handler, which Python calls in the
    main thread between bytecodes, so it never splits a numpy call.
    """

    def __init__(self):
        self.kernel_s: list[float] = []
        for _ in range(SMOOTH):
            self._kernel()
        self._bounds = [0.0]
        self._bound_kernel = [self.kernel_s[-1]]
        self._raw = 0.0
        self._mark = self._started = time.perf_counter()
        self._active = self._due = self._inside = False
        self._block = {signal.SIGALRM}
        signal.signal(signal.SIGALRM, self._tick)

    @property
    def scale(self) -> float:
        """REFERENCE_S over the median of the last SMOOTH kernel times."""
        return REFERENCE_S / statistics.median(self.kernel_s[-SMOOTH:])

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - t0
        self.kernel_s.append(seconds)
        return seconds

    def _calibrate(self) -> None:
        self._raw += time.perf_counter() - self._mark
        self._bounds.append(self._raw)
        self._bound_kernel.append(self._kernel())
        self._mark = time.perf_counter()
        self._due = False

    def _tick(self, signum, frame) -> None:
        if not self._active:
            return
        if self._inside and time.perf_counter() - self._started >= LONG_TASK_S:
            self._calibrate()
        else:
            self._due = True

    def start_task(self) -> None:
        """Run a due kernel now, between tasks, and mark a task's start."""
        signal.pthread_sigmask(signal.SIG_BLOCK, self._block)
        try:
            if self._due and self._active:
                self._calibrate()
            self._started = time.perf_counter()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, self._block)

    def read(self) -> float:
        """Raw seconds counted so far, kernel time left out."""
        signal.pthread_sigmask(signal.SIG_BLOCK, self._block)
        try:
            return self._raw + (time.perf_counter() - self._mark if self._active else 0.0)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, self._block)

    def normalized(self, r0: float, r1: float) -> float:
        """Normalized seconds of the raw interval [r0, r1]."""
        bounds, kernels = self._bounds, self._bound_kernel
        total = 0.0
        i = max(bisect.bisect_right(bounds, r0) - 1, 0)
        while i < len(bounds) and bounds[i] < r1:
            end = bounds[i + 1] if i + 1 < len(bounds) else r1
            k = (kernels[i] + kernels[i + 1]) / 2 if i + 1 < len(bounds) else kernels[i]
            total += max(0.0, min(end, r1) - max(bounds[i], r0)) * REFERENCE_S / k
            i += 1
        return total

    @contextmanager
    def running(self, inside: bool = True):
        """Count time, with kernel ticks, for the duration of the block.

        Kernels run on entry and on exit, so every stretch is bracketed.
        With ``inside`` false they run only between tasks (for a traced pass,
        whose spans must not contain them).
        """
        signal.pthread_sigmask(signal.SIG_BLOCK, self._block)
        self._active = True
        self._inside = inside
        self._mark = time.perf_counter()
        self._calibrate()
        signal.pthread_sigmask(signal.SIG_UNBLOCK, self._block)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.pthread_sigmask(signal.SIG_BLOCK, self._block)
            self._calibrate()
            self._active = self._due = False
            signal.pthread_sigmask(signal.SIG_UNBLOCK, self._block)
