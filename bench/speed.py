"""Wall time rescaled to a fixed reference speed of the host.

The benchmark's host shares its cores with other machines' work, and the
same single-threaded step runs up to twice as slow for stretches of seconds
to minutes; process CPU time slows by the same factor, so it does not help.
A run's median wall time therefore says more about the neighbours than about
the program. To remove that, a small fixed loop (``kernel``, the benchmark's
own code, which no change to bayesline can alter) is timed in the same
thread before a step, every PERIOD_S while it runs (from a SIGALRM handler,
so no thread or process is added), and after it. Each stretch of the step
between two such marks is rescaled by the host speed they measured:

    scaled_s = sum(stretch_s * REFERENCE_KERNEL_S / kernel_s)

that is, the step's seconds on a host where the loop takes
REFERENCE_KERNEL_S. A stretch's speed is the mean of the speeds measured at
its two ends. The loop's own time is taken out of the step's. Small NumPy
calls mixed with float arithmetic follow the slowdowns of the samplers,
`counts` and `plot` closely, which a pure-Python loop does not; the large
array work of `evidence` follows them less well.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

REFERENCE_KERNEL_S = 1e-3
PERIOD_S = 0.05
_KERNEL_ITERATIONS = 300
_VECTOR = np.arange(8.0)


def kernel() -> float:
    x, total = _VECTOR, 0.0
    for i in range(_KERNEL_ITERATIONS):
        x = x * 0.999 + 0.001
        total += float(x.sum()) * 0.5 if i % 2 else float(np.dot(x, x))
    return total


@dataclass
class Timing:
    wall_s: float = 0.0  # wall time of the step, the loop's own time included
    net_s: float = 0.0  # wall time minus the loop's own time
    scaled_s: float = 0.0  # net_s at the reference speed
    marks: int = 0  # speed measurements taken inside the step


class SpeedMeter:
    """Times blocks of code and rescales them to the reference speed.

    It owns SIGALRM from its creation on; blocks do not nest."""

    def __init__(self):
        self._marks: list[tuple[float, float]] = []  # (start, kernel seconds)
        signal.signal(signal.SIGALRM, self._mark)

    def _mark(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self._marks.append((t0, self._kernel_s(t0)))

    @staticmethod
    def _kernel_s(t0: float) -> float:
        kernel()
        return time.perf_counter() - t0

    @contextmanager
    def timing(self):
        """Time the block; the Timing it yields is filled in when the block exits."""
        timing = Timing()
        first_s = self._kernel_s(time.perf_counter())
        self._marks = []
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            t1 = time.perf_counter()
            self._fill(timing, t0, t1, first_s, self._marks, self._kernel_s(time.perf_counter()))

    @staticmethod
    def _fill(timing: Timing, t0: float, t1: float, first_s: float, inside, last_s: float) -> None:
        resume, speed = t0, REFERENCE_KERNEL_S / first_s
        for start, seconds in inside:
            mark_speed = REFERENCE_KERNEL_S / seconds
            stretch = max(start - resume, 0.0)
            timing.net_s += stretch
            timing.scaled_s += stretch * 0.5 * (speed + mark_speed)
            resume, speed = start + seconds, mark_speed
        stretch = max(t1 - resume, 0.0)
        timing.net_s += stretch
        timing.scaled_s += stretch * 0.5 * (speed + REFERENCE_KERNEL_S / last_s)
        timing.wall_s = t1 - t0
        timing.marks = len(inside)
