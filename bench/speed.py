"""How fast this machine is running, sampled while the benchmark runs.

On a shared machine the same Python code runs up to 1.6 times slower at
some moments than at others, for tens of seconds at a time, and CPU time
slows with wall time.  ``SpeedSampler`` measures that drift: every
INTERVAL_S of wall time, SIGALRM runs a fixed integer loop in the style of
the program's incidence kernel (its own copy, sharing no code with the
program, so no change to the program can move it) and records the thread
CPU time it took.  A timing from the same interval is then reported at
reference speed: its wall time, less the sampler's own time, times
REFERENCE_S over the mean kernel time measured around it.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.2
# About the kernel's fastest thread CPU time on an otherwise idle 2-core
# 2.1 GHz Xeon under Python 3.11: reported times are seconds at that speed.
REFERENCE_S = 0.0030

_rng = random.Random(5)
_POINTS = tuple((_rng.randrange(101), _rng.randrange(101)) for _ in range(100))
_MAPS = tuple(tuple(_rng.randrange(101) for _ in range(4)) for _ in range(200))


def kernel() -> int:
    """Count incidences of 100 fixed points on 200 fixed maps mod 101."""
    p = 101
    n = 0
    for a, b, c, d in _MAPS:
        for x, y in _POINTS:
            den = (c * x + d) % p
            if den and (y * den - a * x - b) % p == 0:
                n += 1
    return n


class SpeedSampler:
    """Context manager that samples the kernel on a wall-clock timer.

    Worker processes forked while it runs do not inherit the timer.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)  # at least one sample, however short the run

    def _tick(self, signum, frame):
        start = time.perf_counter()
        cpu = time.thread_time()
        kernel()
        self.cpu.append(time.thread_time() - cpu)
        self.wall.append(time.perf_counter() - start)
        self.starts.append(start)

    def _span(self, start: float, end: float) -> slice:
        return slice(bisect_left(self.starts, start),
                     bisect_right(self.starts, end))

    def spent(self, start: float, end: float) -> float:
        """Wall seconds the sampler itself took between start and end."""
        return sum(self.wall[self._span(start, end)])

    def spent_cpu(self, start: float, end: float) -> float:
        return sum(self.cpu[self._span(start, end)])

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time around [start, end]."""
        window = self._span(start - INTERVAL_S, end + INTERVAL_S)
        times = self.cpu[window]
        if not times:  # shorter than one interval: use the nearest samples
            lo = max(0, window.start - 2)
            times = self.cpu[lo:window.start + 2]
        return REFERENCE_S / statistics.fmean(times)
