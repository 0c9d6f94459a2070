"""Machine-speed probe for workers on a shared, unsteady machine.

On a shared 2-core virtual machine the same loop runs up to 30% faster or
slower for stretches of 10 to 30 seconds, whatever our own processes do; CPU
time moves with wall time, so neither medians within a run nor CPU time take
it out.  The probe times a fixed piece of work (pure-Python dict, tuple and
Fraction arithmetic mixed with numpy calls on 3 x 3 matrices, as in the
workloads) every INTERVAL seconds from a SIGALRM handler in the worker's own
thread.  Each probe runs the work twice and times the second pass, so that
the first has brought it back into the CPU caches.  scaled() rescales a
stretch of wall time by the speed measured around it:

    scaled = (wall time outside the probes) * NOMINAL / (local probe time)

The local probe time is the median of the five probes nearest in time, a
window of 250 ms: a wider one follows the machine too slowly for the 12 ms
operations in the tail of `generation`.
NOMINAL is a fixed constant near the probe's usual time on such a machine, so
scaled times read close to wall seconds there.  The probes cost about 2% of
the worker's time and are left out of every interval.  probe_check.py tests
that the program's memory use does not move the probe.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

INTERVAL = 0.05
NOMINAL = 4.5e-4

_M = np.arange(9, dtype=complex).reshape(3, 3) / 9


def reference_work():
    """Fixed work in the proportions the workloads use: dict updates on tuple
    keys, rational sums, and numpy calls on 3 x 3 complex matrices."""
    acc = {}
    total = Fraction(0)
    m = _M
    for i in range(300):
        key = (i % 31, i % 7)
        acc[key] = acc.get(key, 0) + i * i
        if i % 20 == 0:
            total += Fraction(i, 7)
        if i % 10 == 0:
            m = _M @ m - np.trace(m) / 3 * _M
    return acc, total, m


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.costs: list[float] = []
        self._local: list[float] = []

    def _tick(self, signum, frame) -> None:
        # With the cyclic GC off, the probe's short-lived objects cannot
        # start a collection: it would be charged to the probe, and would
        # move the program's own collections to other places.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        # A first, untimed pass brings the probe's code and data back into
        # the CPU caches, so the program's own working set cannot slow the
        # timed pass and hide part of its cost.
        reference_work()
        timed = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.costs.append(end - timed)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        c = self.costs
        self._local = [statistics.median(c[max(0, i - 2):i + 3]) for i in range(len(c))]

    def median_cost(self) -> float:
        """Median probe time in seconds; a drift between two versions of the
        program would show that the program moved the probe."""
        return statistics.median(self.costs)

    def scaled(self, a: float, b: float) -> float:
        """Seconds of [a, b] outside the probes at NOMINAL probe speed; call after stop()."""
        if not self._local:
            return b - a
        last = len(self._local) - 1
        i = bisect.bisect_left(self.starts, a)
        total = 0.0
        cursor = a
        while i <= last and self.starts[i] < b:
            total += (self.starts[i] - cursor) * NOMINAL / self._local[i]
            cursor = min(self.ends[i], b)
            i += 1
        return total + (b - cursor) * NOMINAL / self._local[min(i, last)]
