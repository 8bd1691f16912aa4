"""Host speed sampled while the measured code runs, to take contention out
of wall times.

A shared host runs the same pure-Python code up to twice as slowly at one
moment as at another, and the slow spells last from a second to minutes,
so medians over a run do not remove them.  :class:`SpeedProbe` samples the
speed of the CPU the benchmark runs on: a timer signal interrupts the
measured code every :data:`PERIOD_S` seconds and the handler times
:func:`probe`, a fixed piece of interpreter work.  An interval's
*reference time* is its wall time, less the probes in it, times the mean
of ``REFERENCE_PROBE_S / probe time`` over the probes in it: the time the
interval would have taken at the speed where :func:`probe` takes
:data:`REFERENCE_PROBE_S`.  Work the library adds or removes changes the
reference time in full; a slow spell of the host changes the wall time and
the probe times alike and cancels.  The mean is trimmed, because a probe
that the scheduler preempts reads many times too slow.

The probe does what the library does most: it reads tuples scattered over
a table too large for the first-level caches, adds them coordinatewise,
fills a set, builds and sorts small tuples.  A slow spell slows such code
more than it slows a loop that stays in the first-level caches, so a
probe of that kind corrects the surveys too little.
"""

from __future__ import annotations

import itertools
import signal
import time
from array import array
from bisect import bisect_left, bisect_right

PERIOD_S = 0.02
# Time of one probe on an idle CPU of a 2-CPU x86-64 host with Python 3.11.
REFERENCE_PROBE_S = 0.0003
TRIM = 0.1              # share of the slowest and of the fastest probes dropped

_TABLE = [tuple(i * j % 8 for j in range(3)) + (i,) for i in range(8000)]
_START = itertools.count(0, 4099)


def probe() -> int:
    """A fixed piece of interpreter work; see the module's docstring."""
    n = len(_TABLE)
    k = next(_START) % n
    sums = set()
    for i in range(300):
        a = _TABLE[(k + i * 7919) % n]
        b = _TABLE[(k + i * 104729) % n]
        sums.add(((a[0] + b[0]) % 8, (a[1] + b[1]) % 8, (a[2] + b[2]) % 8))
    rows = [tuple((i * j % 5, j) for j in range(4)) for i in range(150)]
    rows.sort(reverse=True)
    return len(sums) + len(frozenset(rows))


def trimmed_mean(values: list[float]) -> float:
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


class SpeedProbe:
    """While entered, probes the host speed every :data:`PERIOD_S` seconds
    and keeps each probe's start and duration."""

    def __init__(self) -> None:
        self.start = array("d")
        self.duration = array("d")
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        probe()
        self.start.append(t0)
        self.duration.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, t0: float, t1: float) -> tuple[float, list[float]]:
        """(seconds spent in probes, speed of each probe) for the probes
        that ran wholly inside ``[t0, t1]``."""
        spent = 0.0
        speeds = []
        for i in range(bisect_left(self.start, t0), bisect_right(self.start, t1)):
            if self.start[i] + self.duration[i] <= t1:
                spent += self.duration[i]
                speeds.append(REFERENCE_PROBE_S / self.duration[i])
        return spent, speeds


def reference_time(wall_s: float, probe_s: float, speeds: list[float]) -> float:
    """Reference time of an interval of ``wall_s`` seconds that held
    ``probe_s`` seconds of probes with the given speeds."""
    return (wall_s - probe_s) * trimmed_mean(speeds)
