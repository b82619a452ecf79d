"""Speed gauge: CPU times scaled to a fixed reference speed.

On a shared host the CPU time of one fixed piece of work swings by 1.5-2x
from one stretch of ~10 ms to the next, as other guests load the caches
and the core's sibling thread.  The gauge reads the machine's current
speed by timing a fixed loop that does what the engine's hot paths do:
bisect into a sorted list of 5,000 floats, insert and delete there, and
copy a slice.  It takes a new reading each time GAUGE_EVERY_S of engine
CPU time has passed since the last one: between pieces of work, or inside
a long call (see :class:`Gauge`).  Each piece's CPU time is then
multiplied by GAUGE_REF_S over the mean of the readings around it: the
time the piece would have taken on a machine on which the loop takes
GAUGE_REF_S.

The loop is the benchmark's own code and never calls dsmatch, so a change
to the engine moves the engine's times and leaves the readings alone.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from random import Random
from time import thread_time

GAUGE_EVERY_S = 0.02  # CPU seconds of engine work between two readings
GAUGE_REF_S = 0.0005  # the loop's CPU time at the reference speed

_rng = Random(0)
_SORTED = sorted(_rng.random() for _ in range(5_000))
_KEYS = [_rng.random() for _ in range(100)]


def gauge_loop() -> float:
    """CPU time of one pass of the fixed loop; the list is left unchanged."""
    lst = _SORTED
    t0 = thread_time()
    for x in _KEYS:
        i = bisect.bisect_left(lst, x)
        lst.insert(i, x)
        del lst[i]
        [a + 1.0 for a in lst[i : i + 50]]
    return thread_time() - t0


class Gauge:
    """Collects the CPU times of consecutive pieces of work and scales them.

    Short pieces are timed by the caller and passed to :meth:`add`; the
    gauge reads between them.  A long call goes through :meth:`call`,
    which also reads inside it, from a profiling-timer signal every
    GAUGE_EVERY_S of CPU time, and leaves those readings' own CPU time out
    of the call's.  Each piece is scaled by the mean of the readings from
    the last one before it to the first one after it.
    """

    def __init__(self) -> None:
        self.readings = [gauge_loop()]
        self.raw: list[float] = []  # CPU seconds as measured
        self.scaled: list[float] = []  # the same, at the reference speed
        self._unread = 0.0  # CPU seconds added since the last reading

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self._unread += seconds
        if self._unread >= GAUGE_EVERY_S:
            self._read(len(self.readings) - 1)

    def call(self, fn, *args):
        """Run and time ``fn(*args)`` as one piece; returns its result."""
        before = len(self.readings) - 1

        def on_timer(signum, frame):
            self.readings.append(gauge_loop())

        previous = signal.signal(signal.SIGPROF, on_timer)
        signal.setitimer(signal.ITIMER_PROF, GAUGE_EVERY_S, GAUGE_EVERY_S)
        t0 = thread_time()
        try:
            return fn(*args)
        finally:
            seconds = thread_time() - t0
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
            self.raw.append(seconds - sum(self.readings[before + 1 :]))
            self._read(before)

    def _read(self, since: int) -> None:
        """Take a reading; scale the unscaled pieces by the readings from ``since`` on."""
        self.readings.append(gauge_loop())
        factor = GAUGE_REF_S / statistics.fmean(self.readings[since:])
        self.scaled += [t * factor for t in self.raw[len(self.scaled) :]]
        self._unread = 0.0

    def close(self) -> list[float]:
        """Scale what is left with a last reading; returns every scaled time."""
        if len(self.scaled) < len(self.raw):
            self._read(len(self.readings) - 1)
        return self.scaled
