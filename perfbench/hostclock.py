"""Host speed, sampled while the benchmark times the program.

The cores this benchmark was written on are shared with other machines,
which slow a plain Python loop by up to 2x for seconds to minutes at a time,
in this process's own CPU time as much as in wall time.  While a HostClock
is armed, a SIGALRM timer interrupts the work every INTERVAL seconds and
runs a fixed reference loop of the benchmark's own integer arithmetic (gen.py,
never the program under test); its speed, REF_NOMINAL over its duration, is
the host's speed at that moment.  A timed stretch of program work is its
wall time less the time spent in the handler, and `at_reference` scales it
by the mean host speed sampled during it: seconds at the reference speed.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

import gen

INTERVAL = 0.04
# the host's speed changes over seconds, so a stretch shorter than a
# sampling interval still takes the samples this close to it
WINDOW = 0.1
REF_WORDS = 400
# seconds of one reference loop at the reference speed (the fast end of
# what the loop took on the machine the benchmark was written on)
REF_NOMINAL = 1.0e-3


class HostClock:
    def __init__(self):
        rng = random.Random("hostclock")
        self._words = [tuple(rng.randint(1, 9) for _ in range(rng.choice((2, 4, 6)))) for _ in range(REF_WORDS)]
        self.times = []  # midpoint of each reference loop
        self.speeds = []  # REF_NOMINAL over its duration
        self.stolen = 0.0  # seconds spent in the handler
        self.armed = False

    def reference(self):
        """The reference loop; returns its duration in seconds."""
        enabled = gc.isenabled()
        gc.disable()  # the loop must not pay for the program's heap
        try:
            t0 = time.perf_counter()
            for w in self._words:
                gen.mat_mul(gen.word_product(w), (1, 1, 0, 1))
                gen.min_even_rotation(w)
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((t0 + t1) / 2)
        self.speeds.append(REF_NOMINAL / (t1 - t0))
        return t1 - t0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.reference()
        self.stolen += time.perf_counter() - t0

    def arm(self):
        self.reference()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self.armed = True

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.armed = False
        self.reference()

    def mark(self):
        return time.perf_counter(), self.stolen

    def since(self, mark):
        """(start, end, seconds of work) of the stretch that began at mark."""
        t0, stolen0 = mark
        t1 = time.perf_counter()
        return t0, t1, (t1 - t0) - (self.stolen - stolen0)

    def at_reference(self, stretch):
        """Seconds of work of a stretch from `since`, at the reference speed.

        The host speed is the mean over the samples taken from WINDOW
        before the stretch to WINDOW after it, and at least the nearest one
        on each side.
        """
        t0, t1, seconds = stretch
        lo = max(min(bisect.bisect_left(self.times, t0 - WINDOW), bisect.bisect_left(self.times, t0) - 1), 0)
        hi = max(bisect.bisect_right(self.times, t1 + WINDOW), bisect.bisect_right(self.times, t1) + 1)
        return seconds * statistics.fmean(self.speeds[lo:hi])
