"""Timing at a fixed reference speed of the machine.

Shared hosts change the speed of a thread for seconds to minutes at a time:
on the reference host (2-vCPU Xeon VM, Python 3.11) one pure-Python loop
takes 1.5-1.9x longer in the slow state than in the fast one.  A raw timing
then says more about the host than about the program.

``ReferenceClock.measure`` times a call and samples the speed of the machine
with ``reference_loop``: once before the call, once after it, and every
``PERIOD`` seconds during it, from a SIGALRM handler.  Each stretch between
two samples is scaled by REFERENCE_S over the mean of the loop times at its
two ends, and the time the samples themselves take is left out.  The result is
the call's time in seconds at the reference speed.  No frobkit code runs in
the loop, so a change to frobkit moves a scaled timing as much as a raw one.
"""

from __future__ import annotations

import math
import signal
from fractions import Fraction
from time import perf_counter

# Seconds that reference_loop takes at the reference speed: about what it
# takes on the reference host in its fast state.
REFERENCE_S = 0.0013
PERIOD = 0.1  # seconds between samples during a call


def reference_loop() -> float:
    """Seconds that a fixed loop of Fraction and dict work, like frobkit's own,
    takes now: the faster of two passes, so that one preemption does not count."""
    best = math.inf
    for _ in range(2):
        start = perf_counter()
        table: dict[int, Fraction] = {}
        total = Fraction(0)
        for i in range(400):
            key = (i * 7) % 97
            table[key] = table.get(key, total) + Fraction(i % 5 + 1, i % 3 + 1)
            total = table[key] - total
        best = min(best, perf_counter() - start)
    return best


class ReferenceClock:
    """Times calls in seconds at the reference speed; see the module docstring.

    With ``sample_during=False`` the speed is sampled only before and after
    each call, and no signal interrupts it (the traced run uses that, so that
    per-layer times hold no sampling time).
    """

    def __init__(self, sample_during: bool = True):
        self.sample_during = sample_during
        self.raw = self.scaled = 0.0  # of the last call measured
        self.samples = 0  # speed samples taken for the last call
        self._loop = self._mark = 0.0  # last sample's loop time, and when it ended
        self._busy = False

    def _sample(self) -> None:
        """Close the stretch since the last sample with a new one."""
        end = perf_counter()
        loop = reference_loop()
        self.samples += 1
        self.raw += end - self._mark
        self.scaled += (end - self._mark) * REFERENCE_S * 2 / (self._loop + loop)
        self._loop = loop
        self._mark = perf_counter()

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a late alarm must not nest inside a sample
            self._busy = True
            try:
                self._sample()
            finally:
                self._busy = False

    def measure(self, fn, *args):
        """(fn(*args), raw seconds, seconds at the reference speed).

        Raw seconds leave out the time of the samples taken during the call.
        """
        self.raw = self.scaled = 0.0
        self._loop = reference_loop()
        self.samples = 1
        self._mark = perf_counter()
        previous = None
        if self.sample_during:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            result = fn(*args)
        finally:
            if self.sample_during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self._busy = True
            self._sample()
            self._busy = False
        return result, self.raw, self.scaled
