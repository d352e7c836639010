"""The machine-speed probe that timings are scaled by.

The machine this benchmark was tuned on is a shared VM whose speed wanders
by up to about 1.8x over a minute, for CPU time as much as for wall time, and
that loses the processor for a millisecond or so now and then, more often in
busy spells.  A fixed pure-Python probe slows down with it.  So every timed
quantity is reported at reference speed:

    scaled = raw * REF_PROBE_S / probe_s

where `probe_s` is the mean probe time measured around it.  The probe does
what `relwp` does most (tuple keys, dict updates, small frozensets, short
loops) and calls nothing of `relwp`, so a change to `relwp` cannot move it.
`REF_PROBE_S` is a constant that only sets the scale: a scaled time reads as
the raw time on a machine where one probe takes `REF_PROBE_S`.

During a measured pass a `Sampler` reads the probe every PROBE_EVERY_S of
wall time, from a timer signal, so long verdicts are sampled while they run
and not only at their ends.  A reading taken inside a verdict is subtracted
from that verdict's time.  Over a minute and a half of repeated 10-second
strictness checks, the raw times spread 0.12 and the scaled ones 0.05.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

REF_PROBE_S = 0.002       # the scale: one probe at reference speed
PROBE_EVERY_S = 0.05      # wall time between two readings while a pass runs
PROBE_WINDOW_S = 1.5      # readings this close to a verdict count towards its speed
SETUP_READINGS = 5        # readings just before and just after a set-up, and ending a pass


def _kernel() -> int:
    d = {}
    acc = 0
    for i in range(2500):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + 1
        s = frozenset((i % 7, i % 11, i % 5))
        acc += len(s | {1, 2}) + (i * i) % 9
    return acc + len(tuple(sorted(d.items())))


def probe() -> float:
    """Seconds one run of the probe takes now.  The garbage collector is off
    while it runs, so the reading does not grow with the heap that the
    verdicts have built."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Probe readings, (perf_counter at the start, probe seconds) in time
    order: `read` takes one now; between `start` and `stop` a timer signal
    takes one every PROBE_EVERY_S as well."""

    def __init__(self, readings=()):
        self.readings = list(readings)

    def read(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            self.readings.append((t0, probe()))

    def _on_timer(self, _signum, _frame) -> None:
        self.read()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def around(self, spans):
        """For each (start, end) span of a verdict: the probe seconds spent in
        readings taken inside it, and the probe time for it.  The latter is
        the mean of the readings within PROBE_WINDOW_S of the span, and always
        of the last one before it and the first one after it.  Single
        readings jump when the processor is lost during one; their mean over
        a few seconds is the average slowness a verdict among them meets."""
        ts = [t for t, _ in self.readings]
        ps = [p for _, p in self.readings]
        out = []
        for start, end in spans:
            inside = sum(ps[bisect_left(ts, start):bisect_left(ts, end)])
            lo = min(max(0, bisect_right(ts, start) - 1), bisect_left(ts, start - PROBE_WINDOW_S))
            hi = max(min(len(ts), bisect_left(ts, end) + 1),
                     bisect_right(ts, end + PROBE_WINDOW_S))
            out.append((inside, statistics.fmean(ps[lo:hi])))
        return out


def scale(raw_s: float, probe_s: float) -> float:
    """`raw_s` at reference speed, given the probe time measured around it."""
    return raw_s * REF_PROBE_S / probe_s
