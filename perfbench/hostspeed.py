"""Host speed, sampled while the benchmark runs.

The benchmark shares its host, whose speed swings by up to 2x over
stretches of 10-20 s.  CPU time tracks wall time through these swings,
so they are slow stretches of the host, not scheduling, and medians
within one run do not remove them.  So a fixed pure-Python probe is
timed every PERIOD_S of CPU time, from a SIGPROF handler, and BRACKET
times before and after each measured interval.  A measured interval is
reported in reference seconds: its wall time, less the probes taken
inside it, times REFERENCE_PROBE_S over the mean probe time in and
around it.  That is the time the interval would take on a host where
one probe takes REFERENCE_PROBE_S.

The probe does what the program does most: it hashes tuples, and reads
and writes dicts and sets.  It runs with the garbage collector off, so
the size of the program's heap does not change its time.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.1
BRACKET = 3
# One probe's time on a quiet stretch of a 2-vCPU host running
# Python 3.11; it only fixes the scale of reference seconds.
REFERENCE_PROBE_S = 0.003


def probe():
    counts = {}
    for i in range(8000):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
    seen = set()
    for key, n in counts.items():
        seen.add((n, key[0]))
    return len(seen)


class HostSpeed:
    def __init__(self):
        self.samples = []   # seconds of each probe, in the order taken

    def _sample(self, *_):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            probe()
            self.samples.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def begin(self):
        """Probe, then start an interval; pass the result to end()."""
        for _ in range(BRACKET):
            self._sample()
        return len(self.samples), perf_counter()

    def end(self, mark):
        """End the interval begun at mark; returns (reference seconds,
        wall seconds, mean probe seconds)."""
        wall = perf_counter() - mark[1]
        inside = sum(self.samples[mark[0]:])
        for _ in range(BRACKET):
            self._sample()
        probe_s = statistics.fmean(self.samples[mark[0] - BRACKET:])
        return (wall - inside) * REFERENCE_PROBE_S / probe_s, wall, probe_s
