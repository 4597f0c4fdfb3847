"""Machine-speed calibration for the benchmark's time metrics.

The speed of a shared host can change a lot while a benchmark runs.  On the
reference machine (see README.md) the same pure-Python work runs about 40%
slower for 10-20 s at a time, so raw run-level timings spread by 10-25%
between runs.  The benchmark therefore interleaves a fixed pure-Python probe
loop with the queries and reports every time scaled to the reference speed:

    reported = measured * REF_PROBE_S / probe

where probe is the median of the probe readings taken from WINDOW_S before
to WINDOW_S after the measured interval; the median over a window damps the
probe's own noise but still follows the speed changes.  Probes run between
queries and, for queries answered in this process, also inside them, from a
timer signal; their time is taken out of the query's.  The probe is part of
the benchmark, not of the program, so a change to the program cannot move it.
"""

import bisect
import contextlib
import signal
import statistics
import time

REF_PROBE_S = 0.0015  # probe time at the reference machine's faster speed
PROBE_EVERY_S = 0.2
WINDOW_S = 0.5
PROBE_ITERATIONS = 6000


def _loop():
    # Interpreted integer and tuple work, like the library's inner loops.
    acc = 0
    row = []
    for i in range(PROBE_ITERATIONS):
        t = (i % 97, i * 7 % 13, (i ^ 5) % 11)
        acc = (acc + t[0] * t[1] - t[2]) % 1000003
        row.append(t)
        if len(row) > 64:
            row.clear()
    return acc


def probe():
    """Seconds the probe loop takes now: the faster of two runs."""
    best = None
    for _ in range(2):
        start = time.perf_counter()
        _loop()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class SpeedTrace:
    """Probe readings over time, and the scale factor of an interval."""

    def __init__(self):
        self.times = []  # midpoints of the probes
        self.values = []
        self._signalled = []  # (start, end) of probes run from the timer

    def measure(self):
        start = time.perf_counter()
        value = probe()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.values.append(value)
        return start, end

    @contextlib.contextmanager
    def sampling(self):
        """Probe every PROBE_EVERY_S from a timer signal, also while a query runs."""

        def on_alarm(signum, frame):
            self._signalled.append(self.measure())

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def probing_within(self, start, end):
        """Seconds of timer probes that ran inside [start, end]."""
        first = bisect.bisect_left(self._signalled, (start,))
        return sum(e - s for s, e in self._signalled[first:] if e <= end)

    def maybe_measure(self):
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.measure()

    def factor(self, start, end):
        """REF_PROBE_S over the median probe reading around [start, end]."""
        first = bisect.bisect_left(self.times, start - WINDOW_S)
        last = bisect.bisect_right(self.times, end + WINDOW_S)
        # The probes straddle every query: one is taken before it and one
        # after every pass, so the window is never empty.
        return REF_PROBE_S / statistics.median(self.values[first:last])
