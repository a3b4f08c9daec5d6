"""Machine-speed probe: times in seconds at a fixed reference speed.

On a shared 2-core VM (2 GHz Xeon) the speed drifts by up to half over
tens of seconds, and process CPU time drifts with it, so raw times of
the same code on the same input differ by more than any useful
regression bound.  The probe times a
fixed calibration kernel, pure-Python code of the benchmark's own that
the library never runs, every PERIOD seconds from a timer signal, so
the samples are spread evenly over whatever the main thread is doing,
and EDGE_SAMPLES more at both ends of every measured interval, so that
short intervals such as a set-up get a speed estimate too.
The kernel is an integer loop: of the kernels tried (the benchmark's
own endomorphism and congruence search, a dict-and-tuple kernel, this
loop), the loop's timings tracked the workloads' drift best, leaving
3-5 % pass-to-pass variation where the raw times varied 9-16 %.
A measured interval is then rescaled by REFERENCE / (median kernel time
during it): the time the interval would have taken on a machine where
the kernel takes REFERENCE seconds.  A change to the library moves the
raw time and leaves the kernel alone, so it moves the rescaled time by
the same factor.

The time spent inside the signal handler is subtracted from every
interval it falls in.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD = 0.2
EDGE_SAMPLES = 3  # taken at both ends of an interval, for short intervals
REFERENCE = 0.002  # fixed; near the kernel's time on a quiet 2 GHz Xeon core


def kernel():
    """About REFERENCE seconds of interpreted integer arithmetic."""
    total = 0
    for i in range(32000):
        total += i * i % 7
    return total


class Probe:
    """Kernel timings taken every PERIOD seconds while started."""

    def __init__(self):
        self.samples = []  # kernel seconds, in order
        self.handler_s = 0.0
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)
        self.handler_s += time.perf_counter() - start

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        """A point to measure from, after EDGE_SAMPLES samples:
        (clock, handler seconds so far, index of its first sample)."""
        first = len(self.samples)
        for _ in range(EDGE_SAMPLES):
            self._sample()
        return time.perf_counter(), self.handler_s, first

    def scaled(self, since):
        """(rescaled, raw) seconds since `since` (a mark), without the
        handler's share; takes EDGE_SAMPLES closing samples."""
        for _ in range(EDGE_SAMPLES):
            self._sample()
        clock, handler_s, first = since
        raw = time.perf_counter() - clock - (self.handler_s - handler_s)
        kernel_s = statistics.median(self.samples[first:])
        return raw * REFERENCE / kernel_s, raw
