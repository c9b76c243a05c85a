"""Host speed probe: times of the timed phase, scaled to a steady host speed.

On a shared virtual machine one CPU's speed swings by a third or more,
each state held for seconds to tens of seconds, so a run's raw times
depend on when it ran as much as on the program. While a run's timed
phase goes on, a SIGALRM timer runs a fixed pure-Python reference loop
every ``INTERVAL`` seconds of wall time (about 2% of the time). The
loop's duration, taken as the median of the samples within about half a
second, is the host's speed at that moment. Each stretch of work between
two samples is scaled by ``REFERENCE_S`` over that duration, so a
stretch run while the host was slow counts as what it would have taken
at the reference speed. Time spent inside the probe is left out of both
the raw and the scaled times.

The loop does the kind of work bivar does (integer arithmetic, tuples,
dict lookups) and touches no bivar code, so a change to bivar moves the
scaled times as it moves the raw ones.
"""

import bisect
import signal
import statistics
import time

perf_counter = time.perf_counter

INTERVAL = 0.025
# median duration of one reference loop on the reference machine (2
# vCPUs of a shared virtual machine, Python 3.11.7) when it ran fast
REFERENCE_S = 0.0005
# samples on each side of a stretch whose median sets its speed
HALF_WINDOW = 20


def reference_loop(n=1500):
    total = 0
    seen = {}
    for i in range(n):
        key = (i & 31, i % 7)
        seen[key] = seen.get(key, 0) + i
        total += i * i % 7
    return total


class SpeedProbe:
    """Context manager that samples host speed while its block runs."""

    def __init__(self):
        self.samples = []  # (start, end) of each reference loop
        self.starts = []
        self.ends = []
        self.factors = []

    def sample(self, *_signal_args):
        t0 = perf_counter()
        reference_loop()
        self.samples.append((t0, perf_counter()))

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        durations = [end - start for start, end in self.samples]
        # stretch i is the work between the end of sample i and the start of sample i+1
        self.starts = [end for _, end in self.samples[:-1]]
        self.ends = [start for start, _ in self.samples[1:]]
        self.factors = [
            REFERENCE_S / statistics.median(durations[max(0, i - HALF_WINDOW + 1):i + HALF_WINDOW + 1])
            for i in range(len(self.starts))
        ]
        return False

    def times(self, start, end):
        """(raw, scaled) seconds of the work in [start, end], probe time left out."""
        raw = scaled = 0.0
        i = bisect.bisect_right(self.ends, start)
        while i < len(self.starts) and self.starts[i] < end:
            part = min(end, self.ends[i]) - max(start, self.starts[i])
            if part > 0:
                raw += part
                scaled += part * self.factors[i]
            i += 1
        return raw, scaled

