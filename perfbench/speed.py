"""Machine-speed reference for the timed phases.

On a shared VM the CPU runs in a fast and a slow phase, about 1.5x apart,
each lasting from half a second to a few seconds, and process CPU time
moves with wall time.  A timing taken in the slow phase is not a slower
homlab.  So while a run measures, a SIGALRM handler runs a fixed
pure-Python task, which imports nothing from homlab, every `INTERVAL_S`
of wall time and records the CPU time it took.  CPU time, because with
pool workers busy on every core a sample may wait for a core, and that
wait is not the machine's speed.  Each stretch of measured time
between two samples is then scaled by `NOMINAL_S / (the reference's
median time around that stretch)`, and the samples' own time is left
out.  A time then reads as it would on a machine where the reference
takes `NOMINAL_S`: a change to homlab moves it in full, a change of
machine phase mostly cancels.

Python runs the handler between bytecodes of the main thread, so homlab
sees nothing but a pause.  Interval timers are not inherited across
fork, so pool workers are never interrupted.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

# The reference's median time on the baseline machine (2-vCPU VM,
# CPython 3.11.7), over both phases.
NOMINAL_S = 0.0003
INTERVAL_S = 0.025
WINDOW = 10  # samples on each side of a stretch that give its local speed


def reference():
    """A fixed mix of the operations homlab spends its time in: rational
    sums, dict updates keyed by tuples, and big-integer products."""
    s = Fraction(0)
    for k in range(1, 40):
        s += Fraction(k, k * k + 1)
    d = {}
    for i in range(300):
        key = (i % 17, i % 5)
        d[key] = d.get(key, 0) + i * i
    x = 3 ** 400 * 7 ** 300
    return s, len(d), x * x % (10 ** 200 + 7)


class SpeedClock:
    """Reference samples taken every `INTERVAL_S` while the clock
    runs (`with SpeedClock() as clock:`), and the scaled durations they
    give for any stretch of the run."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self.cpus = []  # the samples' CPU time, which a wait for a core does not inflate
        self._gap_scales = None
        self._previous = None
        self._running = False
        self._sampling = False

    def sample(self, *_):
        if self._sampling:  # a signal that arrives during a sample is dropped
            return
        self._sampling = True
        t0, c0 = time.perf_counter(), time.thread_time()
        reference()
        c1, t1 = time.thread_time(), time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.cpus.append(c1 - c0)
        self._sampling = False

    def start(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._running = True

    def stop(self):
        """Stop sampling; scaled durations may be read only after this."""
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._running = False
            self.sample()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    def _gap_scale(self, i: int) -> float:
        """Scale of the gap just before sample i (i = len: after the last)."""
        if self._gap_scales is None:
            n = len(self.cpus)
            self._gap_scales = [NOMINAL_S / statistics.median(self.cpus[max(0, g - WINDOW):min(n, g + WINDOW)])
                                for g in range(n + 1)]
        return self._gap_scales[i]

    def scaled(self, t0: float, t1: float) -> float:
        """The time spent outside reference samples over [t0, t1], each
        stretch scaled to nominal machine speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        total, start = 0.0, t0
        for i in range(lo, hi):
            total += (self.starts[i] - start) * self._gap_scale(i)
            start = self.ends[i]
        return total + max(0.0, t1 - start) * self._gap_scale(hi)

    def median_ms(self) -> float:
        return 1000 * statistics.median(self.cpus)
