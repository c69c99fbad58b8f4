"""Machine-speed calibration.

The benchmark's host shares its CPUs with other tenants, and its speed
drifts by more than the bounds the benchmark gates on.  On a 2-vCPU VM
(Python 3.11) the same ``small_sweep`` pass took 9.0 s in one stretch
and 15.5 s twenty minutes later, and the kernel below slowed by about
the same factor.  So every time the benchmark reports is scaled to a
reference speed.

The speed also moves within seconds, so a kernel timed once before and
once after a 10 s job can be off by 40% from the speed the job saw.
While jobs run, an interval timer therefore times the kernel every
``SAMPLE_EVERY_S``, inside the jobs too.  A job's time, less the
sampling time within it, is multiplied by ``REFERENCE_S`` over the mean
kernel time of the samples taken during the job, or over the kernel
time interpolated at the job's midpoint when none fell inside it.  The
kernel takes about ``REFERENCE_S`` on a quiet host, so a scaled time
reads as seconds on such a host.  The raw wall times are reported
beside the scaled ones.
"""

import bisect
import contextlib
import signal
import time
from fractions import Fraction

# Kernel seconds on the machine the benchmark was written on, in a quiet
# stretch.
REFERENCE_S = 0.0055
# About 2-4% of a run goes into sampling at this rate.
SAMPLE_EVERY_S = 0.25


class Kernel:
    """A fixed mix of interpreter work (integer and Fraction arithmetic,
    the program's staple) and numpy work (a dense product and a row
    unique, as in the layer systems).  The two react differently to a
    busy host, and the program does both."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.random((120, 120))
        self.rows = rng.integers(0, 30, size=(3000, 4))
        self()  # the first call is several times slower than the rest

    def __call__(self):
        x = 0
        f = Fraction(1, 3)
        for j in range(500):
            x += j * j % 7
            f = (f * 7 + 1) / 5 if f < 1000 else Fraction(1, 3)
        self.a @ self.a
        self.np.unique(self.rows, axis=0)
        return x, f


class SpeedLog:
    """Kernel timings taken through a run, for scaling job times."""

    def __init__(self, clock=time.perf_counter, probe=None):
        self.clock = clock
        self.probe = probe or Kernel()
        self.times = []  # when each calibration was taken (its midpoint)
        self.kernel_s = []  # what the kernel took then

    def calibrate(self):
        start = self.clock()
        self.probe()
        end = self.clock()
        self.times.append((start + end) / 2)
        self.kernel_s.append(end - start)

    @contextlib.contextmanager
    def sampling(self, every=SAMPLE_EVERY_S):
        """Calibrate every ``every`` seconds from SIGALRM while the block
        runs.  Do not call calibrate() inside the block."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.calibrate())
        signal.setitimer(signal.ITIMER_REAL, every, every)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def kernel_at(self, t):
        """Kernel seconds at time t, interpolated between calibrations."""
        if not self.times:
            raise ValueError("no calibration taken")
        i = bisect.bisect_left(self.times, t)
        if i == 0:
            return self.kernel_s[0]
        if i == len(self.times):
            return self.kernel_s[-1]
        t0, t1 = self.times[i - 1], self.times[i]
        k0, k1 = self.kernel_s[i - 1], self.kernel_s[i]
        return k0 + (k1 - k0) * (t - t0) / (t1 - t0)

    def scaled(self, start, end):
        """Seconds from start to end, less the calibrations taken in
        between, at the reference speed."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        inside = self.kernel_s[lo:hi]
        if not inside:
            return (end - start) * REFERENCE_S / self.kernel_at((start + end) / 2)
        busy = end - start - sum(inside)
        return busy * REFERENCE_S / (sum(inside) / len(inside))
