"""Machine-speed probe, so that timings repeat on a shared host.

On the 2-vCPU host this benchmark was built on, one identical CLI task takes
0.52 s in some phases and 0.85 s in others; phases last from one to about 25
seconds and CPU time tracks wall time, so the slowdown is other tenants
contending for the physical core.  Medians of a few passes flip between the
two phases from run to run.

The probe runs ``kernel`` -- about 1.5 ms of the same kinds of work as the
package: an interpreter loop, numpy ufuncs on medium arrays and a row loop of
short-array ufuncs with ``math.fsum`` -- from a SIGALRM handler every
``PERIOD_S`` seconds, in the thread being measured.  A task's time, with the
probe's own time taken out, is divided by the mean kernel time around the
task and multiplied by ``REFERENCE_S``: seconds at the speed where the kernel
takes ``REFERENCE_S``.  Against raw times, this cut the quartile spread of
repeated ~1 s tasks there from 30-50% to 6-11%; the mix was chosen among
single-kind kernels because it tracked both the greedy and the energy loops.
"""

import math
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
# About the kernel's time in a fast phase of that host, so values read close
# to measured seconds there.
REFERENCE_S = 1.5e-3
_MEDIUM = np.linspace(0.01, 0.49, 1 << 14)
_SHORT = np.linspace(0.01, 0.49, 256)


def kernel():
    """A fixed ~1.5 ms mix: an interpreter loop, medium arrays, short-array rows."""
    table = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i
    acc = 0.0
    for k in range(3):
        y = 2.0 * np.abs(np.sin(np.pi * (_MEDIUM + k * 1e-3)))
        acc += float(np.sum(y ** -0.5))
    for k in range(24):
        d = _SHORT[k + 1:] - _SHORT[k]
        d -= np.round(d)
        acc += math.fsum(((2.0 * np.abs(np.sin(np.pi * d))) ** -0.5).tolist())
    return acc


def kernel_seconds(repeats=21):
    """Median time of ``kernel`` in this process, after one warm-up call."""
    kernel()
    times = []
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Samples the kernel time every PERIOD_S seconds while active."""

    def __init__(self):
        self.samples = []  # (start, seconds)

    def _on_alarm(self, signum, frame):
        start = perf_counter()
        kernel()
        self.samples.append((start, perf_counter() - start))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalized(self, start, end):
        """(seconds without probe time, the same at reference speed) for [start, end]."""
        busy = sum(d for t, d in self.samples if start <= t < end)
        near = [d for t, d in self.samples if start - PERIOD_S <= t < end + PERIOD_S]
        if not near and self.samples:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        seconds = end - start - busy
        speed = statistics.fmean(near) / REFERENCE_S if near else 1.0
        return seconds, seconds / speed
