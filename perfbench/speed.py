"""Reference-speed normalisation of timings on a shared machine.

The machine may be shared: the same code runs up to twice as slow for
seconds or minutes at a time while another tenant loads the core, which no
amount of repetition inside one run averages out.  So a fixed reference
kernel runs next to every timed call, and a call's normalised time is its
own time (less the kernel runs) times the mean of REFERENCE_S over the
kernel's measured times: seconds on a core where the kernel takes
REFERENCE_S.  A slower program reads slower; a busier machine does not.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# The reference kernel's time on an uncontended core of a 2-vCPU Intel Xeon
# virtual machine at 2.0 GHz; normalised times are seconds at that speed.
REFERENCE_S = 8.0e-4
SAMPLE_PERIOD_S = 0.025


def reference_kernel():
    """Fixed interpreter and small-array work, the mix of a jet evaluation;
    returns its seconds."""
    start = time.perf_counter()
    g = np.zeros(4)
    h = np.zeros((4, 4))
    v = 1.0
    for i in range(100):
        e = np.zeros(4)
        e[i % 4] = 1.0
        h = 0.5 * h + np.outer(e, g) + np.outer(g, e)
        g = 0.5 * g + e
        v = v * 1.0000001 + math.sqrt(v)
    return time.perf_counter() - start


class Speedometer:
    """Times a call and the reference kernel around and during it."""

    def __init__(self):
        self._samples = []
        self._kernel_s = 0.0
        self.on_kernel = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        start = time.perf_counter_ns()
        self._samples.append(reference_kernel())
        spent = time.perf_counter_ns() - start
        self._kernel_s += spent * 1e-9
        if self.on_kernel is not None:
            self.on_kernel(spent)

    def time(self, call):
        """(result, seconds, normalised seconds) of ``call()``."""
        self._samples = [reference_kernel()]
        self._kernel_s = 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            result = call()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._samples.append(reference_kernel())
        seconds = elapsed - self._kernel_s
        scale = statistics.fmean(REFERENCE_S / t for t in self._samples)
        return result, seconds, seconds * scale

