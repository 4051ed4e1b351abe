"""Host-speed scaling for the benchmark's timings.

On a shared host, co-tenant load changes the CPU speed one process gets by
up to 1.8x, in phases of seconds to minutes, so raw medians of two runs of
the same code differ by 20-30%.  A fixed pure-Python kernel slows down in
step with tripow's own code.  ``HostSpeed`` times the kernel every
``INTERVAL_S`` of wall time from a SIGALRM handler, so that a call lasting
seconds is sampled while it runs.  Each call's time is divided by its
slowdown: the harmonic mean of the kernel times of the samples taken
during the call or within ``WINDOW_S`` of it, over ``KERNEL_REF_S``.  The
samples are spread evenly in wall time, so their harmonic mean is the
slowdown averaged over the work the call did; a sample that was itself
descheduled weighs little in it.  Timings are therefore
stated at the speed of a host on which the kernel takes ``KERNEL_REF_S``.
Time spent in the handler is taken out of in-process calls.

A ``--jobs 2`` sweep runs its work in worker processes that hold both
cores, so a kernel sampled during it would read the workers' own load as
host slowdown.  For such a call the timer is stopped and the kernel is
sampled ``PAUSE_SAMPLES`` times just before and just after the call
instead.  A set-up probe runs its own sampler in its own interpreter (see
probe.py).
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

KERNEL_REF_S = 0.5e-3
INTERVAL_S = 0.025
WINDOW_S = 0.1
PAUSE_SAMPLES = 3


def _kernel():
    acc = 0
    table = {}
    x = 3**400
    for i in range(1500):
        acc += (x * (i + 1)) % 1000003
        table[i & 63] = acc
        acc ^= len(str(i))
    return acc


def kernel_s() -> float:
    """One timed run of the calibration kernel, with the collector paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """Samples the kernel while active; scales the calls made through run()."""

    def __init__(self):
        self.times: list = []
        self.kernels: list = []
        self.busy_s = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.kernels.append(kernel_s())
        self.times.append(t0)
        self.busy_s += time.perf_counter() - t0

    def _start(self):
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def run(self, fn, *args, pause: bool = False) -> dict:
        """fn(*args) returns a record with its own "dt"; note when it ran.

        With ``pause``, the kernel is sampled only around the call, not
        during it: for calls whose work runs in other processes.
        """
        if pause:
            signal.setitimer(signal.ITIMER_REAL, 0)
            for _ in range(PAUSE_SAMPLES):
                self._sample(None, None)
        busy0 = self.busy_s
        t0 = time.perf_counter()
        rec = fn(*args)
        rec["t0"], rec["t1"] = t0, time.perf_counter()
        if pause:
            for _ in range(PAUSE_SAMPLES):
                self._sample(None, None)
            self._start()
        else:
            rec["dt"] -= self.busy_s - busy0
        return rec

    def scale(self, recs: list) -> list:
        """Give every record its host slowdown and its scaled time."""
        for rec in recs:
            lo = bisect_left(self.times, rec["t0"] - WINDOW_S)
            hi = bisect_right(self.times, rec["t1"] + WINDOW_S)
            near = self.kernels[lo:hi] or self.kernels[max(0, lo - 1): lo + 1]
            rec["slowdown"] = statistics.harmonic_mean(near) / KERNEL_REF_S
            rec["scaled"] = rec["dt"] / rec["slowdown"]
        return recs
