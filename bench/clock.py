"""Timing that cancels the machine's drifting speed.

On a shared virtual machine the CPU runs pure Python up to a quarter
slower or faster from one second to the next, and CPU time tracks wall
time, so neither clock alone gives steady figures.  The clock therefore
runs a short fixed reference loop (a *probe*) at every boundary the
workload marks: before each item, every few hundred apply lines, and at
the ends of a pass.  The work between two probes is scaled by
``NOMINAL_PROBE_S`` over the mean of the two probe times.  A scaled time
reads as seconds on a machine where the probe takes ``NOMINAL_PROBE_S``;
the program's own speed still shows in full, only the machine's drift
between probes is divided out.  Wall times are reported beside the scaled
ones.
"""

from __future__ import annotations

import bisect
import ctypes
import ctypes.util
import gc
import os
import threading
import time

perf = time.perf_counter

NOMINAL_PROBE_S = 0.0035


def _reference_work():
    """A fixed mix of the dict, set and tuple operations the fsm code
    spends its time on."""
    d = {}
    s = set()
    for i in range(12000):
        k = i % 500
        d[k] = d.get(k, 0) + 1
        s.add((k, i & 7))
    return len(d) + len(s)


class Clock:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def mark(self):
        """Run one probe.  The collector is off so that the probe never
        pays for the program's garbage."""
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf()
        _reference_work()
        t1 = perf()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)

    def _segment(self, t: float) -> int:
        """Index of the last probe that ended at or before t."""
        k = bisect.bisect_right(self.ends, t) - 1
        if k < 0 or k + 1 >= len(self.starts) or t > self.starts[k + 1]:
            raise ValueError("time %r is not between two probes" % t)
        return k

    def _factor(self, k: int) -> float:
        d0 = self.ends[k] - self.starts[k]
        d1 = self.ends[k + 1] - self.starts[k + 1]
        return NOMINAL_PROBE_S / ((d0 + d1) / 2)

    def scaled(self, t0: float, t1: float) -> float:
        """The interval [t0, t1], lying between two probes, scaled."""
        return (t1 - t0) * self._factor(self._segment(t0))

    def scaled_span(self, first: int, last: int) -> float:
        """Everything between probe `first` and probe `last`, scaled,
        leaving out the probes themselves."""
        return sum((self.starts[k + 1] - self.ends[k]) * self._factor(k)
                   for k in range(first, last))

    def probe_times(self, first: int = 0) -> list:
        return [b - a for a, b in zip(self.starts[first:], self.ends[first:])]


def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        trim = libc.malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


class RssSampler:
    """Samples the process's resident set size every ``interval`` seconds
    on a background thread (reading /proc/self/statm).  ``take_peak()``
    returns the highest sample since the previous call, so each pass gets
    its own peak.  ``ru_maxrss`` cannot be reset: one rare rule of one
    seed would set it for the whole run.  The thread is the only one the
    workload process runs besides the main one; its cost is below the
    noise of the timings (bench/README.md).

    ``release()`` hands freed heap back to the system before a pass.
    Without it the C allocator keeps the pages of a pass's peak (the
    10^4-symbol apply line leaves about 400 MB resident), and a later
    pass would start where its predecessor peaked."""

    def __init__(self, interval: float = 0.01):
        self.interval = interval
        self.page = os.sysconf("SC_PAGE_SIZE")
        self.peak = 0
        self.lock = threading.Lock()  # guards peak between the two threads
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.trim = _malloc_trim()

    def release(self):
        gc.collect()
        if self.trim is not None:
            self.trim(0)

    def rss(self) -> int:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * self.page

    def _run(self):
        while not self.stop.is_set():
            rss = self.rss()
            with self.lock:
                self.peak = max(self.peak, rss)
            self.stop.wait(self.interval)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join()

    def take_peak(self) -> int:
        rss = self.rss()
        with self.lock:
            peak, self.peak = max(self.peak, rss), 0
        return peak
