"""Host-speed correction of the benchmark's timings.

The reference machine is a 2-core share of a busy host. Its speed changes
with the load of other tenants: the same work takes up to 1.85 times as
long, in spells from a fraction of a second to over a minute. Such a spell
covers every repeat of a unit of work alike, so taking the fastest repeat
does not remove it.

A SIGALRM handler therefore runs a fixed reference kernel every INTERVAL
seconds while the run is measured, in this process and thread, between
the bytecodes of whatever tlo code is running. A unit of work that took
`net` seconds (handler time taken out) is reported as

    net * REFERENCE_S / mean(kernel times sampled from WINDOW s before it starts to WINDOW s after it ends)

that is, in seconds of a host running the kernel in REFERENCE_S. The
kernel is numpy work on a small dense tableau driven from a Python loop,
the mix of tlo's hot path, so it is taken to slow with the host by the
factor tlo does. The kernel is benchmark code: a change to tlo leaves it
untouched, so a faster tlo reads faster.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL = 0.1  # seconds between kernel samples
WINDOW = 0.25  # seconds on each side of a unit whose samples count for it
# The kernel's time, run from the handler, on the reference machine (2
# cores, Python 3.11, numpy 2.4) when the host is quiet: about the 5th
# percentile of its samples there. It sets the unit of corrected times.
REFERENCE_S = 1.7e-3

_TABLEAU = np.random.default_rng(20240105).random((8, 12))


def reference_kernel() -> float:
    """150 pivots on an 8 x 12 tableau, the shape of a small simplex."""
    t = _TABLEAU.copy()
    for it in range(150):
        r = it % 8
        c = int(np.argmax(t[r]))
        t[r] = t[r] / t[r, c]
        col = t[:, c].copy()
        col[r] = 0.0
        t -= np.outer(col, t[r])
        t = np.clip(t, -1e3, 1e3)
    return float(t.sum())


class HostClock:
    """Samples the reference kernel while active; converts unit times."""

    def __init__(self):
        self.at: list[float] = []  # start of each kernel sample
        self.cost: list[float] = []  # its duration
        self.spent = 0.0  # handler seconds so far
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.cost.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.resume()
        return self

    def __exit__(self, *exc) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def pause(self) -> None:
        """Stop sampling, as while this process waits on a child: the kernel
        then runs from a cold, idle core and reads slow."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def slowdown(self, start: float, end: float, window: float = WINDOW) -> float:
        """Mean kernel time around [start, end] over REFERENCE_S."""
        at = np.asarray(self.at)
        i, j = np.searchsorted(at, [start - window, end + window])
        if j <= i:  # no sample near: the nearest one
            i = int(np.argmin(np.abs(at - (start + end) / 2)))
            j = i + 1
        return float(np.mean(self.cost[i:j])) / REFERENCE_S
