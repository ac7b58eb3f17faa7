"""The host's speed, sampled on the benchmark's own thread while it measures.

The benchmark runs on two vCPUs of a shared host whose speed drifts by up
to 2x over tens of seconds: the same 1.7-s `check` took 0.96 s in one
half-minute and 2.1 s in the next, and no statistic of the raw times of
one 30-60 s run could be compared with another run's within 25%.  So every
interval the benchmark reports is also expressed at a fixed reference
speed.  While a run measures, a timer runs ``reference()`` (about 2 ms of
interpreter loop, sparse products and a small dense solve, the program's
own mix) every INTERVAL seconds on the main thread, between the program's
bytecodes, and an interval's time is scaled by REF_S over the mean time of
the samples taken during it.

The reference work does not depend on the program, so a program that does
more work reads proportionally slower; what cancels is the host's speed,
which the program and the samples share.  The samples' own time is taken
out of every interval they fall in.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np
import scipy.sparse as sp

INTERVAL = 0.2      # seconds between samples
WINDOW = 1.0        # samples this close to an interval also count for it
# A fixed scale, about the median time of a sample on the 2-vCPU Xeon the
# benchmark was tuned on (2.2-2.5 ms in its baseline runs), so that scaled
# times read roughly as seconds on that host.
REF_S = 2.5e-3

_rng = np.random.default_rng(0)
_ROW = _rng.standard_normal(13)
_SPARSE = sp.csr_matrix((_rng.random(40000), (np.arange(40000) // 20,
                                               _rng.integers(0, 2000, 40000))),
                        shape=(2000, 2000))
_VEC = _rng.standard_normal(2000)
_DENSE = _rng.standard_normal((60, 60)) + 60.0 * np.eye(60)


def reference():
    """A fixed piece of work, independent of the program under test."""
    w = np.zeros(13)
    acc = 0.0
    for i in range(500):
        acc += float(_ROW @ w)
        w[i % 13] += 1.0
    y = _VEC
    for _ in range(20):
        y = _SPARSE @ y
        y /= np.linalg.norm(y)
    return acc + float(np.linalg.solve(_DENSE, y[:60]).sum())


class Pace:
    """Context manager that samples ``reference()`` on a SIGALRM timer."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self._prev = None

    def __enter__(self):
        reference()                          # warm-up
        self._sample()
        self._prev = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._prev)
        self._sample()

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference()
        self.end.append(time.perf_counter())
        self.start.append(t0)

    def scaled(self, t0, t1):
        """Seconds [t0, t1] takes at the reference speed, samples excluded."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)[:len(start)]
        inside = np.clip(np.minimum(end, t1) - np.maximum(start, t0), 0.0, None)
        near = (start >= t0 - WINDOW) & (start <= t1 + WINDOW)
        if not near.any():
            raise RuntimeError("no host-speed sample near a timed interval")
        return (t1 - t0 - inside.sum()) * REF_S / (end - start)[near].mean()

    def speed(self):
        """Median sample time over REF_S: 1 at the reference speed."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)[:len(start)]
        return float(np.median(end - start)) / REF_S
