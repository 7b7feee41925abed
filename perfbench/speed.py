"""Machine-speed probe: corrects pass times for slow phases of a shared host.

On a host shared with other tenants the same pass can run up to twice as
slow for tens of seconds at a time, in CPU time as much as in wall time,
and no median over one run removes that.  `SpeedProbe` samples the speed
of the core the pass runs on while it runs: a SIGALRM timer interrupts the
pass every PERIOD_S and times `probe_work`, a fixed piece of work that does
not involve shortlink and mixes the two kinds the workloads do (a pure-
Python complex-arithmetic loop over a list, like the DDE integrators, and
small numpy array operations, like the mode-resolved oracle).  Each stretch
of the pass between two samples is rescaled by REF_S / (the time the
earlier sample took), and the probe's own time is left out.

The corrected time reads as the pass's wall time on a host where the probe
work takes REF_S, so it is comparable between commits measured on one
machine.  Over ten runs per workload on a 2-core x86-64 host, raw median
pass times spread by 8-32% (interquartile range over median) and the
corrected ones by 2-6%.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
# a round value near probe_work's duration on the 2-core host above
REF_S = 1.0e-3

_N = 4096
_BUF = [complex(i % 7, i % 5) for i in range(_N)]
_NU = np.linspace(-150.0, 150.0, 401)
_ONES = np.ones(401, dtype=complex)


def probe_work():
    z = 0j
    w = 0.999 + 0.001j
    buf = _BUF
    for i in range(1500):
        z = z * w + buf[(i * 97) & (_N - 1)]
        buf[i & (_N - 1)] = z * 1e-3
    x = _ONES
    for k in range(12):
        x = x + 1e-3 * (np.exp(-1j * _NU * (0.01 * k)) * x)
    return z + np.sum(x)


def probe_time(n=61):
    """Median duration of n runs of probe_work, in seconds."""
    times = []
    for _ in range(n):
        t0 = perf_counter()
        probe_work()
        times.append(perf_counter() - t0)
    return sorted(times)[n // 2]


class SpeedProbe:
    """Context manager; afterwards `raw` and `corrected` hold the block's times."""

    def __init__(self):
        self.samples = []  # (time at the end of a sample, its duration)

    def _tick(self, signum, frame):
        t0 = perf_counter()
        probe_work()
        t1 = perf_counter()
        self.samples.append((t1, t1 - t0))

    def __enter__(self):
        self.samples.clear()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._start = perf_counter()
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = perf_counter()
        signal.signal(signal.SIGALRM, self._old)
        self.raw = end - self._start
        # the stretch after sample i ends where sample i+1 starts
        starts = [t - d for t, d in self.samples[1:]] + [end]
        self.corrected = sum((s - t) * REF_S / d for (t, d), s in zip(self.samples, starts))
        return False
