"""Correcting measured times for the speed of a shared machine.

The benchmark runs on machines whose cores are shared with other tenants.
There a CPU-bound Python loop can take twice as long for tens of seconds
and then recover, so raw wall times of identical runs minutes apart differ
by a third or more.  The correction: a fixed reference loop (dict updates
and integer arithmetic, the kernel's own mix) is timed every PROBE_INTERVAL
seconds, from a SIGALRM handler in the one thread of the process.  Each
stretch of wall time between two probes is scaled by REF_LOOP_S over the
mean of the probes at its ends.  The result is "reference seconds": the
time the work would take on a machine where the loop takes REF_LOOP_S.
The raw wall time is reported beside it.

On 12 frontier rounds in a row, with wall times from 11.5 s to 16.8 s, the
interquartile range of the rounds was 12.7% of the median in wall seconds
and 3.9% in reference seconds.  The correction is not exact: in the slowest
stretches the loop slows more than the workloads do.
"""

from __future__ import annotations

import signal
from time import perf_counter

# The reference loop's time on a 2-core Intel Xeon virtual machine (2.1 GHz,
# Python 3.11) in a quiet period.  Only the scale depends on it.
REF_LOOP_S = 0.00075
PROBE_INTERVAL = 0.1


def reference_loop() -> float:
    """Time one pass of the fixed reference loop."""
    t0 = perf_counter()
    d: dict = {}
    for i in range(5000):
        k = (i * 7919) % 1021
        d[k] = d.get(k, 0) + i * i
    return perf_counter() - t0


class SpeedProbe:
    """Wall time of a window, and the same window in reference seconds."""

    def __init__(self):
        self.loop_s = 0.0
        self.t_mark = 0.0
        self.wall_s = 0.0
        self.reference_s = 0.0

    def start(self) -> None:
        self.loop_s = reference_loop()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        self.t_mark = perf_counter()

    def _tick(self, *_) -> None:
        now = perf_counter()
        loop_s = reference_loop()
        self.wall_s += now - self.t_mark
        self.reference_s += (now - self.t_mark) * 2 * REF_LOOP_S / (self.loop_s + loop_s)
        self.loop_s = loop_s
        self.t_mark = perf_counter()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._tick()
