"""Timing scaled to a reference machine speed.

A shared machine's CPUs run at a speed that drifts by a third or more, over
seconds and over minutes, with the load of its other tenants.  That drift
moves every time this benchmark measures, whatever the program does.

So a timed section of interpreter-bound work is bracketed by a probe: a
fixed pure-Python loop that does not touch cubecount, run on the CPU(s)
doing the work just before and just after the section.  The section's time
is reported scaled by REF_NS / probe time, that is, in seconds of a machine
on which the probe takes REF_NS.  A program change cannot move the probe,
and a machine that is slower for a while moves section and probe together.
The unscaled times are kept in each record as `raw`.

Work spent in numpy kernels is not scaled.  The probe does not predict
their speed: over five runs on one 2-core VM the probe's speed ranged over
20% while the `oracle` workload's throughput ranged over 10%.
"""

from __future__ import annotations

import os
from time import perf_counter_ns

PROBE_ITERS = 10_000
#: Probe time of the reference machine: about what the probe takes on a
#: 2-core Xeon VM with Python 3.11 when no other tenant slows it down.
REF_NS = 600_000


def _loop() -> int:
    t0 = perf_counter_ns()
    s = 0
    for i in range(PROBE_ITERS):
        s += i * i % 7
    return perf_counter_ns() - t0


def probe_ns(cpus: tuple[int, ...] = ()) -> float:
    """Probe time on this thread's CPU, or the mean over `cpus`.

    Each reading is the faster of two loops, so that one interruption does
    not count as a slow machine.
    """
    if not cpus:
        return min(_loop(), _loop())
    keep = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(min(_loop(), _loop()))
    finally:
        os.sched_setaffinity(0, keep)
    return sum(times) / len(times)


class Section:
    """Times the `with` body; then `raw_ns` and `scale` are set.

    With `probe=False` the scale stays 1.0.
    """

    def __init__(self, probe: bool = True):
        self.probe = probe
        self.raw_ns = 0
        self.scale = 1.0

    def __enter__(self) -> "Section":
        self._q0 = probe_ns() if self.probe else 0
        self._t0 = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_ns = perf_counter_ns() - self._t0
        if self.probe:
            self.scale = 2 * REF_NS / (self._q0 + probe_ns())
