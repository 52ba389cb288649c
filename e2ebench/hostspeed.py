"""How fast the host runs Python right now, from a fixed probe loop.

On a shared host a CPU can run at about half speed for seconds to
minutes while neighbours are busy, which moves every host timing by up
to 1.8x. Timing a fixed pure-Python loop next to a unit of work and
scaling the work's time by ``PROBE_REF_S / probe time`` gives the time
the work would take at the reference speed: the uncontended speed of
the host this benchmark was built on. The probe uses no ``repro`` code,
so a change to the program cannot move it.

Measured on that host (2-vCPU Xeon at 2.1 GHz, Python 3.11): over 60 s
of alternating probes and a fixed 16 ms unit, the medians of ten
6-second windows spread by 14% between quartiles raw and by 1.4% scaled.
The two vCPUs slow down independently, so work spread over both (the
service workers) is scaled by a probe run on each.
"""

from __future__ import annotations

import os
import statistics
import time

__all__ = ["PROBE_REF_S", "probe_s", "scale_now"]

#: the probe's duration on the reference host when uncontended
PROBE_REF_S = 0.00026
#: probe runs per CPU in :func:`scale_now`; their median is used
PROBE_SAMPLES = 15


def probe_s() -> float:
    """Seconds one run of the fixed probe loop takes now."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(3000):
        table[i & 63] = table.get(i & 63, 0) + i
    return time.perf_counter() - start


def scale_now() -> float:
    """Factor that converts host seconds spent now, by work spread over
    every CPU this process may use, to reference seconds.

    Each CPU can be slowed on its own, so the probe runs on each in
    turn (pinning this thread) and the factor uses their mean time.
    """
    cpus = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(statistics.median(probe_s()
                                             for _ in range(PROBE_SAMPLES)))
    finally:
        os.sched_setaffinity(0, cpus)
    return PROBE_REF_S / statistics.fmean(per_cpu)
