"""Host-noise diagnostics, reported beside every run and never gated.

A shared 2-CPU host drifts over minutes.  These numbers let a reader tell
host drift from a regression: guest steal time over the run, load average,
CPU count, numpy version, and a fixed pure-numpy kernel timed before and
after the workload (its ratio is the host's own speed change).
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Optional


def steal_seconds() -> Optional[float]:
    """Cumulative guest steal time of all CPUs, or None where unreadable."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def calibration_ms(repeats: int = 7) -> float:
    """Median wall of a fixed numpy kernel: trig, a sort and a reduction."""
    import numpy as np

    values = np.linspace(0.0, 1000.0, 1 << 20)
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.sort(np.sin(values) * np.cos(values[::-1])).cumsum().sum()
        walls.append(time.perf_counter() - start)
    return 1e3 * statistics.median(walls)


def snapshot() -> dict:
    """The diagnostics taken at one moment."""
    import numpy as np

    return {
        "steal_s": steal_seconds(),
        "loadavg_1m": os.getloadavg()[0],
        "cpus": os.cpu_count(),
        "numpy": np.__version__,
        "calibration_ms": calibration_ms(),
    }


def summary(before: dict, after: dict) -> dict:
    """Diagnostics of a whole run from snapshots at its start and end."""
    steal = None
    if before["steal_s"] is not None and after["steal_s"] is not None:
        steal = after["steal_s"] - before["steal_s"]
    return {
        "steal_s": steal,
        "loadavg_1m_before": before["loadavg_1m"],
        "loadavg_1m_after": after["loadavg_1m"],
        "cpus": before["cpus"],
        "numpy": before["numpy"],
        "calibration_ms_before": before["calibration_ms"],
        "calibration_ms_after": after["calibration_ms"],
    }
