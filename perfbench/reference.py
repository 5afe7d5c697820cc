"""The reference loop: a fixed piece of pure-Python work whose duration
measures the machine's current speed.

On a shared 2-vCPU guest the machine's speed swings by up to about 1.5x
within seconds (other tenants, clock changes), more than any change worth
measuring.  Timing the
loop next to each measured call and dividing by it gives durations that
hold still when the machine does not.
"""

from __future__ import annotations

import time

LOOP = 200_000
# Duration of the loop on the baseline machine in a typical phase (it read
# 13.5-21 ms); set-up time is reported in seconds at this speed.
NOMINAL_S = 0.018


def reference_s() -> float:
    """Best of two timings of the reference loop."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        x = 0
        for i in range(LOOP):
            x += i * i
        best = min(best, time.perf_counter() - start)
    return best
