"""Machine-speed reference for the benchmark's times.

The benchmark shares its processor with other tenants, and the speed of
a fixed piece of Python code drifts by 20-40% from one minute to the next.
A reference loop that never touches flowhom is therefore timed between
documents (and during every set-up), and each reported time is scaled by
``REFERENCE_S / (reference time nearby)``: times are in seconds of a
machine that runs the reference loop in ``REFERENCE_S``.  A change to
flowhom cannot change the reference loop, so it moves the scaled times as
much as the raw ones; only the drift of the machine cancels out.
"""

from __future__ import annotations

import statistics
import time

# median duration of one reference loop on the 2-vCPU machine the bounds
# in BENCHMARK.json were set on
REFERENCE_S = 0.0046


def reference() -> float:
    """Time one run of the reference loop: dict and tuple work, like
    flowhom's, on a fixed input."""
    start = time.perf_counter()
    table = {}
    for i in range(20000):
        table[(i, i & 7)] = i
    total = 0
    for _, value in table.items():
        total += value
    return time.perf_counter() - start


def scale(samples: list[float]) -> float:
    """Factor that converts seconds measured around ``samples`` to
    reference seconds."""
    return REFERENCE_S / statistics.median(samples)
