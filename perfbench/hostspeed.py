"""The host's speed, measured beside every timed operation.

On a shared virtual machine the speed of the CPU itself changes by up to
a factor of two over seconds to minutes, and it moves user and wall time
alike. A fixed pure-Python loop, timed right before and after each
operation, measures that speed. Every end-to-end timing is reported
scaled to a host on which the loop takes ``REFERENCE_MS``::

    scaled = wall * REFERENCE_MS / (mean of the loop times around it)

The loop is part of the benchmark, not of fitsim, so no program change
can move it. The raw wall times stay in the full record.

Standard library only: the harness and the worker processes share it.
"""

import time

REFERENCE_LOOP = 50_000
# about the loop's time on the 2-vCPU machine the benchmark was defined on
REFERENCE_MS = 4.0


def reference_ms() -> float:
    """One timing of the fixed loop, in milliseconds."""
    start = time.perf_counter_ns()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return (time.perf_counter_ns() - start) / 1e6


def scale(before: float, after: float) -> float:
    """Factor that takes a wall time measured between two loop timings to
    the reference host."""
    return 2.0 * REFERENCE_MS / (before + after)
