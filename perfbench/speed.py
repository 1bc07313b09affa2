"""Machine-speed reference used to scale the benchmark's times.

The container the benchmark was defined on shares its cores with other
tenants, and its speed drifts by up to about 1.7x from one minute to the
next.  A fixed pure-Python loop that resembles the checkers' work (tuple
hashing, set and dict updates, integer arithmetic) but runs no relviews
code is timed next to the jobs.  A run's times are multiplied by
REFERENCE_S / (mean loop time in that run), which gives seconds at the
reference speed.  A change to relviews cannot move the loop, so it moves
the scaled times exactly as it moves the raw ones.
"""

import time

# A typical loop time on the defining machine.  It only fixes the unit:
# scaled times are seconds on a machine where the loop takes this long.
REFERENCE_S = 0.030


def reference_loop() -> float:
    """Seconds one pass of the fixed reference loop takes.  Its working set
    stays under a megabyte, so it does not raise the peak memory that the
    benchmark reports."""
    start = time.perf_counter()
    counts = {}
    acc = 0
    for j in range(30000):
        if j % 1000 == 0:
            seen = set()
        key = (j % 509, j & 7, (j * 7) % 11)
        seen.add(frozenset((key, j % 13)))
        counts[key] = counts.get(key, 0) + 1
        acc += j * j % 7
    return time.perf_counter() - start


def scale(samples) -> float:
    """Factor that turns this run's seconds into reference seconds."""
    samples = list(samples)
    return REFERENCE_S * len(samples) / sum(samples)
