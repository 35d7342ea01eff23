"""A fixed pure-Python loop that tracks the speed of the host.

The speed of a shared 2-core x86-64 virtual machine drifts by up to a
factor of two within seconds: one loop took 1.8-4.8 ms over eight
seconds, with CPU time equal to wall time. The benchmark runs one loop
after every op and scales each op time by ``REFERENCE_S`` over the mean
time of the loops just before and after it; set-up probes are scaled the
same way by the loops timed around them. Its time figures thus read as
times on a host where one loop takes ``REFERENCE_S``. The loop uses no
quivar code, so no change to the library can move it. Its mix (Fraction
arithmetic, tuples, slicing, dicts, integer ops) follows the library's.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.0025  # one loop, typical on a shared 2-core x86-64 VM


def _loop():
    acc = Fraction(0)
    for k in range(1, 300):
        acc += Fraction(k % 7, k) * Fraction(3, k % 5 + 1)
    rows = tuple(tuple((r * c) % 11 for c in range(8)) for r in range(60))
    seen = {}
    total = 0
    for r, row in enumerate(rows):
        key = row[r % 8:] + row[:r % 8]
        seen[key] = seen.get(key, 0) + 1
        total += sum(x * y for x, y in zip(row, key)) % 7
    return acc, total, len(seen)


def loop_seconds(reps: int = 1) -> float:
    """Wall time of ``reps`` calibration loops."""
    t0 = time.perf_counter()
    for _ in range(reps):
        _loop()
    return time.perf_counter() - t0
