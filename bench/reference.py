"""A fixed pure-Python computation that gauges the machine's current speed.

The host lends this machine's cores to others, and the CPU time of one fixed
computation drifts by 20-30% over minutes, in steps that last seconds.  The
runner times ``work`` before and after every timed call and scales the
call's CPU time by ``NOMINAL_S`` over the mean of the two, which cancels most
of that drift.  The mix (bisect, a quadratic scan with a tolerance compare,
a DP over tuple keys, Fraction parsing) resembles the library's own work.

``work`` uses no library code, so no library change can move it.  Changing
it rescales every metric: do that only in a change that measures the
baseline again.
"""
from __future__ import annotations

import gc
import math
import random
import time
from bisect import bisect_right
from fractions import Fraction

NOMINAL_S = 0.005  # about what ``work`` takes on the machine the baseline ran on


def _gt(a, b) -> bool:
    if a == b or math.isinf(a) or math.isinf(b):
        return a > b
    return a - b > 1e-9 * max(1.0, abs(a), abs(b))


def work() -> tuple:
    rng = random.Random(12345)
    vals = [rng.random() * 100 for _ in range(100)]
    tails = []
    for v in vals:
        j = bisect_right(tails, v)
        if j == len(tails):
            tails.append(v)
        else:
            tails[j] = v
    bad = 0
    for i, vi in enumerate(vals):
        for j in range(i + 1, len(vals)):
            if _gt(vi - vals[j], 0.5 * (j - i)):
                bad += 1
    best = {}
    for i in range(30):
        for j in range(i):
            s = (vals[i] - vals[j]) / (i - j)
            best[(j, i)] = max((best[(h, j)] + 1 for h in range(j) if s >= 0), default=1)
    total = sum(Fraction(str(Fraction(i, 7))) for i in range(100))
    return bad, len(tails), len(best), total


def sample() -> float:
    """CPU seconds ``work`` takes now; the cyclic collector is held off so
    the library's heap cannot change the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        work()
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()
