"""Pace: how fast this machine runs fixed pure-Python work right now.

On a shared host the same verdict can take 1.7 times longer from one
second to the next as other tenants come and go, which swamps the
run-to-run differences the benchmark must resolve.  Before each timed
verdict the benchmark runs a fixed kernel (exact fractions, a dict and a
sort, the operations tsvar's exact path is made of) and records its
wall time, the pace.  A verdict's paced time is its wall time scaled by
``REF_PACE_S`` over the median pace of the verdicts around it, so a
slow moment of the machine stretches both and cancels out.  The kernel
is benchmark code and never changes with tsvar, so a change that makes
tsvar faster or slower moves paced times by the same factor.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# The kernel's wall time on the machine the benchmark was defined on
# (2 vCPU Xeon, Python 3.11.7) at a quiet moment.
REF_PACE_S = 1e-3
# Paces on each side of a verdict that its scaling uses.
WINDOW = 7

_DATA = [Fraction((7 * i) % 97 + 1, (5 * i) % 13 + 1) for i in range(160)]


def _kernel() -> Fraction:
    acc = Fraction(0)
    table = {}
    for i, x in enumerate(_DATA):
        acc = acc + x * _DATA[i - 1]
        table[x] = acc
    return sum(sorted(table)[::4], acc)


def measure() -> float:
    """Seconds for one warm run of the kernel (the first run warms caches)."""
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def paced(times: list, paces: list) -> list:
    """Scale each time by REF_PACE_S over the median of its neighbours' paces."""
    out = []
    for i, t in enumerate(times):
        local = paces[max(0, i - WINDOW):i + WINDOW + 1]
        out.append(t * REF_PACE_S / statistics.median(local))
    return out
