"""A fixed task, timed next to the measured code, that puts wall times on
the scale of an undisturbed host.

On a shared host the same code runs up to 2-3 times slower in spells that
last from milliseconds to minutes (README.md). The task below slows down
with it. It has two parts, like the solver's two kinds of work: sorting
and scanning a few thousand small dicts (allocation-heavy, like the leader
level's sorting and archive), and many calls of a small piecewise-linear
cost function on floats (like the follower's `cumulative_cost`). A phase of
a CLI run divided by the task's time at its two ends, times REFERENCE_S, is
the phase's time on a host where the task takes REFERENCE_S. The task does
not depend on the program, so a change to the program moves only the
numerator.
"""

from __future__ import annotations

import random
import time

# About the task's time outside slow spells on the host the reference
# figures in README.md were taken on (2 vCPUs, Python 3.11.7; the fastest
# of 2000 calls took 3.1 ms). It is only a scale, so that normalised times
# read close to wall seconds there.
REFERENCE_S = 0.003

SLOPES = (1.0, 2.0, 3.5, 5.0)
BREAKPOINTS = (10.0, 20.0, 30.0)


def _piecewise_cost(x: float) -> float:
    cost = prev = 0.0
    for slope, b in zip(SLOPES, BREAKPOINTS):
        if x <= b:
            return cost + slope * (x - prev)
        cost += slope * (b - prev)
        prev = b
    return cost + SLOPES[-1] * (x - prev)


class Probe:
    """Times one round of the fixed task per call."""

    def __init__(self, seed: int = 0):
        rng = random.Random(seed)
        self.items = [
            {"a": rng.random(), "b": [rng.random() for _ in range(4)]}
            for _ in range(8000)
        ]
        self.xs = [rng.uniform(0.0, 40.0) for _ in range(3000)]

    def __call__(self) -> float:
        t0 = time.perf_counter()
        ordered = sorted(self.items, key=lambda o: o["b"][2])
        sum(o["a"] for o in ordered[::7])
        sum(_piecewise_cost(x) for x in self.xs)
        return time.perf_counter() - t0
