"""A stopwatch that takes co-tenant slowdowns out of CPU-bound timings.

On a shared host, other tenants on the same physical cores slow pure-Python
work by up to 2x, in phases that last from seconds to minutes. They do not
show as steal time, and a phase can cover a whole run, so no statistic over
one run's samples removes them. The stopwatch therefore times a fixed
reference loop (pure Python, independent of minerlink) right before and
right after each sample, and scales the sample by how much slower the loop
ran than ``REFERENCE_S``:

    seconds = raw_seconds * REFERENCE_S / mean(reference before, reference after)

The result reads as seconds on the host where ``REFERENCE_S`` was taken. The
program under test cannot change the reference loop, so a slower program
still reads slower. Use it only for work that runs on the CPU: time spent
waiting on a fixed network latency does not slow down with the host and must
not be scaled.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

# Fastest time of reference_loop() on the baseline host (2-vCPU Intel Xeon at
# 2.0 GHz, Python 3.11). It only sets the scale: both sides of a comparison use it.
REFERENCE_S = 0.0108

_A = "golden eagle creek mine deposit"
_B = "goldn eagle crek mine"


def reference_loop() -> float:
    """Seconds taken by a fixed edit-distance and string-hashing workload."""
    start = time.perf_counter()
    for _ in range(60):
        previous = list(range(len(_B) + 1))
        for i, ca in enumerate(_A, start=1):
            current = [i]
            for j, cb in enumerate(_B, start=1):
                current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
            previous = current
        grams: dict[str, int] = {}
        for k in range(len(_A) - 2):
            grams[_A[k : k + 3]] = grams.get(_A[k : k + 3], 0) + 1
    return time.perf_counter() - start


@dataclass
class Reading:
    raw: float = 0.0
    factor: float = 1.0

    @property
    def seconds(self) -> float:
        return self.raw * self.factor


@contextmanager
def stopwatch():
    """Time the body; the yielded reading's ``factor`` rescales it and its sub-timings."""
    reading = Reading()
    before = reference_loop()
    start = time.perf_counter()
    yield reading
    reading.raw = time.perf_counter() - start
    reading.factor = REFERENCE_S * 2 / (before + reference_loop())
