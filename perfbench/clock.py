"""Wall-clock timing corrected for how fast the machine runs at the moment.

On a shared machine the same work can take twice as long from one minute to
the next, because other tenants load the cores and caches. A short fixed
reference task, timed right before and after each timed part, tracks that
speed: each part's wall seconds are scaled by REFERENCE_S over the mean of
the two adjacent reference times. The result reads as the seconds the part
would take on a machine that runs the reference in REFERENCE_S. On a shared
2-core x86_64 machine this cut the spread of 15-s medians from 0.18-0.25 to
0.03-0.07 (see README.md). Raw wall seconds are kept alongside.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Reference time on the 2-core machine the baseline was measured on, at a
# quiet moment, so that corrected seconds read close to quiet wall seconds.
REFERENCE_S = 0.0034
REFERENCE_REPEATS = 3
_SORT_ARRAY = np.random.default_rng(0).random(2000)
_SMALL_ARRAY = np.random.default_rng(1).random(300)
_EVERY_THIRD = np.arange(0, 300, 3)


def _reference_task() -> None:
    counts: dict[tuple[int, int], float] = {}
    for i in range(10_000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0.0) + i * 0.5
    a = _SORT_ARRAY
    for _ in range(20):
        a = np.sort(a * 1.0001)
    b = _SMALL_ARRAY
    for _ in range(30):
        b = b[np.argsort(b, kind="stable")] * 1.0001
        float(b[_EVERY_THIRD].sum())


def reference_seconds() -> float:
    """Best of a few runs of a fixed mix of dict updates, numpy sorts and
    many small argsort and gather calls, like the program's own inner loops;
    the best-of drops one-off interruptions but not a slow period."""
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        start = perf_counter()
        _reference_task()
        best = min(best, perf_counter() - start)
    return best


class Stopwatch:
    """Accumulates raw and speed-corrected seconds per named part.

    With calibrate=False no reference task runs and both totals are raw,
    which the traced run uses so that its passes contain only program work.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.raw: dict[str, float] = defaultdict(float)
        self.scaled: dict[str, float] = defaultdict(float)
        self._last_ref = reference_seconds() if calibrate else REFERENCE_S

    @contextmanager
    def part(self, name: str):
        start = perf_counter()
        yield
        raw = perf_counter() - start
        ref = reference_seconds() if self.calibrate else REFERENCE_S
        self.raw[name] += raw
        self.scaled[name] += raw * REFERENCE_S / (0.5 * (self._last_ref + ref))
        self._last_ref = ref
