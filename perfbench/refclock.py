"""Host-speed normalisation of the benchmark's timings.

The shared host this benchmark runs on changes speed all the time: a fixed
piece of pure-Python work takes 1x or nearly 2x its best time, in spells of a
tenth of a second to seconds, and the share of slow spells drifts over
minutes.  All pure-Python code slows alike, so every timed stretch of the
program is bracketed by runs of a fixed reference kernel that uses none of
colstab: sparse products of seeded polynomials, kept as dicts from exponent
tuples to integers, as ``ring.mul`` keeps them.  A stretch's time is then
rescaled to a host on which the kernel takes ``REFERENCE_S`` seconds:

    normalised = measured * mean(REFERENCE_S / kernel time)

where the mean runs over the kernel runs nearest the stretch.  The mean of
speeds, not the median of times, is what estimates the average speed over a
stretch when the host flips between a fast and a slow state.  Raw times stay
in the run record.  A change to colstab moves normalised times as it moves
raw ones, because the kernel is the same code on both sides.
"""

from __future__ import annotations

import random
import statistics
import time

# Kernel time on the nominal host: about the mean over time on a 2-vCPU
# x86-64 VM running CPython 3.11, whose fast state takes about 10 ms.
REFERENCE_S = 0.0125

# Kernel runs on each side of a stretch whose mean speed rescales it.
WINDOW = 3


def _polynomials():
    rng = random.Random("perfbench-reference")
    return [
        {
            tuple(rng.randrange(-3, 4) for _ in range(3)): rng.randrange(1, 10)
            for _ in range(24)
        }
        for _ in range(4)
    ]


_POLYS = _polynomials()


def _product(a, b):
    acc = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            val = acc.get(exps, 0) + c1 * c2
            if val:
                acc[exps] = val
            elif exps in acc:
                del acc[exps]
    return acc


def kernel_seconds() -> float:
    """Time one run of the reference kernel."""
    start = time.perf_counter()
    for a in _POLYS:
        for b in _POLYS:
            _product(a, b)
    return time.perf_counter() - start


class RefClock:
    """Kernel runs between timed stretches, and the scale factor for each.

    Call ``tick()`` before the first stretch and after every stretch; stretch
    ``i`` then lies between ticks ``i`` and ``i + 1``.
    """

    def __init__(self):
        kernel_seconds()  # warm-up, not kept
        self.ticks: list[float] = []

    def tick(self) -> None:
        self.ticks.append(kernel_seconds())

    def scale(self, i: int) -> float:
        """Factor that rescales stretch ``i`` to the nominal host."""
        near = self.ticks[max(0, i + 1 - WINDOW): i + 1 + WINDOW]
        return statistics.fmean(REFERENCE_S / t for t in near)

    def normalise(self, raw: list[float]) -> list[float]:
        if len(self.ticks) != len(raw) + 1:
            raise ValueError("need one tick before and one after every stretch")
        return [t * self.scale(i) for i, t in enumerate(raw)]
