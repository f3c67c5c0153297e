"""The machine's speed, sampled while the benchmark measures.

The shared machine the benchmark was defined on changes speed by up to 2x
within seconds, and stays slow or fast for seconds to minutes. While
:func:`sampling` is active, a SIGALRM timer runs :func:`calibration_loop`, a
fixed piece of pure-Python work that uses no dagsched code, every PERIOD_S
seconds, in the middle of whatever is being measured. :func:`clock` is
``perf_counter`` minus the time spent in those samples, so the durations
measured with it leave the samples out. :func:`factor` turns the samples of an
interval into the ratio that converts its wall time into reference time.
"""

from __future__ import annotations

import contextlib
import random
import signal
import statistics
import time
from typing import List, Optional

PERIOD_S = 0.05
# Seconds calibration_loop takes at the reference speed: its median on the
# machine where the benchmark was defined (2-CPU x86-64 VM, CPython 3.11)
# while that machine ran fast (its median there ranged 1.2-2.4 ms).
REF_S = 0.0012

_samples: List[float] = []  # seconds of each sample
_spent = 0.0  # seconds spent in samples so far
_busy = False


def clock() -> float:
    """Seconds, like time.perf_counter, without the time spent in samples."""
    return time.perf_counter() - _spent


def calibration_loop() -> int:
    """A few generations of an order crossover on a small population of
    integer lists: slices, comprehensions, sets and a keyed sort. Its
    allocations and list work resemble the GA's, so its duration follows the
    GA's through the machine's changes of speed more closely than a loop of
    plain arithmetic does."""
    rng = random.Random(1)
    pop = [[rng.randrange(1000) for _ in range(80)] for _ in range(8)]
    for _ in range(2):
        kids = []
        for a, b in zip(pop, pop[1:]):
            cut = rng.randrange(80)
            kids.append(a[:cut] + [x for x in b if x not in set(a[:cut])][:80 - cut])
        pop = sorted(pop + kids, key=sum)[:8]
    return len(pop)


def _sample(signum, frame) -> None:
    global _spent, _busy
    if _busy:  # a signal that arrives during a sample is dropped
        return
    _busy = True
    t0 = time.perf_counter()
    calibration_loop()
    t1 = time.perf_counter()
    _samples.append(t1 - t0)
    _spent += t1 - t0
    _busy = False


@contextlib.contextmanager
def sampling(period: float = PERIOD_S):
    """Sample the speed every `period` seconds during the block."""
    previous = signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, period, period)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def mark() -> int:
    """A position in the samples, for :func:`durations`."""
    return len(_samples)


def durations(since: int, until: Optional[int] = None) -> List[float]:
    """Seconds of each sample taken between two marks."""
    return _samples[since:until]


def factor(samples: List[float]) -> float:
    """REF_S over the median sample: multiplying a wall time by it gives
    reference time, the time the work would take at the reference speed."""
    return REF_S / statistics.median(samples)
