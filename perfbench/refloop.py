"""The reference loop: a fixed piece of pure-Python work that is not twosc's.

The benchmark's ``*_ref`` metrics divide a time of the program by the
median time of this loop, measured in the same process next to the
load.  The host this runs on changes speed by 10-30 % over minutes
(other tenants, clock changes); the program and the loop mostly slow
down together, so the quotient keeps much stiller than the seconds.  A
change to twosc moves the quotient as it moves the seconds, because the
loop runs no twosc code.

The loop does the kinds of work twosc's code does: bit tricks on int
masks, list indexing and small function calls.  It runs with the cyclic
garbage collector off and allocates no container in its hot path, so
the size of the program's heap does not change its time.
"""

from __future__ import annotations

import contextlib
import gc
import random
import signal
import time
from statistics import median
from typing import Iterator

MASKS = tuple(random.Random(20191028).getrandbits(24) for _ in range(64))
REPS = 16   # one sample takes about 1.6 ms on one core of a shared Xeon host


def _popcount_sum(mask: int) -> int:
    total = 0
    while mask:
        low = mask & -mask
        total += low.bit_length()
        mask ^= low
    return total


def _work() -> int:
    total = 0
    buckets = [0] * 64
    for _ in range(REPS):
        for m in MASKS:
            total += _popcount_sum(m)
            buckets[m & 63] += 1
    return total + sum(buckets)


class Reference:
    """Samples of the loop's time, taken between pieces of the load."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        _work()  # warm-up, not recorded

    def take(self, count: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                _work()
                self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def seconds(self, first: int = 0) -> float:
        """The median of the samples from index ``first`` on."""
        return median(self.samples[first:])

    @contextlib.contextmanager
    def every(self, interval: float | None) -> Iterator[None]:
        """Take a sample every ``interval`` seconds while the block runs,
        from a SIGALRM handler, so that a long call is sampled while it
        runs.  The time spent sampling is ``sum(samples[k:])`` for the
        ``k`` the block started at; the caller subtracts it.  ``None``
        takes no samples."""
        if interval is None:
            yield
            return
        previous = signal.signal(signal.SIGALRM, lambda *_: self.take())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
