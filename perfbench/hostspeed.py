"""Times of blocks of work, scaled to a fixed host speed.

The benchmark's host shares its cores with other machines, and the same
single-threaded work runs at one of two speeds that switch every few
seconds: the slow state takes 1.3 to 1.9 times as long, and it can last for
minutes. A run's raw times then say more about the host's state than about
the program. So while a block of work runs, a :class:`HostClock` runs one of
two fixed loops of the benchmark's own (a *slice*) every ``INTERVAL_S``
seconds, from a ``SIGALRM`` handler in the same thread, and times it:

- ``count``, an integer loop, which runs in the interpreter alone;
- ``walk``, which reads 3000 pairs of floats scattered over a few MB. The
  program's own work between two slices pushes them out of the caches, so
  this loop also waits on memory.

How much the slow state slows the program lies between what it does to the
two loops, and which of them tracks the program better changes with the
host's load. A block's scaled time is its time outside the slices,
multiplied by the geometric mean, over the two kinds, of the reference
slice time over the mean slice time seen during the block: the time the
block would take on a host that runs the slices in ``REFERENCE_S``. Each
mean leaves out the fastest and the slowest tenth of its slices, so that a
slice during which the host stopped the process does not count.

The slices allocate no object the garbage collector tracks, so they do not
shift the program's collections. A handler runs between bytecodes, so
during a long call into C the next slice waits for the call to return.
"""

from __future__ import annotations

import gc
import math
import random
import signal
import statistics
import time
from contextlib import contextmanager

INTERVAL_S = 0.02
# each slice's time in the fast state of the 2-vCPU Xeon the README's figures come from
REFERENCE_S = (200e-6, 450e-6)
TRIM = 0.1  # share of the slices left out at each end of a mean


def _pairs() -> list[tuple[float, float]]:
    """3000 float pairs picked from 10^5 made in a row, so that they lie
    scattered in memory."""
    pairs = [(float(i), 0.5 * i) for i in range(100_000)]
    random.Random(0).shuffle(pairs)
    pairs = pairs[:3000]
    gc.collect()  # stops tracking the pairs: they hold only floats
    return pairs


def trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


class Timing:
    """One measured block: ``work_s`` excludes the slices, ``slice_s`` holds
    the mean time of each slice kind and ``seconds`` is the scaled time."""

    work_s = seconds = 0.0
    slice_s: tuple[float, ...] = ()

    @property
    def scale(self) -> float:
        """Factor that turns a time inside the block into a scaled time."""
        return math.prod(ref / s for ref, s in zip(REFERENCE_S, self.slice_s)) ** (1 / len(REFERENCE_S))


class HostClock:
    def __init__(self):
        self.busy = 0.0  # total time spent in slices
        self._pairs = _pairs()
        self._kinds = (self._count, self._walk)
        self._slices: tuple[list[float], ...] = ([], [])
        self._next = 0
        for _ in range(10):  # the first runs of a loop are slower
            self._count()
            self._walk()

    @staticmethod
    def _count() -> None:
        x = 0
        for i in range(3000):
            x = (x * 31 + i) & 0xFFFF

    def _walk(self) -> None:
        t = 0.0
        for a, b in self._pairs:
            t += a * b

    def _sample(self, signum=None, frame=None) -> None:
        kind = self._next
        self._next = 1 - kind
        start = time.perf_counter()
        self._kinds[kind]()
        elapsed = time.perf_counter() - start
        self._slices[kind].append(elapsed)
        self.busy += elapsed

    def now(self) -> float:
        """A clock that stands still while a slice runs."""
        return time.perf_counter() - self.busy

    @contextmanager
    def measure(self):
        """Time the block inside ``with``; the yielded :class:`Timing` is
        filled in when the block ends, also when it raises."""
        timing = Timing()
        self._slices = ([], [])
        self._sample()  # every block has at least one slice of each kind
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        start = self.now()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            timing.work_s = self.now() - start
            signal.signal(signal.SIGALRM, previous)
            timing.slice_s = tuple(trimmed_mean(s) for s in self._slices)
            timing.seconds = timing.work_s * timing.scale
