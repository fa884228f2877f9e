"""Machine speed, sampled with a fixed reference kernel beside the jobs.

On the shared 2-core virtual machine this benchmark was built on, the
machine's speed swung by up to 2x within seconds, and by ±30 % between
runs. The swings showed in CPU time as well as in wall time. A fixed
pure-Python kernel that never touches the program slows down with
everything else. So each worker runs the kernel between its jobs, and every
time taken is scaled by

    REFERENCE_S / (median kernel time of the WINDOW samples on each side)

That expresses the time in seconds of a machine running at the baseline
speed. A change to the program does not move the kernel, so the change
scales the reported times exactly as it scales the raw ones. The raw
figures stay in the run record.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: Least CPU time between two samples taken beside the jobs.
INTERVAL_S = 0.25


def kernel() -> None:
    """Integers, dicts, frozenset keys, Fractions and a sort, as the library mixes them."""
    table: dict = {}
    total, frac = 0, Fraction(0)
    for i in range(6000):
        total += i * i % 7
        table[i & 1023] = total
        key = frozenset((i % 13, i % 7, i % 5))
        table[key] = table.get(key, 0) + 1
        if i % 8 == 0:
            frac += Fraction(i % 11 + 1, i % 7 + 1)
    sorted(list(table.items())[:200], key=lambda item: str(item[0]))


#: Median CPU time of one :func:`kernel` call on the baseline machine.
REFERENCE_S = 0.0060
#: Kernel samples on each side of a job that set its factor.
WINDOW = 2


def sample() -> float:
    start = time.process_time()
    kernel()
    return time.process_time() - start


class Meter:
    """Samples the kernel at most every INTERVAL_S of this process's CPU time."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = None

    def tick(self, force: bool = False) -> int:
        """Maybe take a sample; returns how many samples were taken so far."""
        now = time.process_time()
        if force or self._last is None or now - self._last >= INTERVAL_S:
            self.samples.append(sample())
            self._last = time.process_time()
        return len(self.samples)


def factor(samples: list[float], mark: int | None = None) -> float:
    """Factor turning raw CPU seconds into reference-speed seconds.

    ``mark`` is the number of samples taken before the timed work began;
    the factor uses the WINDOW samples on each side of it, or every
    sample when ``mark`` is None.
    """
    if mark is not None:
        samples = samples[max(0, mark - WINDOW):mark + WINDOW]
    return REFERENCE_S / statistics.median(samples)
