"""Paired reference work: every timed unit against the host's speed at the time.

The cores of the 2-core machine the benchmark was built on do not keep one
speed: a fixed piece of work can take twice as long for seconds or minutes at
a time, and a whole run can sit in a slow stretch, so raw times of one unit
spread by 10-35% between runs whatever statistic of its repeats is taken.
Next to each timed unit the benchmark times a fixed piece of reference work:
in the same process for an in-process unit (``reference_work``, half right
before the unit and half right after, or whole after a cold import), as a
process of its own right before a process (running this file).  The unit
then counts as ``seconds / reference seconds`` times the reference's usual
time on that machine, ``REFERENCE_S`` or ``PROCESS_REFERENCE_S``: its time
at the host's usual speed.  The median of that ratio over a run's repeats
moved by 3.5% between blocks of eight CLI calls where the fastest raw call
moved by 22%.  The program never runs the reference work, so a
change to the program moves the scaled times as it moves the raw ones.

    python3 bench/speed.py      the reference process
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_REPS = 24
REFERENCE_S = 0.012  # reference_work() at the host's usual speed
PROCESS_REFERENCE_S = 0.050  # a fresh interpreter running this file, likewise


def reference_work(reps: int = REFERENCE_REPS) -> float:
    """Seconds for pure-Python work like the program's own: exact rational
    arithmetic, tuples and dicts."""
    t0 = time.perf_counter()
    seen = {}
    for rep in range(reps):
        acc = Fraction(rep)
        for i in range(1, 200):
            acc += Fraction(i % 7 - 3, i)
            seen[(i % 31, acc.denominator % 101)] = (i, acc.numerator % 7)
    return time.perf_counter() - t0


def scaled(pairs: list[tuple[float, float]], usual: float) -> float:
    """Median over repeats of seconds / reference seconds, times ``usual``."""
    return statistics.median(seconds / reference for seconds, reference in pairs) * usual


if __name__ == "__main__":
    reference_work(reps=40)
