"""Times scaled to a fixed reference speed.

The CPU speed a process sees on a shared machine drifts, within one run and
from run to run: on a 2-CPU cloud VM the pass below took 1.15 to 1.95 ms
between the quartiles of a single 25-second run, and its median moved by up
to 1.8x from one run to the next, a larger spread than any bound a regression
check could use. So the benchmark times
``reference_work``, a failure-function pass over a fixed word that runs no
apavoid code, next to every measurement, and reports each time multiplied by
REF_S / (the reference time around it): seconds on a machine whose
reference pass takes REF_S. A change to apavoid moves these numbers exactly
as it moves wall time; a change in the machine's speed mostly does not.
Raw wall times stay in the run report.
"""

import time

REF_S = 0.002

_WORD = bytes((i * 7 + (i >> 3)) % 3 for i in range(10000))


def reference_work() -> int:
    s = _WORD
    pi = [0] * len(s)
    k = 0
    for i in range(1, len(s)):
        c = s[i]
        while k and s[k] != c:
            k = pi[k - 1]
        if s[k] == c:
            k += 1
        pi[i] = k
    return k


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def scaled(times, refs):
    """Scale times[i] by the mean of refs[i] and refs[i + 1], the passes just before and after it."""
    return [t * 2 * REF_S / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]
