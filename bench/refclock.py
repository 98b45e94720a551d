"""Reference clock: seconds corrected for how fast the host runs now.

On a shared 2-core VM (Intel Xeon, Python 3.11) the same leibcoh request
ran up to twice as slowly for tens of seconds at a time while other
tenants were busy, and no steal time showed: the host's speed, not the
program, set most of the spread between runs.  Over ten 28 s runs of
identical `gaussian` inputs, the median pass time ranged over 28%, and
a pass built from each request's fastest repetition over 40%.

The benchmark therefore times a fixed pure-Python rational loop next to
every timed call.  It does the kind of work leibcoh does (`Fraction`
arithmetic in the interpreter), so it slows down with the program.  A
call's reference seconds are its wall seconds times `REFERENCE_S` over
the mean loop time just before and just after it.  On a quiet host,
where the loop takes `REFERENCE_S`, reference seconds are wall seconds.
On the same ten runs, the median pass time in reference seconds ranged
over 13%.  The loop's code is part of the benchmark, so a change
to leibcoh cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The loop's time on the quiet VM described above; it only fixes the
# unit, so it never needs re-measuring on another host.
REFERENCE_S = 0.006


def loop_seconds() -> float:
    """Time one run of the reference loop."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 2500):
        total += Fraction(i % 97, i % 89 + 1)
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` of wall time in reference seconds, given the loop times
    measured just before and just after."""
    return seconds * REFERENCE_S * 2 / (before + after)
