"""Host-speed reference for scaling times on a shared, drifting machine.

On a small cloud host the interpreter's speed moves with the neighbours'
load: a fixed pure-Python loop takes 25-50 % longer for tens of seconds at
a time, in CPU time as much as in wall time, so wall medians of whole runs
spread by 20-40 %.  The benchmark therefore times `reference()` (a fixed
loop of dict, tuple and integer work, independent of sitecalc) next to
every measurement and reports each time scaled to a host on which the
reference takes exactly `REFERENCE_S`:

    scaled = measured * REFERENCE_S / reference time around the measurement

Raw wall times are printed in each run's summary line.  A change to
sitecalc cannot move the reference; a change to the reference or to
`REFERENCE_S` changes the unit and so belongs in a benchmark change.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 1e-3


def reference() -> tuple:
    d: dict = {}
    t: tuple = ()
    for i in range(3000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + 1
        t = (i, k)
    return d, t


def reference_s(repeat: int = 1) -> float:
    """Median wall seconds of `repeat` reference calls."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
