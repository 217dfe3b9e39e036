"""A fixed reference computation that measures how fast the machine runs now.

The benchmark's machine is shared: other tenants on the same cores slow a
process down by up to 2x for stretches of tens of seconds, and CPU time
moves with wall time, so neither clock alone tells the program's cost from
the machine's load.  `probe()` runs the same small mix of interpreter work
and small-array numpy calls that the jet code is made of (allocation,
fancy-index scatter, complex arithmetic, dict lookups) and returns its wall
time.  It never calls lcflat, so a change to the program cannot move it.

A check timed between two probes is scaled by REF_PROBE_S / (mean of the
two probe times): the result is the check's time on a machine that runs
the probe in exactly REF_PROBE_S.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REF_PROBE_S = 1e-3

_IDX = np.array([0, 3, 1, 2, 5, 4, 7, 6, 8, 9, 11, 10, 12, 14, 13])


def probe() -> float:
    """Wall time of one fixed unit of reference work, in seconds."""
    t0 = perf_counter()
    a = np.arange(15, dtype=complex)
    acc = 0j
    for k in range(150):
        b = np.zeros(15, dtype=complex)
        np.add.at(b, _IDX, a * (1 + 0.5j))
        acc += complex(b[3]) * 0.5 + sum(x for x in (1.0, 2.0, 3.0))
        d = {i: i * k for i in range(8)}
        acc += d[3]
    return perf_counter() - t0
