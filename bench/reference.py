"""Host-speed reference: a fixed kernel timed between benchmark ops.

The benchmark runs on shared hosts whose speed can swing by 1.5x within a
minute and drift by 30 % between two sets of runs.  A fixed kernel in the
library's idiom (small numpy ufunc calls plus Python float arithmetic) is
timed between consecutive ops; each op's wall time is then scaled by
``NOMINAL_S`` over the mean of the two reference times that bracket it.
Times reported this way are "seconds on a host where the kernel takes
``NOMINAL_S``", so slow and fast periods of the host cancel out while a
change in the library's own cost does not.

The kernel lives in the benchmark, not the library, so no change to the
library can move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel time on an unloaded 2-vCPU Xeon VM with Python 3.11 and numpy 2.
NOMINAL_S = 2.5e-3

_X = np.linspace(0.05, 5.0, 128)


def seconds() -> float:
    """Wall seconds of one run of the reference kernel."""
    start = perf_counter()
    s = 0.0
    for i in range(400):
        s += float(np.exp(-_X * (1.0 + 1e-3 * i)).sum())
        for j in range(40):
            s += (i + j) ** 0.5
    if not s > 0.0:
        raise RuntimeError("reference kernel lost its value")
    return perf_counter() - start
