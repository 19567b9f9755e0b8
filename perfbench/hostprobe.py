"""A fixed probe of the host's speed, timed next to each timed unit of work.

On a shared host, other tenants slow everything that runs, often by a fifth
and for seconds to minutes at a time. The probe is a fixed piece of
small-matrix numpy and interpreter work, shaped like one Gauss-Newton solve
and independent of irlspos, so no change to the program can change it.
Timed just before a unit of the workload, it gives the host's speed at that
moment: the unit's wall time times ``REFERENCE_S`` over the probe's time is
what the unit would have taken with the host at its reference speed.
"""

from __future__ import annotations

import time

import numpy as np

CALLS = 3
# the probe's median time on a 2 vCPU Intel Xeon (Python 3.11.7, numpy
# 2.4.6) in a quiet minute; it only fixes the scale of the reported times
REFERENCE_S = 0.31e-3


_RNG = np.random.default_rng(0)
_A = _RNG.normal(size=(6, 3))
_B = _RNG.normal(size=6)
_DAMPING = 1e-3 * np.eye(3)


def _work() -> float:
    x = np.zeros(3)
    total = 0.0
    for _ in range(20):
        x = x - np.linalg.solve(_A.T @ _A + _DAMPING, _A.T @ (_A @ x - _B))
        total += float(np.hypot(x[0], x[1]))
    return total


def scale() -> float:
    """The factor that turns a wall time measured now into one at the
    reference speed: REFERENCE_S over the median time of CALLS probe calls."""
    clock = time.perf_counter
    times = []
    for _ in range(CALLS):
        t0 = clock()
        _work()
        times.append(clock() - t0)
    return REFERENCE_S / sorted(times)[CALLS // 2]
