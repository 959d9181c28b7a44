"""The machine's current speed, from a fixed piece of work that is not the kit's.

On a shared machine the same job list runs up to a third faster or slower
for minutes at a time, as other tenants come and go (see README.md).
The benchmark times `calibration_slice` between jobs and scales the
times of a run by REFERENCE_S / (the run's median slice time), so that
the reported times are those of a machine running the slice in
REFERENCE_S.  The slice mixes the three kinds of work the kit does:
interpreted Python, numpy calls on small arrays, and a HiGHS LP through
scipy.  It does not touch the kit, so a change to the kit moves the
reported times in full.  The garbage collector is paused during a slice:
its walks over the workload's live objects are the workload's cost, not
the machine's speed.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np
from scipy.optimize import linprog

REFERENCE_S = 0.004  # one slice on the machine the bounds were set on, unloaded

# Set-up is mostly a fresh interpreter loading numpy and scipy, work whose
# speed the slice does not follow; set-up times are scaled instead by a
# timed start of an interpreter that imports only what the kit imports.
IMPORT_CMD = "import numpy; from scipy.optimize import linprog; print('ready', flush=True)"
IMPORT_REFERENCE_S = 0.8  # IMPORT_CMD from start to 'ready' on that machine

_A = np.array([[1.0, 2.0, -1.0], [0.5, -1.0, 2.0], [-1.0, 0.3, 0.4], [0.2, 0.2, -1.0]])
_B = np.ones(4)
_C = np.array([1.0, -1.0, 0.5])


def calibration_slice() -> float:
    """Seconds taken by one fixed slice of work (about 4 ms), with the collector paused."""
    gc.disable()
    try:
        return _timed_slice()
    finally:
        gc.enable()


def _timed_slice() -> float:
    t0 = perf_counter()
    acc = 0.0
    for i in range(300):
        acc += float(np.linalg.norm(np.array([i * 0.5, 1.0 - i, 2.0])))
    linprog(_C, A_ub=_A, b_ub=_B, bounds=[(-5.0, 5.0)] * 3, method="highs")
    s = 0
    for i in range(4000):
        s += i * i % 7
    return perf_counter() - t0
