"""Machine-speed references for the end-to-end times.

On a shared host the speed of a virtual CPU drifts by up to a factor of
two, and it can change within a tenth of a second (measured on a 2-vCPU
Xeon VM at 2.1 GHz; CPU time drifts with wall time, so it is the CPU that
slows, not time stolen from it). Two runs of the same code can then differ
by more than any useful regression bound. The benchmark therefore
measures a fixed reference between its samples and scales each sample by
nominal / (median time of the references run within REF_WINDOW_S of it).
A scaled time reads as seconds on a machine where the reference takes its
nominal time; the report also prints the raw time and the factor.

Two references, each matched to the work it scales:

- chunk(), for in-process samples, is a Dormand-Prince loop over a
  compiled three-component field: the same mix of interpreter work and
  small numpy calls as kcycle's flows.
- a bare interpreter (``python -c pass``, started by run.py), for process
  samples: interpreter start is most of a CLI process and of set-up.

Both are the benchmark's own code, so no change to kcycle moves them.
"""

from __future__ import annotations

import bisect
import math
from statistics import median
from time import perf_counter

import numpy as np

CHUNK_NOMINAL_S = 0.003      # one chunk on the VM above, usual speed
PROCESS_NOMINAL_S = 0.05     # ``python -c pass`` there
STEPS = 60
REF_WINDOW_S = 0.1           # references this close to a sample scale it

_A = ((), (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
      (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)


def _field(v):
    x1, x2, x3 = v
    return [2.0 * math.cos(x3) - x1, math.sin(x1) - x2,
            math.tanh(x2) - 1.0 - x3]


def _rhs(y):
    return np.array(_field(y.tolist()), dtype=float)


def chunk() -> float:
    """Seconds taken by one fixed reference computation."""
    start = perf_counter()
    y = np.array([0.1, -0.1, 0.05])
    h = 0.005
    for _ in range(STEPS):
        ks = [_rhs(y)]
        for i in range(1, 7):
            ks.append(_rhs(y + h * sum(a * k for a, k in zip(_A[i], ks))))
        y = y + h * sum(b * k for b, k in zip(_B, ks))
        float(np.max(np.abs(y)))
    return perf_counter() - start


def factor(samples, nominal) -> float:
    """Scale from raw seconds to seconds at nominal speed."""
    return nominal / median(samples)


def local_factors(samples, refs, nominal, window=REF_WINDOW_S):
    """Scale factor of each sample from the references run near it.

    samples are (start, end) and refs (start, seconds), both in
    perf_counter time and in order. A sample is scaled by the references
    whose midpoints lie within `window` of it, or by the nearest one if
    none does.
    """
    mids = [start + seconds / 2 for start, seconds in refs]
    times = [seconds for _, seconds in refs]
    out = []
    for start, end in samples:
        lo = bisect.bisect_left(mids, start - window)
        hi = bisect.bisect_right(mids, end + window)
        if lo == hi:
            mid = (start + end) / 2
            lo = min(range(len(mids)), key=lambda i: abs(mids[i] - mid))
            hi = lo + 1
        out.append(nominal / median(times[lo:hi]))
    return out
