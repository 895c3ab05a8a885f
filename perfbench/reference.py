"""A fixed reference computation that scales the benchmark's unit times.

The speed of a shared machine drifts by tens of per cent over minutes,
with the load its neighbours put on the shared cores and caches; CPU time
drifts with it, so neither wall nor CPU time of a run steadies by
repetition alone. The benchmark therefore runs this computation between
its units and scales each unit's time by ``REF_S`` over the mean of the
reference times just before and after it: seconds on a machine on which
the reference takes ``REF_S``. The reference uses no lrdforecast code, so a
change to the program cannot move it; it mirrors the program's mix
(small CSS fits through ``lfilter`` and L-BFGS-B, ``fftconvolve`` on a
long series, CSV and JSON text), so that it slows down when the program
does.
"""

from __future__ import annotations

import json
import time

import numpy as np
from scipy.optimize import minimize
from scipy.signal import fftconvolve, lfilter

# About the median reference time on the 2-vCPU Xeon machine the
# benchmark was tuned on, at one BLAS thread.
REF_S = 0.065

_RNG = np.random.default_rng(20161)
_SHORT = lfilter([1.0], [1.0, -0.6], _RNG.standard_normal(96))
_LONG = _RNG.standard_normal(8192)
_WEIGHTS = np.cumprod(np.r_[1.0, (np.arange(8191) - 0.35) / np.arange(1, 8192)])


def _css(theta) -> float:
    e = lfilter([1.0, -theta[0]], [1.0, theta[1]], _SHORT)
    return float(e @ e)


def reference() -> None:
    for start in np.linspace(-0.8, 0.8, 16):
        minimize(_css, np.array([start, -start / 2]), method="L-BFGS-B",
                 bounds=[(-0.99, 0.99), (-0.99, 0.99)])
    for _ in range(4):
        y = fftconvolve(_WEIGHTS, _LONG)[:8192]
    text = "".join(f"{i},{v:.9g}\n" for i, v in enumerate(y[:3000]))
    rows = [line.split(",") for line in text.splitlines()]
    json.loads(json.dumps({"values": [float(v) for _, v in rows]}))


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0
