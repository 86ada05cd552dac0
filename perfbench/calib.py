"""Host-speed calibration: a fixed block of work that uses no crossband code.

On the 2-vCPU VM (Intel Xeon, 2.1 GHz) these workloads were sized on, a
core's speed changes by up to 1.7x within seconds as neighbours load the
host: a pure Python loop read 12.6 ms in one second and 18.6 ms in the next,
and run medians of raw wall time over 20 s spread by 30% between runs. Timing this
block right before and right after a CLI call, in the same process, gives
the speed the call ran at. The benchmark divides every session time by it
and multiplies by ``REFERENCE_S``, reporting times "at reference speed".

The block mixes what crossband spends its time on: interpreter work on
small Python objects and numpy ufuncs on arrays of a few thousand elements.
Changing it changes every reported number, so it stays fixed.
"""

from __future__ import annotations

import math
import time

import numpy as np

ROUNDS = 2000
# Seconds this block took on that VM in its fast state.
REFERENCE_S = 0.11


def calibrate() -> float:
    """Seconds this process takes for the fixed block of work."""
    x = np.linspace(-3.0, 3.0, 2048)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(ROUNDS):
        y = np.exp(1j * x * (1 + i % 7))
        acc += float(np.abs(y.sum()))
        acc += sum(math.log10(1.0 + j * i) for j in range(40))
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("calibration produced a non-finite value")
    return elapsed
