"""The host's current speed, from a fixed piece of work.

On a shared host the same pass can take 1.7 times as long from one minute
to the next, with process CPU time equal to wall time, so wall times read
at different moments differ by more than any change to the program.  A
``Calibration`` runs ``work`` in the benchmark's process, between the steps
and interpreter starts it times, and keeps how long ``work`` took.
``work`` mixes what the workloads do: element-wise loops over a numpy vector, float special
functions, exact fractions, numpy array arithmetic and CSV formatting with
SHA-256.  It never changes and calls nothing in thermoproc, and it runs
with the garbage collector off, so that objects the program keeps alive do
not slow it: a change to the program moves the pass times and not the
calibration.  ``run.py`` divides the mean times it reports by the mean
time of one ``work`` and multiplies by ``REFERENCE_S``: the result is the
time at the speed of a host on which ``work`` takes ``REFERENCE_S``
seconds.  Calibrating for a fixed share of each timed interval samples the
host's speed where the timed time was spent; a ratio of means averages the
noise of both, where a median of per-pass ratios spread more.

A calibration measured in a separate, idle process tracked the passes
worse than one measured in the benchmark's own process.
"""

from __future__ import annotations

import gc
import hashlib
import math
import time
from fractions import Fraction

import numpy as np

# seconds ``work`` takes on an Intel Xeon vCPU of the host the bounds were set on
REFERENCE_S = 0.04


def work():
    vec = np.full(96, 1.0 / 96)
    for k in range(48):  # the shape of _memory_sweep_py
        for j in range(48, 96):
            total = vec[k] + vec[j]
            vec[k] = 0.75 * total
            vec[j] = 0.25 * total
    acc = 0.0
    for i in range(1, 8000):
        acc += math.lgamma(0.5 * i) - math.log(i) + math.exp(-i / 8000)
    frac = Fraction(0)
    for i in range(1, 400):
        frac += Fraction(i, i * i + 1)
    arr = np.linspace(0.0, 1.0, 20000)
    for _ in range(40):
        arr = np.exp(-arr) * np.log1p(arr)
    rows = "\n".join(f"{i * 0.1:.17g},{acc:.17g},{float(frac):.17g}" for i in range(5000))
    hashlib.sha256(rows.encode()).hexdigest()
    return float(vec.sum()) + float(arr.sum())


class Calibration:
    """The runs of ``work`` made during one benchmark run, and their time."""

    def __init__(self):
        self.seconds = 0.0
        self.runs = 0

    def measure(self, min_seconds):
        """Run ``work`` until ``min_seconds`` have passed (once at least)."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            while True:
                work()
                self.runs += 1
                elapsed = time.perf_counter() - t0
                if elapsed >= min_seconds:
                    break
        finally:
            if was_enabled:
                gc.enable()
        self.seconds += elapsed

    def mean_s(self):
        """Mean seconds of one ``work``."""
        return self.seconds / self.runs

    def at_reference_speed(self, seconds):
        """``seconds`` measured alongside these runs, as they would read on a
        host where ``work`` takes ``REFERENCE_S``."""
        return seconds * REFERENCE_S / self.mean_s()
