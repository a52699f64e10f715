"""Hot inner loops with a numba fast path and a pure-Python fallback.

Every protocol in this package reduces to long sequences of two-level full
thermalizations applied in place to a population vector.  The sweeps have a
sequential data dependency (each step reads the result of the previous one),
so they cannot be vectorized; they are instead JIT-compiled with numba.

Backend selection:
  - default: numba ``@njit`` kernels (compiled on first use, cached on disk);
  - ``THERMOPROC_NO_NUMBA=1`` in the environment, or numba missing, selects
    the pure-Python twins.

``backend_name()`` reports which path is active.  ``benchmarks/bench_kernels.py``
compares the two.
"""

from __future__ import annotations

import os

import numpy as np


def _memory_sweep_py(vec, d, weight_a, base_a, base_b):
    """d*d full thermalizations between slot blocks of a flat vector.

    Outer loop over slots base_a..base_a+d-1, inner loop over slots
    base_b..base_b+d-1; the pooled mass splits weight_a to the base_a slot.
    This is the elementary sweep that simulates a beta-swap with a
    d-dimensional memory.  Operates in place.
    """
    for k in range(d):
        a = base_a + k
        for j in range(d):
            b = base_b + j
            total = vec[a] + vec[b]
            vec[a] = weight_a * total
            vec[b] = (1.0 - weight_a) * total


def _memory_sweep_ordered_py(vec, d, weight_a, base_a, base_b, order):
    """Like _memory_sweep_py but with an explicit outer-slot visiting order."""
    for k in order:
        a = base_a + k
        for j in range(d):
            b = base_b + j
            total = vec[a] + vec[b]
            vec[a] = weight_a * total
            vec[b] = (1.0 - weight_a) * total


_FORCE_FALLBACK = os.environ.get("THERMOPROC_NO_NUMBA", "") not in ("", "0")

if not _FORCE_FALLBACK:
    try:
        from numba import njit

        memory_sweep = njit(cache=True)(_memory_sweep_py)
        memory_sweep_ordered = njit(cache=True)(_memory_sweep_ordered_py)
        _BACKEND = "numba"
    except ImportError:
        memory_sweep = _memory_sweep_py
        memory_sweep_ordered = _memory_sweep_ordered_py
        _BACKEND = "python"
else:
    memory_sweep = _memory_sweep_py
    memory_sweep_ordered = _memory_sweep_ordered_py
    _BACKEND = "python"


def backend_name() -> str:
    """Return 'numba' or 'python' depending on the active kernel path."""
    return _BACKEND


def as_state(values) -> np.ndarray:
    """Contiguous float64 copy, the layout the kernels expect."""
    return np.ascontiguousarray(values, dtype=np.float64)
