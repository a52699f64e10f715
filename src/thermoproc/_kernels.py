"""The d^2 full-thermalization sweep, the hot loop of every memory protocol.

Every protocol in this package reduces to sweeps of two-level full
thermalizations applied in place to a population vector: for each outer slot
a_k (in the order ``rows``) and each inner slot b_j (j = 0..d-1), the pooled
mass a_k + b_j splits ``weight_a`` to a_k and the rest to b_j.  Writing t[k, j]
for a_k after its step against b_j, the sweep is the 2-D recurrence

    t[k, j] = w (t[k, j-1] + b_j after row k-1),

so a cell depends only on its left and upper neighbours.  The cells of one
anti-diagonal k + j = s therefore do not depend on each other, and the
wavefront implementation updates a whole anti-diagonal with three numpy calls
on strided views (a_k ascending, b_j descending).  Each cell still sees the
same IEEE operations in the same order as in the plain loop, so the two
implementations agree bit for bit.

A numpy call costs about a microsecond whatever its length, so the wavefront
pays off only when anti-diagonals are long: ``memory_sweep`` takes it when the
widest one, min(len(rows), d), is at least ``WAVEFRONT_MIN_WIDTH`` and
otherwise runs ``_memory_sweep_py``, the plain loop over Python floats, which
is also the reference the tests compare the wavefront against.  On a 2-CPU
x86 host the two break even between d = 124 and d = 140 (three interleaved
measurements); within 16 of that they differ by less than 10%.
"""

from __future__ import annotations

import numpy as np

WAVEFRONT_MIN_WIDTH = 128


def backend_name() -> str:
    """The kernel path, recorded with benchmark results."""
    return "numpy"


def _check_sweep(vec, d, base_a, base_b, rows):
    """Reject layouts on which the sweep is ill-defined; return the outer
    slot order."""
    if d < 1:
        raise ValueError("sweep dimension d must be >= 1")
    if min(base_a, base_b) < 0 or max(base_a, base_b) + d > len(vec):
        raise ValueError("sweep blocks must lie inside the vector")
    if abs(base_a - base_b) < d:
        raise ValueError("sweep blocks must not overlap")
    if rows is None:
        return range(d)
    if len(set(rows)) != len(rows) or not all(0 <= k < d for k in rows):
        raise ValueError("rows must be distinct slots in range(d)")
    return rows


def _memory_sweep_py(vec, d, weight_a, base_a, base_b, rows=None):
    """len(rows)*d full thermalizations between slot blocks of a flat vector.

    Outer loop over slots base_a + k for k in ``rows`` (default range(d)),
    inner loop over slots base_b..base_b+d-1; the pooled mass splits
    ``weight_a`` to the base_a slot.  This is the elementary sweep that
    simulates a beta-swap with a d-dimensional memory.  Operates in place.
    """
    rows = _check_sweep(vec, d, base_a, base_b, rows)
    w = float(weight_a)
    v = 1.0 - w
    a = vec[base_a:base_a + d].tolist()
    b = vec[base_b:base_b + d].tolist()
    for k in rows:
        x = a[k]
        for j in range(d):
            total = x + b[j]
            x = w * total
            b[j] = v * total
        a[k] = x
    vec[base_a:base_a + d] = a
    vec[base_b:base_b + d] = b


def _memory_sweep_wavefront(vec, d, weight_a, base_a, base_b, rows=None):
    """The same sweep as ``_memory_sweep_py``, one anti-diagonal at a time."""
    rows = _check_sweep(vec, d, base_a, base_b, rows)
    # 0-d arrays: numpy multiplies by them with less per-call overhead than
    # by Python floats, and to the same bits
    w = np.array(float(weight_a))
    v = np.array(1.0 - float(weight_a))
    slots = base_a + np.asarray(rows, dtype=np.intp)
    a = vec[slots]  # a copy, outer slots in visiting order
    br = vec[base_b:base_b + d][::-1]  # a view; br[d-1-j] is b_j
    n_rows = len(a)
    add, mul = np.add, np.multiply
    for s in range(n_rows + d - 1):
        lo = s - d + 1 if s >= d else 0
        hi = s + 1 if s < n_rows else n_rows
        off = d - 1 - s
        ai, t = a[lo:hi], br[off + lo:off + hi]
        add(ai, t, t)  # b_j holds the pooled mass until the last call
        mul(t, w, ai)
        mul(t, v, t)
    vec[slots] = a


def memory_sweep(vec, d, weight_a, base_a, base_b, rows=None):
    """Run the sweep of ``_memory_sweep_py`` in place, by the faster path.

    Raises ValueError when the two blocks overlap or leave the vector, or
    when ``rows`` repeats a slot or leaves range(d).
    """
    width = min(d, len(rows)) if rows is not None else d
    if width >= WAVEFRONT_MIN_WIDTH:
        _memory_sweep_wavefront(vec, d, weight_a, base_a, base_b, rows)
    else:
        _memory_sweep_py(vec, d, weight_a, base_a, base_b, rows)
