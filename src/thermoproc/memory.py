"""Simulating a beta-swap on a qubit with a maximally mixed d-level memory.

The protocol runs d^2 full two-level thermalizations on the composite of a
qubit (ground weight ``gamma`` in equilibrium) and a d-dimensional memory
with trivial Hamiltonian: sweep k = 1..d over ground slots, and inside each
sweep thermalize |g,k> against every excited slot |e,j>, j = 1..d.  A single
memory refresh at the very end returns the memory to uniform; refreshing
earlier would erase the correlations the protocol exploits.

The resulting ground population has the closed form

    p_d = 1 - p0 (1-gamma)/gamma - (gamma - p0) delta_d(gamma),

i.e. the exact swap output minus a Catalan-tail correction that decays like
(4 gamma (1-gamma))^d d^{-3/2}.

Composite basis: flat index s*d + m with s = 0 (ground), 1 (excited) and
memory slot m = 0..d-1 fastest.

The sweep is linear in the populations, and a protocol that attaches a fresh,
maximally mixed memory spreads each pair population evenly over its d slots.
So one such round maps the pair (g, e) to

    g' = g A_g + e B_g,    e' = g A_e + e B_e,

where (A_g, A_e) are the ground and excited totals of one sweep from unit
ground mass (1/d per ground slot, nothing excited) and (B_g, B_e) those of
one sweep from unit excited mass.  ``_round_response`` computes the four
totals with one two-row ``Wavefront``, and the memory-assisted cooling runs
step their rounds through them from ``RESPONSE_MIN_D`` on.  Below it a round
still runs its own sweep: the default cooling runs (d <= 8) then keep their
output bytes, which the affine map would change in 184 of 280 values, each by
at most 1.1e-15.  From d = 48 on, 50 rounds on the response stay within
1e-14 of a long-double reference (at most 4.2e-15 in the tests' cases, where
per-round sweeps reach 1.6e-14).

That per-round pair step, ``_sweep``, makes no numpy call: it runs the one
list loop of ``_kernels`` (``_sweep_lists``, which also serves
``memory_sweep``'s narrow path) on two lists of Python floats and sums each
block with ``_pairwise_sum``, in the order numpy's reduction sums a
contiguous float64 array, so its totals have the bits of ``vec[:d].sum()``
and ``vec[d:].sum()`` of the same sweep on a numpy vector.
"""

from __future__ import annotations

import numpy as np

from ._kernels import WAVEFRONT_MIN_WIDTH, Wavefront, _sweep_lists, wavefront_blocks
from .combinatorics import _require_int, delta_d

# the memory dimension from which cooling rounds step through
# ``_round_response``; see the module docstring for why smaller d keep the
# per-round sweep
RESPONSE_MIN_D = 48


def _pairwise_sum(values):
    """The sum of a list of Python floats in numpy's pairwise order, to the
    bits of ``np.add.reduce`` on the same values as a float64 array.

    Below 8 values numpy adds them in order from 0.0.  Up to 128 it keeps
    eight running sums, r_j of the values at j, j + 8, ... below the largest
    multiple of 8, combines them as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and
    adds the rest in order.  Above 128 it sums the two halves on their own,
    cut at n // 2 rounded down to a multiple of 8.  The built-in ``sum`` will
    not do for the running sums: from Python 3.12 on it adds floats with
    compensation, to other bits.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for x in values:
            total += x
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    body = n - n % 8
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    for i in range(8, body, 8):
        x0, x1, x2, x3, x4, x5, x6, x7 = values[i:i + 8]
        r0, r1, r2, r3, r4, r5, r6, r7 = (r0 + x0, r1 + x1, r2 + x2, r3 + x3,
                                          r4 + x4, r5 + x5, r6 + x6, r7 + x7)
    # numpy adds the whole pairwise sum to 0.0, which can only turn -0.0 into
    # +0.0; adding it to each block of the recursion gives the same bits
    total = 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    for x in values[body:]:
        total += x
    return total


def _sweep(d: int, gamma: float, p_ground: float, p_excited: float):
    """One memory-simulated swap of a pair: spread its populations evenly
    over the slots of a fresh memory, run the d^2 sweep, and return the
    [ground, excited] block totals.

    All on Python floats: the totals have the bits of the same sweep on a
    numpy vector summed block by block (see the module docstring).
    """
    a = [p_ground / d] * d
    b = [p_excited / d] * d
    _sweep_lists(a, b, gamma)
    return [_pairwise_sum(a), _pairwise_sum(b)]


def _round_response(d: int, gamma: float):
    """The totals ((A_g, A_e), (B_g, B_e)) of one d^2 sweep from unit ground
    mass and of one from unit excited mass, both spread uniformly over the
    slots; one two-row wavefront runs both sweeps."""
    a = np.zeros((2, d))
    b = np.zeros((2, d))
    a[0] = b[1] = 1.0 / d
    Wavefront([d, d], gamma).run(a, b)
    return tuple(zip(a.sum(axis=1).tolist(), b.sum(axis=1).tolist()))


def _block_totals(block, p0: float, gamma: float):
    """The final ground populations of the protocol at each memory dimension
    of ``block``, from one ``Wavefront`` over them all."""
    # as floats: the same quotients, without a cast of the integers on every
    # division
    sizes = np.array(block, dtype=float)[:, None]
    a = np.empty((len(block), max(block)))
    b = np.empty_like(a)
    a[:] = p0 / sizes
    b[:] = (1.0 - p0) / sizes
    Wavefront(block, gamma).run(a, b)
    return [a[i, :d].sum() for i, d in enumerate(block)]


def simulate_memory_beta_swap(d, p0: float, gamma: float):
    """Run the d^2-step protocol and return the final ground population.

    ``d`` is one memory dimension, or a sequence of them; a sequence runs
    its sweeps together, one ``wavefront_blocks`` block at a time, and gives
    an array, bit for bit the values of one call per d.
    """
    scalar = not hasattr(d, "__iter__")
    ds = [_require_int(k, "memory dimension d", 1) for k in ([d] if scalar else d)]
    if not (0.0 <= p0 <= 1.0):
        raise ValueError("p0 must lie in [0, 1]")
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    if scalar:
        # a wide single sweep runs faster as a one-row batch than as the loop
        if ds[0] >= WAVEFRONT_MIN_WIDTH:
            return float(_block_totals(ds, p0, gamma)[0])
        return _sweep(ds[0], gamma, p0, 1.0 - p0)[0]
    totals = np.empty(len(ds))
    for rows in wavefront_blocks(ds):
        totals[rows] = _block_totals([ds[i] for i in rows], p0, gamma)
    return totals


def closed_form_p_d(d: int, p0, gamma):
    """Ground population after the protocol: 1 - p0 (1-g)/g - (g - p0) delta_d(g).

    Accepts floats or Fractions; gamma must exceed 1/2 (delta_d domain).
    The d -> infinity limit, 1 - p0 (1-gamma)/gamma, is the exact swap output.
    """
    if d < 1:
        raise ValueError("memory dimension d must be >= 1")
    return _p_d(p0, gamma, delta_d(d, gamma))


def _p_d(p0, gamma, delta):
    return 1 - p0 * (1 - gamma) / gamma - (gamma - p0) * delta
