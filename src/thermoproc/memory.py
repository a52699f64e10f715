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
"""

from __future__ import annotations

import numpy as np

from ._kernels import Wavefront, memory_sweep, wavefront_blocks
from .combinatorics import _require_int, delta_d

# the memory dimension from which cooling rounds step through
# ``_round_response``; see the module docstring for why smaller d keep the
# per-round sweep
RESPONSE_MIN_D = 48


def _sweep(d: int, gamma: float, p_ground: float, p_excited: float) -> float:
    """Spread the pair populations uniformly over the slots, run the d^2
    sweep, and return the ground block's total."""
    vec = np.empty(2 * d)
    vec[:d] = p_ground / d
    vec[d:] = p_excited / d
    memory_sweep(vec, d, gamma, 0, d)
    return float(vec[:d].sum())


def _round_response(d: int, gamma: float):
    """The totals ((A_g, A_e), (B_g, B_e)) of one d^2 sweep from unit ground
    mass and of one from unit excited mass, both spread uniformly over the
    slots; one two-row wavefront runs both sweeps."""
    a = np.zeros((2, d))
    b = np.zeros((2, d))
    a[0] = b[1] = 1.0 / d
    Wavefront([d, d], gamma).run(a, b)
    return tuple(zip(a.sum(axis=1).tolist(), b.sum(axis=1).tolist()))


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
        return _sweep(ds[0], gamma, p0, 1.0 - p0)
    totals = np.empty(len(ds))
    for rows in wavefront_blocks(ds):
        block = [ds[i] for i in rows]
        sizes = np.array(block)[:, None]
        a = np.empty((len(block), max(block)))
        b = np.empty_like(a)
        a[:] = p0 / sizes
        b[:] = (1.0 - p0) / sizes
        Wavefront(block, gamma).run(a, b)
        totals[rows] = [a[i, :d].sum() for i, d in enumerate(block)]
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
