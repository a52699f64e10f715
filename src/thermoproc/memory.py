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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import Wavefront, memory_sweep, wavefront_blocks
from .combinatorics import _require_int, catalan_tail_bound, delta_d
from .core import SUM_TOL


def _sweep(d: int, gamma: float, p_ground: float, p_excited: float) -> float:
    """Spread the pair populations uniformly over the slots, run the d^2
    sweep, and return the ground block's total."""
    vec = np.empty(2 * d)
    vec[:d] = p_ground / d
    vec[d:] = p_excited / d
    memory_sweep(vec, d, gamma, 0, d)
    return float(vec[:d].sum())


def _ground_totals(wavefront: Wavefront, ds, p_ground: float,
                   p_excited: float) -> np.ndarray:
    """``_sweep`` for every d of ``ds`` at once, on a wavefront built for
    ``ds``; the same bits as one ``_sweep`` per d."""
    ds = np.asarray(ds)
    a = np.empty((len(ds), ds.max()))
    b = np.empty_like(a)
    a[:] = (p_ground / ds)[:, None]
    b[:] = (p_excited / ds)[:, None]
    wavefront.run(a, b)
    return np.array([a[i, :d].sum() for i, d in enumerate(ds.tolist())])


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
        totals[rows] = _ground_totals(Wavefront(block, gamma), block, p0, 1.0 - p0)
    return totals


def closed_form_p_d(d: int, p0, gamma):
    """Ground population after the protocol: 1 - p0 (1-g)/g - (g - p0) delta_d(g).

    Accepts floats or Fractions; gamma must exceed 1/2 (delta_d domain).
    The d -> infinity limit, 1 - p0 (1-gamma)/gamma, is the exact swap output.
    """
    if d < 1:
        raise ValueError("memory dimension d must be >= 1")
    return 1 - p0 * (1 - gamma) / gamma - (gamma - p0) * delta_d(d, gamma)


@dataclass(frozen=True)
class SwapSimulationReport:
    """Comparison of one simulated run against its closed forms."""

    d: int
    gamma: float
    p_i: float
    p_j: float
    simulated: float
    predicted: float
    deviation: float
    passed: bool
    exact_swap: float
    swap_deviation: float
    delta_term: float
    tail_bound: float


def verify_swap_simulation(d: int, gamma: float, p_pair,
                           tol: float = 1.0e-10) -> SwapSimulationReport:
    """Run the protocol on a two-level restriction and compare to closed forms.

    ``p_pair = (p_i, p_j)`` may carry total mass below 1 (an embedded pair of
    a larger system); the protocol recurrences are linear, so the prediction

        p_i' = (1 - q) p_i + p_j + [(1-gamma) p_i - gamma p_j] delta_d(gamma)

    with q = (1-gamma)/gamma applies unchanged.  The report also compares
    against the exact swap output (1-q) p_i + p_j, whose distance is the
    delta term itself, bounded by the explicit Catalan tail bound.
    """
    p_i, p_j = (float(v) for v in p_pair)
    if p_i < 0.0 or p_j < 0.0 or p_i + p_j > 1.0 + SUM_TOL:
        raise ValueError("pair populations must be nonnegative with p_i + p_j <= 1")
    simulated = _sweep(d, gamma, p_i, p_j)
    q = (1.0 - gamma) / gamma
    delta = float(delta_d(d, gamma))
    coeff = (1.0 - gamma) * p_i - gamma * p_j
    predicted = (1.0 - q) * p_i + p_j + coeff * delta
    exact_swap = (1.0 - q) * p_i + p_j
    deviation = abs(simulated - predicted)
    return SwapSimulationReport(
        d=d, gamma=gamma, p_i=p_i, p_j=p_j,
        simulated=simulated, predicted=predicted,
        deviation=deviation, passed=deviation <= tol,
        exact_swap=exact_swap,
        swap_deviation=abs(simulated - exact_swap),
        delta_term=abs(coeff) * delta,
        tail_bound=abs(coeff) * catalan_tail_bound(d, gamma),
    )
