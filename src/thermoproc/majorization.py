"""Thermo-majorization order, extreme points, and the minimum extraction error.

The reachability order on energy-diagonal states is decided by comparing
Lorenz curves built along the beta-order: levels sorted by p_k / tau_k
descending, cumulative Gibbs weight on the x-axis (normalized, so curves
live in the unit square), cumulative population on the y-axis.  ``p`` can
reach ``q`` by a Gibbs-stochastic matrix iff p's curve lies on or above q's
everywhere.

Curves are built, checked and compared rows first: ``beta_order``,
``lorenz_curve``, ``LorenzCurve`` and ``thermo_majorizes`` take states
stacked along leading axes (the last axis runs over levels), and a single
state is the one-row case.  Every value read off a curve is ``np.interp``'s,
one call per curve, so each row gives the bits of a one-state comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import PopulationVector

CURVE_TOL = 1.0e-12
VERTEX_DEDUP_DECIMALS = 12


@dataclass(frozen=True)
class LorenzCurve:
    """Piecewise-linear curves from (0, 0) to (1, 1), concave by construction.

    ``xs`` and ``ys`` hold one curve per row (the last axis runs along the
    breakpoints); a 1-d pair is the one-curve case.  Every row is checked.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs, ys = self.xs, self.ys
        if ((xs[..., 0] != 0.0) | (ys[..., 0] != 0.0)).any():
            raise ValueError("curve must start at (0, 0)")
        if ((np.abs(xs[..., -1] - 1.0) > CURVE_TOL)
                | (np.abs(ys[..., -1] - 1.0) > CURVE_TOL)).any():
            raise ValueError("curve must end at (1, 1)")
        dx = xs[..., 1:] - xs[..., :-1]
        if (dx <= 0.0).any():
            raise ValueError("x breakpoints must be strictly increasing")
        slopes = (ys[..., 1:] - ys[..., :-1]) / dx
        jumps = slopes[..., 1:] - slopes[..., :-1]
        if jumps.shape[-1] and (jumps.max(axis=-1) > 1.0e-9 * np.maximum(
                1.0, np.abs(slopes).max(axis=-1))).any():
            raise ValueError("curve is not concave")

    def value_at(self, x):
        """``np.interp(x, xs, ys)``, one call per curve: row i of stacked
        curves reads its points ``x[i]``, or every row reads a 1-d ``x``."""
        xs, ys = self.xs, self.ys
        if xs.ndim == 1:
            return np.interp(x, xs, ys)
        x = np.asarray(x, dtype=np.float64)
        x = np.broadcast_to(x, xs.shape[:-1] + x.shape[-1:])
        n = xs.shape[-1]
        rows = zip(x.reshape(-1, x.shape[-1]), xs.reshape(-1, n), ys.reshape(-1, n))
        return np.array([np.interp(*row) for row in rows]).reshape(x.shape)


def _as_array(p):
    return p.probs if isinstance(p, PopulationVector) else np.asarray(p, dtype=np.float64)


def beta_order(p, gibbs) -> np.ndarray:
    """Indices sorted by p_k / tau_k descending, ties broken by ascending index.

    Row by row along the last axis: a stable argsort of -p/tau.
    """
    parr, tarr = _as_array(p), _as_array(gibbs)
    if parr.shape[-1] != tarr.shape[-1]:
        raise ValueError("dimension mismatch")
    if (tarr <= 0.0).any():
        raise ValueError("gibbs vector must be strictly positive")
    return np.argsort(-(parr / tarr), axis=-1, kind="stable")


def lorenz_curve(p, gibbs) -> LorenzCurve:
    """Cumulative (Gibbs weight, population) breakpoints along the beta-order,
    one curve per row of ``p`` and ``gibbs`` (broadcast against each other)."""
    parr, tarr = _as_array(p), _as_array(gibbs)
    order = beta_order(parr, tarr)
    origin = np.zeros(order.shape[:-1] + (1,))
    xs, ys = (np.concatenate((origin, np.cumsum(np.take_along_axis(a, order, axis=-1),
                                                axis=-1)), axis=-1)
              for a in np.broadcast_arrays(tarr, parr))
    return LorenzCurve(xs, ys)


def _dominates(cp: LorenzCurve, cq: LorenzCurve) -> np.ndarray:
    """Per row: cp on or above cq - ``CURVE_TOL`` at every breakpoint of either.

    A curve's value at its own breakpoints is its ``ys``, bit for bit, so
    each curve is interpolated only at the other's breakpoints.
    """
    return ((cp.ys >= cq.value_at(cp.xs) - CURVE_TOL).all(axis=-1)
            & (cp.value_at(cq.xs) >= cq.ys - CURVE_TOL).all(axis=-1))


def thermo_majorizes(p, q, gibbs):
    """True iff p's Lorenz curve dominates q's at every breakpoint of either.

    Rows of ``p``, ``q`` and ``gibbs`` give one verdict each (a bool array);
    1-d inputs give one bool.
    """
    ok = _dominates(lorenz_curve(p, gibbs), lorenz_curve(q, gibbs))
    return bool(ok) if ok.ndim == 0 else ok


def tp_reach_vertices(p, gibbs):
    """Extreme points of the set reachable from p by Gibbs-stochastic matrices.

    One candidate per permutation pi of the levels: the vector whose Lorenz
    curve equals p's curve sampled at the cumulative Gibbs weights taken in
    pi order.  Duplicates are removed at 1e-12.  Factorial enumeration, so
    the dimension is capped at 6.
    """
    parr, tarr = _as_array(p), _as_array(gibbs)
    dim = parr.size
    if dim > 6:
        raise ValueError("vertex enumeration is limited to dimension <= 6")
    curve = lorenz_curve(parr, tarr)
    perms = np.array(list(permutations(range(dim))), dtype=np.intp)
    ys = curve.value_at(np.cumsum(tarr[perms], axis=-1))
    candidates = np.empty(perms.shape)
    np.put_along_axis(candidates, perms, np.diff(ys, axis=-1, prepend=0.0), axis=-1)
    seen = {}
    keys = map(tuple, np.round(candidates, VERTEX_DEDUP_DECIMALS).tolist())
    for v, key in zip(candidates, keys):
        if key not in seen:
            seen[key] = PopulationVector(v)
    return list(seen.values())


def min_extraction_error_tp(E: float, W, beta: float):
    """Smallest work-bit ground weight eps reachable from the excited system.

    The least eps for which [0,1]_S x [1,0]_W reaches Gibbs_S x [eps, 1-eps]
    by a thermal process, read off the start's Lorenz curve.  The target
    has beta-ratios eps/gamma_W on (g0, e0) and (1-eps)/(1-gamma_W) on (g1,
    e1); for eps <= gamma_W the second pair comes first, so the target's
    curve has one elbow, at (1 - gamma_W, 1 - eps).  A concave curve lies on
    or above a piecewise-linear one iff it does at the latter's elbows, so
    the start reaches the target iff L(1 - gamma_W) >= 1 - eps, and
    eps_min = max(0, 1 - L(1 - gamma_W)) for the start's curve L: the
    eps-deterministic work read-off of Horodecki & Oppenheim, "Fundamental
    limitations for quantum and nanoscale thermodynamics", Nat. Commun. 4,
    2059 (2013).  The condition is linear in eps, so feasibility is monotone
    in eps.  From the excited state L(x) = min(1, x / tau_e0), which gives
    the closed form eps_TP of ``workx.extraction_closed_forms``.  ``W`` may
    be an array of work gaps, one curve each; the result has W's shape (a
    float for a scalar W).  The input check and gamma_W are ``workx``'s.
    """
    # imported here, so that fig3, which loads this module, does not load workx
    from .workx import _weights

    gaps = np.asarray(W, dtype=np.float64)
    w, _, _, _, gamma_w = _weights(E, gaps.ravel(), beta)
    w, gamma_w = w.reshape(-1, 1), gamma_w.reshape(-1, 1)
    # Gibbs rows over (g0, g1, e0, e1): core.gibbs_state's operations, all gaps at once
    weights = np.exp(-beta * np.concatenate((np.zeros_like(w), w, np.full_like(w, E), E + w),
                                            axis=-1))
    tau = weights / weights.sum(axis=-1, keepdims=True)
    start = lorenz_curve(np.array([0.0, 0.0, 1.0, 0.0]), tau)
    eps = np.maximum(0.0, 1.0 - start.value_at(1.0 - gamma_w))
    return float(eps[0, 0]) if gaps.ndim == 0 else eps.reshape(gaps.shape)
