"""Thermo-majorization order, extreme points, and the minimum extraction error.

The reachability order on energy-diagonal states is decided by comparing
Lorenz curves built along the beta-order: levels sorted by p_k / tau_k
descending, cumulative Gibbs weight on the x-axis (normalized, so curves
live in the unit square), cumulative population on the y-axis.  ``p`` can
reach ``q`` by a Gibbs-stochastic matrix iff p's curve lies on or above q's
everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import Hamiltonian, PopulationVector, gibbs_state

CURVE_TOL = 1.0e-12
VERTEX_DEDUP_DECIMALS = 12
BISECTION_ITERATIONS = 64  # interval width 2^-64, far below the 1e-12 target


@dataclass(frozen=True)
class LorenzCurve:
    """Piecewise-linear curve from (0, 0) to (1, 1), concave by construction."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs, ys = self.xs, self.ys
        if xs[0] != 0.0 or ys[0] != 0.0:
            raise ValueError("curve must start at (0, 0)")
        if abs(xs[-1] - 1.0) > CURVE_TOL or abs(ys[-1] - 1.0) > CURVE_TOL:
            raise ValueError("curve must end at (1, 1)")
        dx = xs[1:] - xs[:-1]
        if (dx <= 0.0).any():
            raise ValueError("x breakpoints must be strictly increasing")
        slopes = (ys[1:] - ys[:-1]) / dx
        jumps = slopes[1:] - slopes[:-1]
        if jumps.size and jumps.max() > 1.0e-9 * max(1.0, float(np.abs(slopes).max())):
            raise ValueError("curve is not concave")

    def value_at(self, x):
        return np.interp(x, self.xs, self.ys)


def _as_array(p):
    return p.probs if isinstance(p, PopulationVector) else np.asarray(p, dtype=np.float64)


def beta_order(p, gibbs) -> np.ndarray:
    """Indices sorted by p_k / tau_k descending, ties broken by ascending index."""
    parr, tarr = _as_array(p), _as_array(gibbs)
    if parr.size != tarr.size:
        raise ValueError("dimension mismatch")
    if tarr.min() <= 0.0:
        raise ValueError("gibbs vector must be strictly positive")
    ratios = parr / tarr
    order = sorted(range(parr.size), key=lambda k: (-ratios[k], k))
    return np.array(order, dtype=np.intp)


def lorenz_curve(p, gibbs) -> LorenzCurve:
    """Cumulative (Gibbs weight, population) breakpoints along the beta-order."""
    parr, tarr = _as_array(p), _as_array(gibbs)
    order = beta_order(parr, tarr)
    xs = np.concatenate(([0.0], np.cumsum(tarr[order])))
    ys = np.concatenate(([0.0], np.cumsum(parr[order])))
    return LorenzCurve(xs, ys)


def _dominates(cp: LorenzCurve, cq: LorenzCurve, tol: float) -> bool:
    # np.interp takes unsorted points, and a repeated point changes no verdict
    grid = np.concatenate((cp.xs, cq.xs))
    return bool((cp.value_at(grid) >= cq.value_at(grid) - tol).all())


def thermo_majorizes(p, q, gibbs, tol: float = CURVE_TOL) -> bool:
    """True iff p's Lorenz curve dominates q's at every breakpoint of either."""
    return _dominates(lorenz_curve(p, gibbs), lorenz_curve(q, gibbs), tol)


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
    seen = {}
    for perm in permutations(range(dim)):
        v = np.zeros(dim)
        x = 0.0
        y_prev = 0.0
        for idx in perm:
            x += tarr[idx]
            y = float(curve.value_at(x))
            v[idx] = y - y_prev
            y_prev = y
        key = tuple(np.round(v, VERTEX_DEDUP_DECIMALS))
        if key not in seen:
            seen[key] = PopulationVector(v)
    return list(seen.values())


def extraction_target(gamma_s: float, eps: float) -> np.ndarray:
    """Product state [gamma_s, 1-gamma_s] x [eps, 1-eps] on basis (g0, g1, e0, e1)."""
    return np.array([
        gamma_s * eps, gamma_s * (1.0 - eps),
        (1.0 - gamma_s) * eps, (1.0 - gamma_s) * (1.0 - eps),
    ])


def min_extraction_error_tp(E: float, W: float, beta: float) -> float:
    """Smallest work-bit ground weight eps reachable from the excited system.

    Bisection on eps over [0, gamma_W] of whether [0,1]_S x [1,0]_W reaches
    Gibbs_S x [eps, 1-eps] by a thermal process.  The Gibbs state and the
    start state's Lorenz curve are built once; each target's curve is built
    (and checked) per test.  The upper end (the full Gibbs product) is always
    feasible, and feasibility is monotone in eps on this interval (asserted
    by sampling in the test suite, not proved here).  64 iterations pin the
    answer well below 1e-12.
    """
    if not (E > 0.0 and W > 0.0 and beta > 0.0):
        raise ValueError("E, W and beta must be positive")
    tau = gibbs_state(Hamiltonian((0.0, W, E, E + W)), beta)
    gamma_s = 1.0 / (1.0 + math.exp(-beta * E))
    start = lorenz_curve(np.array([0.0, 0.0, 1.0, 0.0]), tau)

    def feasible(eps):
        target = lorenz_curve(extraction_target(gamma_s, eps), tau)
        return _dominates(start, target, CURVE_TOL)

    if feasible(0.0):
        return 0.0
    lo = 0.0
    hi = 1.0 / (1.0 + math.exp(-beta * W))
    for _ in range(BISECTION_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi
