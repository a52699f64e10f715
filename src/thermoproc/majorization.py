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
state is the one-row case.  The row-wise interpolation repeats
``np.interp``'s operations in its order, so each row gives the bits of a
one-state ``np.interp`` comparison.  The extraction bisection uses that to
run a whole work-gap grid in lockstep: one batched feasibility test per
iteration rather than one per grid point, since numpy's per-call cost, not
the arithmetic, sets the time of a few-element curve.
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
        """``np.interp(x, xs, ys)`` row by row, for points ``x[..., i]``.

        Repeats np.interp's operations in its order, so the values are the
        same bits: ``ys[0]`` left of the curve, ``ys[-1]`` from its right
        end on, ``ys[j]`` at a breakpoint ``xs[j]``, and ``slope_j (x -
        xs[j]) + ys[j]`` inside segment j, with ``slope_j = (ys[j+1] -
        ys[j]) / (xs[j+1] - xs[j])``.  ``x`` must hold no NaN.
        """
        x = np.asarray(x, dtype=np.float64)
        xs, ys = self.xs, self.ys
        n = xs.shape[-1]
        j = (xs[..., None, :] <= x[..., :, None]).sum(axis=-1) - 1
        rows = j.shape[:-1]
        if xs.shape[:-1] != rows:
            xs, ys = np.broadcast_to(xs, rows + (n,)), np.broadcast_to(ys, rows + (n,))
        xs, ys = xs.reshape(-1), ys.reshape(-1)
        # flat index of the left end of segment j, clamped to the end segments
        left = np.minimum(np.maximum(j, 0), n - 2) + _row_starts(rows, n)
        x0, y0, x1, y1 = xs[left], ys[left], xs[left + 1], ys[left + 1]
        inner = np.where(x == x0, y0, (y1 - y0) / (x1 - x0) * (x - x0) + y0)
        return np.where(j < 0, y0, np.where(j >= n - 1, y1, inner))


def _row_starts(rows, n):
    """Flat index of the first entry of each row of a ``rows + (n,)`` array."""
    return n * np.arange(math.prod(rows)).reshape(rows + (1,))


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
    if parr.shape != tarr.shape:
        parr, tarr = np.broadcast_arrays(parr, tarr)
    rows, n = order.shape[:-1], order.shape[-1]
    flat = order + _row_starts(rows, n)
    origin = np.zeros(rows + (1,))
    xs, ys = (np.concatenate((origin, np.cumsum(a.reshape(-1)[flat], axis=-1)), axis=-1)
              for a in (tarr, parr))
    return LorenzCurve(xs, ys)


def _dominates(cp: LorenzCurve, cq: LorenzCurve, tol: float) -> np.ndarray:
    """Per row: cp on or above cq - tol at every breakpoint of either.

    A curve's value at its own breakpoints is its ``ys``, bit for bit, so
    each curve is interpolated only at the other's breakpoints.
    """
    return ((cp.ys >= cq.value_at(cp.xs) - tol).all(axis=-1)
            & (cp.value_at(cq.xs) >= cq.ys - tol).all(axis=-1))


def thermo_majorizes(p, q, gibbs):
    """True iff p's Lorenz curve dominates q's at every breakpoint of either.

    Rows of ``p``, ``q`` and ``gibbs`` give one verdict each (a bool array);
    1-d inputs give one bool.
    """
    ok = _dominates(lorenz_curve(p, gibbs), lorenz_curve(q, gibbs), CURVE_TOL)
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


def extraction_target(gamma_s: float, eps) -> np.ndarray:
    """Product state [gamma_s, 1-gamma_s] x [eps, 1-eps] on basis (g0, g1, e0, e1),
    one row per entry of ``eps``."""
    eps = np.asarray(eps, dtype=np.float64)
    return np.stack([
        gamma_s * eps, gamma_s * (1.0 - eps),
        (1.0 - gamma_s) * eps, (1.0 - gamma_s) * (1.0 - eps),
    ], axis=-1)


def min_extraction_error_tp(E: float, W, beta: float):
    """Smallest work-bit ground weight eps reachable from the excited system.

    Bisection on eps over [0, gamma_W] of whether [0,1]_S x [1,0]_W reaches
    Gibbs_S x [eps, 1-eps] by a thermal process.  ``W`` may be an array of
    work gaps: every gap bisects in lockstep, one row each, with one batched
    feasibility test per iteration, and the result has W's shape (a float
    for a scalar W).  The Gibbs states and the start curves are built once;
    each iteration builds (and checks) the target curves of all rows.  The
    upper end (the full Gibbs product) is always feasible, and feasibility
    is monotone in eps on this interval (asserted by sampling in the test
    suite, not proved here).  64 iterations pin the answer well below 1e-12.
    """
    gaps = np.asarray(W, dtype=np.float64)
    if not (E > 0.0 and beta > 0.0 and (gaps > 0.0).all()):
        raise ValueError("E, W and beta must be positive")
    ws = gaps.ravel().tolist()
    tau = np.array([gibbs_state(Hamiltonian((0.0, w, E, E + w)), beta).probs
                    for w in ws]).reshape(len(ws), 4)
    gamma_s = 1.0 / (1.0 + math.exp(-beta * E))
    start = lorenz_curve(np.array([0.0, 0.0, 1.0, 0.0]), tau)

    def feasible(eps):
        target = lorenz_curve(extraction_target(gamma_s, eps), tau)
        return _dominates(start, target, CURVE_TOL)

    lo = np.zeros(len(ws))
    hi = np.array([1.0 / (1.0 + math.exp(-beta * w)) for w in ws])
    error_free = feasible(lo)
    for _ in range(BISECTION_ITERATIONS):
        mid = 0.5 * (lo + hi)
        ok = feasible(mid)
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    hi[error_free] = 0.0
    return float(hi[0]) if gaps.ndim == 0 else hi.reshape(gaps.shape)
