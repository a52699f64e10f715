"""Where float ``I_d`` cuts each row of terms: its window, the contiguous
cells whose terms can move the value by more than 2^-60 of it, placed
without computing a term.  ``combinatorics._windows`` loads this module for
the first call with a d of at least ``combinatorics._WINDOW_MIN_D``.

With K and J the negative-binomial counts whose pmfs are the x and y
rows (K counts the failures before the d-th success at failure
probability x), I_d = E[h(J + K)], h(s) = (1 - s/d)^+, and cell k of
the x row adds P(K = k) E[h(J + k)] to it.  For any z = e^theta <= 1,
P(J = j) P(K = k) = M(z) P_z(J = j) P_z(K = k) z^{-(j+k)}, where P_z
tilts x and y to xz and yz, and M(z) = [(1-x)(1-y) / ((1-xz)(1-yz))]^d.
So the cells with K >= b add at most

    M(z) H*(z) P_z(K >= b, J <= d - 1 - b),  H*(z) = max_s h(s) z^{-s},

since h vanishes from s = d, and the cells with K < a at most
M(z) H*(z) P_z(K < a), and I_d <= M(z) H*(z).  The upper cut takes the
z at which the tilted mean of J + K is d when the untilted one, d mu
with mu = x/(1-x) + y/(1-y), exceeds d (the root of
3xyz^2 - 2(x+y)z + 1 = 0 below 1/max(x, y)), else 1; the lower cut
takes its square root, which bounds the small-K cells, whose J + K lies
far below d, more tightly (in a prototype, the mirrored windows of
fig2-dense's points below W_0 at d = 1000 came out 16% shorter than with
z itself).  The probabilities take Chernoff's bound, whose
exponent is ``_tail_exponent``, and each cut the loosest cell at which
all four bounds (x and y rows, lower and upper cut) fall below 2^-62 of
a lower bound of I_d: the larger of Jensen's (1 - mu)^+ and one cell,
the point (j0, k0) one tilted standard deviation below the tilted mean
of J + K, split in proportion to their means, whose weight is bounded
below by ``_log_term_floor``.  So a window drops at most 2^-60 of the
value.  A point whose M(z) H*(z) lies below 2^-1075 has the value 0,
the correctly rounded one.

Each length rounds up to a multiple of the grain ceil(d/32), within
the row, so that the rows of one d take at most 32 lengths.  A point
whose windows end at bx and by with bx + by <= d + 1 holds only cells
with j + k < d, and its value is the separated form
(Px (d Py - Qy) - Qx Py) / d of the windows' sums P of the terms and Q
of k times the terms.  On fig2-dense's 2000-point grid (beta E = 0.7) at
d = 1000, 46% of the points take that form; through the mirrored union
below, the windows would keep 72% of the whole rows' cells rather than
43%, and a serial call took 44 ms rather than 26 ms (the 7-d call of
fig2-dense 74 ms rather than 55 ms; medians of 9 calls in each of five
alternating processes, 2-CPU x86 host).  Any other point takes one
window [a, a + L) of the x row, the union of its own and its y window's
mirror image k = d - 1 - j, and the y window [d - a - L, d - a), so
that the bracket of cell k of the x window meets cell d - 1 - k of the
y window, as in the whole rows.  A point of two whole windows keeps its
whole rows."""

from __future__ import annotations

import math
import sys

import numpy as np


def _log_factorial_floor(n):
    """n log n - n + log(2 pi n) / 2 at each count n of a float array, 0 at
    n = 0: by Robbins' bounds (Amer. Math. Monthly 62, 1955) log n! lies
    within 1/12 above it."""
    m = np.maximum(n, 1.0)
    return np.where(n > 0, m * np.log(m) - m + 0.5 * np.log(2.0 * math.pi * m), 0.0)


def _log_term_floor(d, k, log_x, log1m_x):
    """A lower bound of log f_d(k) x^k (1-x)^d, given log x and log(1-x):
    the log of C(d-1+k, k) from ``_log_factorial_floor``, less 1/6."""
    log_binomial = (_log_factorial_floor(d - 1.0 + k) - _log_factorial_floor(k)
                    - _log_factorial_floor(d - 1.0) - 1.0 / 6.0)
    return log_binomial + np.where(k > 0, k * log_x, 0.0) + d * log1m_x


def _log_tilted_peak(d, log1m_x, log1m_y, x, y, z):
    """log M(z) H*(z), the bound of every cell's weight under the tilt
    z = e^theta <= 1 (the module docstring): d log[(1-x)(1-y) / ((1-xz)(1-yz))],
    plus log max_s (1 - s/d) z^{-s}, which is tau - 1 - log tau at
    tau = -d log z >= 1 and 0 below."""
    tau = -d * np.log(z)
    peak = np.where(tau > 1.0, tau - 1.0 - np.log(np.maximum(tau, 1.0)), 0.0)
    return d * (log1m_x + log1m_y - np.log1p(-x * z) - np.log1p(-y * z)) + peak


def _tail_exponent(t, log_q, log1m_q):
    """The Chernoff exponent, per variable, of a sum of geometric variables
    of failure probability q at the mean t per variable, and its slope in t,
    given log q and log(1-q): t log(p/q) + log((1-p)/(1-q)) with
    p = t / (1 + t), the Kullback-Leibler divergence of the geometric law of
    mean t from that of q."""
    log1p_t = np.log1p(t)
    slope = np.log(t) - log1p_t - log_q
    return t * slope - log1p_t - log1m_q, slope


def _newton(f, t):
    """Three Newton steps on a convex f from t, kept above 0.  From any
    start where f has the slope of the wanted root, each step lands where
    f >= 0, beyond that root (the tangent lies below f), so the cut it gives
    is never too tight."""
    for _ in range(3):
        value, slope = f(t)
        t = np.maximum(t - value / slope, sys.float_info.min)
    return t


def cut_windows(d, x, y):
    """``combinatorics._windows`` at each (d, x, y) of three equal-length
    1-D arrays: (ax, lx, ay, ly, mirror, separated), each a flat array."""
    grain = np.ceil(d / 32.0)
    mu = x / (1.0 - x) + y / (1.0 - y)
    z = np.divide(1.0, x + y + np.sqrt(x * x - x * y + y * y), out=np.ones_like(x),
                  where=mu > 1.0)
    tx, ty = x * z, y * z
    mean_x, mean_y = tx / (1.0 - tx), ty / (1.0 - ty)
    floor = sys.float_info.min
    with np.errstate(divide="ignore", invalid="ignore"):
        log_x, log_y = np.log(x), np.log(y)
        log1m_x, log1m_y = np.log1p(-x), np.log1p(-y)
        var = mean_x / (1.0 - tx) + mean_y / (1.0 - ty)
        s0 = np.clip(np.floor(d * (np.minimum(mean_x + mean_y, 1.0) - np.sqrt(var / d))),
                     0.0, d - 1.0)
        k0 = np.floor(s0 * np.where(mean_x > 0.0, mean_x / (mean_x + mean_y), 0.0))
        j0 = np.floor(s0 - k0)
        log_value = np.maximum(
            _log_term_floor(d, k0, log_x, log1m_x) + _log_term_floor(d, j0, log_y, log1m_y)
            + np.log1p(-(j0 + k0) / d),
            np.log(np.maximum(1.0 - mu, 0.0)))
        cut = 62.0 * math.log(2.0) - log_value
        peak = _log_tilted_peak(d, log1m_x, log1m_y, x, y, z)
        zero = peak < -1075.0 * math.log(2.0)
        # the x rows above the y rows; each row's partner is the other one
        d2, last = np.tile(d, 2), np.tile((d - 1.0) / d, 2)
        q = np.maximum(np.concatenate((tx, ty)), floor)
        q_partner = np.maximum(np.concatenate((ty, tx)), floor)
        log_q, log1m_q = np.log(q), np.log1p(-q)
        log_p, log1m_p = np.log(q_partner), np.log1p(-q_partner)
        mean, mean_partner = q / (1.0 - q), q_partner / (1.0 - q_partner)
        bound = np.tile(cut + peak, 2)

        def upper(t):
            s = np.maximum(last - t, floor)
            rate, slope = _tail_exponent(t, log_q, log1m_q)
            rate_b, slope_b = _tail_exponent(s, log_p, log1m_p)
            partner = s < mean_partner
            return (d2 * (rate + np.where(partner, rate_b, 0.0)) - bound,
                    d2 * (slope - np.where(partner, slope_b, 0.0)))

        t = _newton(upper, mean + np.sqrt(2.0 * bound * mean / ((1.0 - q) * d2)))
        ends = np.where(np.isfinite(t), np.minimum(np.ceil(d2 * t + 0.5), d2), d2)
        root = np.sqrt(z)
        half = np.maximum(np.concatenate((x * root, y * root)), floor)
        log_h, log1m_h = np.log(half), np.log1p(-half)
        mean_half = half / (1.0 - half)
        bound = np.tile(cut + _log_tilted_peak(d, log1m_x, log1m_y, x, y, root), 2)

        def lower(t):
            rate, slope = _tail_exponent(t, log_h, log1m_h)
            return d2 * rate - bound, d2 * slope

        t = _newton(lower, mean_half - np.sqrt(2.0 * bound * mean_half / ((1.0 - half) * d2)))
        starts = np.where(np.isfinite(t),
                          np.clip(np.floor(d2 * t - 0.5) + 1.0, 0.0, ends - 1.0), 0.0)
    grain2 = np.tile(grain, 2)
    lengths = np.minimum(np.ceil((ends - starts) / grain2) * grain2, d2)
    starts = np.minimum(starts, d2 - lengths)
    k = len(d)
    a_x, a_y, l_x, l_y = starts[:k], starts[k:], lengths[:k], lengths[k:]
    split = (l_x < d) & (l_y < d) & (a_x + l_x + a_y + l_y <= d + 1)
    lo = np.minimum(a_x, d - a_y - l_y)
    length = np.minimum(np.ceil((np.maximum(a_x + l_x, d - a_y) - lo) / grain) * grain, d)
    lo = np.minimum(lo, d - length)
    return (np.where(split, a_x, lo), np.where(split, l_x, length),
            np.where(split, a_y, d - lo - length), np.where(split, l_y, length),
            ~split & ~zero, split & ~zero)
