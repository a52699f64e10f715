"""Exact and floating-point evaluation of the protocol's combinatorial functions.

The memory-simulation closed forms are built from one family of integer
coefficients and a few generating-function style sums:

  - ``f_coeff(j, k) = C(j-1+k, k)``, equivalently the recurrence
    f_j(0) = 1, f_j(k+1) = sum_{j'=1..j} f_j'(k);
  - ``L(n, m, x) = (1-x)^n * sum_{j<=m} f_n(j) x^j`` and the companions
    K (j-weighted) and I ((n-j)-weighted) with K + I = L;
  - ``delta_d(gamma)``: the Catalan tail sum_{n>=d} cat(n) [gamma(1-gamma)]^n,
    with cat(n) = C(2n, n) / (n + 1) the Catalan numbers,
    computed through the exact finite identity
    delta_d = (1-gamma)/gamma - sum_{n<d} cat(n) [gamma(1-gamma)]^n,
    valid for gamma > 1/2 (never by truncating the slowly converging tail);
  - ``I_d(x, y)``: the double sum controlling the memory-assisted work
    extraction error, evaluated with multiplicative term recurrences so no
    oversized binomial is ever formed in float mode.  A float call works
    through its points in row blocks inside two buffers, of at most 2 x 2^15
    and 2^15 doubles, allocated once and reused for every d of the call;
    each block's x terms lie above its y terms, so that one numpy call
    covers both.  The term ratios fill whole rows with 1.0 in column
    0, and since 1.0 r_1 = r_1 exactly, each running product keeps its
    bits.  What remains per term is elementwise work and four sequential
    scans (two cumulative products, two cumulative sums), which set the
    cost.  On these blocks numpy's scans did not overlap on two threads, so
    a call of at least 2 x ``_PART_MIN_CELLS`` cells (points times the sum
    of its d) splits its points across processes instead: one contiguous
    chunk per usable CPU, run by ``_split.map_parts`` (loaded by the first
    such call) here and in forked children.  Every value keeps its bits,
    since no value depends on the other points.

Every function accepts ``fractions.Fraction`` arguments and then evaluates
exactly; float arguments use double precision.  The exact mode works on
integer numerators over one shared denominator and forms a single Fraction
at the end: with x = a/q, L, K and I make one integer pass over
sum_j w_j f_n(j) a^j q^{m-j} with the weights 1, j and n - j, and the
delta_d tails keep one running numerator over a q^{2k}.  A Fraction loop
would reduce by a gcd at every operation instead.  L has three independent
evaluation routes (definition, alternating sum, quadrature) that are
cross-checked in the test suite.  The alternating route is evaluated
exactly in the same way, for float input too, because its raw
floating-point form cancels catastrophically already around n = 25; exact
I_d is as well.  A float input enters as its exact binary value, and one
division at the end forms the result.  The integers of the
alternating route that do not depend on x (the lcm denominator, the scale
n C(n+m, m) and the signed coefficients) are cached per (n, m), and the sum
is taken by Horner's rule in the numerator of x; a float's denominator is a
power of two, so its powers are shifts.  The quadrature route
integrates its polynomial integrand with the Gauss-Legendre rule whose node
count makes it exact for that degree, so it differs from the exact value
only by rounding; the nodes are the roots of the Legendre polynomial, found
by Newton's iteration on its three-term recurrence (Press et al., Numerical
Recipes, 3rd ed., 2007, section 4.6).

The float functions take whole grids.  L (every route), K and I take n, m
and x as 1-D numpy arrays of one length, a number standing for its value at
every point, and return an array; I_d takes equal-shape arrays of x and y
and one d, or a sequence of d, which gives a list with one result per d.
Each value equals bit for bit that of a call on its point alone, and a
float call on numbers is the one-point grid.  The float L, K and I share
one masked loop, ``_weighted_sum_float``, the twin of the exact pass.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from itertools import accumulate

import numpy as np

SQRT_PI = math.sqrt(math.pi)

# gamma must exceed 1/2 by at least this much for the delta_d closed form;
# the bounding constant diverges at gamma = 1/2.
DELTA_GAMMA_MARGIN = 1.0e-9

# C(2d-2, d-1) overflows double around d = 515, so float-mode I_d multiplies
# term ratios from (1-x)^d upwards and falls back to log-space terms where
# (1-x)^d underflows.  The log-space rounding grows with d (d logarithms of
# size up to ~700 are summed); float mode is capped where it was checked.
MAX_FLOAT_D = 1000

# doubles per buffer of float-mode I_d, each call holding three of them
# (3 x 256 KB): bounds the memory (a 2000-point grid at d = 1000 in one block
# would take 16 MB per buffer) while keeping numpy's per-call cost small next
# to the work of a block
_BLOCK_ELEMENTS = 1 << 15

# cells (points times the sum of the d) that each process of a split float
# I_d call must get.  A bare fork round trip (fork, pipe, exit, reap) takes
# 3.3 ms, but a split call in two took 4-15 ms (mostly 7-9 ms) more than
# half the serial time, at d = 20, 100, 400 and 1000 (2-CPU x86 host).
# I_d spends 23-39 ns per cell, so a second process saves 12-19 ns per
# cell, which pays for 8 ms from about 6.7e5 cells.  At 2^19 cells the
# split was 16-19% faster at d = 100 and 1000 but 10% slower at d = 400;
# at 2^20 cells it was 11-32% faster at every d.  So a call splits in two
# from 2 x 2^19 cells, and each further part needs 2^19 cells more.
_PART_MIN_CELLS = 1 << 19


def _require_int(value, name, minimum):
    # a plain int, the common case, passes one type test
    if type(value) is not int and (not isinstance(value, (int, np.integer))
                                   or isinstance(value, bool)):
        raise ValueError(f"{name} must be an integer")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return int(value)


def _require_unit(x):
    # written so that a NaN, which fails every comparison, is rejected
    if not (0 <= x <= 1):
        raise ValueError("x must lie in [0, 1]")


def _is_exact(x) -> bool:
    return isinstance(x, (Fraction, int)) and not isinstance(x, bool)


def f_coeff(j: int, k: int) -> int:
    """Coefficient f_j(k) = C(j-1+k, k), exact integer."""
    if type(j) is int and type(k) is int and j >= 1 and k >= 0:
        return math.comb(j - 1 + k, k)  # plain ints in range, the common case
    j = _require_int(j, "j", 1)
    k = _require_int(k, "k", 0)
    return math.comb(j - 1 + k, k)


def f_table(max_j: int, max_k: int):
    """Table f[j][k] for j = 1..max_j, k = 0..max_k via the recurrence.

    Row k+1 is the column-wise prefix sum of row k; returned as a dict keyed
    by j so the 1-based level index stays explicit.  Used as the independent
    cross-check of the closed binomial form.
    """
    max_j = _require_int(max_j, "max_j", 1)
    max_k = _require_int(max_k, "max_k", 0)
    rows = {j: [1] for j in range(1, max_j + 1)}
    prev = [1] * max_j
    for _ in range(max_k):
        acc = 0
        nxt = []
        for j in range(max_j):
            acc += prev[j]
            nxt.append(acc)
            rows[j + 1].append(acc)
        prev = nxt
    return rows


def _weighted_sum_exact(n, m, x, w0, w1):
    """(1-x)^n sum_{j<=m} (w0 + w1 j) f_n(j) x^j for exact x, as the
    integers (numerator, denominator) of one fraction.

    With x = a/q the sum is (q-a)^n S / q^{n+m}, S = sum_j (w0 + w1 j) g_j
    q^{m-j} with g_j = f_n(j) a^j, summed by Horner's rule in q.  Each g_j
    follows from the last by an exact integer division, since
    f_n(j) (n+j) = (j+1) f_n(j+1).
    """
    a, q = x.numerator, x.denominator
    s = 0
    g = 1  # f_n(j) a^j
    for j in range(m + 1):
        s = s * q + (w0 + w1 * j) * g
        g = g * (n + j) * a // (j + 1)
    return (q - a) ** n * s, q ** (n + m)


def _weighted_sum_float(n, m, x, w0, w1):
    """(1-x)^n sum_{j<=m} (w0 + w1 j) f_n(j) x^j at each point of the
    equal-length 1-D arrays n, m (integers) and x (floats); ``w0`` is a
    number or an array over the points.

    The float twin of ``_weighted_sum_exact``: each term f_n(j) x^j follows
    from the last as term x (n+j-1) / j.  A lane updates its term and its
    sum only while j <= its own m: its sum stops at its order, and its term,
    frozen there, can neither overflow nor warn while other lanes go on.
    (1-x)^n is Python's float power, one point at a time, which numpy's need
    not round like.  Each value has the bits
    of the scalar loop term = term x (n+j-1) / j, acc = acc + w_j term on
    its own point.
    """
    nf = n.astype(np.float64)
    term = np.ones(len(x))
    acc = np.zeros(len(x)) + w0
    weighted = np.empty(len(x))
    for j in range(1, int(m.max(initial=0)) + 1):
        live = j <= m
        np.multiply(term, x, out=term, where=live)
        np.multiply(term, nf + (j - 1), out=term, where=live)
        np.divide(term, j, out=term, where=live)
        np.multiply(w0 + w1 * j, term, out=weighted, where=live)
        np.add(acc, weighted, out=acc, where=live)
    start = [v ** k for v, k in zip((1.0 - x).tolist(), n.tolist())]
    return np.array(start) * acc


@functools.cache
def _alternating_coefficients(n, m):
    """The x-independent integers of the alternating route of L(n, m, .):
    D = lcm(m+1, ..., m+n), n C(n+m, m), and c_l = (-1)^l C(n-1, l) D/(m+l+1)
    for l = n-1 down to 0, the order in which Horner's rule takes them."""
    lcm = math.lcm(*range(m + 1, m + n + 1))
    coeffs, binom = [], 1  # binom = C(n-1, l)
    for l in range(n):
        c = binom * (lcm // (m + l + 1))
        coeffs.append(-c if l % 2 else c)
        binom = binom * (n - 1 - l) // (l + 1)
    return lcm, n * math.comb(n + m, m), tuple(reversed(coeffs))


def _alternating_point(n, m, x):
    """1 - n C(n+m, m) x^{m+1} sum_l C(n-1, l) (-x)^l / (m+l+1), exactly.

    The sum alternates with huge binomial terms; it is only meaningful in
    exact arithmetic.  With x = a/q (for a float its exact binary value, so
    q is a power of two) and the cached integers of
    ``_alternating_coefficients``, the sum is the integer
    S = sum_l c_l a^l q^{n-1-l} over D q^{n-1}, so
    L = (D q^{n+m} - n C(n+m, m) a^{m+1} S) / (D q^{n+m}).  S is summed by
    Horner's rule in a; for q = 2^e each power of q is a shift by e bits.
    The quotient is formed once: a Fraction for exact input, else the
    correctly rounded integer division, which rounds like float(Fraction).
    """
    a, q = x.as_integer_ratio()
    lcm, scale, coeffs = _alternating_coefficients(n, m)
    s = 0
    if q & (q - 1) == 0:  # every float; shifts beat the multiply loop below
        e = q.bit_length() - 1
        for k, c in enumerate(coeffs):  # c = c_l with k = n-1-l
            s = s * a + (c << (e * k))
        den = lcm << (e * (n + m))
    else:
        q_k = 1  # q^k with k = n-1-l
        for c in coeffs:
            s = s * a + c * q_k
            q_k *= q
        den = lcm * q ** (n + m)
    num = den - scale * a ** (m + 1) * s
    return Fraction(num, den) if _is_exact(x) else num / den


def _l_alternating(n, m, x):
    """The alternating route at every point of a grid."""
    return np.array([_alternating_point(*point)
                     for point in zip(n.tolist(), m.tolist(), x.tolist())])


@functools.cache
def _gauss_legendre(count):
    """Nodes and weights of the count-point Gauss-Legendre rule on [-1, 1].

    Each positive node is a root of P_count found by Newton's iteration from
    the usual cosine guess, with P_count and P_count' from the three-term
    recurrence (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}; its weight is
    2 / ((1 - x^2) P_count'(x)^2).  The negative nodes mirror them.
    """
    def legendre(x):
        """(P_count(x), P_count'(x))."""
        p_prev, p = 1.0, x
        for k in range(1, count):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        return p, count * (x * p - p_prev) / (x * x - 1.0)

    nodes, weights = [], []
    for i in range((count + 1) // 2):
        # the middle root of an odd count is 0 exactly
        x = 0.0 if 2 * i + 1 == count else math.cos(math.pi * (i + 0.75) / (count + 0.5))
        for _ in range(100):
            p, dp = legendre(x)
            step = p / dp
            x -= step
            if abs(step) <= 1.0e-15:
                break
        _, dp = legendre(x)
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    mirror = count // 2
    return (np.array([-x for x in nodes[:mirror]] + nodes[::-1]),
            np.array(weights[:mirror] + weights[::-1]))


def _quadrature_points(n, m, x):
    """1 - n C(n+m, m) times the integral of t^m (1-t)^{n-1} on [0, x], at
    each point of the 1-D float array x.

    The integrand is a polynomial of degree m + n - 1, which the Gauss-Legendre
    rule with floor((n+m)/2) + 1 nodes integrates exactly up to rounding.
    The elementwise part runs on one (len(x), nodes) array, and each point
    keeps its own ``weights @ row``, so that no batched product changes the
    summation order and each value has the bits of its one-point call.
    """
    nodes, weights = _gauss_legendre((n + m) // 2 + 1)
    scale = n * math.comb(n + m, m)
    half = 0.5 * x
    t = half[:, None] * (nodes + 1.0)
    rows = t ** m * (1.0 - t) ** (n - 1)
    return np.array([1.0 - scale * (h * float(weights @ row))
                     for h, row in zip(half.tolist(), rows)])


def _l_quadrature(n, m, x):
    """The quadrature route at every point of a grid: one array pass of
    ``_quadrature_points`` per (n, m) on its points."""
    groups = {}
    for i, order in enumerate(zip(n.tolist(), m.tolist())):
        groups.setdefault(order, []).append(i)
    out = np.empty(len(x))
    for (n_k, m_k), points in groups.items():
        out[points] = _quadrature_points(n_k, m_k, x[points])
    return out


def _grid(n, m, x):
    """n, m and x of a grid call as 1-D arrays (int64, int64, float64) of one
    length, a number repeated at every point."""
    n, m, x = np.asarray(n), np.asarray(m), np.asarray(x, dtype=np.float64)
    lengths = {len(a) for a in (n, m, x) if a.ndim}
    if max(n.ndim, m.ndim, x.ndim) > 1 or len(lengths) != 1:
        raise ValueError("n, m and x must be numbers or 1-D arrays of one length")
    if n.dtype.kind not in "iu" or m.dtype.kind not in "iu":
        raise ValueError("n and m must be integers")
    (size,) = lengths
    n, m, x = (a if a.ndim else np.full(size, a) for a in (n.astype(np.int64),
                                                            m.astype(np.int64), x))
    if not (np.all(n >= 1) and np.all(m >= 0)):
        raise ValueError("n must be >= 1 and m >= 0")
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError("x must lie in [0, 1]")
    return n, m, x


def _evaluate(n, m, x, exact, on_grid):
    """The front of L, K and I: ``exact(n, m, x)`` for numbers n, m and an
    exact x, else ``on_grid`` on the arrays of ``_grid``, whose one point a
    float call returns as a float."""
    # numbers have no ndim; a numpy scalar's is 0
    if getattr(n, "ndim", 0) or getattr(m, "ndim", 0) or getattr(x, "ndim", 0):
        return on_grid(*_grid(n, m, x))
    n = _require_int(n, "n", 1)
    m = _require_int(m, "m", 0)
    _require_unit(x)
    if exact is not None and _is_exact(x):
        return exact(n, m, x)
    return float(on_grid(np.array([n]), np.array([m]), np.array([float(x)]))[0])


# route -> (its exact form, its grid form); the quadrature route is float only
_L_ROUTES = {
    "definition": (lambda n, m, x: Fraction(*_weighted_sum_exact(n, m, x, 1, 0)),
                   lambda n, m, x: _weighted_sum_float(n, m, x, 1, 0)),
    "alternating": (_alternating_point, _l_alternating),
    "quadrature": (None, _l_quadrature),
}


def L_eval(n, m, x, route: str = "definition"):
    """L(n, m, x) = (1-x)^n sum_{j=0}^m f_n(j) x^j via the chosen route.

    L(n, m, 0) = 1 and L(n, m, 1) = 0 for every n >= 1, m >= 0.  Every route
    takes a grid as well: n, m and x as 1-D arrays of one length (or
    numbers, repeated at every point), evaluated in floats and returned as
    an array, each value equal bit for bit to that of a call on its point.
    """
    try:
        exact, on_grid = _L_ROUTES[route]
    except KeyError:
        raise ValueError(f"unknown route {route!r}; pick one of {sorted(_L_ROUTES)}")
    return _evaluate(n, m, x, exact, on_grid)


def K_eval(n, m, x):
    """K(n, m, x) = ((1-x)^n / n) sum_{j=0}^m j f_n(j) x^j.

    Satisfies K = x L / (1-x) + (x/n) dL/dx.  Takes a grid as ``L_eval``
    does.
    """
    return _evaluate(n, m, x, lambda n, m, x: Fraction(*_weighted_sum_exact(n, m, x, 0, 1)) / n,
                     lambda n, m, x: _weighted_sum_float(n, m, x, 0, 1) / n)


def I_nm_eval(n, m, x):
    """I(n, m, x) = ((1-x)^n / n) sum_{j=0}^m (n-j) f_n(j) x^j = L - K.

    Takes a grid as ``L_eval`` does.
    """
    return _evaluate(n, m, x, lambda n, m, x: Fraction(*_weighted_sum_exact(n, m, x, n, -1)) / n,
                     lambda n, m, x: _weighted_sum_float(n, m, x, n, -1) / n)


def delta_d(d: int, gamma):
    """Catalan tail sum_{n>=d} cat(n) [gamma(1-gamma)]^n for gamma in (1/2, 1).

    Evaluated by the exact finite identity: the full series equals
    (1-gamma)/gamma, so the tail is that total minus the first d-1 terms.
    delta_1 is the full series; the tail is strictly decreasing in d.
    Fraction input gives the exact rational value, formed once.
    """
    if _is_exact(gamma):
        return _delta_exact(d, gamma, every=False)[-1]
    return delta_d_column(d, gamma)[-1]


def delta_d_column(d_max: int, gamma) -> list:
    """[delta_d(1, gamma), ..., delta_d(d_max, gamma)] from one running
    subtraction; entry d-1 is the value after d-1 subtractions, which is
    ``delta_d(d, gamma)`` bit for bit."""
    if _is_exact(gamma):
        return _delta_exact(d_max, gamma, every=True)
    d_max = _require_delta_domain(d_max, gamma)
    z = gamma * (1.0 - gamma)
    acc = (1.0 - gamma) / gamma
    tails = [acc]
    term = z  # catalan(n) z^n, starting at n = 1
    for n in range(1, d_max):
        acc = acc - term
        tails.append(acc)
        term = term * z * (2 * (2 * n + 1)) / (n + 2)
    return tails


def _require_delta_domain(d, gamma):
    d = _require_int(d, "d", 1)
    if not (0.5 + DELTA_GAMMA_MARGIN < float(gamma) < 1.0):
        raise ValueError("gamma must lie in (1/2, 1), strictly above 1/2")
    return d


def _delta_exact(d_max, gamma, every):
    """The exact tails delta_1 .. delta_{d_max} at gamma = a/q on integers:
    every one if ``every``, else only the last.

    With w = a(q-a), so that gamma(1-gamma) = w/q^2, the tail after k
    subtractions is N_k / (a q^{2k}) with N_0 = q - a and
    N_k = N_{k-1} q^2 - a cat(k) w^k.  The term a cat(k) w^k follows from
    the last by an exact integer division, since
    cat(k) 2(2k+1) = (k+2) cat(k+1); a Fraction is formed only for an
    entry that is returned.
    """
    d_max = _require_delta_domain(d_max, gamma)
    a, q = gamma.numerator, gamma.denominator
    w, q2 = a * (q - a), q * q
    num, den = q - a, a
    tails = [Fraction(num, den)] if every else []
    term = a * w  # a cat(k) w^k, starting at k = 1
    for k in range(1, d_max):
        num = num * q2 - term
        den *= q2
        if every:
            tails.append(Fraction(num, den))
        term = term * w * (2 * (2 * k + 1)) // (k + 2)
    return tails if every else [Fraction(num, den)]


def catalan_tail_bound(d: int, gamma) -> float:
    """Explicit upper bound (4 gamma(1-gamma))^d / (sqrt(pi) d^{3/2} (2 gamma - 1)^2).

    Bounds delta_d(gamma); derived from Stirling asymptotics, so it is only
    asserted for d >= 10 in the test suite.
    """
    d = _require_int(d, "d", 1)
    g = float(gamma)
    if not (0.5 < g < 1.0):
        raise ValueError("gamma must lie in (1/2, 1)")
    return (4.0 * g * (1.0 - g)) ** d / (SQRT_PI * d ** 1.5 * (2.0 * g - 1.0) ** 2)


def _term_ratios(out, x, num, den):
    """Fill the rows of ``out`` (n, d) with the term ratios
    x (d + k - 1) / k at columns k = 1..d-1, one row per x, and 1.0 at
    column 0.  ``num`` and ``den`` are the float rows d + k - 1 and k, with
    den[0] = 1 so that column 0, overwritten, raises no division by zero.
    The rows are copies of ``num`` scaled in place by x, since a row copy
    and an in-place multiply by a column are faster than one outer product;
    IEEE multiplication commutes, so num x has the bits of x num."""
    out[:] = num
    out *= x[:, None]
    np.divide(out, den, out=out)
    out[:, 0] = 1.0
    return out


def _geometric_terms_float(out, x, t0, num, den):
    """Rows of terms f_d(k) x^k (1-x)^d, k = 0..d-1, one row per x, from
    the start terms ``t0`` = (1-x)^d times the cumulative product of the
    term ratios along the contiguous last axis.  Column 0 starts at 1.0, and
    1.0 r_1 = r_1 exactly, so every product has the bits it would have
    without it."""
    _term_ratios(out, x, num, den)
    np.cumprod(out, axis=1, out=out)
    np.multiply(t0[:, None], out, out=out)
    return out


def _log_terms_float(out, x, num, den):
    """The rows of ``_geometric_terms_float`` from their logarithms,
    d log1p(-x) + cumsum(log ratio), for start terms that underflow.  Column
    0 holds log 1.0 = 0.  The ratios of x = 0 are 0, whose logarithm -inf
    numpy flags as a division by zero; that flag is expected and silenced
    here alone."""
    _term_ratios(out, x, num, den)
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    np.cumsum(out, axis=1, out=out)
    out += out.shape[1] * np.log1p(-x)[:, None]
    return np.exp(out, out=out)


def _I_d_rows(tx, ty, q, ks, ks1):
    """I_d of each row pair of terms; overwrites ``tx``, ``ty`` and ``q``,
    an array of their shape.

    With prefix sums P_k of tx_k and Q_k of k tx_k along the last axis, the
    value is sum_j ty_j ((d - j) P_{d-1-j} - Q_{d-1-j}) / d, a pairwise row
    sum.  The bracket is formed in place at k = d-1-j, where d - j = k + 1;
    ``ks`` and ``ks1`` are the float rows k and k + 1.
    """
    np.multiply(ks, tx, out=q)
    np.cumsum(q, axis=1, out=q)
    np.cumsum(tx, axis=1, out=tx)
    np.multiply(ks1, tx, out=tx)
    tx -= q
    ty *= tx[:, ::-1]
    return np.sum(ty, axis=1) / tx.shape[1]


def _I_d_float(ds, x, y):
    """I_d at each point of the 1-D arrays x, y, one array per d of ``ds``;
    each d runs in blocks of rows.

    The call allocates two flat buffers once, and each d views them as
    (2 rows, d) and (rows, d), rows = min(len(x), ``_BLOCK_ELEMENTS`` // d):
    the first holds the x terms of a block above its y terms, so that each
    pass over the terms is one numpy call, and the second is the scratch of
    ``_I_d_rows``.  Every block runs inside them with ``out=``; the float
    rows k, k + 1 and d + k - 1 and the divisor row of ``_term_ratios`` are
    built once per d.
    A row whose start terms are normal doubles is evaluated directly: each
    cumulative product of its ratios is a term over its start term, so it
    stays below 1 / sys.float_info.min and cannot overflow.  The other rows
    take the log-space terms, in the same buffers.  Terms may underflow to
    subnormals or 0, past the smallest double; nothing overflows, divides by
    zero or turns invalid.
    """
    one_minus_x, one_minus_y = (1.0 - x).tolist(), (1.0 - y).tolist()
    block_rows = [max(1, min(len(x), _BLOCK_ELEMENTS // d)) for d in ds]
    cells = max((rows * d for rows, d in zip(block_rows, ds)), default=0)
    terms_buffer, q_buffer = np.empty(2 * cells), np.empty(cells)
    out = []
    for d, rows in zip(ds, block_rows):
        terms = terms_buffer[:2 * rows * d].reshape(2 * rows, d)
        q = q_buffer[:rows * d].reshape(rows, d)
        ks = np.arange(d, dtype=np.float64)
        ks1 = ks + 1.0
        num = ks + (d - 1.0)
        den = np.maximum(ks, 1.0)  # k, with 1 at k = 0
        # Python's float power, which numpy's need not round like
        t0x = np.array([v ** d for v in one_minus_x])
        t0y = np.array([v ** d for v in one_minus_y])
        normal = (t0x >= sys.float_info.min) & (t0y >= sys.float_info.min)
        values = np.empty(len(x))
        for lo in range(0, len(x), rows):
            block = slice(lo, lo + rows)
            bx, by, ok, val = x[block], y[block], normal[block], values[block]
            # a block of direct rows alone is sliced by views, not mask copies
            direct = slice(None) if ok.all() else ok
            n = int(ok.sum())
            both = _geometric_terms_float(
                terms[:2 * n], np.concatenate((bx[direct], by[direct])),
                np.concatenate((t0x[block][direct], t0y[block][direct])), num, den)
            val[direct] = _I_d_rows(both[:n], both[n:], q[:n], ks, ks1)
            if n < len(bx):
                n = len(bx) - n
                both = _log_terms_float(terms[:2 * n],
                                        np.concatenate((bx[~ok], by[~ok])), num, den)
                val[~ok] = _I_d_rows(both[:n], both[n:], q[:n], ks, ks1)
        out.append(values)
    return out


def _I_d_parts(ds, x, y, parts):
    """``_I_d_float(ds, x, y)`` with the points cut into ``parts`` contiguous
    chunks, which ``_split.map_parts`` runs on ``parts`` processes."""
    from . import _split

    bounds = [len(x) * k // parts for k in range(parts + 1)]
    chunks = _split.map_parts(lambda part: _I_d_float(ds, x[part], y[part]),
                              [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])],
                              parts)
    return [np.concatenate(values) for values in zip(*chunks)]


def _I_d_parallel(ds, x, y):
    """``_I_d_float(ds, x, y)``, split by ``_I_d_parts`` into one part per
    usable CPU when each part gets at least ``_PART_MIN_CELLS`` cells
    (points times the sum of ``ds``)."""
    parts = min(len(x), len(x) * sum(ds) // _PART_MIN_CELLS)
    if parts >= 2:
        # loaded by the first call large enough, so that every other
        # process imports and compiles only the serial kernel
        from . import _split
        parts = min(parts, _split.usable_cpus())
        if parts >= 2:
            return _I_d_parts(ds, x, y, parts)
    return _I_d_float(ds, x, y)


def _I_d_exact(d, x, y):
    """I_d of exact x and y on integers, with one Fraction at the end.

    With x = a/q and y = b/r, the terms f_d(k) x^k (1-x)^d are
    (q-a)^d u_k / q^{2d-1} with the integers u_k = f_d(k) a^k q^{d-1-k},
    and likewise for y, so

        I_d = (q-a)^d (r-b)^d T / (d q^{2d-1} r^{2d-1}),
        T = sum_j f_d(j) b^j r^{d-1-j} B_{d-1-j},

    where B_k = sum_{i<=k} (k+1-i) u_i is the bracket (k+1) P_k - Q_k of the
    float form: the running sum of the prefix sums of u.  T is summed by
    Horner in r, so each step multiplies by r, not by a power of it.
    """
    xq, yq = Fraction(x), Fraction(y)
    a, q = xq.numerator, xq.denominator
    b, r = yq.numerator, yq.denominator
    u = [q ** (d - 1)]
    for k in range(d - 1):
        # exact: u_k (d+k) a = (k+1) f_d(k+1) a^{k+1} q^{d-1-k}
        u.append(u[-1] * (d + k) * a // ((k + 1) * q))
    total = 0
    g = 1  # f_d(j) b^j
    for j, bracket in enumerate(reversed(list(accumulate(accumulate(u))))):
        total = total * r + g * bracket
        g = g * (d + j) * b // (j + 1)
    return Fraction((q - a) ** d * (r - b) ** d * total,
                    d * q ** (2 * d - 1) * r ** (2 * d - 1))


def I_d_eval(d, x, y):
    """Double sum (1/d) sum_{j+k<=d-1} (d-j-k) f_d(k) x^k f_d(j) y^j (1-x)^d (1-y)^d.

    Symmetric under swapping x and y.  Evaluated with prefix sums over the
    term recurrences, O(d) per point.  ``d`` is one memory dimension, or a
    sequence of them, which gives a list: the value of one call per d, in
    the sequence's order.  Fraction (or int) x and y give the
    exact rational value.  Otherwise x and y are floats or equal-shape
    float arrays: a scalar pair returns a float, arrays return an array of
    their shape.  Arrays are evaluated in row blocks in which each point
    gets the same floating-point operations, in the same order, as a call
    on that point alone.  A point whose start term (1-x)^d or (1-y)^d falls
    below the smallest normal double is evaluated from the logarithms of
    its terms instead, so float mode returns a finite value up to d = 1000.
    A float call of at least 2 x ``_PART_MIN_CELLS`` cells (points times
    the sum of its d; the comment on the constant derives it from the
    measured cost of a split) is split across processes when ``os.fork``
    exists and at least two CPUs are usable: the affinity mask, capped by
    the cgroup-v2 ``cpu.max`` quotas that can be read (``_split.usable_cpus``;
    1 in a forked child).  Its points are cut into one contiguous chunk per
    usable CPU (at most one per ``_PART_MIN_CELLS`` cells), which
    ``_split.map_parts`` runs here and in forked children.  The values are
    the same bits, and the call warns and raises as the serial call does;
    no child outlives it.  Every other call runs here alone.  Float mode
    rejects d > 1000; pass Fraction arguments for exact evaluation beyond
    that.  Exact mode works on integers whose size grows
    with d times the bits of the denominators; for a point taken from floats
    it takes about 0.6 s at d = 1000 and 3.4 s at d = 2000 (2-CPU x86 host),
    growing roughly as d^2.5.
    """
    scalar = not hasattr(d, "__iter__")
    ds = [_require_int(k, "d", 1) for k in ([d] if scalar else d)]
    if _is_exact(x) and _is_exact(y):
        if not (0 <= x < 1 and 0 <= y < 1):
            raise ValueError("x and y must lie in [0, 1)")
        values = [_I_d_exact(k, x, y) for k in ds]
        return values[0] if scalar else values
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape:
        raise ValueError(f"x and y must have equal shapes, got {xa.shape} and {ya.shape}")
    if not (np.all((xa >= 0.0) & (xa < 1.0)) and np.all((ya >= 0.0) & (ya < 1.0))):
        raise ValueError("x and y must lie in [0, 1)")
    if max(ds, default=0) > MAX_FLOAT_D:
        raise ValueError(
            f"d = {max(ds)} exceeds float-mode limit {MAX_FLOAT_D}; "
            "pass Fraction arguments for exact evaluation")
    values = [float(v[0]) if xa.ndim == 0 else v.reshape(xa.shape)
              for v in _I_d_parallel(ds, xa.ravel(), ya.ravel())]
    return values[0] if scalar else values
