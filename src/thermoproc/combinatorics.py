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
    extraction error, a mean over the law p_s of a sum S of two
    negative-binomial variables, which obeys a three-term recurrence in s
    (``_I_d_recurrence``): d steps per point, float or exact, with no
    oversized binomial.  Below d = ``_RECURRENCE_MIN_D`` a float point
    whose start terms (1-x)^d and (1-y)^d are normal doubles takes its two
    whole rows of terms instead, d cells each, whose bits the default
    outputs pin.  A float call works through those points in blocks of
    consecutive points inside two buffers allocated once and reused for
    every d of the call; each block's x rows lie above its y rows, so that
    one numpy call covers both, and what remains per term is elementwise
    work and sequential scans (a cumulative product per row, two cumulative
    sums per x row).  The recurrence runs all its points in one vectorised
    loop of d steps of 8 numpy calls, so its cost per call is d steps
    whatever the point count: 2000 points at d = 1000 take about 10 ms, one
    point about 4 ms (2-CPU x86 host).  On whole-row blocks numpy's scans
    did not overlap on two threads, so a call of at least
    2 x ``_PART_MIN_CELLS`` cells (points times the sum of its d) splits
    its points across processes instead: one strided chunk per usable CPU,
    run by ``_split.map_parts`` (loaded by the first such call) here and in
    forked children.  Every value keeps its bits, since no value depends on
    the other points.

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

import numpy as np

SQRT_PI = math.sqrt(math.pi)

# gamma must exceed 1/2 by at least this much for the delta_d closed form;
# the bounding constant diverges at gamma = 1/2.
DELTA_GAMMA_MARGIN = 1.0e-9

# the start term ((1-x)(1-y))^d of ``_I_d_recurrence`` is formed from the
# mantissa powers m^d (m >= 1/2), normal doubles only up to d = 1022.  Float
# mode is capped where it was checked against exact I_d.
MAX_FLOAT_D = 1000

# doubles per row kind (x or y) of a block of whole I_d rows, which hold d
# doubles each below ``_RECURRENCE_MIN_D``: bounds the memory of a call's
# buffers (3 x 256 KB) while keeping numpy's per-call cost small next to the
# work of a block
_BLOCK_ELEMENTS = 1 << 15

# cells (points times the sum of the d) that each process of a split float
# I_d call must get.  A bare fork round trip (fork, pipe, exit, reap) takes
# 3.3 ms, and a split call in two took 4-15 ms (mostly 7-9 ms) more than half
# the serial time.  Whole rows take 22-42 ns per cell (d = 20 to 400), and
# at those d the split was 22-30% faster at 2 x 2^19 cells and 13-41% faster
# at 2 x 2^20 (2-CPU x86 host, medians of 11, two runs).  The recurrence
# takes 5-7 ns per cell (2000 points at d = 500 and 1000) but counts its
# cells the same.  A call splits in two from 2 x 2^19 cells, and each
# further part needs 2^19 more.
_PART_MIN_CELLS = 1 << 19

# the smallest d at which every I_d point takes ``_I_d_recurrence``; below it
# a point takes its whole rows when both start terms are normal doubles.
# On 2000 fig2 points the recurrence is 2.7-3.9x faster (d = 20 to 400,
# 2-CPU x86 host), but the whole rows fix the bits of the default outputs
# (fig2.csv at d <= 20 and validation_report.json at d <= 400), which the
# benchmark's seed digests pin; once those are recorded anew, the whole
# rows can go.
_RECURRENCE_MIN_D = 500


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


def _whole_rows(d, x, y, start_x, start_y, buffers):
    """d I_d at each point of the 1-D arrays x, y on its whole rows: the
    terms f_d(k) q^k (1-q)^d of the x row and of the y row, k = 0..d-1, as
    the running product of the term ratios q (d + k - 1) / k, with column 0
    set to 1.0, times the start terms ``start_x`` and ``start_y``.  The x
    rows lie above the y rows, so that each pass over the terms is one numpy
    call, in the first of the two flat ``buffers``; the second holds the
    moments of ``_I_d_rows``."""
    k = len(x)
    terms = buffers[0][:2 * k * d].reshape(2 * k, d)
    den = np.maximum(np.arange(d, dtype=np.float64), 1.0)  # k, with 1 at k = 0
    terms[:] = den + (d - 1.0)
    # IEEE multiplication commutes, so (d + k - 1) q has the bits of q (d + k - 1)
    terms *= np.concatenate((x, y))[:, None]
    np.divide(terms, den, out=terms)
    terms[:, 0] = 1.0
    np.cumprod(terms, axis=1, out=terms)
    np.multiply(np.concatenate((start_x, start_y))[:, None], terms, out=terms)
    ks = np.arange(d, dtype=np.float64)
    return _I_d_rows(terms[:k], terms[k:], buffers[1][:k * d].reshape(k, d), ks, ks + 1.0)


def _I_d_rows(tx, ty, q, ks, ks1):
    """d I_d of each pair of whole rows; overwrites ``tx``, ``ty`` and
    ``q``, an array of their shape.

    With prefix sums P_k of tx_k and Q_k of k tx_k along the last axis, the
    value is sum_j ty_j ((d - j) P_{d-1-j} - Q_{d-1-j}), a pairwise row sum.
    The bracket is formed in place at k = d-1-j, where d - j = k + 1;
    ``ks`` and ``ks1`` are the float rows k and k + 1.
    """
    np.multiply(ks, tx, out=q)
    np.cumsum(q, axis=1, out=q)
    np.cumsum(tx, axis=1, out=tx)
    np.multiply(ks1, tx, out=tx)
    tx -= q
    ty *= tx[:, ::-1]
    return np.sum(ty, axis=1)


def _I_d_recurrence(d, x, y):
    """I_d at each point of the 1-D arrays x, y from the law p_s = P(S = s)
    of ``I_d_eval``'s sum S, d I_d = sum_{s<d} (d - s) p_s, by its
    three-term recurrence

        (s+1) p_{s+1} = (x+y) (s+d) p_s - xy (s-1+2d) p_{s-1},

    from p_0 = ((1-x)(1-y))^d and p_{-1} = 0: the generating function
    G(z) = p_0 / ((1-xz)(1-yz))^d obeys G' (1-xz)(1-yz) = d G (x+y - 2xyz).
    p_0 is a mantissa times a power of two: with 1 - q = m 2^e
    (m in [1/2, 1)), Python's float power m^d is a normal double up to
    d = 1022.  Every 32 steps the running values are rescaled by the power
    of two that brings the sum into [1/2, 1), so that nothing overflows.
    Before the mode of S, where the terms rise, a term is at least the sum
    over d^2; after it they fall, and those that underflow lie more than
    2^-1022 below the sum.  The subtracted term is at most half the first
    (at x = y it is s / (2 (s + d)) of it), each step rounds a few times,
    and p_0 carries the rounding of 1 - x and 1 - y to its d-th power:
    against exact I_d on fig2's line (beta E = 0.7) at d = 1000 the worst
    relative error was 0.93 d 2^-52, at W_0.  Every operation is
    elementwise, so each value has the bits of a call on its point alone.
    """
    if len(x) == 1:
        # numpy's in-place ufuncs took 2-3x longer on one element than on two
        return _I_d_recurrence(d, np.repeat(x, 2), np.repeat(y, 2))[:1]
    mantissa, exponent = np.ones(len(x)), np.zeros(len(x), dtype=np.int64)
    for q in (x, y):
        m, e = np.frexp(1.0 - q)
        m, e_d = np.frexp([v ** d for v in m.tolist()])
        mantissa *= m
        exponent += d * e + e_d
    lin, quad = x + y, x * y
    prev, cur, total, term = np.zeros(len(x)), mantissa, np.zeros(len(x)), np.empty(len(x))
    # ufuncs with out= and float operands: numpy's cheapest calls, which set
    # the cost of a call on few points
    for s in range(d):
        np.multiply(cur, float(d - s), out=term)
        np.add(total, term, out=total)
        if s % 32 == 31:
            shift = np.frexp(total)[1]
            for v in (total, cur, prev):
                np.ldexp(v, -shift, out=v)
            exponent += shift
        np.multiply(prev, quad, out=prev)
        np.multiply(prev, float(s - 1 + 2 * d), out=prev)
        np.multiply(cur, lin, out=term)
        np.multiply(term, float(s + d), out=term)
        np.subtract(term, prev, out=prev)
        np.divide(prev, float(s + 1), out=prev)
        prev, cur = cur, prev
    return np.ldexp(total, exponent) / d


def _I_d_float(ds, x, y):
    """I_d at each point of the 1-D arrays x, y, one array per d of ``ds``.

    Below ``_RECURRENCE_MIN_D`` a point whose start terms, Python's
    (1-x)^d and (1-y)^d, are both normal doubles takes its whole rows
    (``_whole_rows``), in blocks of consecutive points of at most
    ``_BLOCK_ELEMENTS`` cells per row kind inside two buffers allocated
    once for the call; every other point takes ``_I_d_recurrence``.  No
    row's bits depend on the other rows, so each value is that of a call on
    its point alone.  Terms may underflow to subnormals or 0, past the
    smallest double; nothing overflows, divides by zero or turns invalid.
    """
    n = len(x)
    one_minus_x, one_minus_y = (1.0 - x).tolist(), (1.0 - y).tolist()
    cells = max(1, min(_BLOCK_ELEMENTS, n * max(ds, default=1)))
    buffers = np.empty(2 * cells), np.empty(cells)
    out = []
    for d in ds:
        values = np.empty(n)
        whole = np.zeros(n, dtype=bool)
        if d < _RECURRENCE_MIN_D:
            # Python's float power, which numpy's need not round like
            start_x = np.array([v ** d for v in one_minus_x])
            start_y = np.array([v ** d for v in one_minus_y])
            whole = (start_x >= sys.float_info.min) & (start_y >= sys.float_info.min)
            points = np.flatnonzero(whole)
            step = max(1, cells // d)
            for at in range(0, len(points), step):
                block = points[at:at + step]
                values[block] = _whole_rows(d, x[block], y[block], start_x[block],
                                            start_y[block], buffers) / d
        rest = np.flatnonzero(~whole)
        if len(rest):
            values[rest] = _I_d_recurrence(d, x[rest], y[rest])
        out.append(values)
    return out


def _I_d_parts(ds, x, y, parts):
    """``_I_d_float(ds, x, y)`` with the points dealt into ``parts`` strided
    chunks, every ``parts``-th point from the k-th on, which
    ``_split.map_parts`` runs on ``parts`` processes.  A point's row kind
    (whole rows or the recurrence, by its start terms) sets its cost, which
    may vary along a grid, and each strided chunk draws from the whole
    grid."""
    from . import _split

    cuts = [slice(k, None, parts) for k in range(parts)]
    chunks = _split.map_parts(lambda part: _I_d_float(ds, x[part], y[part]), cuts, parts)
    out = [np.empty(len(x)) for _ in ds]
    for part, values in zip(cuts, chunks):
        for whole, chunk in zip(out, values):
            whole[part] = chunk
    return out


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

    With x = a/q and y = b/r, the integers N_s = (p_s / p_0) (qr)^s of the
    law of ``_I_d_recurrence`` obey

        (s+1) N_{s+1} = (ar + bq) (s+d) N_s - ab qr (s-1+2d) N_{s-1},

    each division exact, and
    I_d = ((q-a)(r-b))^d T / (d (qr)^{2d-1}), T = sum_{s<d} (d-s) N_s (qr)^{d-1-s},
    which Horner's rule sums in qr.
    """
    (a, q), (b, r) = Fraction(x).as_integer_ratio(), Fraction(y).as_integer_ratio()
    lin, quad = a * r + b * q, a * b * q * r
    prev, cur, total = 0, 1, 0
    for s in range(d):
        total = total * q * r + (d - s) * cur
        prev, cur = cur, (lin * (s + d) * cur - quad * (s - 1 + 2 * d) * prev) // (s + 1)
    return Fraction(((q - a) * (r - b)) ** d * total, d * (q * r) ** (2 * d - 1))


def I_d_eval(d, x, y):
    """Double sum (1/d) sum_{j+k<=d-1} (d-j-k) f_d(k) x^k f_d(j) y^j (1-x)^d (1-y)^d.

    f_d(k) x^k (1-x)^d is the probability that K = k, where K counts the
    failures before the d-th success at failure probability x: a
    negative-binomial law, the sum of d independent geometric variables G
    with P(G = k) = (1-x) x^k.  With J likewise for y,

        I_d = E[(1 - S/d)^+],  S = J + K,

    the mean of a function of the sum S of 2d independent geometric
    variables.  So I_1 = P(J = K = 0) = (1-x)(1-y); by Jensen's inequality
    I_d >= (1 - mu)^+ with mu = E[S]/d = x/(1-x) + y/(1-y); and, since
    S_{d+1}/(d+1) is the mean of its d+1 leave-one-out means, each
    distributed as S_d/d, the convex order gives I_{d+1} <= I_d (Shaked and
    Shanthikumar, Stochastic Orders, Springer, 2007, ch. 3).

    Symmetric under swapping x and y.  The law p_s = P(S = s) obeys a
    three-term recurrence (``_I_d_recurrence``; p_s is a D-finite sequence:
    R. P. Stanley, Europ. J. Combin. 1, 1980), and d I_d is the sum of
    (d - s) p_s over s < d: d steps per point, in float mode and, on
    integers, in exact mode.  ``d`` is one memory dimension, or a
    sequence of them, which gives a list: the value of one call per d, in
    the sequence's order.  Fraction (or int) x and y give the
    exact rational value.  Otherwise x and y are floats or equal-shape
    float arrays: a scalar pair returns a float, arrays return an array of
    their shape.  Each point gets the same floating-point operations, in
    the same order, as a call on that point alone.  Below
    d = ``_RECURRENCE_MIN_D`` a point whose start terms, Python's (1-x)^d
    and (1-y)^d, are normal doubles takes its two whole rows of d terms,
    the pmfs of J and K, with prefix sums over the term recurrences; those
    rows fix the bits of the default outputs.  Every other point, all of
    them from d = 500, takes the recurrence, whose start term is a product
    of mantissas and a power of two, so float mode returns a finite value
    up to d = 1000.  The recurrence costs d numpy steps per call, whatever
    its point count: a call on one point at d = 1000 takes about 4 ms.
    A float call of at least 2 x ``_PART_MIN_CELLS`` cells (points times
    the sum of its d; the comment on the constant derives it from the
    measured cost of a split) is split across processes when ``os.fork``
    exists and at least two CPUs are usable: the affinity mask, capped by
    the cgroup-v2 ``cpu.max`` quotas that can be read (``_split.usable_cpus``;
    1 in a forked child).  Its points are dealt into one strided chunk per
    usable CPU (at most one per ``_PART_MIN_CELLS`` cells), which
    ``_split.map_parts`` runs here and in forked children.  The values are
    the same bits, and the call warns and raises as the serial call does;
    no child outlives it.  Every other call runs here alone.  Float mode
    rejects d > 1000; pass Fraction arguments for exact evaluation beyond
    that.  Exact mode works on integers whose size grows
    with d times the bits of the denominators; for a point taken from floats
    it takes about 0.13 s at d = 1000 and 0.5 s at d = 2000 (2-CPU x86
    host), growing roughly as d^2.
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
