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
    oversized binomial is ever formed in float mode.

Every function accepts ``fractions.Fraction`` arguments and then evaluates
exactly; float arguments use double precision.  L has three independent
evaluation routes (definition, alternating sum, quadrature) that are
cross-checked in the test suite.  The alternating route is evaluated
exactly, as integer numerators over one shared denominator, because its raw
floating-point form cancels catastrophically already around n = 25; exact
I_d is evaluated the same way.  A float input enters as its exact binary
value, and one division at the end forms the result.  The integers of the
alternating route that do not depend on x (the lcm denominator, the scale
n C(n+m, m) and the signed coefficients) are cached per (n, m), and the sum
is taken by Horner's rule in the numerator of x; a float's denominator is a
power of two, so its powers are shifts.  The quadrature route
integrates its polynomial integrand with the Gauss-Legendre rule whose node
count makes it exact for that degree, so it differs from the exact value
only by rounding; the nodes are the roots of the Legendre polynomial, found
by Newton's iteration on its three-term recurrence (Press et al., Numerical
Recipes, 3rd ed., 2007, section 4.6).  It takes an array of x as well, each
point with the bits of its own call.
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

# doubles per temporary array of one row block of float-mode I_d: bounds the
# memory (a 2000-point grid at d = 1000 in one block takes 16 MB per
# temporary) while keeping numpy's per-call cost small next to the work
_BLOCK_ELEMENTS = 1 << 15


def _require_int(value, name, minimum):
    # a plain int, the common case, passes one type test
    if type(value) is not int and (not isinstance(value, (int, np.integer))
                                   or isinstance(value, bool)):
        raise ValueError(f"{name} must be an integer")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return int(value)


def _is_exact(x) -> bool:
    return isinstance(x, (Fraction, int)) and not isinstance(x, bool)


def f_coeff(j: int, k: int) -> int:
    """Coefficient f_j(k) = C(j-1+k, k), exact integer."""
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


def _l_definition(n, m, x):
    one = Fraction(1) if _is_exact(x) else 1.0
    term = one
    acc = one
    for j in range(m):
        term = term * x * (n + j) / (j + 1)
        acc = acc + term
    return (one - x) ** n * acc


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


def _l_alternating(n, m, x):
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
    try:  # float, int, Fraction and numpy floats give their ratio directly
        a, q = x.as_integer_ratio()
    except AttributeError:  # numpy integers do not, and overflow in the sums
        a, q = int(x), 1
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


def _l_quadrature(n, m, x):
    """1 - n C(n+m, m) times the integral of t^m (1-t)^{n-1} on [0, x].

    The integrand is a polynomial of degree m + n - 1, which the Gauss-Legendre
    rule with floor((n+m)/2) + 1 nodes integrates exactly up to rounding.
    ``x`` is a float, the one-point case, or a 1-D float array: the
    elementwise part runs on one (len(x), nodes) array, and each point keeps
    its own ``weights @ row``, so that no batched product changes the
    summation order and each value has the bits of its one-point call.
    """
    if np.ndim(x) == 0:
        return float(_l_quadrature(n, m, np.array([float(x)]))[0])
    nodes, weights = _gauss_legendre((n + m) // 2 + 1)
    scale = n * math.comb(n + m, m)
    half = 0.5 * x
    t = half[:, None] * (nodes + 1.0)
    rows = t ** m * (1.0 - t) ** (n - 1)
    return np.array([1.0 - scale * (h * float(weights @ row))
                     for h, row in zip(half.tolist(), rows)])


_L_ROUTES = {
    "definition": _l_definition,
    "alternating": _l_alternating,
    "quadrature": _l_quadrature,
}


def L_eval(n: int, m: int, x, route: str = "definition"):
    """L(n, m, x) = (1-x)^n sum_{j=0}^m f_n(j) x^j via the chosen route.

    L(n, m, 0) = 1 and L(n, m, 1) = 0 for every n >= 1, m >= 0.  The
    quadrature route also takes a 1-D float array of x and returns an array,
    each value equal bit for bit to that of a call on its point.
    """
    n = _require_int(n, "n", 1)
    m = _require_int(m, "m", 0)
    if isinstance(x, np.ndarray) and x.ndim:
        if route != "quadrature" or x.ndim != 1:
            raise ValueError("only the quadrature route takes an array of x, "
                             "a 1-D one")
        if not np.all((x >= 0.0) & (x <= 1.0)):
            raise ValueError("x must lie in [0, 1]")
    elif not (0 <= x <= 1):
        raise ValueError("x must lie in [0, 1]")
    try:
        fn = _L_ROUTES[route]
    except KeyError:
        raise ValueError(f"unknown route {route!r}; pick one of {sorted(_L_ROUTES)}")
    return fn(n, m, x)


def K_eval(n: int, m: int, x):
    """K(n, m, x) = ((1-x)^n / n) sum_{j=0}^m j f_n(j) x^j.

    Satisfies K = x L / (1-x) + (x/n) dL/dx.
    """
    n = _require_int(n, "n", 1)
    m = _require_int(m, "m", 0)
    one = Fraction(1) if _is_exact(x) else 1.0
    term = one  # f_n(j) x^j, starting at j = 0
    acc = 0 * one
    for j in range(m):
        term = term * x * (n + j) / (j + 1)
        acc = acc + (j + 1) * term
    return (one - x) ** n * acc / n


def I_nm_eval(n: int, m: int, x):
    """I(n, m, x) = ((1-x)^n / n) sum_{j=0}^m (n-j) f_n(j) x^j = L - K."""
    n = _require_int(n, "n", 1)
    m = _require_int(m, "m", 0)
    one = Fraction(1) if _is_exact(x) else 1.0
    term = one
    acc = n * one
    for j in range(m):
        term = term * x * (n + j) / (j + 1)
        acc = acc + (n - j - 1) * term
    return (one - x) ** n * acc / n


def delta_d(d: int, gamma):
    """Catalan tail sum_{n>=d} cat(n) [gamma(1-gamma)]^n for gamma in (1/2, 1).

    Evaluated by the exact finite identity: the full series equals
    (1-gamma)/gamma, so the tail is that total minus the first d-1 terms.
    delta_1 is the full series; the tail is strictly decreasing in d.
    Fraction input gives the exact rational value.
    """
    return delta_d_column(d, gamma)[-1]


def delta_d_column(d_max: int, gamma) -> list:
    """[delta_d(1, gamma), ..., delta_d(d_max, gamma)] from one running
    subtraction; entry d-1 is the value after d-1 subtractions, which is
    ``delta_d(d, gamma)`` bit for bit."""
    d_max = _require_int(d_max, "d", 1)
    g = float(gamma)
    if not (0.5 + DELTA_GAMMA_MARGIN < g < 1.0):
        raise ValueError("gamma must lie in (1/2, 1), strictly above 1/2")
    one = Fraction(1) if _is_exact(gamma) else 1.0
    z = gamma * (one - gamma)
    acc = (one - gamma) / gamma
    tails = [acc]
    term = z  # catalan(n) z^n, starting at n = 1
    for n in range(1, d_max):
        acc = acc - term
        tails.append(acc)
        term = term * z * (2 * (2 * n + 1)) / (n + 2)
    return tails


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


def _term_ratios(d, x):
    """Rows (n, d) whose columns 1..d-1 hold the term ratios
    x (d + k - 1) / k, k = 1..d-1, one row per x; column 0 is left unset."""
    ks = np.arange(1, d, dtype=np.float64)
    out = np.empty((len(x), d))
    np.multiply(x[:, None], d + ks - 1.0, out=out[:, 1:])
    np.divide(out[:, 1:], ks, out=out[:, 1:])
    return out


def _geometric_terms_float(d, x, t0):
    """Rows of terms f_d(k) x^k (1-x)^d, k = 0..d-1, one row per x, from
    the start terms ``t0`` = (1-x)^d by a cumulative product of the term
    ratios along the contiguous last axis."""
    out = _term_ratios(d, x)
    out[:, 0] = t0
    tail = out[:, 1:]
    np.cumprod(tail, axis=1, out=tail)
    np.multiply(t0[:, None], tail, out=tail)
    return out


def _log_terms_float(d, x):
    """The rows of ``_geometric_terms_float`` from their logarithms,
    d log1p(-x) + cumsum(log ratio), for start terms that underflow."""
    out = _term_ratios(d, x)
    out[:, 0] = 0.0
    tail = out[:, 1:]
    zero = tail == 0.0  # the ratios of x = 0
    np.log(tail, out=tail, where=~zero)
    tail[zero] = -np.inf
    np.cumsum(out, axis=1, out=out)
    out += d * np.log1p(-x)[:, None]
    return np.exp(out, out=out)


def _I_d_rows(d, tx, ty):
    """I_d of each row pair of terms; overwrites both.

    With prefix sums P_k of tx_k and Q_k of k tx_k along the last axis, the
    value is sum_j ty_j ((d - j) P_{d-1-j} - Q_{d-1-j}) / d, a pairwise row
    sum.  The bracket is formed in place at k = d-1-j, where d - j = k + 1.
    """
    ks = np.arange(d)
    q = ks * tx
    np.cumsum(q, axis=1, out=q)
    np.cumsum(tx, axis=1, out=tx)
    np.multiply(ks + 1, tx, out=tx)
    tx -= q
    ty *= tx[:, ::-1]
    return np.sum(ty, axis=1) / d


def _I_d_float(d, x, y):
    """I_d at each point of the 1-D arrays x, y, in blocks of rows whose
    temporaries hold at most ``_BLOCK_ELEMENTS`` doubles each.

    A row whose start terms are normal doubles is evaluated directly: each
    cumulative product of its ratios is a term over its start term, so it
    stays below 1 / sys.float_info.min and cannot overflow.  The other rows
    take the log-space terms.
    """
    out = np.empty(len(x))
    step = max(1, _BLOCK_ELEMENTS // d)
    for lo in range(0, len(x), step):
        bx, by = x[lo:lo + step], y[lo:lo + step]
        # Python's float power, which numpy's need not round like
        t0x = np.array([v ** d for v in (1.0 - bx).tolist()])
        t0y = np.array([v ** d for v in (1.0 - by).tolist()])
        ok = (t0x >= sys.float_info.min) & (t0y >= sys.float_info.min)
        val = out[lo:lo + step]
        val[ok] = _I_d_rows(d, _geometric_terms_float(d, bx[ok], t0x[ok]),
                            _geometric_terms_float(d, by[ok], t0y[ok]))
        if not ok.all():
            val[~ok] = _I_d_rows(d, _log_terms_float(d, bx[~ok]),
                                 _log_terms_float(d, by[~ok]))
    return out


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


def I_d_eval(d: int, x, y):
    """Double sum (1/d) sum_{j+k<=d-1} (d-j-k) f_d(k) x^k f_d(j) y^j (1-x)^d (1-y)^d.

    Symmetric under swapping x and y.  Evaluated with prefix sums over the
    term recurrences, O(d) per point.  Fraction (or int) x and y give the
    exact rational value.  Otherwise x and y are floats or equal-shape
    float arrays: a scalar pair returns a float, arrays return an array of
    their shape.  Arrays are evaluated in row blocks in which each point
    gets the same floating-point operations, in the same order, as a call
    on that point alone.  A point whose start term (1-x)^d or (1-y)^d falls
    below the smallest normal double is evaluated from the logarithms of
    its terms instead, so float mode returns a finite value up to d = 1000.
    Float mode rejects d > 1000; pass Fraction arguments for exact
    evaluation beyond that.  Exact mode works on integers whose size grows
    with d times the bits of the denominators; for a point taken from floats
    it takes about 0.6 s at d = 1000 and 3.4 s at d = 2000 (2-CPU x86 host),
    growing roughly as d^2.5.
    """
    d = _require_int(d, "d", 1)
    if _is_exact(x) and _is_exact(y):
        if not (0 <= x < 1 and 0 <= y < 1):
            raise ValueError("x and y must lie in [0, 1)")
        return _I_d_exact(d, x, y)
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape:
        raise ValueError(f"x and y must have equal shapes, got {xa.shape} and {ya.shape}")
    if not (np.all((xa >= 0.0) & (xa < 1.0)) and np.all((ya >= 0.0) & (ya < 1.0))):
        raise ValueError("x and y must lie in [0, 1)")
    if d > MAX_FLOAT_D:
        raise ValueError(
            f"d = {d} exceeds float-mode limit {MAX_FLOAT_D}; "
            "pass Fraction arguments for exact evaluation")
    values = _I_d_float(d, xa.ravel(), ya.ravel())
    return float(values[0]) if xa.ndim == 0 else values.reshape(xa.shape)
