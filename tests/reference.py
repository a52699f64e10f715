"""Reference implementations, each kept once, for the tests and for
``benchmarks/bench_kernels.py``.

Each is an exact twin in ``Fraction`` arithmetic (a gcd at every operation)
or the loop a faster form of the package replaced, kept literally: the
package must give equal ``Fraction`` values or the same bits.  The file has
no ``test_`` prefix, so pytest does not collect it; the tests import it from
their own directory, the bench through one ``sys.path`` entry.
"""

import math
import sys
from fractions import Fraction

import numpy as np

from thermoproc import combinatorics, memory
from thermoproc._kernels import _memory_sweep_py
from thermoproc.core import PopulationVector
from thermoproc.memory import RESPONSE_MIN_D, _protocol_totals
from thermoproc.reachable import qutrit_gibbs


def weighted_fraction(n, m, x, w0, w1):
    """(1-x)^n sum_{j<=m} (w0 + w1 j) f_n(j) x^j as a Fraction loop: the
    definition route of L (w = 1), of K (w = j, then / n) and of I
    (w = n - j, then / n)."""
    term = Fraction(1)  # f_n(j) x^j, starting at j = 0
    acc = Fraction(w0)
    for j in range(m):
        term = term * x * (n + j) / (j + 1)
        acc = acc + (w0 + w1 * (j + 1)) * term
    return (1 - x) ** n * acc


def lki_references(weighted):
    """The definition route of L, K and I from the ``weighted`` sum
    (``weighted_fraction`` or ``weighted_float``): weights 1, j and n - j,
    K and I then divided by n."""
    return (lambda n, m, x: weighted(n, m, x, 1, 0),
            lambda n, m, x: weighted(n, m, x, 0, 1) / n,
            lambda n, m, x: weighted(n, m, x, n, -1) / n)


def weighted_float(n, m, x, w0, w1):
    """The same sum as the scalar float loop, one point per call, that the
    grid loop of L, K and I replaced."""
    term = 1.0
    acc = float(w0)
    for j in range(m):
        term = term * x * (n + j) / (j + 1)
        acc = acc + (w0 + w1 * (j + 1)) * term
    return (1.0 - x) ** n * acc


def alternating_fraction(n, m, x):
    """The alternating route of L as the Fraction loop the integer route
    replaced: exact for an exact x, the rounded value for a float."""
    exact_in = isinstance(x, (Fraction, int))
    xq = x if isinstance(x, Fraction) else Fraction(x)
    acc = Fraction(0)
    sign = 1
    xpow = Fraction(1)
    for l in range(n):
        acc += Fraction(sign * math.comb(n - 1, l), m + l + 1) * xpow
        xpow *= xq
        sign = -sign
    result = 1 - n * math.comb(n + m, m) * xq ** (m + 1) * acc
    return result if exact_in else float(result)


def I_d_fraction(d, x, y):
    """Exact I_d from Fraction terms and prefix sums."""
    def terms(x):
        t = (1 - x) ** d
        out = [t]
        for k in range(d - 1):
            t = t * x * (d + k) / (k + 1)
            out.append(t)
        return out

    tx, ty = terms(x), terms(y)
    p = [tx[0]]  # prefix sums of tx
    q = [0 * tx[0]]  # prefix sums of k * tx_k
    for k in range(1, d):
        p.append(p[-1] + tx[k])
        q.append(q[-1] + k * tx[k])
    total = 0 * tx[0]
    for j in range(d):
        total += ty[j] * ((d - j) * p[d - 1 - j] - q[d - 1 - j])
    return total / d


def I_d_window_fraction(d, x, y, ax, lx, ay, ly):
    """Exact I_d over the cells of two windows alone: the sum of
    (d - j - k)^+ f_d(k) x^k (1-x)^d f_d(j) y^j (1-y)^d / d over the cells
    ax <= k < ax + lx of the x row and ay <= j < ay + ly of the y row.
    Cell k meets the y cells ay <= j < min(ay + ly, d - k), over which the
    sums of the terms and of j times them are differences of prefix sums."""
    def terms(x):
        t = (1 - x) ** d
        out = [t]
        for k in range(d - 1):
            t = t * x * (d + k) / (k + 1)
            out.append(t)
        return out

    tx, ty = terms(x), terms(y)
    sums, moments = [0 * ty[0]], [0 * ty[0]]  # over the cells j < i, at i
    for j, t in enumerate(ty):
        sums.append(sums[-1] + t)
        moments.append(moments[-1] + j * t)
    total = 0 * tx[0]
    for k in range(ax, ax + lx):
        hi = min(ay + ly, d - k)
        if hi > ay:
            total += tx[k] * ((d - k) * (sums[hi] - sums[ay]) - (moments[hi] - moments[ay]))
    return total / d


def per_point_I_d(d, x, y):
    """The per-point float I_d of whole rows that the block form replaced,
    kept literally as the reference it must equal bit for bit.  A point
    whose start term (1-x)^d or (1-y)^d is not a normal double takes the
    terms of ``per_point_log_terms`` for both."""
    def terms(x):
        t0 = (1.0 - x) ** d
        if d == 1:
            return np.array([t0])
        ks = np.arange(1, d, dtype=np.float64)
        ratios = x * (d + ks - 1.0) / ks
        out = np.empty(d)
        out[0] = t0
        out[1:] = t0 * np.cumprod(ratios)
        return out

    x, y = float(x), float(y)
    if min((1.0 - x) ** d, (1.0 - y) ** d) >= sys.float_info.min:
        tx, ty = terms(x), terms(y)
    else:
        tx, ty = per_point_log_terms(d, x), per_point_log_terms(d, y)
    p = np.cumsum(tx)
    q = np.cumsum(np.arange(d) * tx)
    js = np.arange(d)
    total = float(np.sum(ty * ((d - js) * p[::-1] - q[::-1])))
    return total / d


def whole_row_points(d, x, y):
    """The points of the 1-D arrays x, y whose float I_d runs the operations
    of the whole rows, and so must equal ``per_point_I_d`` bit for bit: two
    whole windows (``combinatorics._windows``) and both start terms, Python's
    (1-x)^d and (1-y)^d, normal doubles."""
    _, lx, _, ly, mirror, _ = (a[0] for a in combinatorics._windows([d], x, y))
    normal = [min((1.0 - a) ** d, (1.0 - b) ** d) >= sys.float_info.min
              for a, b in zip(x.tolist(), y.tolist())]
    return mirror & (lx == d) & (ly == d) & np.array(normal)


def per_point_log_terms(d, x):
    """The terms f_d(k) x^k (1-x)^d, k = 0..d-1, of one point from their
    logarithms, kept literally as the reference of the log-space rows that
    whole rows with an underflowing start term once took:
    exp(d log1p(-x) + sum_{i<=k} log(x (d + i - 1) / i)), with log 0 = -inf
    for the ratios of x = 0."""
    logs = np.zeros(d)
    if d > 1:
        ks = np.arange(1, d, dtype=np.float64)
        ratios = x * (d + ks - 1.0) / ks
        with np.errstate(divide="ignore"):
            logs[1:] = np.log(ratios)
    return np.exp(np.cumsum(logs) + d * np.log1p(-x))


def delta_d_column_fraction(d_max, gamma):
    """The tails delta_1 .. delta_{d_max} as the Fraction loop of one
    running subtraction."""
    one = Fraction(1)
    z = gamma * (one - gamma)
    acc = (one - gamma) / gamma
    tails = [acc]
    term = z  # catalan(n) z^n, starting at n = 1
    for n in range(1, d_max):
        acc = acc - term
        tails.append(acc)
        term = term * z * (2 * (2 * n + 1)) / (n + 2)
    return tails


def exact_protocol(d, p0, gamma):
    """The swap simulation in Fractions, every one of its d^2 thermalizations.

    Returns (p_final, ground_history) where ground_history[(k, j)] is the
    population of ground slot k after thermalizing it against excited slot j
    (both 1-based), the quantity the closed-form slot recurrences describe.
    """
    p0, gamma = Fraction(p0), Fraction(gamma)
    a = [p0 / d] * d
    b = [(1 - p0) / d] * d
    history = {}
    for k in range(d):
        for j in range(d):
            total = a[k] + b[j]
            a[k] = gamma * total
            b[j] = (1 - gamma) * total
            history[(k + 1, j + 1)] = a[k]
    return sum(a), history


def exact_swap_round(d, gamma):
    """The MMTP pair step in Fractions, (g, e) -> (g', e'), through the
    swap's exact 2 x 2 matrix: its ground totals from unit ground and unit
    excited mass by ``exact_protocol`` (the swap is linear in its start);
    the excited totals follow, as every thermalization keeps the mass."""
    a_g, b_g = exact_protocol(d, 1, gamma)[0], exact_protocol(d, 0, gamma)[0]
    return lambda g, e: (g * a_g + e * b_g, g * (1 - a_g) + e * (1 - b_g))


def exact_coherent(process, n, gamma, d=None):
    """``cooling.cool_coherent`` in Fractions, at the binary value of a float
    ``gamma``."""
    gamma = Fraction(gamma)
    q = (1 - gamma) / gamma
    step = exact_swap_round(d, gamma) if process == "MMTP" else None
    p, pops = gamma, []
    for _ in range(n):
        inverted = 1 - p
        if process == "TP":
            p = 1 - q * inverted
        elif process == "MTP":
            p = gamma
        else:
            p = step(inverted, 1 - inverted)[0]
        pops.append(p)
    return pops


def exact_incoherent(process, n, E, script_E, beta, beta_hot, d=None):
    """``cooling.cool_incoherent`` in Fractions, with the derived eta, gamma,
    q_big and gamma_big at their binary values.  The state after a round's
    refresh follows from its ground population, since the total mass stays
    exactly 1."""
    kw = dict(E=E, script_E=script_E, beta=beta, beta_hot=beta_hot)
    eta, gamma, q_big, gamma_big = (Fraction(f(**kw)) for f in (
        scalar_eta, scalar_gamma, scalar_q_big, scalar_gamma_big))
    step = exact_swap_round(d, gamma_big) if process == "MMTP" else None
    ground, pops = gamma, []
    for _ in range(n):
        g0, e1 = ground * eta, (1 - ground) * (1 - eta)
        if process == "TP":
            g0, e1 = (1 - q_big) * g0 + e1, q_big * g0
        elif process == "MTP":
            g0, e1 = gamma_big * (g0 + e1), (1 - gamma_big) * (g0 + e1)
        else:
            g0, e1 = step(g0, e1)
        # g1 keeps its ground * (1 - eta)
        ground = g0 + ground * (1 - eta)
        pops.append(ground)
    return pops


def round_response(d, weight):
    """((A_g, A_e), (B_g, B_e)): the ground and excited totals of one swap
    simulation from unit ground mass and of one from unit excited mass, from
    one two-row ``memory._protocol_totals`` call: the columns of the swap's
    2 x 2 stochastic matrix, the round map of the MMTP runs from
    ``RESPONSE_MIN_D`` on."""
    (a_g, b_g), (a_e, b_e) = memory._protocol_totals(
        [d, d], ((0, 1, weight),), ((1.0, 0.0), (0.0, 1.0)), (0, 1))
    return (a_g, a_e), (b_g, b_e)


def incoherent_by_numpy_scalars(process, n, d, E, script_E, beta, beta_hot):
    """``cool_incoherent`` as it ran on a 4-element numpy state: every
    product and sum on numpy scalars, the pair sweep's totals from two block
    sums, the populations stored into an array round by round."""
    kw = dict(E=E, script_E=script_E, beta=beta, beta_hot=beta_hot)
    eta, q_big, gamma_big, g = (f(**kw) for f in (
        scalar_eta, scalar_q_big, scalar_gamma_big, scalar_gamma))
    if process == "MMTP" and d >= RESPONSE_MIN_D:
        (a_g, a_e), (b_g, b_e) = round_response(d, gamma_big)
    v = np.array([g * eta, g * (1.0 - eta), (1.0 - g) * eta, (1.0 - g) * (1.0 - eta)])
    pops = np.empty(n)
    for r in range(n):
        g0, e1 = v[0], v[3]
        if process == "TP":
            v[0], v[3] = (1.0 - q_big) * g0 + e1, q_big * g0
        elif process == "MTP":
            pool = g0 + e1
            v[0], v[3] = gamma_big * pool, (1.0 - gamma_big) * pool
        elif d < RESPONSE_MIN_D:
            pair = np.empty(2 * d)
            pair[:d] = g0 / d
            pair[d:] = e1 / d
            _memory_sweep_py(pair, d, gamma_big, 0, d)
            v[0], v[3] = float(pair[:d].sum()), float(pair[d:].sum())
        else:
            v[0], v[3] = g0 * a_g + e1 * b_g, g0 * a_e + e1 * b_e
        pops[r] = v[0] + v[1]
        ground, excited = v[0] + v[1], v[2] + v[3]
        v = np.array([ground * eta, ground * (1.0 - eta),
                      excited * eta, excited * (1.0 - eta)])
    return pops


def hull_numpy(points_xy):
    """Andrew's monotone chain with every turn test on numpy rows: the
    indices of the hull ``convex_hull_xy`` must return."""
    pts = np.asarray(points_xy, dtype=np.float64)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    span = float(np.ptp(pts, axis=0).max()) if len(pts) else 0.0
    tolerance = 1.0e-15 * span * span

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    def build(indices):
        chain = []
        for i in indices:
            while len(chain) >= 2 and cross(pts[chain[-1]] - pts[chain[-2]],
                                            pts[i] - pts[chain[-2]]) <= tolerance:
                chain.pop()
            chain.append(i)
        return chain

    return build(order)[:-1] + build(order[::-1])[:-1]


def orbit_per_image(gamma, depth):
    """The swap-orbit closure that rounds every image's key anew, nine
    ``round`` calls per state, as ``etp_orbit_points`` ran before its states
    carried their keys."""
    q = (1.0 - gamma) / gamma

    def swap_g_e1(p):
        return (p[0] * (1.0 - q) + p[1], q * p[0], p[2])

    def swap_g_e2(p):
        return (p[0] * (1.0 - q) + p[2], p[1], q * p[0])

    def swap_e1_e2(p):
        return (p[0], p[2], p[1])

    maps = (swap_g_e1, swap_g_e2, swap_e1_e2)
    start = (1.0, 0.0, 0.0)

    def key(p):
        return tuple(round(x, 12) for x in p)

    seen = {key(start): start}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for p in frontier:
            for f in maps:
                img = f(p)
                k = key(img)
                if k not in seen:
                    seen[k] = img
                    nxt.append(img)
        if not nxt:
            break
        frontier = nxt
    gibbs = tuple(qutrit_gibbs(gamma))
    if key(gibbs) not in seen:
        seen[key(gibbs)] = gibbs
    return np.array(list(seen.values()))


def qutrit_vertices_four_runs(gamma):
    """The memory-assisted qutrit vertices (A_1, A_2, B_1, B_2) with each
    one run on the evaluator, as ``qutrit_mmtp2_vertices`` ran before A_2
    and B_2 became the mirrors of A_1 and B_1."""
    # blocks g, e1, e2 (0, 1, 2) of two memory slots each, all the mass on g
    protocols = ([((0, s, gamma),) for s in (1, 2)]
                 + [((0, s, gamma), (0, 3 - s, gamma)) for s in (1, 2)])
    return [PopulationVector([total for (total,) in _protocol_totals(
                [2], sweeps, ((1.0, 0.0, 0.0),), (0, 1, 2))])
            for sweeps in protocols]


def scalar_epsilon_tp(E, W, beta):
    """Minimum error over all thermal processes, as the scalar form computed
    it on one point before ``workx.extraction_closed_forms`` took a W grid."""
    if W <= E + math.log(1.0 + math.exp(-beta * E)) / beta:
        return 0.0
    return 1.0 - math.exp(beta * (E - W)) - math.exp(-beta * W)


def scalar_epsilon_mtp(E, W, beta):
    """Minimum error over Markovian thermal processes: gamma_delta * gamma_W."""
    return scalar_gamma_delta(E, W, beta) * scalar_gamma_w(E, W, beta)


def scalar_epsilon_etp(E, W, beta):
    """Minimum error over two-level swap sequences."""
    if W <= E:
        return 0.0
    return (1.0 - math.exp(-beta * (W - E))) * (1.0 - math.exp(-beta * W))


def scalar_gamma_w(E, W, beta):
    """Work-bit ground weight, also the e0 retention against e1."""
    return 1.0 / (1.0 + math.exp(-beta * W))


def scalar_gamma_delta(E, W, beta):
    """Retention weight of e0 against g1: 1 / (1 + e^{-beta (W-E)})."""
    return 1.0 / (1.0 + math.exp(-beta * (W - E)))


def scalar_x(E, W, beta):
    """I_d's first argument, 1 - gamma_delta."""
    return 1.0 - scalar_gamma_delta(E, W, beta)


def scalar_y(E, W, beta):
    """I_d's second argument, 1 - gamma_W."""
    return 1.0 - scalar_gamma_w(E, W, beta)


def scalar_gamma(E, script_E, beta, beta_hot):
    """The incoherent paradigm's system Gibbs weight 1 / (1 + e^{-beta E}),
    as it was computed on every access before ``cooling.incoherent_weights``
    wrote the five weights once; so are the four below."""
    return 1.0 / (1.0 + math.exp(-beta * E))


def scalar_q_big(E, script_E, beta, beta_hot):
    """The (g0, e1) pair's Boltzmann factor e^{-beta script_E}."""
    return math.exp(-beta * script_E)


def scalar_gamma_big(E, script_E, beta, beta_hot):
    """The (g0, e1) pair's Gibbs weight 1 / (1 + q)."""
    return 1.0 / (1.0 + scalar_q_big(E, script_E, beta, beta_hot))


def scalar_eta(E, script_E, beta, beta_hot):
    """The hot auxiliary's ground weight 1 / (1 + e^{-beta_hot (script_E - E)})."""
    return 1.0 / (1.0 + math.exp(-beta_hot * (script_E - E)))


def scalar_p_star(E, script_E, beta, beta_hot):
    """The shared incoherent asymptote 1 / (1 + q e^{beta_hot (script_E - E)});
    raises OverflowError once beta_hot (script_E - E) passes 709.78."""
    return 1.0 / (1.0 + scalar_q_big(E, script_E, beta, beta_hot)
                  * math.exp(beta_hot * (script_E - E)))


def scalar_incoherent_weights(E, script_E, beta, beta_hot):
    """(gamma, q, Gamma, eta, p_star) from the five oracles above."""
    return tuple(f(E, script_E, beta, beta_hot) for f in (
        scalar_gamma, scalar_q_big, scalar_gamma_big, scalar_eta, scalar_p_star))
