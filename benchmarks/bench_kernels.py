#!/usr/bin/env python3
"""Time the d^2 sweep kernel, the float I_d closed form and the exact layer.

Sweep kernel: for each memory dimension d this times ``_memory_sweep_py``
(the plain loop over Python floats, the reference) against ``memory_sweep``
(which takes the anti-diagonal wavefront once d reaches
``WAVEFRONT_MIN_WIDTH``), best of ``--repeats`` runs on the same input, and
checks that the two leave the same bytes.  The reference is timed once at
d >= 2000, where one run takes 0.4 s or more.

Batched wavefront: d = 1..d_max, d_max in {30, 200, 400}, cut into
``wavefront_blocks`` with one ``Wavefront`` built and run per block, against
one ``memory_sweep`` per d, best of ``--repeats``.  The build of every
block's wavefront and the run of the built ones (inputs filled, swept and
copied out) are also timed on their own.  Every row must leave the same
bytes as the per-d sweeps, run on fresh wavefronts and on reused ones.

Narrow pair sweep: ``memory._sweep`` at d in {1, 2, 4, 8}, the pair step of
every cooling round below ``RESPONSE_MIN_D``, in microseconds per call,
against the same sweep with its vector filled by two slice assignments and
its totals taken by two block sums; best of ``--repeats`` runs of
``NARROW_CALLS`` calls.  Both must give the same bytes.

Incoherent rounds: one 50-round incoherent MMTP run (E = 1, script_E = 2,
beta = 1, beta_hot = 0.2) at d in {1, 8, 64} by ``cool_incoherent``, against
the same rounds on a 4-element numpy state with the two-sum pair sweep, best
of ``--repeats``; both must give the same bytes.

Round response: one 50-round coherent MMTP run (gamma = 0.75) at d in
{32, 48, 64, 256, 1000}, two ways, best of ``--repeats``: a fresh
``simulate_memory_beta_swap`` every round, against one
``memory._round_response`` and 50 affine steps.  Cooling runs take the
response from ``RESPONSE_MIN_D`` on.  The rounds must stay within 1e-13 of
the per-round ones at every d, and up to d = 256 the response must fix the
Gibbs pair and conserve mass within 1e-15: the tolerances of the tests,
which stop at d = 256.  At d = 1000 the invariants are printed but not
checked: the d^2 sweep's own rounding there reaches about 3e-14 (against a
long-double sweep, gamma = 0.75), and no bound for it is derived yet.

I_d: at d in {20, 100, 400, 1000} on fig2's 2000-point W grid (beta E = 0.7,
beta W from 0.05 to 3), this times a loop of one ``I_d_eval`` call per point
(once) against one array call over the grid (best of ``--repeats``), and
checks that the two give the same bytes on every point whose start terms
(1-x)^d and (1-y)^d are normal doubles; the others take the log-space path.

Exact layer: the integer-numerator alternating route of L over the grid of
the ``special-function-routes`` check (n <= 40, float x), and exact I_d at
d in {100, 200, 500, 1000} on one fig2 point taken from floats (beta E = 0.7,
beta W = 1.3), each best of ``--repeats``, against the Fraction loops they
replaced (timed once; for I_d only at d <= 200, where one run takes at most
about 1 s).  The alternating route must give the same bytes and I_d an
equal Fraction.

The alternating row is timed twice: with the cached per-(n, m) integers
warm, and with the cache cleared before every run (cold), as a fresh
``validate`` process runs it.

Validation batches: the ``memory-extraction-closed-form`` check's grid
(50 setups: beta E in {ln 2, 1}, 25 work gaps from 0.1 to 2.6; d = 1..10) as
500 per-point runs of the two ``memory_sweep`` calls, the protocol as it ran
before the grid existed, and as 500 one-point ``memory_extraction_grid``
calls, each against one ``memory_extraction_grid`` call over the grid; and the
``special-function-routes`` check's quadrature route, 1053 per-point calls
against one array call per (n, m).  Best of ``--repeats`` each; every row
must give the same bytes.

Validation geometry: the ``extraction-bisection-grid`` check's 50 work gaps
(beta E = ln 2, beta W from 0.05 to 2.5), as one scalar
``min_extraction_error_tp`` call per gap against one lockstep call over the
grid; and ``convex_hull_xy`` on the swap orbit (gamma = 0.75) at depths 8 and
10, against the same monotone chain with each turn test on numpy rows
(``reachable._cross2``).  Best of ``--repeats`` each; the bisection must give
the same bytes and the hull the same indices.

Exits 1 when any sweep dimension, batch, narrow pair sweep, incoherent run,
I_d dimension, exact result, validation batch, bisection or hull differs, or
a round response is off its tolerances.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [--dims 10,100,400,1000,2000] [--repeats 5]
"""

import argparse
import math
import sys
import time
from fractions import Fraction

import numpy as np

from thermoproc._kernels import (WAVEFRONT_MIN_WIDTH, Wavefront, _memory_sweep_py,
                                 memory_sweep, wavefront_blocks)
from thermoproc import combinatorics
from thermoproc.combinatorics import I_d_eval, L_eval, _l_alternating
from thermoproc.cooling import IncoherentSetting, cool_incoherent
from thermoproc.core import clip_noise
from thermoproc.majorization import min_extraction_error_tp
from thermoproc.memory import (RESPONSE_MIN_D, _round_response, _sweep,
                               simulate_memory_beta_swap)
from thermoproc.reachable import _cross2, bary_xy, convex_hull_xy, etp_orbit_points
from thermoproc.workx import ExtractionSetup, memory_extraction_grid

SLOW_REFERENCE_D = 2000
BATCH_D_MAX = (30, 200, 400)
NARROW_DIMS = (1, 2, 4, 8)
NARROW_CALLS = 400
INCOHERENT = dict(E=1.0, script_E=2.0, beta=1.0, beta_hot=0.2)
INCOHERENT_DIMS = (1, 8, 64)
RESPONSE_DIMS = (32, 48, 64, 256, 1000)
ROUNDS = 50
RESPONSE_GAMMA = 0.75
INVARIANT_TOL = 1e-15
INVARIANT_MAX_D = 256
ROUNDS_TOL = 1e-13
I_D_DIMS = (20, 100, 400, 1000)
I_D_POINTS = 2000
EXACT_I_D_DIMS = (100, 200, 500, 1000)
FRACTION_REFERENCE_MAX_D = 200
BISECTION_GAPS = 50
HULL_GAMMA = 0.75
HULL_DEPTHS = (8, 10)


def best_time(fn, vec, d, repeats):
    """(best wall time over ``repeats`` runs, the output of the last run)."""
    best = float("inf")
    for _ in range(repeats):
        work = vec.copy()
        t0 = time.perf_counter()
        fn(work, d, 0.75, 0, d)
        best = min(best, time.perf_counter() - t0)
    return best, work


def sweep_each(vecs, ds):
    """One ``memory_sweep`` per (vector, d); the swept copies."""
    out = [vec.copy() for vec in vecs]
    for vec, d in zip(out, ds):
        memory_sweep(vec, d, 0.75, 0, d)
    return out


def build_batch(ds):
    """One ``Wavefront`` per block of ``wavefront_blocks(ds)``."""
    return [Wavefront([ds[i] for i in rows], 0.75) for rows in wavefront_blocks(ds)]


def sweep_batch(vecs, ds, wavefronts=None):
    """The same sweeps cut into ``wavefront_blocks`` and run one
    ``Wavefront`` per block, as the batched callers run them: built here, or
    taken from ``wavefronts``, one per block; the swept vectors."""
    out = [None] * len(ds)
    for n, rows in enumerate(wavefront_blocks(ds)):
        block = [ds[i] for i in rows]
        a, b = np.zeros((len(rows), max(block))), np.zeros((len(rows), max(block)))
        for r, (i, d) in enumerate(zip(rows, block)):
            a[r, :d], b[r, :d] = vecs[i][:d], vecs[i][d:]
        (Wavefront(block, 0.75) if wavefronts is None else wavefronts[n]).run(a, b)
        for r, (i, d) in enumerate(zip(rows, block)):
            out[i] = np.concatenate([a[r, :d], b[r, :d]])
    return out


def bench_batch(repeats):
    """Print the batched-wavefront table; return the rows whose bytes differ."""
    rng = np.random.default_rng(1)
    print("\nbatched wavefront")
    print(f"{'sweeps':>16} {'thermalizations':>16} {'one by one [ms]':>16} "
          f"{'wavefront [ms]':>15} {'build [ms]':>11} {'run [ms]':>9} {'speedup':>8} "
          f"{'bitwise':>8}")
    mismatches = []
    for d_max in BATCH_D_MAX:
        name = f"d = 1..{d_max}"
        ds = list(range(1, d_max + 1))
        vecs = [rng.random(2 * d) / (2 * d) for d in ds]
        t_ref, ref = timed(lambda: sweep_each(vecs, ds), repeats)
        t_new, new = timed(lambda: sweep_batch(vecs, ds), repeats)
        t_build, wavefronts = timed(lambda: build_batch(ds), repeats)
        t_run, reused = timed(lambda: sweep_batch(vecs, ds, wavefronts), repeats)
        same = all(x.tobytes() == y.tobytes() == z.tobytes()
                   for x, y, z in zip(ref, new, reused))
        if not same:
            mismatches.append(name)
        print(f"{name:>16} {sum(d * d for d in ds):>16} {t_ref * 1e3:>16.2f} "
              f"{t_new * 1e3:>15.2f} {t_build * 1e3:>11.2f} {t_run * 1e3:>9.2f} "
              f"{t_ref / t_new:>7.1f}x {str(same):>8}")
    return mismatches


def sweep_two_sums(d, gamma, p_ground, p_excited):
    """``memory._sweep`` with its vector filled by two slice assignments and
    its totals taken by two block sums."""
    vec = np.empty(2 * d)
    vec[:d] = p_ground / d
    vec[d:] = p_excited / d
    memory_sweep(vec, d, gamma, 0, d)
    return float(vec[:d].sum()), float(vec[d:].sum())


def bench_narrow(repeats):
    """Print the narrow pair-sweep table; return the d whose bytes differ."""
    print(f"\nnarrow pair sweep, {NARROW_CALLS} calls")
    print(f"{'d':>6} {'two sums [us/call]':>19} {'_sweep [us/call]':>17} "
          f"{'speedup':>8} {'bitwise':>8}")
    mismatches = []
    masses = np.random.default_rng(2).random((NARROW_CALLS, 2)).tolist()
    for d in NARROW_DIMS:
        t_ref, ref = timed(lambda: [sweep_two_sums(d, 0.75, g, e) for g, e in masses],
                           repeats)
        t_new, new = timed(lambda: [_sweep(d, 0.75, g, e) for g, e in masses], repeats)
        same = np.array(ref).tobytes() == np.array(new).tobytes()
        if not same:
            mismatches.append(d)
        print(f"{d:>6} {t_ref / NARROW_CALLS * 1e6:>19.2f} "
              f"{t_new / NARROW_CALLS * 1e6:>17.2f} {t_ref / t_new:>7.1f}x {str(same):>8}")
    return mismatches


def incoherent_numpy_scalars(d):
    """The incoherent MMTP rounds of ``cool_incoherent`` on a 4-element numpy
    state, every product and sum on numpy scalars, with the two-sum pair
    sweep below ``RESPONSE_MIN_D``; the populations."""
    s = IncoherentSetting(**INCOHERENT)
    eta, gamma_big, g = s.eta, s.gamma_big, s.gamma
    if d >= RESPONSE_MIN_D:
        (a_g, a_e), (b_g, b_e) = _round_response(d, gamma_big)
    v = np.array([g * eta, g * (1.0 - eta), (1.0 - g) * eta, (1.0 - g) * (1.0 - eta)])
    pops = np.empty(ROUNDS)
    for r in range(ROUNDS):
        g0, e1 = v[0], v[3]
        if d < RESPONSE_MIN_D:
            v[0], v[3] = sweep_two_sums(d, gamma_big, g0, e1)
        else:
            v[0], v[3] = g0 * a_g + e1 * b_g, g0 * a_e + e1 * b_e
        pops[r] = v[0] + v[1]
        ground, excited = v[0] + v[1], v[2] + v[3]
        v = np.array([ground * eta, ground * (1.0 - eta),
                      excited * eta, excited * (1.0 - eta)])
    return pops


def bench_incoherent(repeats):
    """Print the incoherent-run table; return the d whose bytes differ."""
    print(f"\none {ROUNDS}-round incoherent MMTP run")
    print(f"{'d':>6} {'numpy scalars [ms]':>19} {'Python floats [ms]':>19} "
          f"{'speedup':>8} {'bitwise':>8}")
    mismatches = []
    for d in INCOHERENT_DIMS:
        t_ref, ref = timed(lambda: incoherent_numpy_scalars(d), repeats)
        t_new, new = timed(lambda: cool_incoherent("MMTP", ROUNDS, d=d, **INCOHERENT),
                           repeats)
        same = ref.tobytes() == new.populations.tobytes()
        if not same:
            mismatches.append(d)
        print(f"{d:>6} {t_ref * 1e3:>19.3f} {t_new * 1e3:>19.3f} "
              f"{t_ref / t_new:>7.1f}x {str(same):>8}")
    return mismatches


def rounds_by_sweeps(d, gamma):
    """The coherent MMTP rounds, each a fresh d^2 sweep."""
    p, pops = gamma, []
    for _ in range(ROUNDS):
        p = clip_noise(simulate_memory_beta_swap(d, 1.0 - p, gamma))
        pops.append(p)
    return np.array(pops)


def rounds_by_response(d, gamma):
    """The same rounds stepped through one round response."""
    (a_g, _), (b_g, _) = _round_response(d, gamma)
    p, pops = gamma, []
    for _ in range(ROUNDS):
        inverted = 1.0 - p
        p = clip_noise(inverted * a_g + (1.0 - inverted) * b_g)
        pops.append(p)
    return np.array(pops)


def bench_response(repeats):
    """Print the round-response table; return the d whose response is off
    its tolerances."""
    gamma = RESPONSE_GAMMA
    print(f"\none {ROUNDS}-round coherent MMTP run, gamma = {gamma}; cooling "
          f"takes the response from d = {RESPONSE_MIN_D}")
    print(f"{'d':>6} {'per-round sweeps [ms]':>22} {'response [ms]':>14} "
          f"{'speedup':>8} {'max |diff|':>11} {'invariants':>11}")
    failures = []
    for d in RESPONSE_DIMS:
        t_ref, ref = timed(lambda: rounds_by_sweeps(d, gamma), repeats)
        t_new, new = timed(lambda: rounds_by_response(d, gamma), repeats)
        (a_g, a_e), (b_g, b_e) = _round_response(d, gamma)
        invariants = max(abs(gamma * a_g + (1.0 - gamma) * b_g - gamma),
                         abs(a_g + a_e - 1.0), abs(b_g + b_e - 1.0))
        diff = float(np.abs(new - ref).max())
        checked = d <= INVARIANT_MAX_D
        if (checked and invariants > INVARIANT_TOL) or diff > ROUNDS_TOL:
            failures.append(d)
        print(f"{d:>6} {t_ref * 1e3:>22.2f} {t_new * 1e3:>14.3f} "
              f"{t_ref / t_new:>7.1f}x {diff:>11.1e} {invariants:>11.1e}"
              + ("" if checked else " (not checked)"))
    return failures


def bench_I_d(repeats):
    """Print the I_d table; return the dimensions whose bytes differ."""
    setups = [ExtractionSetup(0.7, float(w), 1.0)
              for w in np.linspace(0.05, 3.0, I_D_POINTS)]
    x = np.array([1.0 - st.gamma_delta for st in setups])
    y = np.array([1.0 - st.gamma_W for st in setups])
    print(f"\nI_d over a {I_D_POINTS}-point W grid")
    print(f"{'d':>6} {'log rows':>9} {'per point [ms]':>15} {'array [ms]':>11} "
          f"{'speedup':>8} {'bitwise':>8}")
    mismatches = []
    for d in I_D_DIMS:
        t0 = time.perf_counter()
        loop = np.array([I_d_eval(d, a, b) for a, b in zip(x.tolist(), y.tolist())])
        t_loop = time.perf_counter() - t0
        t_array = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            grid = I_d_eval(d, x, y)
            t_array = min(t_array, time.perf_counter() - t0)
        normal = np.array([min((1.0 - a) ** d, (1.0 - b) ** d) >= sys.float_info.min
                           for a, b in zip(x.tolist(), y.tolist())])
        same = loop[normal].tobytes() == grid[normal].tobytes()
        if not same:
            mismatches.append(d)
        print(f"{d:>6} {int((~normal).sum()):>9} {t_loop * 1e3:>15.1f} "
              f"{t_array * 1e3:>11.2f} {t_loop / t_array:>7.1f}x {str(same):>8}")
    return mismatches


def alternating_fraction(n, m, x):
    """The alternating route as a Fraction loop (gcd at every operation)."""
    xq = Fraction(x)
    acc = Fraction(0)
    xpow = Fraction(1)
    for l in range(n):
        acc += Fraction((-1) ** l * math.comb(n - 1, l), m + l + 1) * xpow
        xpow *= xq
    return float(1 - n * math.comb(n + m, m) * xq ** (m + 1) * acc)


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
    p, q = [tx[0]], [Fraction(0)]  # prefix sums of tx_k and k tx_k
    for k in range(1, d):
        p.append(p[-1] + tx[k])
        q.append(q[-1] + k * tx[k])
    return sum(ty[j] * ((d - j) * p[d - 1 - j] - q[d - 1 - j]) for j in range(d)) / d


def timed(fn, repeats):
    """(best wall time over ``repeats`` calls of fn(), its last result)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_exact(repeats):
    """Print the exact-layer table; return the names of the rows that differ."""
    grid = [(n, m, float(x)) for n in range(1, 41) for m in sorted({0, n // 2, n - 1})
            for x in np.arange(0.1, 0.95, 0.1)]
    print("\nexact layer")
    print(f"{'function':>22} {'Fraction [ms]':>14} {'integer [ms]':>13} "
          f"{'speedup':>8} {'equal':>6}")
    mismatches = []

    def row(name, reference, fn):
        t_new, new = timed(fn, repeats)
        if reference is None:
            print(f"{name:>22} {'-':>14} {t_new * 1e3:>13.2f} {'-':>8} {'-':>6}")
            return
        t_ref, ref = timed(reference, 1)
        same = ref == new
        if not same:
            mismatches.append(name)
        print(f"{name:>22} {t_ref * 1e3:>14.1f} {t_new * 1e3:>13.2f} "
              f"{t_ref / t_new:>7.1f}x {str(same):>6}")

    def alternating_cold():
        combinatorics._alternating_coefficients.cache_clear()
        return [_l_alternating(*args).hex() for args in grid]

    row(f"L alternating x{len(grid)}",
        lambda: [alternating_fraction(*args).hex() for args in grid],
        lambda: [_l_alternating(*args).hex() for args in grid])
    row("  (cold cache)", None, alternating_cold)
    st = ExtractionSetup(0.7, 1.3, 1.0)
    x, y = Fraction(1.0 - st.gamma_delta), Fraction(1.0 - st.gamma_W)
    for d in EXACT_I_D_DIMS:
        reference = (lambda d=d: I_d_fraction(d, x, y)) if d <= FRACTION_REFERENCE_MAX_D else None
        row(f"I_d d={d}", reference, lambda d=d: I_d_eval(d, x, y))
    return mismatches


def extraction_by_sweeps(setup, d):
    """One point of the two-step extraction protocol as two ``memory_sweep``
    calls on a 4d-slot vector (the loop over Python floats below
    ``WAVEFRONT_MIN_WIDTH``)."""
    vec = np.zeros(4 * d)
    vec[2 * d:3 * d] = 1.0 / d
    memory_sweep(vec, d, setup.gamma_delta, 2 * d, d)
    memory_sweep(vec, d, setup.gamma_W, 2 * d, 3 * d)
    return float(vec[2 * d:3 * d].sum())


def bench_validation_batches(repeats):
    """Print the batched-check table; return the rows that differ."""
    print("\nvalidation batches")
    print(f"{'work':>26} {'per point [ms]':>15} {'batched [ms]':>13} {'speedup':>8} "
          f"{'bitwise':>8}")
    mismatches = []

    def row(name, reference, fn):
        t_ref, ref = timed(reference, repeats)
        t_new, new = timed(fn, repeats)
        same = ref == new
        if not same:
            mismatches.append(name)
        print(f"{name:>26} {t_ref * 1e3:>15.2f} {t_new * 1e3:>13.2f} "
              f"{t_ref / t_new:>7.1f}x {str(same):>8}")

    setups = [ExtractionSetup(be, float(bw), 1.0)
              for be in (math.log(2.0), 1.0) for bw in np.linspace(0.1, 2.6, 25)]
    ds = range(1, 11)
    points = len(setups) * len(ds)

    def grid():
        return [v.hex() for errors in memory_extraction_grid(setups, ds)
                for v in errors.tolist()]

    row(f"extraction sweeps x{points}",
        lambda: [extraction_by_sweeps(st, d).hex() for d in ds for st in setups], grid)
    row(f"extraction one-point x{points}",
        lambda: [memory_extraction_grid([st], [d])[0][0].hex() for d in ds for st in setups],
        grid)

    xs = np.arange(0.1, 0.95, 0.1)
    orders = [(n, m) for n in range(1, 41) for m in sorted({0, n // 2, n - 1})]
    row(f"L quadrature x{len(orders) * len(xs)}",
        lambda: [L_eval(n, m, x, "quadrature").hex() for n, m in orders for x in xs.tolist()],
        lambda: [v.hex() for n, m in orders
                 for v in L_eval(n, m, xs, "quadrature").tolist()])
    return mismatches


def hull_numpy(points_xy):
    """Andrew's monotone chain with each turn test on numpy rows (the
    chain ``convex_hull_xy`` ran before it moved to Python floats)."""
    pts = np.asarray(points_xy, dtype=np.float64)
    order = np.lexsort((pts[:, 1], pts[:, 0]))

    def build(indices):
        chain = []
        for i in indices:
            while len(chain) >= 2:
                o, a = pts[chain[-2]], pts[chain[-1]]
                if _cross2(a - o, pts[i] - o) <= 1.0e-15:
                    chain.pop()
                else:
                    break
            chain.append(i)
        return chain

    return build(order)[:-1] + build(order[::-1])[:-1]


def bench_validation_geometry(repeats):
    """Print the bisection and hull table; return the rows that differ."""
    print("\nvalidation geometry")
    print(f"{'work':>22} {'reference [ms]':>15} {'new [ms]':>9} {'speedup':>8} "
          f"{'bitwise':>8}")
    mismatches = []

    def row(name, reference, fn):
        t_ref, ref = timed(reference, repeats)
        t_new, new = timed(fn, repeats)
        same = ref == new
        if not same:
            mismatches.append(name)
        print(f"{name:>22} {t_ref * 1e3:>15.2f} {t_new * 1e3:>9.2f} "
              f"{t_ref / t_new:>7.1f}x {str(same):>8}")

    gaps = np.linspace(0.05, 2.5, BISECTION_GAPS).tolist()
    row(f"bisection x{BISECTION_GAPS}",
        lambda: [min_extraction_error_tp(math.log(2.0), w, 1.0).hex() for w in gaps],
        lambda: [v.hex() for v in
                 min_extraction_error_tp(math.log(2.0), np.array(gaps), 1.0).tolist()])
    for depth in HULL_DEPTHS:
        xy = bary_xy(etp_orbit_points(HULL_GAMMA, depth))
        row(f"hull depth {depth} ({len(xy)} pts)", lambda: hull_numpy(xy),
            lambda: convex_hull_xy(xy).tolist())
    return mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", default="10,100,400,1000,2000",
                        help="comma-separated memory dimensions")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    dims = [int(v) for v in args.dims.split(",")]

    print(f"wavefront from d = {WAVEFRONT_MIN_WIDTH}")
    print(f"{'d':>6} {'steps':>10} {'path':>10} {'loop [ms]':>11} "
          f"{'memory_sweep [ms]':>18} {'speedup':>8} {'bitwise':>8}")
    mismatches = []
    for d in dims:
        vec = np.empty(2 * d)
        vec[:d] = 0.2 / d
        vec[d:] = 0.8 / d
        ref_repeats = 1 if d >= SLOW_REFERENCE_D else args.repeats
        t_ref, ref = best_time(_memory_sweep_py, vec, d, ref_repeats)
        t_new, new = best_time(memory_sweep, vec, d, args.repeats)
        same = ref.tobytes() == new.tobytes()
        if not same:
            mismatches.append(d)
        path = "wavefront" if d >= WAVEFRONT_MIN_WIDTH else "loop"
        print(f"{d:>6} {d * d:>10} {path:>10} {t_ref * 1e3:>11.3f} "
              f"{t_new * 1e3:>18.3f} {t_ref / t_new:>7.1f}x {str(same):>8}")
    batch_mismatches = bench_batch(args.repeats)
    narrow_mismatches = bench_narrow(args.repeats)
    incoherent_mismatches = bench_incoherent(args.repeats)
    response_failures = bench_response(args.repeats)
    id_mismatches = bench_I_d(args.repeats)
    exact_mismatches = bench_exact(args.repeats)
    batch_check_mismatches = bench_validation_batches(args.repeats)
    geometry_mismatches = bench_validation_geometry(args.repeats)
    if mismatches:
        print(f"memory_sweep differs from _memory_sweep_py at d = {mismatches}",
              file=sys.stderr)
    if batch_mismatches:
        print(f"the wavefront differs from one sweep at a time: {batch_mismatches}",
              file=sys.stderr)
    if narrow_mismatches:
        print(f"_sweep differs from the two-sum sweep at d = {narrow_mismatches}",
              file=sys.stderr)
    if incoherent_mismatches:
        print(f"cool_incoherent differs from the numpy-scalar rounds at d = "
              f"{incoherent_mismatches}", file=sys.stderr)
    if response_failures:
        print(f"the round response is off its tolerances at d = {response_failures}",
              file=sys.stderr)
    if id_mismatches:
        print(f"the I_d array call differs from the per-point calls at d = {id_mismatches}",
              file=sys.stderr)
    if exact_mismatches:
        print(f"the exact layer differs from its Fraction reference: {exact_mismatches}",
              file=sys.stderr)
    if batch_check_mismatches:
        print(f"a batched check differs from its per-point calls: {batch_check_mismatches}",
              file=sys.stderr)
    if geometry_mismatches:
        print(f"the validation geometry differs from its reference: {geometry_mismatches}",
              file=sys.stderr)
    failed = (mismatches or batch_mismatches or narrow_mismatches or incoherent_mismatches
              or response_failures or id_mismatches or exact_mismatches
              or batch_check_mismatches or geometry_mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
