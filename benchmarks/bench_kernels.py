#!/usr/bin/env python3
"""Time the d^2 sweep kernel, the float I_d closed form, the exact layer and
the batched validation work, each against its reference.

The references that the tests also compare against (the Fraction loops,
the scalar float loop of L, K and I, the numpy-scalar incoherent rounds,
the round response, the per-image orbit and the numpy hull) are imported
from ``tests/reference.py``, their one home.  Every table takes
``--repeats`` alternating samples of the reference and of the new code, and
prints each one's median with its quartiles.

Sweep kernel: for each memory dimension d this times ``_memory_sweep_py``
(the plain loop over Python floats, the reference) against ``memory_sweep``
(which takes the anti-diagonal wavefront once d reaches
``WAVEFRONT_MIN_WIDTH``), each run on a fresh copy of the same input, and
checks that the two leave the same bytes.  The reference is sampled once at
d >= 2000, where one run takes 0.4 s or more.

Batched wavefront: d = 1..d_max, d_max in {30, 200, 400}, cut into
``wavefront_blocks`` with one ``Wavefront`` built and run per block, against
one ``memory_sweep`` per d.  The build of every block's wavefront and the
run of the built ones (inputs filled, swept and copied out) are also
sampled on their own, alternating.  Every row must leave the same bytes as
the per-d sweeps, run on fresh wavefronts and on reused ones.

Narrow pair sweep: the pair step of every cooling round below
``RESPONSE_MIN_D``, the step of ``memory.swap_round`` (one row of
``memory._protocol_totals``) at d in {1, 2, 4, 8}, built once, on Python
floats alone, in microseconds per call, against a numpy-vector pair step
(the vector filled by ``np.full`` and one slice write, swept by
``memory_sweep``, its blocks summed by one ``np.add.reduce``); samples of
``NARROW_CALLS`` calls.  Both must give the same bytes.

Wide single sweeps: one ``simulate_memory_beta_swap`` call at d in
{128, 200, 400}, a one-row batch of the evaluator, against the
numpy-vector pair step (a one-row wavefront inside ``memory_sweep``); both
must give the same bytes.

Incoherent rounds: one 50-round incoherent MMTP run (E = 1, script_E = 2,
beta = 1, beta_hot = 0.2) at d in {1, 8, 64} by ``cool_incoherent``, against
the same rounds on a 4-element numpy state (``incoherent_by_numpy_scalars``):
below ``RESPONSE_MIN_D`` each pair step a ``_memory_sweep_py`` sweep summed
block by block, at d = 64 the round response; both must give the same bytes.

Round response: one 50-round coherent MMTP run (gamma = 0.75) at d in {32,
48, 64, 256, 1000}, two ways: a fresh ``simulate_memory_beta_swap`` every
round, against the swap's 2 x 2 matrix from one two-row
``memory._protocol_totals`` call (``round_response``) and 50 affine steps.
Cooling runs take the response from ``RESPONSE_MIN_D`` on.  The rounds must
stay within 1e-13 of the per-round ones at every d, and up to d = 256 the
response must fix the Gibbs pair and conserve mass within 1e-15: the
tolerances of the tests, which stop at d = 256. At d = 1000 the invariants
are printed but not checked: the d^2 sweep's own rounding there reaches
about 3e-14 (against a long-double sweep, gamma = 0.75), and no bound for it
is derived yet.

I_d: at d in {20, 100, 400, 1000} on fig2's 2000-point W grid (beta E = 0.7,
beta W from 0.05 to 3), this times a loop of one ``I_d_eval`` call per point
against one array call over the grid, in ``--repeats`` alternating samples,
and prints the loop's median per call as the cost of one scalar call.  The
two must give the same bytes on every point, the log-space ones included
(those whose start term (1-x)^d or (1-y)^d is not a normal double).

Exact layer: the integer-numerator forms against the Fraction loops they
replaced, which reduce by a gcd at every operation:
``alternating_fraction``, ``weighted_fraction``, ``delta_d_column_fraction``
and ``I_d_fraction``. The rows are the alternating route of L over the grid
of the ``special-function-routes`` check (n <= 40, float x); the definition
route of L, K and I over the grid of the ``exact-coefficient-recurrence``
check (n in {3, 10, 25}, m in {0, n // 2, n - 1}, x in {1/10, 2/5, 9/10});
``delta_d_column(30, gamma)`` at gamma in {3/5, 3/4, 9/10}, the
``coherent-asymptote-monotone`` check's columns; ``delta_d(400,
Fraction(0.7))``; and exact I_d at d in {100, 200, 500, 1000} on one fig2
point taken from floats (beta E = 0.7, beta W = 1.3), whose Fraction loop
runs only at d <= 200, where one run takes at most about 1 s.  The
alternating route, one grid call, must give the same bytes and every other
row equal Fractions.

The alternating row is timed twice: with the cached per-(n, m) integers
warm, and with the cache cleared before every run (cold), as a fresh
``validate`` process runs it.

Validation batches: the ``memory-extraction-closed-form`` check's grid
(50 setups: beta E in {ln 2, 1}, 25 work gaps from 0.1 to 2.6; d = 1..10) as
500 per-point runs of the two ``memory_sweep`` calls, the protocol as it ran
before the grid existed, and as 500 one-point ``memory_extraction_grid``
calls (one row of the evaluator each, on Python floats), each against one
``memory_extraction_grid`` call over the grid (the evaluator's batched
wavefronts).  Every row must give the same bytes.

Special functions on grids: the definition route of L, K, I, the alternating
route and the quadrature route over the ``special-function-routes`` check's
grid (1053 points), each as one grid call against one call per point: the
scalar float loop of L, K and I (``weighted_float``) for the first three,
and one-point ``L_eval`` calls for the other two.  And I_d over a list of d,
one call, against one call per d: d = 1..40 on the
``extraction-error-ordering`` check's 60 points (beta E = ln 2), and d in
{1, 2, 5, 20, 100, 400, 1000} on a 2000-point fig2-dense grid (beta E =
0.7). Every row must give the same bytes.

Validation geometry: the ``extraction-bisection-grid`` check's 50 work gaps
(beta E = ln 2, beta W from 0.05 to 2.5) as one lockstep call over the grid
(two halvings per batched feasibility test), against the lockstep loop with
one halving per test, kept here, and against one scalar
``min_extraction_error_tp`` call per gap; ``etp_orbit_points`` (gamma =
0.75) at depths 8 and 10, whose states carry their rounded keys, against the
closure that rounds every image anew (``orbit_per_image``); and
``convex_hull_xy`` on those orbits, against the same monotone chain with
each turn test on numpy rows (``hull_numpy``). The bisection and the orbit
must give the same bytes and the hull the same indices.

Exits 1 when any sweep dimension, batch, narrow pair sweep, wide single
sweep, incoherent run, I_d dimension, exact result, validation batch,
special-function grid, bisection, orbit or hull differs, or a round response
is off its tolerances: every ``bitwise`` and ``equal`` cell must read True.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [--dims 10,100,400,1000,2000] [--repeats 5]
"""

import argparse
import math
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from thermoproc._kernels import (WAVEFRONT_MIN_WIDTH, Wavefront, _memory_sweep_py,
                                 memory_sweep, wavefront_blocks)
from thermoproc import combinatorics
from thermoproc.combinatorics import (I_d_eval, I_nm_eval, K_eval, L_eval, delta_d,
                                      delta_d_column)
from thermoproc.cooling import cool_incoherent
from thermoproc.core import Hamiltonian, clip_noise, gibbs_state
from thermoproc.majorization import (BISECTION_ITERATIONS, CURVE_TOL, _dominates,
                                     extraction_target, lorenz_curve,
                                     min_extraction_error_tp)
from thermoproc.memory import RESPONSE_MIN_D, simulate_memory_beta_swap, swap_round
from thermoproc.reachable import bary_xy, convex_hull_xy, etp_orbit_points
from thermoproc.workx import ExtractionSetup, memory_extraction_grid

# the references are the tests' own, kept once in tests/reference.py
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference import (I_d_fraction, alternating_fraction, delta_d_column_fraction,  # noqa: E402
                       hull_numpy, incoherent_by_numpy_scalars, orbit_per_image,
                       round_response, weighted_float, weighted_fraction)

SLOW_REFERENCE_D = 2000
BATCH_D_MAX = (30, 200, 400)
NARROW_DIMS = (1, 2, 4, 8)
NARROW_CALLS = 400
WIDE_SCALAR_DIMS = (128, 200, 400)
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
DELTA_GAMMAS = (Fraction(3, 5), Fraction(3, 4), Fraction(9, 10))
BISECTION_GAPS = 50
HULL_GAMMA = 0.75
HULL_DEPTHS = (8, 10)


def swept(sweep, vec, d):
    """A copy of ``vec`` swept by ``sweep`` at gamma = 0.75."""
    work = vec.copy()
    sweep(work, d, 0.75, 0, d)
    return work


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
    print(f"\nbatched wavefront; median [quartiles] of {repeats} alternating samples")
    print(f"{'sweeps':>16} {'thermalizations':>16} {'one by one [ms]':>24} "
          f"{'wavefront [ms]':>24} {'build [ms]':>24} {'run [ms]':>24} {'speedup':>8} "
          f"{'bitwise':>8}")
    mismatches = []
    for d_max in BATCH_D_MAX:
        name = f"d = 1..{d_max}"
        ds = list(range(1, d_max + 1))
        vecs = [rng.random(2 * d) / (2 * d) for d in ds]
        (ref_t, new_t), (ref, new) = alternating(
            lambda: sweep_each(vecs, ds), lambda: sweep_batch(vecs, ds), repeats)
        wavefronts = build_batch(ds)
        (build_t, run_t), (_, reused) = alternating(
            lambda: build_batch(ds), lambda: sweep_batch(vecs, ds, wavefronts), repeats)
        same = all(x.tobytes() == y.tobytes() == z.tobytes()
                   for x, y, z in zip(ref, new, reused))
        if not same:
            mismatches.append(name)
        print(f"{name:>16} {sum(d * d for d in ds):>16} {spread(ref_t, 1e3, 24, 2)} "
              f"{spread(new_t, 1e3, 24, 2)} {spread(build_t, 1e3, 24, 2)} "
              f"{spread(run_t, 1e3, 24, 2)} {ref_t[0] / new_t[0]:>7.1f}x {str(same):>8}")
    return mismatches


def sweep_numpy_vector(d, gamma, p_ground, p_excited):
    """A pair step on a numpy vector: the populations spread over the slots,
    swept by ``memory_sweep`` and summed by one reduction."""
    vec = np.full(2 * d, p_excited / d)
    vec[:d] = p_ground / d
    memory_sweep(vec, d, gamma, 0, d)
    return np.add.reduce(vec.reshape(2, d), axis=1).tolist()


def alternating(reference, fn, samples):
    """``samples`` calls each of reference() and fn(), alternating: the
    (median, lower quartile, upper quartile) of each one's seconds, and the
    last result of each."""
    times, outs = ([], []), [None, None]
    for _ in range(samples):
        for k, f in enumerate((reference, fn)):
            t0 = time.perf_counter()
            outs[k] = f()
            times[k].append(time.perf_counter() - t0)
    return [quartiles(t) for t in times], outs


def sampled(fn, samples):
    """(median, lower quartile, upper quartile) of the seconds of
    ``samples`` calls of fn()."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return quartiles(times)


def quartiles(times):
    """(median, lower quartile, upper quartile) of the samples."""
    if len(times) < 2:
        return times[0], times[0], times[0]
    q1, median, q3 = statistics.quantiles(times, n=4)
    return median, q1, q3


def spread(stats, scale, width, digits=3):
    """A median and its quartiles, scaled, as "median [q1, q3]"."""
    median, q1, q3 = (x * scale for x in stats)
    return f"{median:.{digits}f} [{q1:.{digits}f}, {q3:.{digits}f}]".rjust(width)


def bench_narrow(repeats):
    """Print the narrow pair-sweep table; return the d whose bytes differ."""
    print(f"\nnarrow pair sweep, {NARROW_CALLS} calls; median [quartiles] of "
          f"{repeats} alternating samples")
    print(f"{'d':>6} {'numpy vector [us/call]':>24} {'swap_round [us/call]':>24} "
          f"{'speedup':>8} {'bitwise':>8}")
    mismatches = []
    masses = np.random.default_rng(2).random((NARROW_CALLS, 2)).tolist()
    for d in NARROW_DIMS:
        step = swap_round(d, 0.75, (0, 1))
        (ref_t, new_t), (ref, new) = alternating(
            lambda: [sweep_numpy_vector(d, 0.75, g, e) for g, e in masses],
            lambda: [[total for (total,) in step(g, e)] for g, e in masses], repeats)
        same = np.array(ref).tobytes() == np.array(new).tobytes()
        if not same:
            mismatches.append(d)
        print(f"{d:>6} {spread(ref_t, 1e6 / NARROW_CALLS, 24, 2)} "
              f"{spread(new_t, 1e6 / NARROW_CALLS, 24, 2)} "
              f"{ref_t[0] / new_t[0]:>7.1f}x {str(same):>8}")
    return mismatches


def bench_wide_scalar(repeats):
    """Print the wide single-sweep table; return the d whose bytes differ."""
    p0, gamma = 0.25, 0.75
    print(f"\none simulate_memory_beta_swap call; median [quartiles] of {repeats} "
          f"alternating samples")
    print(f"{'d':>6} {'numpy vector [ms]':>24} {'one-row batch [ms]':>24} "
          f"{'speedup':>8} {'bitwise':>8}")
    mismatches = []
    for d in WIDE_SCALAR_DIMS:
        (ref_t, new_t), (ref, new) = alternating(
            lambda: sweep_numpy_vector(d, gamma, p0, 1.0 - p0)[0],
            lambda: simulate_memory_beta_swap(d, p0, gamma), repeats)
        same = ref.hex() == new.hex()
        if not same:
            mismatches.append(d)
        print(f"{d:>6} {spread(ref_t, 1e3, 24)} {spread(new_t, 1e3, 24)} "
              f"{ref_t[0] / new_t[0]:>7.2f}x {str(same):>8}")
    return mismatches


def bench_incoherent(repeats):
    """Print the incoherent-run table; return the d whose bytes differ."""
    print(f"\none {ROUNDS}-round incoherent MMTP run; median [quartiles] of {repeats} "
          f"alternating samples")
    print(f"{'d':>6} {'numpy scalars [ms]':>24} {'Python floats [ms]':>24} "
          f"{'speedup':>8} {'bitwise':>8}")
    mismatches = []
    for d in INCOHERENT_DIMS:
        (ref_t, new_t), (ref, new) = alternating(
            lambda: incoherent_by_numpy_scalars("MMTP", ROUNDS, d, **INCOHERENT),
            lambda: cool_incoherent("MMTP", ROUNDS, d=d, **INCOHERENT), repeats)
        same = ref.tobytes() == new.tobytes()
        if not same:
            mismatches.append(d)
        print(f"{d:>6} {spread(ref_t, 1e3, 24)} {spread(new_t, 1e3, 24)} "
              f"{ref_t[0] / new_t[0]:>7.1f}x {str(same):>8}")
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
    (a_g, _), (b_g, _) = round_response(d, gamma)
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
          f"takes the response from d = {RESPONSE_MIN_D}; median [quartiles] of "
          f"{repeats} alternating samples")
    print(f"{'d':>6} {'per-round sweeps [ms]':>26} {'response [ms]':>24} "
          f"{'speedup':>8} {'max |diff|':>11} {'invariants':>11}")
    failures = []
    for d in RESPONSE_DIMS:
        (ref_t, new_t), (ref, new) = alternating(
            lambda: rounds_by_sweeps(d, gamma), lambda: rounds_by_response(d, gamma),
            repeats)
        (a_g, a_e), (b_g, b_e) = round_response(d, gamma)
        invariants = max(abs(gamma * a_g + (1.0 - gamma) * b_g - gamma),
                         abs(a_g + a_e - 1.0), abs(b_g + b_e - 1.0))
        diff = float(np.abs(new - ref).max())
        checked = d <= INVARIANT_MAX_D
        if (checked and invariants > INVARIANT_TOL) or diff > ROUNDS_TOL:
            failures.append(d)
        print(f"{d:>6} {spread(ref_t, 1e3, 26, 2)} {spread(new_t, 1e3, 24)} "
              f"{ref_t[0] / new_t[0]:>7.1f}x {diff:>11.1e} {invariants:>11.1e}"
              + ("" if checked else " (not checked)"))
    return failures


def bench_I_d(repeats):
    """Print the I_d table; return the dimensions whose bytes differ."""
    setups = [ExtractionSetup(0.7, float(w), 1.0)
              for w in np.linspace(0.05, 3.0, I_D_POINTS)]
    x = np.array([1.0 - st.gamma_delta for st in setups])
    y = np.array([1.0 - st.gamma_W for st in setups])
    print(f"\nI_d over a {I_D_POINTS}-point W grid; median [quartiles] of {repeats} "
          f"alternating samples")
    print(f"{'d':>6} {'log rows':>9} {'per point [ms]':>24} {'array [ms]':>24} "
          f"{'scalar [us]':>12} {'speedup':>8} {'bitwise':>8}")
    mismatches = []
    for d in I_D_DIMS:
        (loop_t, array_t), (loop, grid) = alternating(
            lambda: np.array([I_d_eval(d, a, b) for a, b in zip(x.tolist(), y.tolist())]),
            lambda: I_d_eval(d, x, y), repeats)
        log_rows = sum(min((1.0 - a) ** d, (1.0 - b) ** d) < sys.float_info.min
                       for a, b in zip(x.tolist(), y.tolist()))
        same = loop.tobytes() == grid.tobytes()
        if not same:
            mismatches.append(d)
        print(f"{d:>6} {log_rows:>9} {spread(loop_t, 1e3, 24, 1)} "
              f"{spread(array_t, 1e3, 24, 2)} {loop_t[0] * 1e6 / I_D_POINTS:>12.1f} "
              f"{loop_t[0] / array_t[0]:>7.1f}x {str(same):>8}")
    return mismatches


def bench_exact(repeats):
    """Print the exact-layer table; return the names of the rows that differ."""
    grid = [(n, m, float(x)) for n in range(1, 41) for m in sorted({0, n // 2, n - 1})
            for x in np.arange(0.1, 0.95, 0.1)]
    # the exact-coefficient-recurrence check's grid
    rational = [(n, m, x) for n in (3, 10, 25) for m in (0, n // 2, n - 1)
                for x in (Fraction(1, 10), Fraction(2, 5), Fraction(9, 10))]
    print(f"\nexact layer; median [quartiles] of {repeats} alternating samples")
    print(f"{'function':>24} {'Fraction [ms]':>26} {'integer [ms]':>26} "
          f"{'speedup':>8} {'equal':>6}")
    mismatches = []

    def row(name, reference, fn):
        if reference is None:
            new_t = sampled(fn, repeats)
            print(f"{name:>24} {'-':>26} {spread(new_t, 1e3, 26, 2)} {'-':>8} {'-':>6}")
            return
        (ref_t, new_t), (ref, new) = alternating(reference, fn, repeats)
        same = ref == new
        if not same:
            mismatches.append(name)
        print(f"{name:>24} {spread(ref_t, 1e3, 26, 1)} {spread(new_t, 1e3, 26, 2)} "
              f"{ref_t[0] / new_t[0]:>7.1f}x {str(same):>6}")

    n, m, x = (np.array(v) for v in zip(*grid))

    def alternating_grid():
        return [v.hex() for v in L_eval(n, m, x, "alternating").tolist()]

    def alternating_cold():
        combinatorics._alternating_coefficients.cache_clear()
        return alternating_grid()

    row(f"L alternating x{len(grid)}",
        lambda: [alternating_fraction(*args).hex() for args in grid], alternating_grid)
    row("  (cold cache)", None, alternating_cold)
    row(f"L definition x{len(rational)}",
        lambda: [weighted_fraction(n, m, x, 1, 0) for n, m, x in rational],
        lambda: [L_eval(n, m, x) for n, m, x in rational])
    row(f"K x{len(rational)}",
        lambda: [weighted_fraction(n, m, x, 0, 1) / n for n, m, x in rational],
        lambda: [K_eval(n, m, x) for n, m, x in rational])
    row(f"I x{len(rational)}",
        lambda: [weighted_fraction(n, m, x, n, -1) / n for n, m, x in rational],
        lambda: [I_nm_eval(n, m, x) for n, m, x in rational])
    for gamma in DELTA_GAMMAS:
        row(f"delta_d_column(30, {gamma})", lambda: delta_d_column_fraction(30, gamma),
            lambda: delta_d_column(30, gamma))
    gamma = Fraction(0.7)
    row("delta_d(400, 0.7)", lambda: delta_d_column_fraction(400, gamma)[-1],
        lambda: delta_d(400, gamma))
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
    print(f"\nvalidation batches; median [quartiles] of {repeats} alternating samples")
    print(f"{'work':>26} {'per point [ms]':>24} {'batched [ms]':>24} {'speedup':>8} "
          f"{'bitwise':>8}")
    mismatches = []

    def row(name, reference, fn):
        (ref_t, new_t), (ref, new) = alternating(reference, fn, repeats)
        same = ref == new
        if not same:
            mismatches.append(name)
        print(f"{name:>26} {spread(ref_t, 1e3, 24, 2)} {spread(new_t, 1e3, 24, 2)} "
              f"{ref_t[0] / new_t[0]:>7.1f}x {str(same):>8}")

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
    return mismatches


def bench_special_function_grids(repeats):
    """Print the grid table of L, K, I and I_d; return the rows that differ."""
    print(f"\nspecial functions on grids; median [quartiles] of {repeats} alternating "
          f"samples")
    print(f"{'work':>26} {'per point [ms]':>24} {'grid [ms]':>24} {'speedup':>8} "
          f"{'bitwise':>8}")
    mismatches = []

    def row(name, reference, fn):
        (ref_t, new_t), (ref, new) = alternating(reference, fn, repeats)
        same = ref == new
        if not same:
            mismatches.append(name)
        print(f"{name:>26} {spread(ref_t, 1e3, 24, 2)} {spread(new_t, 1e3, 24, 2)} "
              f"{ref_t[0] / new_t[0]:>7.1f}x {str(same):>8}")

    # the special-function-routes check's grid
    xs = np.arange(0.1, 0.95, 0.1)
    orders = [(n, m) for n in range(1, 41) for m in sorted({0, n // 2, n - 1})]
    n, m = np.repeat(np.array(orders).T, len(xs), axis=1)
    x = np.tile(xs, len(orders))
    points = list(zip(n.tolist(), m.tolist(), x.tolist()))

    def hexes(values):
        return [v.hex() for v in values]

    for name, scalar, fn in (
            ("L definition", lambda a, b, c: weighted_float(a, b, c, 1, 0), L_eval),
            ("K", lambda a, b, c: weighted_float(a, b, c, 0, 1) / a, K_eval),
            ("I", lambda a, b, c: weighted_float(a, b, c, a, -1) / a, I_nm_eval)):
        row(f"{name} x{len(points)}", lambda scalar=scalar: hexes(
            scalar(*point) for point in points), lambda fn=fn: hexes(fn(n, m, x).tolist()))
    for route in ("alternating", "quadrature"):
        row(f"L {route} x{len(points)}",
            lambda route=route: hexes(L_eval(*point, route) for point in points),
            lambda route=route: hexes(L_eval(n, m, x, route).tolist()))

    # the extraction-error-ordering check's grid, and the fig2-dense one
    for beta_E, points, ds in ((math.log(2.0), 60, range(1, 41)),
                               (0.7, I_D_POINTS, (1, 2, 5, 20, 100, 400, 1000))):
        setups = [ExtractionSetup(beta_E, float(w), 1.0)
                  for w in np.linspace(0.05, 3.0, points)]
        x_d = np.array([1.0 - st.gamma_delta for st in setups])
        y_d = np.array([1.0 - st.gamma_W for st in setups])
        row(f"I_d x{points}, {len(ds)} d",
            lambda: [I_d_eval(d, x_d, y_d).tobytes() for d in ds],
            lambda: [v.tobytes() for v in I_d_eval(ds, x_d, y_d)])
    return mismatches


def bisection_one_halving(E, W, beta):
    """``min_extraction_error_tp`` over an array of gaps with one halving per
    batched feasibility test, 64 tests on n rows (the loop the two-halving
    tests replaced)."""
    ws = np.asarray(W, dtype=np.float64).tolist()
    tau = np.array([gibbs_state(Hamiltonian((0.0, w, E, E + w)), beta).probs for w in ws])
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
    return hi


def bench_validation_geometry(repeats):
    """Print the bisection, orbit and hull table; return the rows that differ."""
    print(f"\nvalidation geometry; median [quartiles] of {repeats} alternating samples")
    print(f"{'work':>26} {'reference [ms]':>26} {'new [ms]':>24} {'speedup':>8} "
          f"{'bitwise':>8}")
    mismatches = []

    def row(name, reference, fn):
        (ref_t, new_t), (ref, new) = alternating(reference, fn, repeats)
        same = ref == new
        if not same:
            mismatches.append(name)
        print(f"{name:>26} {spread(ref_t, 1e3, 26, 2)} {spread(new_t, 1e3, 24, 2)} "
              f"{ref_t[0] / new_t[0]:>7.1f}x {str(same):>8}")

    e = math.log(2.0)
    gaps = np.linspace(0.05, 2.5, BISECTION_GAPS)

    def grid():
        return [v.hex() for v in min_extraction_error_tp(e, gaps, 1.0).tolist()]

    row(f"bisection x{BISECTION_GAPS}, 1 halving",
        lambda: [v.hex() for v in bisection_one_halving(e, gaps, 1.0).tolist()], grid)
    row(f"bisection x{BISECTION_GAPS}, scalar",
        lambda: [min_extraction_error_tp(e, w, 1.0).hex() for w in gaps.tolist()], grid)
    for depth in HULL_DEPTHS:
        row(f"orbit depth {depth}",
            lambda: orbit_per_image(HULL_GAMMA, depth).tobytes(),
            lambda: etp_orbit_points(HULL_GAMMA, depth).tobytes())
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

    print(f"wavefront from d = {WAVEFRONT_MIN_WIDTH}; median [quartiles] of "
          f"{args.repeats} alternating samples, the loop once from d = {SLOW_REFERENCE_D}")
    print(f"{'d':>6} {'steps':>10} {'path':>10} {'loop [ms]':>26} "
          f"{'memory_sweep [ms]':>26} {'speedup':>8} {'bitwise':>8}")
    mismatches = []
    for d in dims:
        vec = np.empty(2 * d)
        vec[:d] = 0.2 / d
        vec[d:] = 0.8 / d
        ref_samples = 1 if d >= SLOW_REFERENCE_D else args.repeats
        (ref_t, new_t), (ref, new) = alternating(
            lambda: swept(_memory_sweep_py, vec, d), lambda: swept(memory_sweep, vec, d),
            ref_samples)
        if ref_samples < args.repeats:
            new_t = sampled(lambda: swept(memory_sweep, vec, d), args.repeats)
        same = ref.tobytes() == new.tobytes()
        if not same:
            mismatches.append(d)
        path = "wavefront" if d >= WAVEFRONT_MIN_WIDTH else "loop"
        print(f"{d:>6} {d * d:>10} {path:>10} {spread(ref_t, 1e3, 26)} "
              f"{spread(new_t, 1e3, 26)} {ref_t[0] / new_t[0]:>7.1f}x {str(same):>8}")
    batch_mismatches = bench_batch(args.repeats)
    narrow_mismatches = bench_narrow(args.repeats)
    wide_mismatches = bench_wide_scalar(args.repeats)
    incoherent_mismatches = bench_incoherent(args.repeats)
    response_failures = bench_response(args.repeats)
    id_mismatches = bench_I_d(args.repeats)
    exact_mismatches = bench_exact(args.repeats)
    batch_check_mismatches = bench_validation_batches(args.repeats)
    grid_mismatches = bench_special_function_grids(args.repeats)
    geometry_mismatches = bench_validation_geometry(args.repeats)
    if mismatches:
        print(f"memory_sweep differs from _memory_sweep_py at d = {mismatches}",
              file=sys.stderr)
    if batch_mismatches:
        print(f"the wavefront differs from one sweep at a time: {batch_mismatches}",
              file=sys.stderr)
    if narrow_mismatches:
        print(f"the narrow evaluator differs from the numpy-vector pair step at d = "
              f"{narrow_mismatches}", file=sys.stderr)
    if wide_mismatches:
        print(f"a wide simulate_memory_beta_swap call differs from the numpy-vector "
              f"pair step at d = {wide_mismatches}", file=sys.stderr)
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
    if grid_mismatches:
        print(f"a special-function grid differs from its per-point calls: {grid_mismatches}",
              file=sys.stderr)
    if geometry_mismatches:
        print(f"the validation geometry differs from its reference: {geometry_mismatches}",
              file=sys.stderr)
    failed = (mismatches or batch_mismatches or narrow_mismatches or wide_mismatches
              or incoherent_mismatches
              or response_failures or id_mismatches or exact_mismatches
              or batch_check_mismatches or grid_mismatches or geometry_mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
