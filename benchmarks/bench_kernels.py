#!/usr/bin/env python3
"""Time the d^2 sweep kernel, the float I_d closed form, the exact layer and
the batched validation work, each against its reference.

Every table is a ``Table`` of ``Row``s, which one runner, ``run_table``,
prints.  A row holds its label, the reference, the new code and the check
that compares their results: by default equal bits for floats and arrays
and equal values for Fractions and integers.  The runner takes ``--repeats``
alternating samples of both, prints each one's median with its quartiles
and the speedup, and returns the labels of the rows that fail their check:
a ``bitwise`` or ``equal`` cell that reads False, or a round response off
its tolerances.  ``main`` names each such row on stderr and exits 1.
The references that the tests also use are imported from
``tests/reference.py``, their one home.

Sweep kernel: for each memory dimension d this times ``_memory_sweep_py``
(the plain loop over Python floats, the reference) against ``memory_sweep``
(a one-row anti-diagonal wavefront), each run on a fresh copy of the same
input, and checks that the two leave the same bytes.  The reference is
sampled once at d >= 2000, where one run takes 0.4 s or more.

Batched wavefront: d = 1..d_max, d_max in {30, 200, 400}, cut into
``wavefront_blocks`` with one ``run_wavefront`` call per block, against one
``memory_sweep`` per d, a one-row wavefront, as the evaluator runs a single
row.  Every row must leave the same bytes as the per-d sweeps.

Narrow pair sweep: the pair step (g, e) -> (g', e') of every cooling round
below ``RESPONSE_MIN_D``, the step ``memory.swap_round(d, gamma)`` returns
(the list loop, to the bits of one row of ``memory._protocol_totals``), at
d in {1, 2, 4, 8}, built once, on Python floats alone, in microseconds per
call, against a numpy-vector pair step (the vector filled by ``np.full``
and one slice write, swept by the loop, its blocks summed by one
``np.add.reduce``); samples of ``NARROW_CALLS`` calls.  Both must give the
same bytes.

Single sweeps: one ``simulate_memory_beta_swap`` call at d in {2, 8, 128,
200, 400}, a one-row batch of the evaluator, against the numpy-vector pair
step swept by ``memory_sweep`` (a one-row wavefront); both must give the
same bytes.  At d = 2 and 8 the row is as small as a qutrit point's.

Incoherent rounds: one 50-round incoherent run (E = 1, script_E = 2, beta =
1, beta_hot = 0.2) of TP, MTP and MMTP at d in {1, 8, 64} by
``cool_incoherent``, on the system's (ground, excited) pair, against the same
rounds on a 4-element numpy state (``incoherent_by_numpy_scalars``, with the
weights of the scalar oracles ``scalar_gamma`` to ``scalar_p_star``): below
``RESPONSE_MIN_D`` each MMTP pair step a ``_memory_sweep_py`` sweep summed
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
against one array call over the grid, and prints the loop's median per call
as the cost of one scalar call.  The two must give the same bytes on every
point, the anchored rows included: those of a window that starts past its
first cell, and whole rows whose start term (1-x)^d or (1-y)^d is not a
normal double, whose points the table counts.

I_d windows: on the same grid and d, the serial kernel ``_I_d_float`` on
its windows against the full-row reference, the same kernel with every row
whole (``_WINDOW_MIN_D`` raised past ``MAX_FLOAT_D``).  At each point whose
windows are whole rows of normal start terms both must give the bits of
``per_point_I_d`` (``tests/reference.py``); at ``I_D_EXACT_SAMPLES`` evenly
spaced points of the others the windowed value must lie within d 2^-52 of
exact I_d, relative.  The cells are the whole points, the other points, and
the share of the whole rows' cells that the windows keep.

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
(50 points: beta E in {ln 2, 1}, 25 work gaps from 0.1 to 2.6; d = 1..10) as
500 per-point runs of the two loop sweeps, the protocol as it ran before
the grid existed, and as 500 one-point ``memory_extraction_grid`` calls (one
row of the evaluator each, on Python floats), each against the check's two
``memory_extraction_grid`` calls, one per beta E (the evaluator's batched
wavefronts).  Every row must give the same bytes.

Special functions on grids: the definition route of L, K, I, the alternating
route and the quadrature route over the ``special-function-routes`` check's
grid (1053 points), each as one grid call against one call per point: the
scalar float loop of L, K and I (``weighted_float``) for the first three,
and one-point ``L_eval`` calls for the other two.  And I_d over a list of d,
one call, against one call per d: d = 1..40 on the
``extraction-error-ordering`` check's 60 points (beta E = ln 2), and d in
{1, 2, 5, 20, 100, 400, 1000} on a 2000-point fig2-dense grid (beta E =
0.7). The fig2-dense row also times, alternating, the serial kernel
``_I_d_float`` against the same call split in two processes
(``combinatorics._I_d_parts``, through ``_split.map_parts``), which a
call that large takes on a host with two usable CPUs.  The last row is the
fork round trip alone: a split of a two-point d = 1 call, one point in the
child.  Every row must give the same bytes.

Validation geometry: the ``swap-simulation-closed-form`` check's 300 (d,
p0, gamma) points as one ``simulate_memory_beta_swap`` call per point
against one call over the grid;
``etp_orbit_points`` (gamma = 0.75) at depths 8 and 10, whose states carry
their rounded keys, against the closure that rounds every image anew
(``orbit_per_image``); ``convex_hull_xy`` on the orbits at depths 8, 10
and 12, against the same monotone chain with each turn test on numpy rows
(``hull_numpy``); and ``qutrit_mmtp2_vertices`` on ten gammas in one call,
which runs A_1 and B_1 as one batch with a row per gamma and mirrors them,
against all four vertices run for each gamma
(``qutrit_vertices_four_runs``). The swap grid, the orbit and the
vertices must give the same bytes and the hull the same indices.

Validate: ``validation.run_checks()`` with ``_split.usable_cpus`` fixed
to 1 (every check in this process) against 2 (the checks split in two by
``_split.map_parts``); the two JSON reports must be the same bytes.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [--dims 10,100,400,1000,2000] [--repeats 5]
"""

import argparse
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from thermoproc._kernels import _memory_sweep_py, memory_sweep, run_wavefront, wavefront_blocks
from thermoproc import _split, combinatorics, validation
from thermoproc.combinatorics import (I_d_eval, I_nm_eval, K_eval, L_eval, delta_d,
                                      delta_d_column)
from thermoproc.cooling import cool_incoherent
from thermoproc.core import clip_noise
from thermoproc.memory import RESPONSE_MIN_D, simulate_memory_beta_swap, swap_round
from thermoproc.reachable import (bary_xy, convex_hull_xy, etp_orbit_points,
                                  qutrit_mmtp2_vertices)
from thermoproc.workx import extraction_closed_forms, memory_extraction_grid

# the references are the tests' own, kept once in tests/reference.py
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference import (I_d_fraction, alternating_fraction, delta_d_column_fraction,  # noqa: E402
                       hull_numpy, incoherent_by_numpy_scalars, lki_references,
                       orbit_per_image, per_point_I_d, qutrit_vertices_four_runs,
                       round_response, scalar_gamma_delta, scalar_gamma_w, weighted_float,
                       weighted_fraction, whole_row_points)

SLOW_REFERENCE_D = 2000
BATCH_D_MAX = (30, 200, 400)
NARROW_DIMS = (1, 2, 4, 8)
NARROW_CALLS = 400
WIDE_SCALAR_DIMS = (2, 8, 128, 200, 400)
INCOHERENT = dict(E=1.0, script_E=2.0, beta=1.0, beta_hot=0.2)
INCOHERENT_RUNS = (("TP", None), ("MTP", None), ("MMTP", 1), ("MMTP", 8), ("MMTP", 64))
RESPONSE_DIMS = (32, 48, 64, 256, 1000)
ROUNDS = 50
RESPONSE_GAMMA = 0.75
INVARIANT_TOL = 1e-15
INVARIANT_MAX_D = 256
ROUNDS_TOL = 1e-13
I_D_DIMS = (20, 100, 400, 1000)
I_D_POINTS = 2000
I_D_EXACT_SAMPLES = 8
EXACT_I_D_DIMS = (100, 200, 500, 1000)
FRACTION_REFERENCE_MAX_D = 200
DELTA_GAMMAS = (Fraction(3, 5), Fraction(3, 4), Fraction(9, 10))
HULL_GAMMA = 0.75
ORBIT_DEPTHS = (8, 10)
HULL_DEPTHS = (8, 10, 12)
SWAP_GAMMAS = (0.55, 0.65, 0.75, 0.85, 0.95)
QUTRIT_GAMMAS = np.linspace(0.55, 0.95, 10).tolist()
LKI_NAMES, LKI = ("L definition", "K", "I"), (L_eval, K_eval, I_nm_eval)


def bits(value):
    """``value`` as it is compared: each float as its hex string, arrays and
    sequences entry by entry, anything else (Fractions, integers) as it is."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return value


def same(*results):
    """The default check: every result has the bits of the first."""
    first = bits(results[0])
    ok = all(bits(r) == first for r in results[1:])
    return ok, [str(ok)]


@dataclass
class Row:
    """One row of a table.  ``reference`` and ``new`` take no argument;
    ``check(reference result, new result)`` returns whether they agree and
    the cells that show it.  A row with no reference is timed alone.
    ``cells`` follow the label; ``reference_once`` samples a slow reference
    once; each (reference, new) pair of ``also`` is sampled alternately for
    two more timing columns."""
    label: str
    reference: object
    new: object
    check: object = same
    cells: tuple = ()
    reference_once: bool = False
    also: tuple = ()


@dataclass
class Table:
    """A title, the headers of the label, cell, timing and check columns,
    and the rows.  Timings print in seconds times ``scale``; ``per_call``,
    when set, adds the reference's median per call in microseconds."""
    title: str
    label: str
    rows: list
    times: tuple = ("reference [ms]", "new [ms]")
    checks: tuple = ("bitwise",)
    cells: tuple = ()
    scale: float = 1e3
    digits: int = 2
    per_call: int = 0


def alternating(fns, samples):
    """``samples`` calls of each of ``fns``, alternating: the (median, lower
    quartile, upper quartile) of each one's seconds, and its last result."""
    times, outs = [[] for _ in fns], [None] * len(fns)
    for _ in range(samples):
        for k, f in enumerate(fns):
            t0 = time.perf_counter()
            outs[k] = f()
            times[k].append(time.perf_counter() - t0)
    return [quartiles(t) for t in times], outs


def quartiles(times):
    """(median, lower quartile, upper quartile) of the samples."""
    if len(times) < 2:
        return times[0], times[0], times[0]
    q1, median, q3 = statistics.quantiles(times, n=4)
    return median, q1, q3


def run_table(table, repeats):
    """Print ``table`` from ``repeats`` alternating samples of each row;
    return the labels of the rows that fail their check."""
    columns = [(table.label, max(len(row.label) for row in table.rows))]
    columns += [(name, 9) for name in table.cells]
    columns += [(name, 26) for name in table.times]
    columns += ([("scalar [us]", 12)] if table.per_call else []) + [("speedup", 8)]
    columns += [(name, 8) for name in table.checks]
    widths = [max(len(name), width) for name, width in columns]
    print(f"\n{table.title}; median [quartiles] of {repeats} alternating samples")
    print(" ".join(name.rjust(w) for (name, _), w in zip(columns, widths)))

    def spread(stats):
        median, q1, q3 = (f"{x * table.scale:.{table.digits}f}" for x in stats)
        return f"{median} [{q1}, {q3}]"

    failed = []
    for row in table.rows:
        if row.reference is None:
            (new_t,), _ = alternating([row.new], repeats)
            times = ["-", spread(new_t)]
            derived = ["-"] * (1 + bool(table.per_call))
            checks = ["-"] * len(table.checks)
        else:
            (ref_t, new_t), (ref, new) = alternating(
                [row.reference, row.new], 1 if row.reference_once else repeats)
            if row.reference_once:
                (new_t,), _ = alternating([row.new], repeats)
            ok, checks = row.check(ref, new)
            if not ok:
                failed.append(row.label)
            pairs = [ref_t, new_t]
            for pair in row.also:
                pairs += alternating(pair, repeats)[0]
            times = [spread(t) for t in pairs]
            derived = [f"{ref_t[0] * 1e6 / table.per_call:.1f}"] if table.per_call else []
            derived.append(f"{ref_t[0] / new_t[0]:.2f}x")
        times += ["-"] * (len(table.times) - len(times))  # rows without ``also``
        cells = [row.label, *row.cells, *times, *derived, *checks]
        print(" ".join(cell.rjust(w) for cell, w in zip(cells, widths)))
    return failed


def swept(kernel, vec, d):
    """A copy of ``vec`` swept by ``kernel`` at gamma = 0.75."""
    work = vec.copy()
    kernel(work, d, 0.75, 0, d)
    return work


def sweep_table(dims):
    rows = []
    for d in dims:
        vec = np.repeat([0.2 / d, 0.8 / d], d)
        rows.append(Row(str(d), partial(swept, _memory_sweep_py, vec, d),
                        partial(swept, memory_sweep, vec, d), cells=(str(d * d),),
                        reference_once=d >= SLOW_REFERENCE_D))
    return Table(f"sweep kernel, the loop once from d = {SLOW_REFERENCE_D}", "d", rows,
                 cells=("steps",), times=("loop [ms]", "memory_sweep [ms]"), digits=3)


def sweep_batch(vecs, ds):
    """The same sweeps cut into ``wavefront_blocks`` and run by one
    ``run_wavefront`` call per block, as the batched callers run them; the
    swept vectors."""
    out = [None] * len(ds)
    for rows in wavefront_blocks(ds):
        block = [ds[i] for i in rows]
        a, b = np.zeros((len(rows), max(block))), np.zeros((len(rows), max(block)))
        for r, (i, d) in enumerate(zip(rows, block)):
            a[r, :d], b[r, :d] = vecs[i][:d], vecs[i][d:]
        run_wavefront(block, 0.75, a, b)
        for r, (i, d) in enumerate(zip(rows, block)):
            out[i] = np.concatenate([a[r, :d], b[r, :d]])
    return out


def batch_table():
    rng = np.random.default_rng(1)
    rows = []
    for d_max in BATCH_D_MAX:
        ds = list(range(1, d_max + 1))
        vecs = [rng.random(2 * d) / (2 * d) for d in ds]
        rows.append(Row(f"d = 1..{d_max}",
                        lambda vecs=vecs, ds=ds: list(map(partial(swept, memory_sweep), vecs, ds)),
                        partial(sweep_batch, vecs, ds),
                        cells=(str(sum(d * d for d in ds)),)))
    return Table("batched wavefront", "sweeps", rows, cells=("thermalizations",),
                 times=("one by one [ms]", "wavefront [ms]"))


def pair_step_on_vector(kernel, d, gamma, p_ground, p_excited):
    """A pair step on a numpy vector: the populations spread over the slots,
    swept by ``kernel`` and summed by one reduction."""
    vec = np.full(2 * d, p_excited / d)
    vec[:d] = p_ground / d
    kernel(vec, d, gamma, 0, d)
    return np.add.reduce(vec.reshape(2, d), axis=1).tolist()


def narrow_table():
    masses = np.random.default_rng(2).random((NARROW_CALLS, 2)).tolist()
    rows = [Row(str(d), lambda d=d: [pair_step_on_vector(_memory_sweep_py, d, 0.75, g, e)
                                     for g, e in masses],
                lambda step=swap_round(d, 0.75): [list(step(g, e)) for g, e in masses])
            for d in NARROW_DIMS]
    return Table(f"narrow pair sweep, {NARROW_CALLS} calls", "d", rows,
                 times=("numpy vector [us/call]", "swap_round [us/call]"),
                 scale=1e6 / NARROW_CALLS)


def wide_table():
    p0, gamma = 0.25, 0.75
    rows = [Row(str(d), lambda d=d: pair_step_on_vector(memory_sweep, d, gamma, p0, 1.0 - p0)[0],
                partial(simulate_memory_beta_swap, d, p0, gamma))
            for d in WIDE_SCALAR_DIMS]
    return Table("one simulate_memory_beta_swap call", "d", rows,
                 times=("numpy vector [ms]", "one-row batch [ms]"), digits=3)


def incoherent_table():
    rows = [Row(process if d is None else f"{process} {d}",
                partial(incoherent_by_numpy_scalars, process, ROUNDS, d, **INCOHERENT),
                partial(cool_incoherent, process, ROUNDS, d=d, **INCOHERENT))
            for process, d in INCOHERENT_RUNS]
    return Table(f"one {ROUNDS}-round incoherent run", "class, d", rows,
                 times=("numpy scalars [ms]", "Python floats [ms]"), digits=3)


def coherent_rounds(step, gamma):
    """The coherent MMTP rounds from gamma, each ``step(inverted)``."""
    p, pops = gamma, []
    for _ in range(ROUNDS):
        p = clip_noise(step(1.0 - p))
        pops.append(p)
    return np.array(pops)


def rounds_by_sweeps(d, gamma):
    """The rounds, each a fresh d^2 sweep."""
    return coherent_rounds(lambda inverted: simulate_memory_beta_swap(d, inverted, gamma), gamma)


def rounds_by_response(d, gamma):
    """The same rounds stepped through one round response."""
    (a_g, _), (b_g, _) = round_response(d, gamma)
    return coherent_rounds(lambda inverted: inverted * a_g + (1.0 - inverted) * b_g, gamma)


def within_tolerances(d, gamma, ref, new):
    """The round-response check: the rounds within ``ROUNDS_TOL`` of the
    per-round sweeps and, up to ``INVARIANT_MAX_D``, the Gibbs pair fixed
    and the mass conserved within ``INVARIANT_TOL``."""
    (a_g, a_e), (b_g, b_e) = round_response(d, gamma)
    invariants = max(abs(gamma * a_g + (1.0 - gamma) * b_g - gamma),
                     abs(a_g + a_e - 1.0), abs(b_g + b_e - 1.0))
    diff = float(np.abs(new - ref).max())
    checked = d <= INVARIANT_MAX_D
    ok = diff <= ROUNDS_TOL and (invariants <= INVARIANT_TOL or not checked)
    return ok, [f"{diff:.1e}", f"{invariants:.1e}" + ("" if checked else " (not checked)")]


def response_table():
    gamma = RESPONSE_GAMMA
    rows = [Row(str(d), partial(rounds_by_sweeps, d, gamma), partial(rounds_by_response, d, gamma),
                check=partial(within_tolerances, d, gamma))
            for d in RESPONSE_DIMS]
    return Table(f"one {ROUNDS}-round coherent MMTP run, gamma = {gamma}; cooling takes "
                 f"the response from d = {RESPONSE_MIN_D}", "d", rows,
                 times=("per-round sweeps [ms]", "response [ms]"),
                 checks=("max |diff|", "invariants"))


def fig2_xy(beta_E, size):
    """The x = 1 - gamma_delta and y = 1 - gamma_W arrays of a fig2 W grid
    of ``size`` points from 0.05 to 3."""
    return extraction_closed_forms(beta_E, np.linspace(0.05, 3.0, size), 1.0)[3:]


def routes_grid():
    """The special-function-routes check's grid (n <= 40, 1053 points): its
    n, m and x arrays, and its points as tuples of Python numbers."""
    xs = np.arange(0.1, 0.95, 0.1)
    orders = [(n, m) for n in range(1, 41) for m in sorted({0, n // 2, n - 1})]
    n, m = np.repeat(np.array(orders).T, len(xs), axis=1)
    x = np.tile(xs, len(orders))
    return n, m, x, list(zip(n.tolist(), m.tolist(), x.tolist()))


def I_d_table():
    x, y = fig2_xy(0.7, I_D_POINTS)
    points = list(zip(x.tolist(), y.tolist()))
    # a point whose start term (1-x)^d or (1-y)^d is not a normal double
    rows = [Row(str(d), lambda d=d: [I_d_eval(d, a, b) for a, b in points],
                partial(I_d_eval, d, x, y),
                cells=(str(sum(min((1.0 - a) ** d, (1.0 - b) ** d) < sys.float_info.min
                               for a, b in points)),))
            for d in I_D_DIMS]
    return Table(f"I_d over a {I_D_POINTS}-point W grid", "d", rows, cells=("underflow",),
                 times=("per point [ms]", "array [ms]"), per_call=I_D_POINTS)


def whole_rows(d, x, y):
    """The serial kernel with every row whole, as before the windows."""
    smallest, combinatorics._WINDOW_MIN_D = (combinatorics._WINDOW_MIN_D,
                                             combinatorics.MAX_FLOAT_D + 1)
    try:
        return combinatorics._I_d_float([d], x, y)[0]
    finally:
        combinatorics._WINDOW_MIN_D = smallest


def window_check(d, x, y):
    """The check of the windowed kernel against whole rows: the same bits
    as ``per_point_I_d`` at each point whose windows are whole rows of
    normal start terms, and within d 2^-52 of exact I_d, relative, at
    ``I_D_EXACT_SAMPLES`` evenly spaced points of the others; and the
    table row's cells: the count of those whole points and of the others,
    and the share of the whole rows' cells that the windows keep."""
    _, lx, _, ly, mirror, separated = (a[0] for a in combinatorics._windows([d], x, y))
    whole = np.flatnonzero(whole_row_points(d, x, y))
    cut = np.setdiff1d(np.arange(len(x)), whole)

    def check(reference, new):
        formula = [per_point_I_d(d, x[k], y[k]) for k in whole]
        bitwise = bits(new[whole]) == bits(formula) == bits(reference[whole])
        worst = 0.0
        for k in cut[::max(1, -(-len(cut) // I_D_EXACT_SAMPLES))]:
            exact = I_d_eval(d, Fraction(x[k]), Fraction(y[k]))
            worst = max(worst, float(abs(Fraction(new[k]) - exact) / exact))
        ok = bitwise and worst <= d * 2.0 ** -52
        return ok, [str(bitwise), f"{worst:.1e}"]
    kept = (2 * lx * mirror + (lx + ly) * separated).sum() / (2 * d * len(x))
    return check, (str(len(whole)), str(len(cut)), f"{kept:.2f}")


def window_table():
    x, y = fig2_xy(0.7, I_D_POINTS)
    rows = []
    for d in I_D_DIMS:
        check, cells = window_check(d, x, y)
        rows.append(Row(str(d), partial(whole_rows, d, x, y),
                        lambda d=d: combinatorics._I_d_float([d], x, y)[0], check=check,
                        cells=cells))
    return Table(f"I_d windows over a {I_D_POINTS}-point W grid, serial", "d", rows,
                 cells=("whole", "cut", "kept"),
                 times=("whole rows [ms]", "windows [ms]"), checks=("bitwise", "exact"))


def exact_table():
    n, m, x, grid = routes_grid()
    # the exact-coefficient-recurrence check's grid
    rational = [(n, m, x) for n in (3, 10, 25) for m in (0, n // 2, n - 1)
                for x in (Fraction(1, 10), Fraction(2, 5), Fraction(9, 10))]

    def alternating_cold():
        combinatorics._alternating_coefficients.cache_clear()
        return L_eval(n, m, x, "alternating")

    rows = [
        Row(f"L alternating x{len(grid)}",
            lambda: [alternating_fraction(*args) for args in grid],
            partial(L_eval, n, m, x, "alternating")),
        Row("  (cold cache)", None, alternating_cold),
    ]
    rows += [Row(f"{name} x{len(rational)}", lambda ref=ref: [ref(*p) for p in rational],
                 lambda fn=fn: [fn(*p) for p in rational])
             for name, fn, ref in zip(LKI_NAMES, LKI, lki_references(weighted_fraction))]
    rows += [Row(f"delta_d_column(30, {gamma})", partial(delta_d_column_fraction, 30, gamma),
                 partial(delta_d_column, 30, gamma)) for gamma in DELTA_GAMMAS]
    gamma = Fraction(0.7)
    rows.append(Row("delta_d(400, 0.7)", lambda: delta_d_column_fraction(400, gamma)[-1],
                    partial(delta_d, 400, gamma)))
    x_d, y_d = (Fraction(float(v[0])) for v in extraction_closed_forms(0.7, (1.3,), 1.0)[3:])
    rows += [Row(f"I_d d={d}", partial(I_d_fraction, d, x_d, y_d)
                 if d <= FRACTION_REFERENCE_MAX_D else None, partial(I_d_eval, d, x_d, y_d))
             for d in EXACT_I_D_DIMS]
    return Table("exact layer", "function", rows,
                 times=("Fraction [ms]", "integer [ms]"), checks=("equal",))


def extraction_by_sweeps(gamma_delta, gamma_w, d):
    """One point of the two-step extraction protocol as two loop sweeps on
    a 4d-slot vector."""
    vec = np.zeros(4 * d)
    vec[2 * d:3 * d] = 1.0 / d
    _memory_sweep_py(vec, d, gamma_delta, 2 * d, d)
    _memory_sweep_py(vec, d, gamma_w, 2 * d, 3 * d)
    return float(vec[2 * d:3 * d].sum())


def validation_batch_table():
    beta_es, gaps, ds = (math.log(2.0), 1.0), np.linspace(0.1, 2.6, 25).tolist(), range(1, 11)
    points = len(beta_es) * len(gaps) * len(ds)
    weights = [(scalar_gamma_delta(be, w, 1.0), scalar_gamma_w(be, w, 1.0))
               for be in beta_es for w in gaps]

    def grid():
        # the check's calls, one per beta_E, rejoined in (d, beta_E, W) order
        per_beta_e = [memory_extraction_grid(be, gaps, 1.0, ds) for be in beta_es]
        return [np.concatenate(rows) for rows in zip(*per_beta_e)]

    rows = [Row(f"extraction sweeps x{points}",
                lambda: [[extraction_by_sweeps(*pair, d) for pair in weights] for d in ds], grid),
            Row(f"extraction one-point x{points}",
                lambda: [[memory_extraction_grid(be, w, 1.0, [d])[0][0]
                          for be in beta_es for w in gaps] for d in ds],
                grid)]
    return Table("validation batches", "work", rows,
                 times=("per point [ms]", "batched [ms]"))


def validation_report(cpus):
    """The JSON report of ``validation.run_checks()`` on a host with
    ``cpus`` usable CPUs."""
    usable_cpus, _split.usable_cpus = _split.usable_cpus, lambda: cpus
    try:
        results = validation.run_checks()
    finally:
        _split.usable_cpus = usable_cpus
    return json.dumps(validation.summarize(results), indent=2, sort_keys=True)


def validate_table():
    rows = [Row(f"validate, {len(validation.ALL_CHECKS)} checks",
                partial(validation_report, 1), partial(validation_report, 2))]
    return Table("validate", "work", rows, times=("serial [ms]", "split in 2 [ms]"))


def special_function_table():
    n, m, x, points = routes_grid()
    rows = [Row(f"{name} x{len(points)}", lambda ref=ref: [ref(*p) for p in points],
                partial(fn, n, m, x))
            for name, fn, ref in zip(LKI_NAMES, LKI, lki_references(weighted_float))]
    rows += [Row(f"L {route} x{len(points)}",
                 lambda route=route: [L_eval(*point, route) for point in points],
                 partial(L_eval, n, m, x, route))
             for route in ("alternating", "quadrature")]
    # the extraction-error-ordering check's grid, and the fig2-dense one
    x_o, y_o = fig2_xy(math.log(2.0), 60)
    rows.append(Row("I_d x60, 40 d", lambda: [I_d_eval(d, x_o, y_o) for d in range(1, 41)],
                    partial(I_d_eval, range(1, 41), x_o, y_o)))
    ds = (1, 2, 5, 20, 100, 400, 1000)
    x_d, y_d = fig2_xy(0.7, I_D_POINTS)
    serial = partial(combinatorics._I_d_float, ds, x_d, y_d)
    split = partial(combinatorics._I_d_parts, ds, x_d, y_d, 2)
    rows.append(Row(f"I_d x{I_D_POINTS}, {len(ds)} d",
                    lambda: [I_d_eval(d, x_d, y_d) for d in ds], partial(I_d_eval, ds, x_d, y_d),
                    check=lambda ref, new: same(ref, new, serial(), split()),
                    also=((serial, split),)))
    rows.append(Row("fork round trip, 2 points in 2 parts", None,
                    partial(combinatorics._I_d_parts, [1], x_d[:2], y_d[:2], 2)))
    return Table("special functions on grids", "work", rows,
                 times=("per point [ms]", "grid [ms]", "serial kernel [ms]", "split in 2 [ms]"))


def geometry_table():
    # the swap-simulation-closed-form check's grid
    swaps = [(d, p0, g) for d in range(1, 13) for g in SWAP_GAMMAS
             for p0 in (0.0, 0.25, 0.5, g, 0.9)]
    rows = [Row(f"swap grid x{len(swaps)}: per point vs one batch",
                lambda: [simulate_memory_beta_swap(*point) for point in swaps],
                partial(simulate_memory_beta_swap, *zip(*swaps)))]
    rows += [Row(f"orbit depth {depth}", partial(orbit_per_image, HULL_GAMMA, depth),
                 partial(etp_orbit_points, HULL_GAMMA, depth)) for depth in ORBIT_DEPTHS]
    for depth in HULL_DEPTHS:
        xy = bary_xy(etp_orbit_points(HULL_GAMMA, depth))
        rows.append(Row(f"hull depth {depth} ({len(xy)} pts)", partial(hull_numpy, xy),
                        partial(convex_hull_xy, xy)))

    rows.append(Row(f"qutrit vertices x{len(QUTRIT_GAMMAS)} γ: four runs each vs one batch",
                    lambda: [[v.probs for v in qutrit_vertices_four_runs(g)]
                             for g in QUTRIT_GAMMAS],
                    lambda: [[v.probs for v in four]
                             for four in qutrit_mmtp2_vertices(QUTRIT_GAMMAS)]))
    return Table("validation geometry", "work", rows, times=("reference [ms]", "new [ms]"))


# every table after the sweep kernel's, in the order they print
TABLES = (batch_table, narrow_table, wide_table, incoherent_table, response_table,
          I_d_table, window_table, exact_table, validation_batch_table, special_function_table,
          geometry_table, validate_table)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", default="10,100,400,1000,2000",
                        type=lambda dims: [int(d) for d in dims.split(",")],
                        help="comma-separated memory dimensions")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    failed = []
    for build in (partial(sweep_table, args.dims), *TABLES):
        table = build()
        failed += [f"{table.title}: {label}" for label in run_table(table, args.repeats)]
    for name in failed:
        print(f"fails its check: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
