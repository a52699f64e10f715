"""Simulating a beta-swap on a qubit with a maximally mixed d-level memory.

The protocol runs d^2 full two-level thermalizations on the composite of a
qubit (ground weight ``gamma`` in equilibrium) and a d-dimensional memory
with trivial Hamiltonian: sweep k = 1..d over ground slots, and inside each
sweep thermalize |g,k> against every excited slot |e,j>, j = 1..d.  A single
memory refresh at the very end returns the memory to uniform; refreshing
earlier would erase the correlations the protocol exploits.

The resulting ground population has the closed form

    p_d = 1 - p0 (1-gamma)/gamma - (gamma - p0) delta_d(gamma),

i.e. the exact swap output minus a Catalan-tail correction that decays like
(4 gamma (1-gamma))^d d^{-3/2}.

Every memory protocol of the package has one form: b system blocks of d
memory slots each start from p (x) uniform, run an ordered list of block
sweeps of full two-level thermalizations, and end with one memory refresh.
This swap and a cooling round have b = 2 and one sweep, the extraction of
``workx`` b = 4 and two, the qutrit points of ``reachable`` b = 3 and one or
two.  One evaluator, ``_protocol_totals``, runs them all.  A protocol is
linear in p, so from unit masses it gives the b x b stochastic matrix M of
its action on the system; for this swap M = [[A_g, B_g], [A_e, B_e]].

One MMTP cooling round is this swap, with a fresh memory, on a qubit pair:
(g0, e1) under incoherent control, (inverted, 1 - inverted) under coherent
control.  ``swap_round`` is that pair step, (g, e) -> (g', e') with

    g' = g A_g + e B_g,    e' = g A_e + e B_e,

two Python floats on both of its paths, and it alone decides how a round
runs; a coherent round keeps g' alone.  From ``RESPONSE_MIN_D`` on it asks
the evaluator once for M and steps through it.  Below it each round runs
its own sweep, for one reason only: the default cooling runs (d <= 8) then
keep their output bytes, which M would change in 184 of 280 values, each by
at most 1.1e-15.  From d = 48 on, 50 rounds on M stay within 1e-14 of a
long-double reference (at most 4.2e-15 in the tests' cases, where per-round
sweeps reach 1.6e-14).

The evaluator runs batched wavefronts, one ``run_wavefront`` call per sweep
and block of rows, for any rows at any d: a batch's anti-diagonals span all
of its rows, so d = 1..30 costs about two thirds of one sweep per d, and
d = 1..200 a tenth to a fifth.  A row's totals are the bits of its sweeps on
a numpy vector summed block by block, so they do not depend on the batch it
runs in.  The per-round sweep of ``swap_round`` is the one other caller of a
kernel: a cooling run makes up to 50 of them on a few cells each, where a
numpy call's fixed cost of about a microsecond would outweigh the work.  So
it runs the list loop of ``_kernels`` (``_sweep_lists``) on Python floats
and sums each block with ``_pairwise_sum``, in the order numpy's reduction
sums a contiguous float64 array: the bits of a one-row evaluator call.
"""

from __future__ import annotations

import numpy as np

from ._kernels import _sweep_lists, run_wavefront, wavefront_blocks
from .combinatorics import _require_int

# the memory dimension from which ``swap_round`` steps through the swap's
# matrix; see the module docstring for why smaller d keep the per-round sweep
RESPONSE_MIN_D = 48


def _pairwise_sum(values):
    """The sum of a list of at most 128 Python floats in numpy's pairwise
    order, to the bits of ``np.add.reduce`` on the same values as a float64
    array.  Its one caller sums a block of ``swap_round``'s per-round sweep,
    which runs only below ``RESPONSE_MIN_D`` slots, so at most
    ``RESPONSE_MIN_D`` - 1 values.

    Below 8 values numpy adds them in order from 0.0.  Up to 128 it keeps
    eight running sums, r_j of the values at j, j + 8, ... below the largest
    multiple of 8, combines them as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and
    adds the rest in order.  The built-in ``sum`` will not do for the running
    sums: from Python 3.12 on it adds floats with compensation, to other bits.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for x in values:
            total += x
        return total
    body = n - n % 8
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    for i in range(8, body, 8):
        x0, x1, x2, x3, x4, x5, x6, x7 = values[i:i + 8]
        r0, r1, r2, r3, r4, r5, r6, r7 = (r0 + x0, r1 + x1, r2 + x2, r3 + x3,
                                          r4 + x4, r5 + x5, r6 + x6, r7 + x7)
    # numpy adds the pairwise sum to 0.0, which can only turn -0.0 into +0.0
    total = 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    for x in values[body:]:
        total += x
    return total


def _protocol_totals(ds, sweeps, start, read):
    """Run one memory protocol per row; ``totals[r][i]`` is the total of
    block ``read[r]`` in row i, a Python float.

    Row i has blocks of ``ds[i]`` slots and starts with ``start[i][k] /
    ds[i]`` in each slot of block k; a start shared by all rows is best
    passed as one float row under ``np.broadcast_to``, which spares the
    parse of a list of rows.  ``sweeps`` lists the block sweeps
    ``(outer, inner, weight)`` in order, outer != inner, the weight one
    float or one per row.  With b rows of one d, ``start`` the identity and
    ``read`` every block, ``totals`` is the protocol's matrix M.  Every
    call runs batched wavefronts (see the module docstring).
    """
    start = np.asarray(start, dtype=np.float64)
    sizes = np.array(ds, dtype=np.float64)[:, None]
    weights = [np.asarray(weight, dtype=np.float64) for _, _, weight in sweeps]
    totals = [[0.0] * len(ds) for _ in read]
    for rows in wavefront_blocks(ds):
        block = [ds[i] for i in rows]
        # slots[k, r] is block k of row rows[r], padded to the block's largest d
        slots = np.empty((start.shape[1], len(rows), block[-1]))
        np.divide(start[rows].T[:, :, None], sizes[rows], out=slots)
        for (outer, inner, _), weight in zip(sweeps, weights):
            run_wavefront(block, weight[rows] if weight.ndim else weight,
                          slots[outer], slots[inner])
        for out, k in zip(totals, read):
            for i, d, row in zip(rows, block, slots[k]):
                out[i] = float(row[:d].sum())
    return totals


def swap_round(d: int, gamma: float):
    """The MMTP pair step of one cooling round: a function (g, e) -> (g', e'),
    the ground and excited totals of the pair after one swap simulation with
    a fresh d-level memory, two Python floats.

    Below ``RESPONSE_MIN_D`` each call sweeps the pair's slots by the list
    loop, to the bits of a one-row ``_protocol_totals`` call; from there on
    the calls step through the swap's matrix, built once here.
    """
    if d < RESPONSE_MIN_D:
        weight = float(gamma)

        def step(g, e):
            a, b = [g / d] * d, [e / d] * d
            _sweep_lists(a, b, weight)
            return _pairwise_sum(a), _pairwise_sum(b)
        return step
    swap = ((0, 1, gamma),)
    (a_g, b_g), (a_e, b_e) = _protocol_totals([d, d], swap, ((1.0, 0.0), (0.0, 1.0)), (0, 1))

    def step(g, e):
        return g * a_g + e * b_g, g * a_e + e * b_e
    return step


def _per_d(value, n, name):
    """``value`` as given when it is one number, else as a float array of
    one entry per memory dimension; ``n`` is their count, None for one d."""
    if not hasattr(value, "__iter__"):
        return value
    values = np.asarray(value, dtype=np.float64)
    if values.ndim == 0:
        return value
    if values.shape != (n,):
        raise ValueError(f"{name} must be one number or one per memory dimension")
    return values


def simulate_memory_beta_swap(d, p0, gamma):
    """Run the d^2-step protocol and return the final ground population.

    ``d`` is one memory dimension, or a sequence of them; a sequence gives
    an array, bit for bit the values of one call per d.  With a sequence of
    d, ``p0`` and ``gamma`` may each be one number or a sequence as long as
    d, whose entry i goes with d[i] (entries may repeat): a validation grid
    of (d, p0, gamma) points is then one batch of the evaluator, with one
    start and one weight per row.
    """
    scalar = not hasattr(d, "__iter__")
    ds = [_require_int(k, "memory dimension d", 1) for k in ([d] if scalar else d)]
    n = None if scalar else len(ds)
    p0, gamma = _per_d(p0, n, "p0"), _per_d(gamma, n, "gamma")
    # written so that a NaN, which fails every comparison, is rejected
    if not np.all((0.0 <= p0) & (p0 <= 1.0)):
        raise ValueError("p0 must lie in [0, 1]")
    if not np.all((0.0 < gamma) & (gamma < 1.0)):
        raise ValueError("gamma must lie in (0, 1)")
    # one p0 for every d starts from a broadcast row, cheaper than a list of rows
    if isinstance(p0, np.ndarray):
        start = np.column_stack((p0, 1.0 - p0))
    else:
        start = np.broadcast_to((p0, 1.0 - p0), (len(ds), 2))
    (ground,) = _protocol_totals(ds, ((0, 1, gamma),), start, (0,))
    return ground[0] if scalar else np.array(ground)


def _p_d(p0, gamma, delta):
    """Ground population after the protocol from p0, given the tail
    ``delta`` = delta_d(gamma); floats or Fractions."""
    return 1 - p0 * (1 - gamma) / gamma - (gamma - p0) * delta
