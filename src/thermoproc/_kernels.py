"""The d^2 full-thermalization sweep, the hot loop of every memory protocol.

Every protocol in this package reduces to sweeps of two-level full
thermalizations applied in place to a population vector: for each slot a_k
(k = 0..d-1, ascending) and each slot b_j (j = 0..d-1), the pooled mass
a_k + b_j splits ``weight_a`` to a_k and the rest to b_j.  Writing t[k, j]
for a_k after its step against b_j, the sweep is the 2-D recurrence

    t[k, j] = w (t[k, j-1] + b_j after row k-1),

so a cell depends only on its left and upper neighbours.  The cells of one
anti-diagonal k + j = s therefore do not depend on each other, and
``Wavefront`` updates a whole anti-diagonal with three numpy calls on slices
of one buffer.  Each cell still sees the same IEEE operations in the same
order as in the plain loop, so the two implementations agree bit for bit.

``Wavefront`` runs B independent sweeps of sizes ``ds`` together, on one
buffer in which the rows are interleaved: a_k of row i sits at buf[k*B + i]
and b_j at buf[B*D + (D-1-j)*B + i], where D is the largest d.  The b-blocks
are stored reversed, so the cells (k, s-k) of anti-diagonal s, for k from lo
to hi-1, read and write the a slots buf[lo*B:hi*B] and the b slots of one
equally long run that starts at B*D + (D-1-s+lo)*B, every row's cell next to
the same cell of the other rows.
One step is then three numpy calls on two contiguous 1-D slices of the
buffer, which numpy runs on its fast path.  Rows stored one after the other
would make every step a 2-D strided view, on which numpy's general iterator
makes a run of two rows of d = 256 cost 2 to 3 times one of one row; on the
interleaved buffer it costs 1.0 to 1.2 times as much (2-CPU x86 host).
A row with d_i < D is padded to D.  Its padded cells (k >= d_i or j >= d_i)
never feed a real one, since a real cell reads only its left and upper
neighbours, which are real; the layout changes where a cell is stored, not
which cells it reads.  But padded cells do overwrite finished slots: cell
(e, d_i) overwrites the final a_e and cell (d_i, e) the final b_e.  So a
wavefront with such rows copies each slot out after step s = e + d_i - 1,
where it takes its final value; one whose rows all have its largest d, a
single sweep say, copies nothing and runs exactly the steps of that sweep.
The slices of every step and the indices of every copy are built with the
wavefront, once; ``run`` may then be called any number of times.
A slot's copy key is one more than the step after which it is final, 0 for
a padded slot, so the keys lie in 0..2D-1.  They are held in the smallest
unsigned type that holds 2D-1, on which numpy's stable argsort is a radix
sort up to D = 32768: it lists the slots step by step, each step's slots in
buffer order, and the running key counts (``np.bincount``, ``np.cumsum``)
cut that list into one slice of copy indices per step, the pads' leading
slice dropped.

Each row may sweep with its own weight: ``weight_a`` is one float for every
row, or one weight per row, as a grid of work-extraction setups needs.  The
weight operand of every step is chosen once, when the wavefront is built.
One weight is a 0-d array, on which numpy's per-call cost is smallest.
Per-row weights are tiled D times, and a step takes the prefix as long as its
slices: every slice starts at a multiple of B, so the prefix puts row i's
weight on row i's cells.  ``run`` makes the same three numpy calls per step
either way; tiling one weight as well would slow the one-weight batches
d = 1..30 and 1..200 by 14% and 16% (medians of interleaved runs, 2-CPU x86
host).

``wavefront_blocks`` cuts a batch of many sweeps into blocks: rows sorted by
d, at most ``_BLOCK_ELEMENTS`` doubles per buffer, each block padded only to
its own largest d.  That bounds the padded work, and, as a caller builds and
runs the wavefront of one block at a time, the memory, whatever the largest d.

A numpy call costs about a microsecond whatever its length, so the wavefront
pays off only when anti-diagonals are long:

  - ``memory_sweep`` takes it for a one-off sweep when the widest
    anti-diagonal, d, is at least ``WAVEFRONT_MIN_WIDTH`` and otherwise
    runs ``_memory_sweep_py``, the plain loop over Python floats, which is
    also the reference the tests compare the wavefront against.  On a 2-CPU
    x86 host the two break even between d = 124 and d = 140 (three
    interleaved measurements); within 16 of that they differ by less than
    10%.
  - That loop is ``_sweep_lists``, on two lists of Python floats.
    ``_memory_sweep_py`` runs it on two blocks of a vector, which it
    validates and copies out and back; the pair step of a memory cooling
    round (``memory._sweep``) builds its two lists and runs it with no numpy
    call at all, and sums its blocks in numpy's pairwise order, so that its
    totals keep the bits of a numpy reduction.
  - A batch of many sweeps takes the wavefront at any d, since its
    anti-diagonals span all of its rows: d = 1..30 costs about two thirds
    of one sweep per d, and d = 1..200 a tenth to a fifth.
"""

from __future__ import annotations

import operator

import numpy as np

# the width from which a one-off sweep takes the wavefront; measured as told
# above
WAVEFRONT_MIN_WIDTH = 128

# doubles per buffer of one wavefront block: bounds a batch's memory whatever
# its largest d, and the padded cells its shorter rows compute.  On a 2-CPU
# x86 host (best of 10, three noisy runs), at 2^11, 2^12, 2^13 and 2^14:
# d = 1..200 takes 13-25, 10-14, 9-11 and 9-11 ms, d = 1..400 77-130, 63-86,
# 46-64 and 45-52 ms, and a process that has run four sweep-scaled passes
# peaks at 34.7, 34.7, 34.9 and 35.5 MB.  With the cheaper build (a radix
# sort of the copy keys, no np.split) the same host ran d = 1..200 in
# 13.1-14.2 ms at 2^12 against 11.7-12.2 ms at 2^13, and d = 1..400 in 75-83
# against 59-61 ms (best of 10, three runs); but in the benchmark 2^13 moved
# the sweep-scaled median wall time by -0.9% (4 of 6 pairs faster) and the
# default-suite one by +2.0% (1 of 4), its peak RSS by -0.2 MB, so 2^12 stays
_BLOCK_ELEMENTS = 1 << 12


def backend_name() -> str:
    """The kernel path, recorded with benchmark results."""
    return "numpy"


def _check_sweep(vec, d, base_a, base_b):
    """Reject layouts on which the sweep is ill-defined."""
    if d < 1:
        raise ValueError("sweep dimension d must be >= 1")
    if min(base_a, base_b) < 0 or max(base_a, base_b) + d > len(vec):
        raise ValueError("sweep blocks must lie inside the vector")
    if abs(base_a - base_b) < d:
        raise ValueError("sweep blocks must not overlap")


def _sweep_lists(a, b, weight_a):
    """The sweep on two equally long lists of Python floats, in place: for
    each a_k in turn, against each b_j in turn, the pooled mass a_k + b_j
    splits ``weight_a`` to a_k and the rest to b_j."""
    w = float(weight_a)
    v = 1.0 - w
    d = len(a)
    for k in range(d):
        x = a[k]
        for j in range(d):
            total = x + b[j]
            x = w * total
            b[j] = v * total
        a[k] = x


def _memory_sweep_py(vec, d, weight_a, base_a, base_b):
    """d^2 full thermalizations between two slot blocks of a flat vector.

    Outer loop over slots base_a..base_a+d-1, inner loop over slots
    base_b..base_b+d-1; the pooled mass splits ``weight_a`` to the base_a
    slot.  This is the elementary sweep that simulates a beta-swap with a
    d-dimensional memory.  Operates in place.
    """
    _check_sweep(vec, d, base_a, base_b)
    a = vec[base_a:base_a + d].tolist()
    b = vec[base_b:base_b + d].tolist()
    _sweep_lists(a, b, weight_a)
    vec[base_a:base_a + d] = a
    vec[base_b:base_b + d] = b


def wavefront_blocks(ds):
    """Indices into ``ds`` sorted by d and cut into blocks of sweeps for one
    ``Wavefront`` each: a block's buffers hold at most ``_BLOCK_ELEMENTS``
    doubles, unless a single sweep is larger than that."""
    blocks, rows = [], []
    for i in sorted(range(len(ds)), key=ds.__getitem__):
        if rows and (len(rows) + 1) * ds[i] > _BLOCK_ELEMENTS:
            blocks.append(rows)
            rows = []
        rows.append(i)
    return blocks + [rows] if rows else blocks


class Wavefront:
    """Independent sweeps, run together one anti-diagonal at a time on one
    padded buffer.

    Row i sweeps ``ds[i]`` outer slots against ``ds[i]`` inner slots, with
    its weight going to the outer slot as in ``_memory_sweep_py``.
    ``weight_a`` is one float for every row, or a sequence of one weight per
    row.  The slices of every step, their weight operands and the
    final-value copies are built here, once; ``run`` may then be called any
    number of times.
    """

    def __init__(self, ds, weight_a):
        ds = [operator.index(d) for d in ds]
        if not ds or min(ds) < 1:
            raise ValueError("every sweep needs d >= 1")
        n, d = len(ds), max(ds)
        w = np.array(weight_a, dtype=np.float64)
        if w.ndim == 0:
            # 0-d arrays: numpy multiplies by them with less per-call overhead
            # than by Python floats or by arrays, and to the same bits
            v = np.array(1.0 - float(w))
        elif w.shape == (n,):
            w = np.tile(w, d)
            v = 1.0 - w
        else:
            raise ValueError(f"weight_a must be one float or one weight per row "
                             f"({n}), got shape {w.shape}")
        self._buf = buf = np.zeros(2 * n * d)
        # at[k, i] is a_k of row i, bt[d-1-j, i] its b_j
        self._at = buf[:n * d].reshape(d, n)
        self._bt = buf[n * d:].reshape(d, n)
        if min(ds) == d:
            copies = [None] * (2 * d - 1)
            self._final = buf
            self._real_a = self._real_b = Ellipsis  # every slot is real
        else:
            # the smallest unsigned type that holds the keys 0..2d-1: on one of
            # 16 bits or less numpy's stable argsort is a radix sort
            key_type = np.min_scalar_type(2 * d - 1)
            k = np.arange(d, dtype=key_type)[:, None]
            # the b_j in each row of bt
            j = np.arange(d - 1, -1, -1, dtype=key_type)[:, None]
            ds = np.array(ds, dtype=key_type)
            self._real_a, self._real_b = k < ds, j < ds
            # one more than the step after which each slot is final; 0 for a pad
            key = np.concatenate([np.where(self._real_a, k + ds, 0).ravel(),
                                  np.where(self._real_b, ds + j, 0).ravel()])
            order = np.argsort(key, kind="stable")
            # step s copies order[ends[s]:ends[s + 1]]; the pads, first in
            # ``order``, are dropped
            ends = np.cumsum(np.bincount(key, minlength=2 * d)).tolist()
            copies = [order[lo:hi] if hi > lo else None
                      for lo, hi in zip(ends, ends[1:])]
            self._final = np.zeros_like(buf)
        # step s: its a and b slices, its weight operands, and the slots that
        # are final after it.  Up to s = d-1 the a slice is the prefix of the
        # a part, of s+1 cells per row, and the b slice the suffix of the b
        # part as long; from there on the a slice is a suffix and the b slice
        # a prefix, one cell per row shorter each step
        a_part, b_part = buf[:n * d], buf[n * d:]
        a_slices = ([a_part[:m] for m in range(n, n * d + 1, n)]
                    + [a_part[m:] for m in range(n, n * d, n)])
        b_slices = ([b_part[m:] for m in range((d - 1) * n, -1, -n)]
                    + [b_part[:m] for m in range((d - 1) * n, 0, -n)])
        if w.ndim:
            # each step's slices start at a multiple of n, so a prefix of the
            # tiled weights puts each row's weight on its own cells
            ws = [w[:len(ai)] for ai in a_slices]
            vs = [v[:len(ai)] for ai in a_slices]
        else:
            ws, vs = [w] * len(copies), [v] * len(copies)
        self._steps = list(zip(a_slices, b_slices, ws, vs, copies))
        self._final_at = self._final[:n * d].reshape(d, n)
        self._final_bt = self._final[n * d:].reshape(d, n)

    def run(self, a, b):
        """Run every sweep in place on the 2-D arrays ``a`` and ``b``.

        Row i's outer slots are a[i, :ds[i]] and its inner slots b[i, :ds[i]];
        the entries past those are left as they are.
        """
        # views of a and b in the buffer's layout, and the real slots of each;
        # padded slots keep what the last run left in them: finite values that
        # never feed a real slot
        at, bt = a[:, :len(self._at)].T, b[:, :len(self._bt)].T[::-1]
        real_a, real_b = self._real_a, self._real_b
        self._at[real_a] = at[real_a]
        self._bt[real_b] = bt[real_b]
        add, mul = np.add, np.multiply
        buf, final = self._buf, self._final
        for ai, t, w, v, idx in self._steps:
            add(ai, t, t)  # b_j holds the pooled mass until the last call
            mul(t, w, ai)
            mul(t, v, t)
            if idx is not None:
                final[idx] = buf[idx]
        at[real_a] = self._final_at[real_a]
        bt[real_b] = self._final_bt[real_b]


def memory_sweep(vec, d, weight_a, base_a, base_b):
    """Run the sweep of ``_memory_sweep_py`` in place, by the faster path.

    Raises ValueError when the two blocks overlap or leave the vector.
    """
    if d < WAVEFRONT_MIN_WIDTH:
        _memory_sweep_py(vec, d, weight_a, base_a, base_b)
        return
    _check_sweep(vec, d, base_a, base_b)
    Wavefront([d], weight_a).run(vec[None, base_a:base_a + d],
                                 vec[None, base_b:base_b + d])
