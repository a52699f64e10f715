"""The d^2 sweep kernel: the wavefront equals the plain loop bit for bit."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoproc import _kernels
from thermoproc._kernels import _memory_sweep_py, memory_sweep, run_wavefront, wavefront_blocks
from thermoproc.memory import WAVEFRONT_MIN_WIDTH

DIMS = sorted({1, 2, 3, 17, 111, 112, 113, 257,
               WAVEFRONT_MIN_WIDTH - 1, WAVEFRONT_MIN_WIDTH})


def numpy_element_loop(vec, d, weight_a, base_a, base_b, rows=None):
    """The sweep written out over numpy scalars, one element at a time, with
    the a slots visited in the order ``rows`` (default ascending)."""
    for k in range(d) if rows is None else rows:
        a = base_a + k
        for j in range(d):
            b = base_b + j
            total = vec[a] + vec[b]
            vec[a] = weight_a * total
            vec[b] = (1.0 - weight_a) * total


def in_order(sweep, rows):
    """``sweep`` with the a slots visited in the order ``rows``, a
    permutation of range(d): the a block is permuted into that order, swept
    in ascending order and permuted back, as the work-extraction tests probe
    drain orders.  None keeps the ascending order."""
    if rows is None:
        return sweep

    def ordered(vec, d, weight_a, base_a, base_b):
        a = vec[base_a:base_a + d]
        a[:] = a[rows]
        sweep(vec, d, weight_a, base_a, base_b)
        a[rows] = a.copy()
    return ordered


def layouts(d):
    """(base_a, base_b, vector length) of every caller's block layout:
    memory, the workx swap step and drain, the cooling pair step, and the
    qutrit MMTP2 points (d = 2 only)."""
    out = [(0, d, 2 * d), (2 * d, d, 4 * d), (2 * d, 3 * d, 4 * d), (0, 3 * d, 4 * d)]
    if d == 2:
        out += [(0, 2 * target, 6) for target in (1, 2)]
    return out


def row_orders(d, rng):
    """Visiting orders of the a slots: ascending, as None and spelled out,
    reversed, random, and ascending with a single random transposition."""
    single = list(range(d))
    i, j = rng.integers(d, size=2)
    single[i], single[j] = single[j], single[i]
    return {"default": None, "identity": list(range(d)),
            "reversed": list(range(d))[::-1], "random": rng.permutation(d).tolist(),
            "single": single}


def sweep_cases():
    rng = np.random.default_rng(7)
    for d in DIMS:
        for base_a, base_b, n in layouts(d):
            for name, rows in row_orders(d, rng).items():
                yield pytest.param(d, base_a, base_b, rng.random(n),
                                   rng.uniform(0.5, 1.0), rows,
                                   id=f"d{d}-a{base_a}-b{base_b}-{name}")


def run(fn, vec, d, weight, base_a, base_b, rows):
    """``fn``'s sweep of a copy of ``vec``, visiting the a slots in ``rows``."""
    out = vec.copy()
    in_order(fn, rows)(out, d, weight, base_a, base_b)
    return out


def run_element_loop(vec, d, weight, base_a, base_b, rows):
    out = vec.copy()
    numpy_element_loop(out, d, weight, base_a, base_b, rows)
    return out


class TestBitwise:
    @pytest.mark.parametrize("d, base_a, base_b, vec, weight, rows",
                             list(sweep_cases()))
    def test_wavefront_equals_the_loop(self, d, base_a, base_b, vec, weight, rows):
        expected = run(_memory_sweep_py, vec, d, weight, base_a, base_b, rows)
        got = run(memory_sweep, vec, d, weight, base_a, base_b, rows)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 17, 113])
    def test_list_loop_equals_numpy_element_loop(self, d):
        rng = np.random.default_rng(d)
        for base_a, base_b, n in layouts(d):
            for rows in row_orders(d, rng).values():
                vec, weight = rng.random(n), rng.uniform(0.5, 1.0)
                a = run(_memory_sweep_py, vec, d, weight, base_a, base_b, rows)
                b = run_element_loop(vec, d, weight, base_a, base_b, rows)
                assert a.tobytes() == b.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_all_three_agree(self, data):
        d = data.draw(st.integers(1, 24), label="d")
        base_a, base_b, n = data.draw(st.sampled_from(layouts(d)), label="layout")
        vec = np.array(data.draw(st.lists(
            st.floats(0.0, 1.0, allow_subnormal=False), min_size=n, max_size=n)))
        weight = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        rows = data.draw(st.none() | st.permutations(range(d)), label="rows")
        expected = run_element_loop(vec, d, weight, base_a, base_b, rows)
        for fn in (_memory_sweep_py, memory_sweep):
            got = run(fn, vec, d, weight, base_a, base_b, rows)
            assert got.tobytes() == expected.tobytes(), fn.__name__


def batch_inputs(ds, rng):
    """(a, b): row i holds the a- and b-block of a sweep of size ds[i] in its
    first ds[i] entries and noise after them."""
    width = max(ds)
    return rng.random((len(ds), width)), rng.random((len(ds), width))


def row_weights(weight, rows):
    """The weight argument of a wavefront of the given rows: one float as it
    is, one weight per row picked for them."""
    return weight if np.ndim(weight) == 0 else [weight[i] for i in rows]


def sweep_rows_by_loop(ds, weight, a, b):
    """Each row's sweep by ``_memory_sweep_py``, one row at a time, with its
    own weight when ``weight`` holds one per row."""
    a, b = a.copy(), b.copy()
    for i, d in enumerate(ds):
        vec = np.concatenate([a[i, :d], b[i, :d]])
        _memory_sweep_py(vec, d, weight if np.ndim(weight) == 0 else weight[i], 0, d)
        a[i, :d], b[i, :d] = vec[:d], vec[d:]
    return a, b


def assert_same_bytes(got, expected):
    """The whole a and b arrays, as bytes: every row's own slots, and the
    entries past them, which a sweep leaves as they are."""
    assert got[0].tobytes() == expected[0].tobytes(), "a"
    assert got[1].tobytes() == expected[1].tobytes(), "b"


def one_wavefront(ds, weight, a, b):
    """Every row's sweep on one wavefront, in the given row order."""
    a, b = a.copy(), b.copy()
    run_wavefront(ds, weight, a, b)
    return a, b


def by_blocks(ds, weight, a, b):
    """The rows cut into ``wavefront_blocks``, one wavefront per block, as
    the batched callers run them."""
    a, b = a.copy(), b.copy()
    for rows in wavefront_blocks(ds):
        block_a, block_b = a[rows], b[rows]
        run_wavefront([ds[i] for i in rows], row_weights(weight, rows), block_a, block_b)
        a[rows], b[rows] = block_a, block_b
    return a, b


# a row one past a full first block (64 * 64 doubles) starts a second one
FULL_BLOCK_D = 64
assert FULL_BLOCK_D * FULL_BLOCK_D == _kernels._BLOCK_ELEMENTS


class TestBatch:
    @pytest.mark.parametrize("run_rows", [one_wavefront, by_blocks])
    @pytest.mark.parametrize("ds", [
        [1], [1, 2, 3, 4, 5], [127, 128, 129], [1, 64, 256],
        [5, 3, 9, 3, 1, 12, 9],                            # unsorted, repeated
        list(range(1, FULL_BLOCK_D + 3)),                  # a block boundary
    ], ids=["one", "1-5", "127-129", "1-64-256", "unsorted-repeated", "blocks"])
    def test_every_row_equals_its_own_sweep(self, ds, run_rows):
        rng = np.random.default_rng(len(ds))
        a, b = batch_inputs(ds, rng)
        weight = rng.uniform(0.5, 1.0)
        assert_same_bytes(run_rows(ds, weight, a, b), sweep_rows_by_loop(ds, weight, a, b))

    def test_blocks_sort_by_d_and_bound_the_buffers(self):
        assert wavefront_blocks(range(1, FULL_BLOCK_D + 1)) == [list(range(FULL_BLOCK_D))]
        assert wavefront_blocks(range(1, FULL_BLOCK_D + 3)) == [
            list(range(FULL_BLOCK_D)), [FULL_BLOCK_D, FULL_BLOCK_D + 1]]
        assert wavefront_blocks([3, 1, 3, 2]) == [[1, 3, 0, 2]]
        assert wavefront_blocks([]) == []

    @pytest.mark.parametrize("block_elements", [1, 16, 64])
    def test_small_blocks_change_no_bit(self, monkeypatch, block_elements):
        monkeypatch.setattr(_kernels, "_BLOCK_ELEMENTS", block_elements)
        ds = [5, 3, 9, 3, 1, 12, 9, 2, 7]
        blocks = wavefront_blocks(ds)
        assert sorted(i for rows in blocks for i in rows) == list(range(len(ds)))
        assert all(len(rows) == 1 or len(rows) * max(ds[i] for i in rows) <= block_elements
                   for rows in blocks)
        rng = np.random.default_rng(block_elements)
        a, b = batch_inputs(ds, rng)
        assert_same_bytes(by_blocks(ds, 0.7, a, b), sweep_rows_by_loop(ds, 0.7, a, b))

    def test_runs_on_views_in_place(self):
        d = 6
        vec = np.random.default_rng(3).random(4 * d)
        expected = vec.copy()
        _memory_sweep_py(expected, d, 0.7, 0, 3 * d)
        run_wavefront([d], 0.7, vec[None, :d], vec[None, 3 * d:])
        assert vec.tobytes() == expected.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 200), min_size=1, max_size=5),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.sampled_from([1, 300, _kernels._BLOCK_ELEMENTS]))
    def test_property_ragged_batches(self, ds, weight, block_elements):
        rng = np.random.default_rng(sum(ds))
        a, b = batch_inputs(ds, rng)
        expected = sweep_rows_by_loop(ds, weight, a, b)
        assert_same_bytes(one_wavefront(ds, weight, a, b), expected)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_BLOCK_ELEMENTS", block_elements)
            assert_same_bytes(by_blocks(ds, weight, a, b), expected)

    @pytest.mark.parametrize("per_row", [False, True], ids=["one-weight", "per-row"])
    def test_copy_keys_past_eight_bits(self, per_row):
        # unsorted rows, a repeated d, and a largest d whose copy keys, up to
        # 2 * 200 - 1, need more than 8 bits
        ds = [130, 3, 200, 3, 129, 1, 64]
        rng = np.random.default_rng(19)
        a, b = batch_inputs(ds, rng)
        weight = rng.uniform(0.5, 1.0, len(ds)).tolist() if per_row else 0.65
        assert_same_bytes(one_wavefront(ds, weight, a, b),
                          sweep_rows_by_loop(ds, weight, a, b))

    @pytest.mark.parametrize("ds", [[], [0], [3, 0]])
    def test_bad_sizes_raise(self, ds):
        a = b = np.zeros((len(ds), max(ds, default=0)))
        with pytest.raises(ValueError):
            run_wavefront(ds, 0.75, a, b)


class TestPerRowWeights:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 200),
                              st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
                    min_size=1, max_size=6),
           st.sampled_from([1, 300, _kernels._BLOCK_ELEMENTS]))
    def test_property_ragged_rows_with_their_own_weights(self, rows, block_elements):
        ds, weights = [d for d, _ in rows], [w for _, w in rows]
        rng = np.random.default_rng(sum(ds))
        a, b = batch_inputs(ds, rng)
        expected = sweep_rows_by_loop(ds, weights, a, b)
        assert_same_bytes(one_wavefront(ds, weights, a, b), expected)
        assert_same_bytes(one_wavefront(ds, np.array(weights), a, b), expected)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_BLOCK_ELEMENTS", block_elements)
            assert_same_bytes(by_blocks(ds, weights, a, b), expected)

    @pytest.mark.parametrize("ds", [[1], [4, 1, 7, 7, 2], [WAVEFRONT_MIN_WIDTH + 2],
                                    list(range(1, FULL_BLOCK_D + 3))])
    def test_one_weight_per_row_equals_the_scalar_weight(self, ds):
        a, b = batch_inputs(ds, np.random.default_rng(len(ds)))
        scalar = one_wavefront(ds, 0.8, a, b)
        assert_same_bytes(one_wavefront(ds, np.full(len(ds), 0.8), a, b), scalar)
        assert_same_bytes(by_blocks(ds, [0.8] * len(ds), a, b), scalar)

    @pytest.mark.parametrize("weights", [[0.7], [0.7, 0.8, 0.9], [[0.7], [0.8]], []],
                             ids=["short", "long", "2-d", "empty"])
    def test_wrong_number_of_weights_raises(self, weights):
        a, b = batch_inputs([3, 4], np.random.default_rng(2))
        with pytest.raises(ValueError):
            run_wavefront([3, 4], weights, a, b)


class TestRejects:
    @pytest.mark.parametrize("fn", [memory_sweep, _memory_sweep_py])
    @pytest.mark.parametrize("d, base_a, base_b", [
        (4, 0, 3),       # b block starts inside the a block
        (4, 3, 0),       # a block starts inside the b block
        (4, 2, 2),       # the same block
        (4, 0, 5),       # b block runs past the end
        (4, -1, 4),      # negative base
        (0, 0, 4),       # empty sweep
    ])
    def test_bad_layout_raises(self, fn, d, base_a, base_b):
        vec = np.full(8, 0.125)
        with pytest.raises(ValueError):
            fn(vec, d, 0.75, base_a, base_b)
        assert np.array_equal(vec, np.full(8, 0.125))

    @pytest.mark.parametrize("ds, weights", [
        ([3, 0], 0.75), ([3, 4], [0.7]), ([3, 4], [0.7, 0.8, 0.9]),
        ([3, 4], [[0.7], [0.8]]), ([3, 4], []),
    ], ids=["empty-sweep", "short", "long", "2-d", "empty"])
    def test_a_rejected_wavefront_leaves_the_rows_as_they_were(self, ds, weights):
        # run_wavefront writes into a and b, so it checks its inputs first
        a, b = batch_inputs(ds, np.random.default_rng(5))
        before = a.copy(), b.copy()
        with pytest.raises(ValueError):
            run_wavefront(ds, weights, a, b)
        assert_same_bytes((a, b), before)


@pytest.fixture(scope="module")
def bench():
    # the bench reads private names of the package; importing it without
    # running it fails here on a name that is gone, not at its next run
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_kernel_bench_imports(bench):
    assert callable(bench.main)


class TestKernelBench:
    def test_a_table_at_one_sample_has_no_failing_row(self, bench, capsys):
        # widths on both sides of the one at which memory takes the wavefront
        table = bench.sweep_table([1, 17, WAVEFRONT_MIN_WIDTH])
        assert bench.run_table(table, 1) == []
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[-1] for line in lines[-3:]] == ["True"] * 3

    def test_the_batch_table_at_one_sample_has_no_failing_row(self, bench, capsys):
        table = bench.batch_table()
        assert bench.run_table(table, 1) == []
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[-1] for line in lines[-len(table.rows):]] == (
            ["True"] * len(table.rows))

    def test_a_row_with_other_bytes_is_named_and_main_exits_1(self, bench, monkeypatch,
                                                              capsys):
        probe = bench.Table("probe", "work", [
            bench.Row("equal", lambda: [0.1, Fraction(1, 3)],
                      lambda: (np.float64(0.1), Fraction(2, 6))),
            bench.Row("one ulp off", lambda: np.array([0.1]),
                      lambda: np.array([np.nextafter(0.1, 1.0)])),
            bench.Row("signed zero", lambda: 0.0, lambda: -0.0),
            bench.Row("no reference", None, lambda: 0.1)])
        monkeypatch.setattr(bench, "TABLES", (lambda: probe,))
        assert bench.main(["--dims", "2", "--repeats", "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["fails its check: probe: one ulp off",
                       "fails its check: probe: signed zero"]
