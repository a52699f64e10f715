"""The d^2 sweep kernel: the wavefront equals the plain loop bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoproc import _kernels
from thermoproc._kernels import (WAVEFRONT_MIN_WIDTH, _memory_sweep_py,
                                 _memory_sweep_wavefront, memory_sweep)

DIMS = sorted({1, 2, 3, 17, 111, 112, 113, 257,
               WAVEFRONT_MIN_WIDTH - 1, WAVEFRONT_MIN_WIDTH})


def numpy_element_loop(vec, d, weight_a, base_a, base_b, rows=None):
    """The sweep written out over numpy scalars, one element at a time."""
    for k in range(d) if rows is None else rows:
        a = base_a + k
        for j in range(d):
            b = base_b + j
            total = vec[a] + vec[b]
            vec[a] = weight_a * total
            vec[b] = (1.0 - weight_a) * total


def layouts(d):
    """(base_a, base_b, vector length) of every caller's block layout:
    memory and verify_swap_simulation, the workx swap step and drain, the
    cooling pair step, and the qutrit MMTP2 points (d = 2 only)."""
    out = [(0, d, 2 * d), (2 * d, d, 4 * d), (2 * d, 3 * d, 4 * d), (0, 3 * d, 4 * d)]
    if d == 2:
        out += [(0, 2 * target, 6) for target in (1, 2)]
    return out


def row_orders(d, rng):
    return {"default": None, "identity": list(range(d)),
            "reversed": list(range(d))[::-1], "random": rng.permutation(d).tolist(),
            "single": [int(rng.integers(d))]}


def sweep_cases():
    rng = np.random.default_rng(7)
    for d in DIMS:
        for base_a, base_b, n in layouts(d):
            for name, rows in row_orders(d, rng).items():
                yield pytest.param(d, base_a, base_b, rng.random(n),
                                   rng.uniform(0.5, 1.0), rows,
                                   id=f"d{d}-a{base_a}-b{base_b}-{name}")


def run(fn, vec, d, weight, base_a, base_b, rows):
    out = vec.copy()
    fn(out, d, weight, base_a, base_b, rows)
    return out


class TestBitwise:
    @pytest.mark.parametrize("d, base_a, base_b, vec, weight, rows",
                             list(sweep_cases()))
    def test_wavefront_and_dispatch_equal_the_loop(self, d, base_a, base_b, vec,
                                                   weight, rows):
        expected = run(_memory_sweep_py, vec, d, weight, base_a, base_b, rows)
        for fn in (_memory_sweep_wavefront, memory_sweep):
            got = run(fn, vec, d, weight, base_a, base_b, rows)
            assert got.tobytes() == expected.tobytes(), fn.__name__

    @pytest.mark.parametrize("d", [1, 2, 3, 17, 113])
    def test_list_loop_equals_numpy_element_loop(self, d):
        rng = np.random.default_rng(d)
        for base_a, base_b, n in layouts(d):
            for rows in row_orders(d, rng).values():
                vec, weight = rng.random(n), rng.uniform(0.5, 1.0)
                a = run(_memory_sweep_py, vec, d, weight, base_a, base_b, rows)
                b = run(numpy_element_loop, vec, d, weight, base_a, base_b, rows)
                assert a.tobytes() == b.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_all_three_agree(self, data):
        d = data.draw(st.integers(1, 24), label="d")
        base_a, base_b, n = data.draw(st.sampled_from(layouts(d)), label="layout")
        vec = np.array(data.draw(st.lists(
            st.floats(0.0, 1.0, allow_subnormal=False), min_size=n, max_size=n)))
        weight = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        rows = data.draw(st.none() | st.permutations(range(d)).flatmap(
            lambda p: st.integers(1, d).map(lambda m: p[:m])), label="rows")
        expected = run(numpy_element_loop, vec, d, weight, base_a, base_b, rows)
        for fn in (_memory_sweep_py, _memory_sweep_wavefront):
            got = run(fn, vec, d, weight, base_a, base_b, rows)
            assert got.tobytes() == expected.tobytes(), fn.__name__


class TestDispatch:
    @pytest.mark.parametrize("d, rows, wavefront", [
        (WAVEFRONT_MIN_WIDTH - 1, None, False),
        (WAVEFRONT_MIN_WIDTH, None, True),
        (WAVEFRONT_MIN_WIDTH + 50, [3], False),
        (WAVEFRONT_MIN_WIDTH + 50, list(range(WAVEFRONT_MIN_WIDTH)), True),
    ])
    def test_widest_anti_diagonal_picks_the_path(self, monkeypatch, d, rows,
                                                 wavefront):
        calls = []
        monkeypatch.setattr(_kernels, "_memory_sweep_wavefront",
                            lambda *args: calls.append(args))
        memory_sweep(np.full(2 * d, 0.5 / d), d, 0.75, 0, d, rows)
        assert bool(calls) is wavefront


class TestRejects:
    @pytest.mark.parametrize("fn", [memory_sweep, _memory_sweep_py,
                                    _memory_sweep_wavefront])
    @pytest.mark.parametrize("d, base_a, base_b, rows", [
        (4, 0, 3, None),       # b block starts inside the a block
        (4, 3, 0, None),       # a block starts inside the b block
        (4, 2, 2, None),       # the same block
        (4, 0, 5, None),       # b block runs past the end
        (4, -1, 4, None),      # negative base
        (0, 0, 4, None),       # empty sweep
        (4, 0, 4, [1, 1]),     # a repeated row
        (4, 0, 4, [4]),        # a row outside range(d)
        (4, 0, 4, [-1]),
    ])
    def test_bad_layout_raises(self, fn, d, base_a, base_b, rows):
        vec = np.full(8, 0.125)
        with pytest.raises(ValueError):
            fn(vec, d, 0.75, base_a, base_b, rows)
        assert np.array_equal(vec, np.full(8, 0.125))
