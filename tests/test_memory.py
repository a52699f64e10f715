"""The d^2-thermalization swap simulation and its closed forms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoproc import _kernels, memory
from thermoproc._kernels import _memory_sweep_py, memory_sweep
from thermoproc.combinatorics import catalan_tail_bound, delta_d, f_coeff
from thermoproc.core import PopulationVector, compose, full_thermalization, is_gibbs_stochastic
from thermoproc.memory import (RESPONSE_MIN_D, _p_d, _pairwise_sum, _protocol_totals,
                               simulate_memory_beta_swap, swap_round)
from thermoproc.reachable import qutrit_mmtp2_vertices
from thermoproc.workx import memory_extraction_grid

from reference import exact_protocol, round_response, scalar_gamma_delta, scalar_gamma_w


def closed_form_p_d(d, p0, gamma):
    """Ground population after the protocol, 1 - p0 (1-g)/g - (g - p0) delta_d(g),
    floats or Fractions; the d -> infinity limit is the exact swap output."""
    return _p_d(p0, gamma, delta_d(d, gamma))


def initial_state(d, p0):
    """The protocol's start: p0 spread over the ground slots, 1 - p0 over the
    excited ones."""
    return np.concatenate([np.full(d, p0 / d), np.full(d, (1.0 - p0) / d)])


def slot_population_closed_form(d, k, p0, gamma):
    """Exact final population of ground slot k (1-based) after the protocol.

    a_d^(k) = (1/d) [ g/(1-g) (1-p0)
                      - (g-p0)/(1-g) g^d sum_{k'=0}^{k-1} f_d(k') (1-g)^k' ].
    """
    p0, g = Fraction(p0), Fraction(gamma)
    partial = sum(f_coeff(d, kp) * (1 - g) ** kp for kp in range(k))
    return (g / (1 - g) * (1 - p0) - (g - p0) / (1 - g) * g ** d * partial) / d


def single_steps(d, p0, gamma):
    """Yield (k, j, state) after each elementary thermalization of ground
    slot k against excited slot j (0-based), in protocol order."""
    vec = initial_state(d, p0)
    for k in range(d):
        for j in range(d):
            memory_sweep(vec, 1, gamma, k, d + j)
            yield k, j, vec


def slot_recurrence_value(d, j, k, p0, gamma):
    """Exact ground-slot population from the substitution closed form.

    a_j^(k) = (1/d) gamma^j (1-gamma)^(k-1) s_j^(k) with
    s_j^(k) = (1-gamma)^(-k) [ (1-p0) gamma^(1-j)
                               - (gamma-p0) sum_{k'<k} f_j(k') (1-gamma)^k' ].
    """
    p0, gamma = Fraction(p0), Fraction(gamma)
    partial = sum(f_coeff(j, kp) * (1 - gamma) ** kp for kp in range(k))
    s = (1 - gamma) ** (-k) * ((1 - p0) * gamma ** (1 - j) - (gamma - p0) * partial)
    return Fraction(1, d) * gamma ** j * (1 - gamma) ** (k - 1) * s


class TestProtocolValues:
    def test_single_slot_thermalizes(self):
        for p0 in (0.0, 0.3, 0.75, 1.0):
            p = simulate_memory_beta_swap(1, p0, 0.75)
            assert abs(p - 0.75) <= 1e-15

    def test_two_slot_boost(self):
        p = simulate_memory_beta_swap(2, 0.0, 0.75)
        assert abs(p - 0.890625) <= 1e-12

    def test_intermediate_state_after_first_sweep(self):
        gamma, p0 = 0.75, 0.3
        vec = initial_state(2, p0)
        for j in range(2):  # ground slot 1 against both excited slots
            memory_sweep(vec, 1, gamma, 0, 2 + j)
        expected = 0.5 * np.array([
            gamma * (1 - p0 + gamma), p0,
            1 - gamma, (1 - gamma) * (1 - p0 + gamma),
        ])
        np.testing.assert_allclose(vec, expected, atol=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate_memory_beta_swap(0, 0.5, 0.75)
        with pytest.raises(ValueError):
            simulate_memory_beta_swap(2, 1.5, 0.75)
        with pytest.raises(ValueError):
            simulate_memory_beta_swap(2, 0.5, 1.0)

    def test_list_form_rejects_bad_p0_and_gamma(self):
        for p0, gamma in ((1.5, 0.75), (-0.5, 0.75), (0.5, 1.0), (0.5, 0.0)):
            with pytest.raises(ValueError):
                simulate_memory_beta_swap([1, 2, 3], p0, gamma)

    @pytest.mark.parametrize("d", [0, 2.7, 2.0, True, [1, 0], [1, 2.7], [True], [3, False]])
    def test_rejects_a_memory_dimension_that_is_no_integer_from_one(self, d):
        with pytest.raises(ValueError, match="memory dimension d"):
            simulate_memory_beta_swap(d, 0.5, 0.75)


class TestBatchedSweeps:
    @pytest.mark.parametrize("gamma", [17 / 32, 0.75, 31 / 32])
    @pytest.mark.parametrize("p0", [0.0, 0.5, 1.0])
    def test_list_form_equals_one_call_per_d(self, gamma, p0):
        ds = range(1, 201)
        batch = simulate_memory_beta_swap(ds, p0, gamma)
        scalar = np.array([simulate_memory_beta_swap(d, p0, gamma) for d in ds])
        assert batch.tobytes() == scalar.tobytes()

    def test_unsorted_repeated_list_keeps_its_order(self):
        ds = [7, 2, 130, 2, 1]
        batch = simulate_memory_beta_swap(np.array(ds), 0.25, 0.75)
        assert batch.tolist() == [simulate_memory_beta_swap(d, 0.25, 0.75) for d in ds]

    def test_empty_list_gives_an_empty_array(self):
        assert simulate_memory_beta_swap([], 0.25, 0.75).shape == (0,)
        assert simulate_memory_beta_swap([], [], []).shape == (0,)

    @pytest.mark.parametrize("ds", [range(1, 13), range(120, 136)])
    def test_sequences_of_p0_and_gamma_equal_one_call_per_point(self, ds):
        # the swap-simulation-closed-form grid, and one across the width
        # from which a single row takes the wavefront; numbers repeat
        gammas = (17 / 32, 0.55, 0.75, 0.95, 31 / 32)
        grid = [(d, p0, g) for d in ds for g in gammas for p0 in (0.0, 0.25, g, 1.0)]
        ds, p0s, gs = zip(*grid)
        batch = simulate_memory_beta_swap(ds, p0s, gs)
        assert ([v.hex() for v in batch.tolist()]
                == [simulate_memory_beta_swap(*point).hex() for point in grid])

    def test_a_sequence_and_a_number_mix(self):
        ds, p0s = [3, 1, 3, 200, 3], [0.1, 0.5, 0.1, 0.9, 0.0]
        for p0, gamma in ((p0s, 0.75), (0.25, np.array([0.6, 0.7, 0.6, 0.8, 0.9])),
                          (np.array(p0s), (0.6,) * 5)):
            batch = simulate_memory_beta_swap(ds, p0, gamma).tolist()
            points = zip(ds, np.broadcast_to(p0, 5).tolist(), np.broadcast_to(gamma, 5).tolist())
            assert batch == [simulate_memory_beta_swap(*point) for point in points]

    @pytest.mark.parametrize("d, p0, gamma", [
        ([1, 2, 3], [0.5, 0.5], 0.75), ([1, 2, 3], 0.5, [0.75] * 4),
        ([1, 2], [[0.5, 0.5]], 0.75), (2, [0.5], 0.75), (2, 0.5, [0.75]),
        ([1, 2, 3], [0.5, 1.5, 0.5], 0.75), ([1, 2, 3], [0.5, -0.1, 0.5], 0.75),
        ([1, 2, 3], [0.5, math.nan, 0.5], 0.75), ([1, 2, 3], 0.5, [0.75, 1.0, 0.75]),
        ([1, 2, 3], 0.5, [0.0, 0.75, 0.75]), ([1, 2, 3], 0.5, [0.75, 0.75, math.nan]),
    ])
    def test_sequences_of_other_lengths_or_out_of_range_raise(self, d, p0, gamma):
        with pytest.raises(ValueError):
            simulate_memory_beta_swap(d, p0, gamma)

    @pytest.mark.parametrize("d", [1, 2, 8, 127, 128, 200])
    def test_every_scalar_call_is_a_one_row_wavefront(self, monkeypatch, d):
        # a loop over Python floats would give the same bits, so the path is
        # read from the wavefronts run
        ran, kernel = [], _kernels.run_wavefront

        def record(*args):
            ran.append(args[0])
            return kernel(*args)

        monkeypatch.setattr(memory, "run_wavefront", record)
        monkeypatch.setattr(_kernels, "run_wavefront", record)
        p = simulate_memory_beta_swap(d, 0.25, 0.75)
        assert ran == [[d]]
        assert type(p) is float
        assert p == simulate_memory_beta_swap([d], 0.25, 0.75)[0]


class TestPairwiseSum:
    @pytest.mark.parametrize("signed", [False, True], ids=["positive", "signed"])
    def test_equals_numpy_reduction_at_every_length(self, signed):
        rng = np.random.default_rng(41)
        for n in range(129):
            # magnitudes over 8 decades, so that the order of the additions
            # shows in the last bits
            rows = rng.random((2, n)) * 10.0 ** rng.uniform(-8.0, 0.0, (2, n))
            if signed:
                rows *= rng.choice([-1.0, 1.0], (2, n))
            expected = [np.add.reduce(row) for row in rows]
            expected += np.add.reduce(rows, axis=1).tolist()
            got = [_pairwise_sum(row) for row in rows.tolist()] * 2
            assert np.array(got).tobytes() == np.array(expected).tobytes(), n

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 128])
    def test_negative_zeros_sum_to_positive_zero_as_in_numpy(self, n):
        zeros = -np.zeros(n)
        assert np.float64(_pairwise_sum(zeros.tolist())).tobytes() == zeros.sum().tobytes()


class TestSweepTotals:
    def test_the_narrow_pair_step_equals_the_two_block_sums(self):
        # every d of swap_round's per-round sweep: below 8 numpy sums a block
        # in order, from 8 on in its blocked pairwise order, which
        # _pairwise_sum must share
        rng = np.random.default_rng(29)
        for d in range(1, RESPONSE_MIN_D):
            for _ in range(3):
                p_ground, p_excited = rng.random(2)
                gamma = rng.uniform(0.0, 1.0)
                vec = np.empty(2 * d)
                vec[:d] = p_ground / d
                vec[d:] = p_excited / d
                _memory_sweep_py(vec, d, gamma, 0, d)
                expected = [vec[:d].sum(), vec[d:].sum()]
                got = swap_round(d, gamma)(p_ground, p_excited)
                assert np.array(got).tobytes() == np.array(expected).tobytes(), d


class TestRoundResponse:
    @pytest.mark.parametrize("d", [48, 64, 256])
    @pytest.mark.parametrize("gamma", [0.55, 0.75, 0.95])
    def test_gibbs_pair_is_fixed_and_mass_conserved(self, d, gamma):
        (a_g, a_e), (b_g, b_e) = round_response(d, gamma)
        assert abs(gamma * a_g + (1.0 - gamma) * b_g - gamma) <= 1e-15
        assert abs(a_g + a_e - 1.0) <= 1e-15
        assert abs(b_g + b_e - 1.0) <= 1e-15

    @pytest.mark.parametrize("d", [1, 2, 47, 48, 130])
    @pytest.mark.parametrize("gamma", [0.55, 0.75, 0.95])
    def test_totals_are_those_of_one_row_sweeps(self, d, gamma):
        totals = []
        for p_ground in (1.0, 0.0):
            vec = initial_state(d, p_ground)
            memory_sweep(vec, d, gamma, 0, d)
            totals.append((float(vec[:d].sum()), float(vec[d:].sum())))
        assert round_response(d, gamma) == tuple(totals)


class TestSwapRound:
    @pytest.mark.parametrize("gamma", [0.55, 0.75, np.float64(0.95), 1.0 - 2.0 ** -20],
                             ids=["0.55", "0.75", "float64", "near-1"])
    def test_the_narrow_step_is_a_one_row_evaluator_call(self, gamma):
        rng = np.random.default_rng(43)
        for d in range(1, RESPONSE_MIN_D):
            step = swap_round(d, gamma)
            for g, e in rng.random((3, 2)).tolist():
                pair = step(g, e)
                (g_out,), (e_out,) = _protocol_totals([d], ((0, 1, gamma),), ((g, e),), (0, 1))
                assert np.array(pair).tobytes() == np.array([g_out, e_out]).tobytes(), d
                assert all(type(total) is float for total in pair)

    def test_the_evaluator_never_runs_the_list_loop(self, monkeypatch):
        # the loop is swap_round's alone: the qutrit points, a scalar swap and
        # a one-point extraction grid are one-row wavefronts
        def refuse(*args):
            raise AssertionError("the evaluator ran the list loop")

        monkeypatch.setattr(memory, "_sweep_lists", refuse)
        monkeypatch.setattr(_kernels, "_sweep_lists", refuse)
        assert len(qutrit_mmtp2_vertices(0.75)) == 4
        assert type(simulate_memory_beta_swap(2, 0.25, 0.75)) is float
        errors = memory_extraction_grid(math.log(2.0), 0.5, 1.0, [1])
        assert np.asarray(errors).size == 1
        with pytest.raises(AssertionError, match="list loop"):
            swap_round(2, 0.75)(0.25, 0.75)

    @pytest.mark.parametrize("d", [1, 8, RESPONSE_MIN_D - 1, RESPONSE_MIN_D, 64])
    def test_one_row_per_call_below_the_response_width_the_matrix_from_it(self, d):
        step = swap_round(d, 0.75)
        (a_g, a_e), (b_g, b_e) = round_response(d, 0.75)
        for g, e in np.random.default_rng(d).random((5, 2)).tolist():
            if d < RESPONSE_MIN_D:
                (g_out,), (e_out,) = _protocol_totals([d], ((0, 1, 0.75),), ((g, e),), (0, 1))
            else:
                g_out, e_out = g * a_g + e * b_g, g * a_e + e * b_e
            pair = step(g, e)
            assert pair == (g_out, e_out)
            assert all(type(total) is float for total in pair)

    @pytest.mark.parametrize("d", [1, 8, RESPONSE_MIN_D - 1, RESPONSE_MIN_D, 64, 256])
    @pytest.mark.parametrize("gamma", [0.55, 0.75, 0.95])
    def test_the_pair_keeps_its_mass(self, d, gamma):
        step = swap_round(d, gamma)
        for g, e in np.random.default_rng(d).random((20, 2)).tolist():
            g_out, e_out = step(g, e)
            assert abs(g_out + e_out - (g + e)) <= 8 * math.ulp(g + e)


# dyadic pair weights: the float is the exact rational, and exact delta_d
# stays fast at large d
DYADIC_GAMMAS = [Fraction(9, 16), Fraction(3, 4), Fraction(15, 16)]
MATRIX_DS = [1, 2, 8, 48, 256]


def protocol_matrix(d, sweeps, blocks):
    """The protocol's blocks x blocks stochastic matrix M: column j is the
    run from unit mass on block j."""
    return np.array(_protocol_totals([d] * blocks, sweeps, np.eye(blocks), range(blocks)))


def swap_protocol(gamma):
    """(Gibbs state of the blocks, sweeps) of the swap simulation: blocks
    (g, e)."""
    return np.array([gamma, 1.0 - gamma]), ((0, 1, gamma),)


def extraction_protocol(E, W, beta):
    """The two-step extraction of ``workx``: blocks (g0, g1, e0, e1) with
    energies (0, W, E, E + W); e0 against g1, then the drain into e1."""
    gibbs = np.exp(-beta * np.array([0.0, W, E, E + W]))
    return gibbs / gibbs.sum(), ((2, 1, scalar_gamma_delta(E, W, beta)),
                                 (2, 3, scalar_gamma_w(E, W, beta)))


def qutrit_protocol(gamma, chained, s=1):
    """The qutrit sequences of ``reachable``: blocks (g, e1, e2), g against
    e_s (A_s), then against the other excited level as well (B_s)."""
    q = (1.0 - gamma) / gamma
    sweeps = ((0, s, gamma), (0, 3 - s, gamma)) if chained else ((0, s, gamma),)
    return np.array([1.0, q, q]) / (1.0 + 2.0 * q), sweeps


MATRIX_PROTOCOLS = {
    **{f"swap-{g}": swap_protocol(float(g)) for g in DYADIC_GAMMAS},
    **{f"extraction-W{w}": extraction_protocol(math.log(2.0), w, 1.0)
       for w in (0.3, 1.5)},
    **{f"qutrit-{'B' if chained else 'A'}-{g}": qutrit_protocol(float(g), chained)
       for g in DYADIC_GAMMAS for chained in (False, True)},
}


class TestProtocolMatrix:
    """From unit masses the evaluator gives each protocol's action on its
    system blocks: a column-stochastic matrix that fixes the Gibbs state."""

    @pytest.mark.parametrize("d", MATRIX_DS)
    @pytest.mark.parametrize("name", MATRIX_PROTOCOLS)
    def test_column_stochastic_and_gibbs_fixing(self, name, d):
        gibbs, sweeps = MATRIX_PROTOCOLS[name]
        m = protocol_matrix(d, sweeps, len(gibbs))
        assert m.min() >= 0.0
        assert np.abs(m.sum(axis=0) - 1.0).max() <= 1e-14
        assert np.abs(m @ gibbs - gibbs).max() <= 1e-14

    @pytest.mark.parametrize("d", MATRIX_DS)
    @pytest.mark.parametrize("gamma", DYADIC_GAMMAS)
    def test_swap_matrix_closed_form(self, gamma, d):
        # M = [[1 - q s, s], [q s, 1 - s]] with s = 1 - gamma delta_d, delta_d
        # exact: its float cancels at large d
        q = (1 - gamma) / gamma
        s = 1 - gamma * delta_d(d, gamma)
        expected = np.array([[float(1 - q * s), float(s)], [float(q * s), float(1 - s)]])
        m = protocol_matrix(d, swap_protocol(float(gamma))[1], 2)
        assert np.abs(m - expected).max() <= 1e-14

    def test_each_column_is_the_one_row_run_from_its_unit_mass(self):
        _, sweeps = MATRIX_PROTOCOLS["extraction-W1.5"]
        m = protocol_matrix(8, sweeps, 4)
        for j in range(4):
            column = _protocol_totals([8], sweeps, [np.eye(4)[j].tolist()], range(4))
            assert np.array(column).ravel().tobytes() == m[:, j].tobytes()


# every protocol of the package: the matrix protocols and the qutrit A_2, B_2
ORACLE_PROTOCOLS = {
    **MATRIX_PROTOCOLS,
    **{f"qutrit-{'B' if chained else 'A'}2-{g}": qutrit_protocol(float(g), chained, 2)
       for g in DYADIC_GAMMAS for chained in (False, True)},
}
ORACLE_DS = [1, 2, 3, 4, 8]


def elementary_steps(d, sweeps, blocks):
    """The protocol's d^2 thermalizations per sweep as ``core`` matrices on
    the blocks * d composite, slot j of block k at k * d + j, in the order
    they act."""
    return [full_thermalization(blocks * d, outer * d + k, inner * d + j, weight)
            for outer, inner, weight in sweeps for k in range(d) for j in range(d)]


class TestExplicitMatrixOracle:
    """The evaluator against the product of the protocol's elementary
    Gibbs-stochastic matrices, applied to start (x) uniform with the memory
    traced out."""

    @pytest.mark.parametrize("d", ORACLE_DS)
    @pytest.mark.parametrize("name", ORACLE_PROTOCOLS)
    def test_product_of_elementary_matrices_equals_the_evaluator(self, name, d):
        gibbs, sweeps = ORACLE_PROTOCOLS[name]
        blocks = len(gibbs)
        product = compose(reversed(elementary_steps(d, sweeps, blocks))).entries
        starts = [*np.eye(blocks), np.random.default_rng(d).dirichlet(np.ones(blocks))]
        for start in starts:
            traced = (product @ (np.repeat(start, d) / d)).reshape(blocks, d).sum(axis=1)
            totals = _protocol_totals([d], sweeps, [start.tolist()], range(blocks))
            assert np.abs(traced - np.ravel(totals)).max() <= 1e-15

    @pytest.mark.parametrize("d", ORACLE_DS)
    @pytest.mark.parametrize("name", ORACLE_PROTOCOLS)
    def test_each_step_fixes_gibbs_times_uniform(self, name, d):
        gibbs, sweeps = ORACLE_PROTOCOLS[name]
        composite = PopulationVector(np.repeat(gibbs, d) / d)
        assert all(is_gibbs_stochastic(step, composite, tol=1e-15)
                   for step in elementary_steps(d, sweeps, len(gibbs)))


unit_interval = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


class TestOneDispatch:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_one_row_equals_its_row_in_a_batch(self, data):
        # alone a row is a one-row wavefront; in a batch it is padded to its
        # block's largest d and interleaved with the other rows
        d = data.draw(st.integers(1, 140), label="d")
        blocks = data.draw(st.sampled_from([2, 3, 4]), label="blocks")
        ds = data.draw(st.lists(st.integers(1, 140), min_size=1, max_size=3), label="others")
        row = data.draw(st.integers(0, len(ds)), label="row")
        ds.insert(row, d)
        pairs = st.lists(st.integers(0, blocks - 1), min_size=2, max_size=2, unique=True)
        per_row = data.draw(st.booleans(), label="per_row")
        weight = st.lists(unit_interval, min_size=len(ds), max_size=len(ds)) if per_row \
            else unit_interval
        sweeps = [(outer, inner, data.draw(weight, label="weight")) for outer, inner in
                  data.draw(st.lists(pairs, min_size=1, max_size=4), label="sweeps")]
        start = data.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=blocks,
                                            max_size=blocks),
                                   min_size=len(ds), max_size=len(ds)), label="start")
        one = _protocol_totals([d], [(o, i, [w[row]] if per_row else w) for o, i, w in sweeps],
                               [start[row]], range(blocks))
        batch = _protocol_totals(ds, sweeps, start, range(blocks))
        assert all(type(total) is float for (total,) in one)
        assert (np.array(one).ravel().tobytes()
                == np.array([totals[row] for totals in batch]).tobytes())


class TestClosedForm:
    def test_matches_simulation_on_grid(self):
        worst = 0.0
        for d in range(1, 13):
            for gamma in (0.55, 0.65, 0.75, 0.85, 0.95):
                for p0 in (0.0, 0.25, 0.5, gamma, 0.9):
                    sim = simulate_memory_beta_swap(d, p0, gamma)
                    worst = max(worst, abs(sim - closed_form_p_d(d, p0, gamma)))
        assert worst <= 1e-10

    def test_single_slot_collapses_to_gamma(self):
        for p0 in (0.0, 0.4, 0.9):
            assert abs(closed_form_p_d(1, p0, 0.75) - 0.75) <= 1e-15

    def test_two_slot_value(self):
        assert closed_form_p_d(2, Fraction(0), Fraction(3, 4)) == Fraction(57, 64)
        assert abs(closed_form_p_d(2, 0.0, 0.75) - 0.890625) <= 1e-16

    def test_large_d_approaches_exact_swap(self):
        gamma, p0 = 0.75, 0.2
        target = 1.0 - p0 * (1.0 - gamma) / gamma
        gaps = [abs(closed_form_p_d(d, p0, gamma) - target) for d in (20, 60, 150)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-13

    def test_monotone_toward_swap_output(self):
        # exact rationals: float ties out the tail at high gamma
        for gamma in (Fraction(11, 20), Fraction(3, 4), Fraction(19, 20)):
            for p0 in (Fraction(0), Fraction(1, 2)):
                vals = [closed_form_p_d(d, p0, gamma) for d in range(1, 31)]
                assert all(b > a for a, b in zip(vals, vals[1:]))


class TestTraceInvariants:
    def test_pair_balance_after_every_step(self):
        gamma = 0.7
        for d in (1, 2, 4):
            for k, j, vec in single_steps(d, 0.35, gamma):
                # the just-thermalized pair sits at detailed balance
                assert abs(vec[d + j] - vec[k] * (1 - gamma) / gamma) <= 1e-12

    def test_every_recorded_state_normalized(self):
        steps = 0
        for _k, _j, vec in single_steps(3, 0.2, 0.8):
            assert abs(vec.sum() - 1.0) <= 1e-12
            steps += 1
        assert steps == 9


class TestExactSubstitution:
    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_slot_recurrence_closed_form(self, d):
        p0, gamma = Fraction(1, 3), Fraction(4, 5)
        _, history = exact_protocol(d, p0, gamma)
        for (k, j), simulated in history.items():
            assert simulated == slot_recurrence_value(d, j, k, p0, gamma)

    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    def test_final_slot_populations(self, d):
        p0, gamma = Fraction(0), Fraction(3, 4)
        p_exact, history = exact_protocol(d, p0, gamma)
        total = Fraction(0)
        for k in range(1, d + 1):
            value = slot_population_closed_form(d, k, p0, gamma)
            assert history[(k, d)] == value
            total += value
        assert p_exact == total
        assert p_exact == closed_form_p_d(d, p0, gamma)


def swap_report(d, gamma, p_pair):
    """One simulated run on a pair (p_i, p_j) against its closed forms.

    The pair may carry total mass below 1 (an embedded pair of a larger
    system); the protocol is linear, so the prediction

        p_i' = (1 - q) p_i + p_j + [(1-gamma) p_i - gamma p_j] delta_d(gamma)

    with q = (1-gamma)/gamma applies unchanged.  Its distance to the exact
    swap output (1-q) p_i + p_j is the delta term, below the Catalan tail
    bound.  Returns (simulated, |simulated - prediction|, |simulated - exact
    swap|, delta term, tail bound).
    """
    p_i, p_j = p_pair
    vec = np.concatenate([np.full(d, p_i / d), np.full(d, p_j / d)])
    memory_sweep(vec, d, gamma, 0, d)
    simulated = float(vec[:d].sum())
    exact_swap = (1.0 - (1.0 - gamma) / gamma) * p_i + p_j
    coeff = (1.0 - gamma) * p_i - gamma * p_j
    delta = float(delta_d(d, gamma))
    return (simulated, abs(simulated - exact_swap - coeff * delta),
            abs(simulated - exact_swap), abs(coeff) * delta,
            abs(coeff) * catalan_tail_bound(d, gamma))


class TestSwapSimulationReport:
    def test_gibbs_pair_is_fixed(self):
        gamma = 0.75
        simulated, deviation, *_ = swap_report(3, gamma, (gamma, 1.0 - gamma))
        assert abs(simulated - gamma) <= 1e-15
        assert deviation <= 1e-10

    def test_excited_ground_pair(self):
        _, deviation, *_ = swap_report(3, 0.75, (1.0, 0.0))
        assert deviation <= 1e-10

    def test_embedded_subnormalized_pair(self):
        _, deviation, *_ = swap_report(4, 0.8, (0.3, 0.25))
        assert deviation <= 1e-12

    def test_swap_deviation_decreases_with_d(self):
        devs = [swap_report(d, 0.75, (1.0, 0.0))[2] for d in range(1, 13)]
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_deviation_equals_delta_term(self):
        for d in (1, 2, 5, 9):
            _, _, swap_deviation, delta_term, _ = swap_report(d, 0.8, (0.9, 0.05))
            assert abs(swap_deviation - delta_term) <= 1e-13

    def test_tail_bound_holds_from_ten(self):
        for d in (10, 11, 12, 20):
            for gamma in (0.55, 0.75, 0.95):
                _, _, swap_deviation, _, tail_bound = swap_report(d, gamma, (0.0, 1.0))
                assert swap_deviation <= tail_bound + 1e-13
                assert float(delta_d(d, gamma)) <= tail_bound / (gamma * 1.0)
