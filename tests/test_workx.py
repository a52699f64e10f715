"""Work extraction: closed-form errors, optimal matrices, and the memory protocol."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from thermoproc._kernels import memory_sweep
from thermoproc.combinatorics import I_d_eval, f_coeff
from thermoproc.core import PopulationVector, is_gibbs_stochastic
from thermoproc.workx import (extraction_closed_forms, memory_extraction_grid,
                              optimal_tp_matrix, run_sequence_protocol, run_tp_protocol,
                              threshold_gap)

from reference import (scalar_epsilon_etp, scalar_epsilon_mtp, scalar_epsilon_tp,
                       scalar_gamma_delta, scalar_gamma_w, scalar_x, scalar_y)

LN2 = math.log(2.0)
LN4 = math.log(4.0)

# (E, W, beta) of the reference point: eps_TP = 1/4, eps_ETP = 3/8, eps_MTP = 8/15
REF = (LN2, LN4, 1.0)


def composite_gibbs(E, W, beta):
    """Gibbs state of the composite (g0, g1, e0, e1), energies (0, W, E, E + W)."""
    w = np.exp(-beta * np.array([0.0, W, E, E + W]))
    return PopulationVector(w / w.sum())


def one_point(E, W, beta):
    """(eps_TP, eps_ETP, eps_MTP, x, y) at one work gap, as floats."""
    return [float(values[0]) for values in extraction_closed_forms(E, (W,), beta)]


def step1_residuals_closed_form(point, d):
    """Closed-form e0 slot populations after the swap-simulation step.

    x_j = (gamma_delta^d / d) sum_{k<j} f_d(k) (1 - gamma_delta)^k, 1-based j.
    """
    gd = scalar_gamma_delta(*point)
    terms = np.array([f_coeff(d, k) * (1.0 - gd) ** k for k in range(d)])
    return gd ** d / d * np.cumsum(terms)


def drain_slot(vec, d, gamma_W, k):
    """The drain of e0 slot k alone: its full thermalization against each e1
    slot in turn, the pooled mass split gamma_W to e0."""
    x, e1 = float(vec[2 * d + k]), vec[3 * d:].tolist()
    for j, b in enumerate(e1):
        total = x + b
        x = gamma_W * total
        e1[j] = (1.0 - gamma_W) * total
    vec[2 * d + k], vec[3 * d:] = x, e1


def stepwise_extraction(point, d, order=None):
    """Per-step oracle of ``memory_extraction_grid`` at one (E, W, beta):
    step one, then one single-slot drain per e0 slot in ``order`` (default
    ascending), with the pair weights of ``tests/reference.py``.

    Returns (epsilon, step-one e0 residuals, final e0 slot populations,
    (g0, g1, e0, e1) sector sums before the drain and after each slot).
    """
    order = range(d) if order is None else order
    vec = np.zeros(4 * d)
    vec[2 * d:3 * d] = 1.0 / d
    memory_sweep(vec, d, scalar_gamma_delta(*point), 2 * d, d)
    step1 = vec[2 * d:3 * d].copy()

    def sectors():
        return tuple(float(vec[s * d:(s + 1) * d].sum()) for s in range(4))

    sums = [sectors()]
    for k in order:
        drain_slot(vec, d, scalar_gamma_w(*point), k)
        sums.append(sectors())
    eps_slots = vec[2 * d:3 * d].copy()
    return float(eps_slots.sum()), step1, eps_slots, sums


def extraction_in_order(point, d, order):
    """The memory protocol with a drain that visits the e0 slots in
    ``order``: the e0 block is permuted into that order, drained by one
    ascending sweep, and permuted back."""
    order = np.asarray(order)
    vec = np.zeros(4 * d)
    vec[2 * d:3 * d] = 1.0 / d
    memory_sweep(vec, d, scalar_gamma_delta(*point), 2 * d, d)
    e0 = vec[2 * d:3 * d]
    e0[:] = e0[order]
    memory_sweep(vec, d, scalar_gamma_w(*point), 2 * d, 3 * d)
    e0[order] = e0.copy()
    return float(e0.sum())


def step2_depletion_factors(point, d):
    """Closed-form drain weights d_k = gamma_W^d (1-gamma_W)^{k-1} f_d(k-1).

    d_k is the fraction of a unit e0 slot population that survives the k-th
    pass of the drain chain; epsilon_k = sum_j d_j x_{k+1-j}.
    """
    gw = scalar_gamma_w(*point)
    return np.array([gw ** d * (1.0 - gw) ** k * f_coeff(d, k) for k in range(d)])


class TestClosedForms:
    def test_zero_error_threshold(self):
        assert abs(threshold_gap(LN2, 1.0) - math.log(3.0)) <= 1e-15
        for E, beta in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                threshold_gap(E, beta)

    def test_unrestricted_error(self):
        # ln 3 sits one ulp from the computed threshold; the branch is
        # continuous there so the value is zero to float precision
        assert abs(one_point(LN2, math.log(3.0), 1.0)[0]) <= 1e-15
        assert abs(one_point(*REF)[0] - 0.25) <= 1e-15
        assert abs(one_point(LN2, 40.0, 1.0)[0] - 1.0) <= 1e-12

    def test_markovian_error(self):
        _tp, _etp, mtp, x, y = one_point(*REF)
        assert abs(mtp - 8.0 / 15.0) <= 1e-15
        assert abs(x - 1.0 / 3.0) <= 1e-15 and abs(y - 0.2) <= 1e-15
        # tiny work gap: the error saturates at half the excited weight
        assert abs(one_point(LN2, 1e-9, 1.0)[2] - 0.5 * (1.0 / 3.0)) <= 1e-9

    def test_swap_sequence_error(self):
        assert one_point(LN2, 0.5, 1.0)[1] == 0.0
        assert abs(one_point(*REF)[1] - 0.375) <= 1e-15

    def test_class_ordering_on_grid(self):
        tp, etp, mtp, _x, _y = extraction_closed_forms(LN2, np.linspace(0.05, 3.0, 100), 1.0)
        assert (tp <= etp + 1e-15).all()
        assert (etp <= mtp + 1e-15).all()


# the scalar forms the grid replaced, in its output order
SCALAR_FORMS = (scalar_epsilon_tp, scalar_epsilon_etp, scalar_epsilon_mtp, scalar_x, scalar_y)
POSITIVE = strategies.floats(1e-3, 50.0)


def scalar_or_overflow(form, E, W, beta):
    """The scalar form's value as hex, or "OverflowError" where it raised."""
    try:
        return form(E, W, beta).hex()
    except OverflowError:
        return "OverflowError"


def assert_grid_is_the_scalar_forms(E, ws, beta):
    grid = extraction_closed_forms(E, ws, beta)
    for i, w in enumerate(ws):
        for form, values in zip(SCALAR_FORMS, grid):
            expected = scalar_or_overflow(form, E, w, beta)
            got = "OverflowError" if math.isnan(values[i]) else float(values[i]).hex()
            assert got == expected, (form.__name__, E, w, beta)


class TestClosedFormGrid:
    """``extraction_closed_forms`` against the scalar forms it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(POSITIVE, strategies.lists(strategies.floats(1e-3, 60.0), min_size=1,
                                      max_size=30),
           POSITIVE.filter(lambda beta: beta != 1.0))
    def test_grid_equals_the_scalar_forms_bit_for_bit(self, E, ws, beta):
        assert_grid_is_the_scalar_forms(E, ws, beta)

    @pytest.mark.parametrize("E, beta", [(LN2, 1.0), (0.7, 0.3), (2.5, 4.0), (1e-3, 40.0)])
    def test_branch_points_and_their_neighbours(self, E, beta):
        # W = E and W = W_0 decide the ETP and TP branches
        w_0 = threshold_gap(E, beta)
        ws = [f(w, direction) for w in (E, w_0)
              for f, direction in ((math.nextafter, -math.inf), (lambda w, _: w, None),
                                   (math.nextafter, math.inf))]
        assert_grid_is_the_scalar_forms(E, ws, beta)

    def test_overflow_of_e_beta_e_minus_w(self):
        # e^{beta(E-W)} overflows: eps_TP and eps_ETP are 0 as before, while
        # the scalar eps_MTP raises OverflowError, and is NaN on the grid
        assert scalar_epsilon_tp(800.0, 1.0, 1.0) == scalar_epsilon_etp(800.0, 1.0, 1.0) == 0.0
        with pytest.raises(OverflowError):
            scalar_epsilon_mtp(800.0, 1.0, 1.0)
        assert_grid_is_the_scalar_forms(800.0, [1.0, 50.0, 90.0, 799.0, 801.0], 1.0)

    @settings(max_examples=100, deadline=None)
    @given(POSITIVE, strategies.lists(strategies.floats(1e-3, 60.0), min_size=1,
                                      max_size=30), POSITIVE)
    def test_the_simulation_reads_the_grids_pair_weights(self, E, ws, beta):
        # at d = 1 the protocol leaves gamma_delta * gamma_W on e0, to the bit,
        # NaN where e^{-beta(W-E)} overflows
        (eps,) = memory_extraction_grid(E, ws, beta, [1])
        assert eps.tobytes() == extraction_closed_forms(E, ws, beta)[2].tobytes()

    def test_rejects_nonpositive(self):
        for E, ws, beta in ((0.0, [1.0], 1.0), (1.0, [1.0, 0.0], 1.0),
                            (1.0, [1.0], -1.0), (1.0, [math.nan], 1.0)):
            with pytest.raises(ValueError):
                extraction_closed_forms(E, ws, beta)
            with pytest.raises(ValueError):
                memory_extraction_grid(E, ws, beta, [1])


class TestOptimalMatrices:
    @pytest.mark.parametrize("bw", [0.3, LN2, 0.8, 1.0, math.log(3.0), 1.3, 2.5])
    def test_gibbs_stochastic_and_achieves_error(self, bw):
        m = optimal_tp_matrix(LN2, bw, 1.0)
        assert is_gibbs_stochastic(m, composite_gibbs(LN2, bw, 1.0), tol=1e-12)
        eps, final = run_tp_protocol(LN2, bw, 1.0)
        assert abs(eps - scalar_epsilon_tp(LN2, bw, 1.0)) <= 1e-12
        # final state is the thermal-system product
        gamma = 2.0 / 3.0
        np.testing.assert_allclose(
            final.probs,
            [gamma * eps, gamma * (1 - eps), (1 - gamma) * eps, (1 - gamma) * (1 - eps)],
            atol=1e-12)

    @pytest.mark.parametrize("step", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize("beta_E", [3.0, 5.0, 10.0])
    def test_at_the_threshold_gap_and_its_neighbouring_doubles(self, beta_E, step):
        # e^{beta W} - e^{beta E} is 1 at W_0 up to an ulp of e^{beta E},
        # which left [0, 1] by more than 1e-14 from beta E near 3 on
        w_0 = threshold_gap(beta_E, 1.0)
        w = w_0 if step == 0 else math.nextafter(w_0, step * math.inf)
        m = optimal_tp_matrix(beta_E, w, 1.0)
        assert is_gibbs_stochastic(m, composite_gibbs(beta_E, w, 1.0), tol=1e-12)
        eps, _ = run_tp_protocol(beta_E, w, 1.0)
        assert abs(eps - scalar_epsilon_tp(beta_E, w, 1.0)) <= 1e-12

    def test_low_gap_regime_is_embedded_swap(self):
        m = optimal_tp_matrix(1.0, 0.4, 1.0)
        q = math.exp(-(1.0 - 0.4))
        expected = np.eye(4)
        expected[1, 1], expected[1, 2] = 1.0 - q, 1.0
        expected[2, 1], expected[2, 2] = q, 0.0
        np.testing.assert_allclose(m.entries, expected, atol=1e-15)

    @pytest.mark.parametrize("bw", [0.8, 1.0, math.log(3.0), 1.3, 2.5])
    def test_detailed_balance_above_system_gap(self, bw):
        m = optimal_tp_matrix(LN2, bw, 1.0).entries
        energies = [0.0, bw, LN2, LN2 + bw]
        for i in range(4):
            for j in range(4):
                lhs = m[j, i]
                rhs = math.exp(-(energies[j] - energies[i])) * m[i, j]
                assert abs(lhs - rhs) <= 1e-12


class TestSequenceProtocols:
    def test_variants_agree(self):
        for kind in ("MTP", "ETP"):
            e1, _ = run_sequence_protocol(kind, *REF, "primary")
            e2, _ = run_sequence_protocol(kind, *REF, "tilde")
            assert abs(e1 - e2) <= 1e-12

    def test_thermalization_sequence_matches_closed_form(self):
        for bw in np.linspace(0.05, 3.0, 40).tolist():
            eps, _ = run_sequence_protocol("MTP", LN2, bw, 1.0)
            assert abs(eps - scalar_epsilon_mtp(LN2, bw, 1.0)) <= 1e-12

    def test_swap_sequence_matches_closed_form(self):
        for bw in np.linspace(0.05, 3.0, 40).tolist():
            eps, _ = run_sequence_protocol("ETP", LN2, bw, 1.0)
            assert abs(eps - scalar_epsilon_etp(LN2, bw, 1.0)) <= 1e-12

    def test_swap_sequence_error_free_below_system_gap(self):
        eps, _ = run_sequence_protocol("ETP", LN2, 0.3, 1.0)
        assert abs(eps) <= 1e-12

    def test_trace_records_normalized_states(self):
        _, trace = run_sequence_protocol("MTP", *REF)
        assert len(trace) == 4  # initial plus three operations
        for _label, state in trace:
            assert isinstance(state, PopulationVector)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            run_sequence_protocol("TP", *REF)
        with pytest.raises(ValueError):
            run_sequence_protocol("MTP", *REF, "reversed")


class TestMemoryProtocol:
    def test_single_slot_equals_markovian_optimum(self):
        ws = [0.2, LN2, LN4, 2.0]
        (errors,) = memory_extraction_grid(LN2, ws, 1.0, [1])
        for w, eps in zip(ws, errors.tolist(), strict=True):
            assert abs(eps - scalar_epsilon_mtp(LN2, w, 1.0)) <= 1e-12

    @pytest.mark.parametrize("beta_E", [LN2, 1.0])
    def test_simulation_matches_closed_form(self, beta_E):
        ws = np.linspace(0.1, 2.6, 25)
        ds = range(1, 11)
        _tp, _etp, _mtp, x, y = extraction_closed_forms(beta_E, ws, 1.0)
        for sim, closed in zip(memory_extraction_grid(beta_E, ws, 1.0, ds),
                               I_d_eval(ds, x, y), strict=True):
            assert np.abs(sim - closed).max() <= 1e-10

    def test_step1_residuals_increase_and_match_closed_form(self):
        for d in (2, 4, 8):
            _, res, _, _ = stepwise_extraction(REF, d)
            assert np.all(np.diff(res) > 0.0)
            np.testing.assert_allclose(res, step1_residuals_closed_form(REF, d),
                                       atol=1e-14)

    def test_conservation_at_subroutine_boundaries(self):
        _, _, _, sector_sums = stepwise_extraction(REF, 6)
        assert len(sector_sums) == 7
        for sums in sector_sums:
            assert abs(sum(sums) - 1.0) <= 1e-12

    def test_slot_errors_sum_to_sector_mass(self):
        eps, _, eps_slots, sector_sums = stepwise_extraction(REF, 5)
        assert abs(eps_slots.sum() - eps) <= 1e-15
        assert abs(eps - sector_sums[-1][2]) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 10, 50, 127, 128, 129, 200, 400])
    def test_one_sweep_equals_the_stepwise_drain(self, d):
        rng = np.random.default_rng(d)
        for bw in (0.3, LN2, LN4, 2.5):
            point = (LN2, bw, 1.0)
            (eps,), = memory_extraction_grid(*point, [d])
            assert eps == stepwise_extraction(point, d)[0]
            order = rng.permutation(d)
            assert (extraction_in_order(point, d, order)
                    == stepwise_extraction(point, d, order)[0])

    @settings(max_examples=40, deadline=None)
    @given(d=strategies.integers(1, 200),
           bw=strategies.sampled_from([0.2, LN2, LN4, 2.0, 3.0]),
           seed=strategies.integers(0, 2 ** 32 - 1))
    def test_one_sweep_equals_the_stepwise_drain_property(self, d, bw, seed):
        point = (LN2, bw, 1.0)
        order = np.random.default_rng(seed).permutation(d)
        assert (extraction_in_order(point, d, order)
                == stepwise_extraction(point, d, order)[0])

    @pytest.mark.parametrize("beta_E", [LN2, 1.0])
    def test_grid_equals_the_stepwise_oracle_bit_for_bit(self, beta_E):
        ws = [0.1, 0.3, LN2, 1.0, LN4, 2.6]
        ds = [*range(1, 11), 100]
        grid = memory_extraction_grid(beta_E, ws, 1.0, ds)
        assert len(grid) == len(ds)
        for d, errors in zip(ds, grid):
            expected = np.array([stepwise_extraction((beta_E, w, 1.0), d)[0] for w in ws])
            assert errors.tobytes() == expected.tobytes(), d

    def test_grid_takes_memory_sizes_in_any_order(self):
        ws = [0.3, LN4, 2.0]
        ds = [7, 1, 130, 7, 3]
        grid = memory_extraction_grid(LN2, ws, 1.0, ds)
        for d, errors in zip(ds, grid):
            # each row has the bits of a one-point grid
            assert errors.tolist() == [memory_extraction_grid(LN2, w, 1.0, [d])[0][0]
                                       for w in ws]
        assert memory_extraction_grid(LN2, [], 1.0, ds)[0].shape == (0,)
        assert memory_extraction_grid(LN2, ws, 1.0, []) == []
        with pytest.raises(ValueError):
            memory_extraction_grid(LN2, ws, 1.0, [3, 0])

    def test_depletion_factors_match_effective_chain(self):
        # independent oracle: run the (d+1)-level drain chain, feeding each
        # pass the previous pass's leftovers with an emptied head slot
        gw = scalar_gamma_w(*REF)
        for d in (1, 2, 4, 8):
            factors = []
            alpha, rest = 1.0, np.zeros(d)
            for _k in range(d):
                for j in range(d):
                    total = alpha + rest[j]
                    alpha = gw * total
                    rest[j] = (1.0 - gw) * total
                factors.append(alpha)
                alpha = 0.0
            np.testing.assert_allclose(factors, step2_depletion_factors(REF, d),
                                       atol=1e-12)

    def test_ascending_order_is_optimal(self):
        rng = np.random.default_rng(53)
        d = 6
        (eps_best,), = memory_extraction_grid(*REF, [d])
        assert extraction_in_order(REF, d, range(d)) == eps_best
        for _ in range(50):
            order = rng.permutation(d)
            eps = extraction_in_order(REF, d, order)
            assert eps_best <= eps + 1e-14


class TestMemoryErrorCurve:
    def test_bracketing_and_monotonicity(self):
        tp, _etp, mtp, x, y = extraction_closed_forms(LN2, np.linspace(0.05, 3.0, 30), 1.0)
        per_d = np.array(I_d_eval(range(1, 41), x, y))
        for tp_w, mtp_w, column in zip(tp.tolist(), mtp.tolist(), per_d.T):
            prev = mtp_w
            for eps in column.tolist():
                assert tp_w - 1e-12 <= eps <= prev + 1e-12
                prev = eps

    def test_large_memory_approaches_unrestricted(self):
        w0 = threshold_gap(LN2, 1.0)
        tp, _etp, _mtp, x, y = extraction_closed_forms(
            LN2, [0.5 * w0, 0.9 * w0, 1.1 * w0, 1.5 * w0, 2.2 * w0], 1.0)
        (errors,) = I_d_eval([400], x, y)
        assert np.abs(errors - tp).max() <= 0.02

    def test_rejects_bad_d(self):
        for bad in (0, True, 2.0):
            with pytest.raises(ValueError):
                memory_extraction_grid(*REF, [bad])
