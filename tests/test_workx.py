"""Work extraction: closed-form errors, optimal matrices, and the memory protocol."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from thermoproc._kernels import memory_sweep
from thermoproc.combinatorics import f_coeff
from thermoproc.core import PopulationVector, is_gibbs_stochastic
from thermoproc.workx import (ExtractionSetup, epsilon_d_closed, epsilon_etp,
                              epsilon_mtp, epsilon_tp, memory_extraction_grid,
                              optimal_tp_matrix, run_memory_extraction,
                              run_sequence_protocol, run_tp_protocol)

LN2 = math.log(2.0)
LN4 = math.log(4.0)

REF = ExtractionSetup(LN2, LN4, 1.0)


def composite_energies(setup):
    """Level energies of the composite (g0, g1, e0, e1): (0, W, E, E + W)."""
    return np.array([0.0, setup.W, setup.E, setup.E + setup.W])


def composite_gibbs(setup):
    """Gibbs state of the composite at the setup's inverse temperature."""
    w = np.exp(-setup.beta * composite_energies(setup))
    return PopulationVector(w / w.sum())


def step1_residuals_closed_form(setup, d):
    """Closed-form e0 slot populations after the swap-simulation step.

    x_j = (gamma_delta^d / d) sum_{k<j} f_d(k) (1 - gamma_delta)^k, 1-based j.
    """
    gd = setup.gamma_delta
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


def stepwise_extraction(setup, d, order=None):
    """Per-step oracle of ``run_memory_extraction``: step one, then one
    single-slot drain per e0 slot in ``order`` (default ascending).

    Returns (epsilon, step-one e0 residuals, final e0 slot populations,
    (g0, g1, e0, e1) sector sums before the drain and after each slot).
    """
    order = range(d) if order is None else order
    vec = np.zeros(4 * d)
    vec[2 * d:3 * d] = 1.0 / d
    memory_sweep(vec, d, setup.gamma_delta, 2 * d, d)
    step1 = vec[2 * d:3 * d].copy()

    def sectors():
        return tuple(float(vec[s * d:(s + 1) * d].sum()) for s in range(4))

    sums = [sectors()]
    for k in order:
        drain_slot(vec, d, setup.gamma_W, k)
        sums.append(sectors())
    eps_slots = vec[2 * d:3 * d].copy()
    return float(eps_slots.sum()), step1, eps_slots, sums


def extraction_in_order(setup, d, order):
    """``run_memory_extraction`` with a drain that visits the e0 slots in
    ``order``: the e0 block is permuted into that order, drained by one
    ascending sweep, and permuted back."""
    order = np.asarray(order)
    vec = np.zeros(4 * d)
    vec[2 * d:3 * d] = 1.0 / d
    memory_sweep(vec, d, setup.gamma_delta, 2 * d, d)
    e0 = vec[2 * d:3 * d]
    e0[:] = e0[order]
    memory_sweep(vec, d, setup.gamma_W, 2 * d, 3 * d)
    e0[order] = e0.copy()
    return float(e0.sum())


def step2_depletion_factors(setup, d):
    """Closed-form drain weights d_k = gamma_W^d (1-gamma_W)^{k-1} f_d(k-1).

    d_k is the fraction of a unit e0 slot population that survives the k-th
    pass of the drain chain; epsilon_k = sum_j d_j x_{k+1-j}.
    """
    gw = setup.gamma_W
    return np.array([gw ** d * (1.0 - gw) ** k * f_coeff(d, k) for k in range(d)])


class TestSetup:
    def test_zero_error_threshold(self):
        setup = ExtractionSetup(LN2, 1.0, 1.0)
        assert abs(setup.W_0 - math.log(3.0)) <= 1e-15
        assert abs(setup.Z - 1.5) <= 1e-15

    def test_derived_weights(self):
        assert abs(REF.gamma_W - 0.8) <= 1e-15
        assert abs(REF.gamma_delta - 2.0 / 3.0) <= 1e-15

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ExtractionSetup(0.0, 1.0, 1.0)


class TestClosedForms:
    def test_unrestricted_error(self):
        # ln 3 sits one ulp from the computed threshold; the branch is
        # continuous there so the value is zero to float precision
        assert abs(epsilon_tp(ExtractionSetup(LN2, math.log(3.0), 1.0))) <= 1e-15
        assert abs(epsilon_tp(REF) - 0.25) <= 1e-15
        assert abs(epsilon_tp(ExtractionSetup(LN2, 40.0, 1.0)) - 1.0) <= 1e-12

    def test_markovian_error(self):
        assert abs(epsilon_mtp(REF) - 8.0 / 15.0) <= 1e-15
        # tiny work gap: the error saturates at half the excited weight
        small = ExtractionSetup(LN2, 1e-9, 1.0)
        assert abs(epsilon_mtp(small) - 0.5 * (1.0 / 3.0)) <= 1e-9

    def test_swap_sequence_error(self):
        assert epsilon_etp(ExtractionSetup(LN2, 0.5, 1.0)) == 0.0
        assert abs(epsilon_etp(REF) - 0.375) <= 1e-15

    def test_class_ordering_on_grid(self):
        for bw in np.linspace(0.05, 3.0, 100):
            st = ExtractionSetup(LN2, float(bw), 1.0)
            assert epsilon_tp(st) <= epsilon_etp(st) + 1e-15
            assert epsilon_etp(st) <= epsilon_mtp(st) + 1e-15


class TestOptimalMatrices:
    @pytest.mark.parametrize("bw", [0.3, LN2, 0.8, 1.0, math.log(3.0), 1.3, 2.5])
    def test_gibbs_stochastic_and_achieves_error(self, bw):
        setup = ExtractionSetup(LN2, bw, 1.0)
        m = optimal_tp_matrix(setup)
        assert is_gibbs_stochastic(m, composite_gibbs(setup), tol=1e-12)
        eps, final = run_tp_protocol(setup)
        assert abs(eps - epsilon_tp(setup)) <= 1e-12
        # final state is the thermal-system product
        gamma = setup.gamma
        np.testing.assert_allclose(
            final.probs,
            [gamma * eps, gamma * (1 - eps), (1 - gamma) * eps, (1 - gamma) * (1 - eps)],
            atol=1e-12)

    def test_low_gap_regime_is_embedded_swap(self):
        setup = ExtractionSetup(1.0, 0.4, 1.0)
        m = optimal_tp_matrix(setup)
        q = math.exp(-(1.0 - 0.4))
        expected = np.eye(4)
        expected[1, 1], expected[1, 2] = 1.0 - q, 1.0
        expected[2, 1], expected[2, 2] = q, 0.0
        np.testing.assert_allclose(m.entries, expected, atol=1e-15)

    @pytest.mark.parametrize("bw", [0.8, 1.0, math.log(3.0), 1.3, 2.5])
    def test_detailed_balance_above_system_gap(self, bw):
        setup = ExtractionSetup(LN2, bw, 1.0)
        m = optimal_tp_matrix(setup).entries
        energies = composite_energies(setup)
        for i in range(4):
            for j in range(4):
                lhs = m[j, i]
                rhs = math.exp(-(energies[j] - energies[i])) * m[i, j]
                assert abs(lhs - rhs) <= 1e-12


class TestSequenceProtocols:
    def test_variants_agree(self):
        for kind in ("MTP", "ETP"):
            e1, _ = run_sequence_protocol(kind, REF, "primary")
            e2, _ = run_sequence_protocol(kind, REF, "tilde")
            assert abs(e1 - e2) <= 1e-12

    def test_thermalization_sequence_matches_closed_form(self):
        for bw in np.linspace(0.05, 3.0, 40):
            st = ExtractionSetup(LN2, float(bw), 1.0)
            eps, _ = run_sequence_protocol("MTP", st)
            assert abs(eps - epsilon_mtp(st)) <= 1e-12

    def test_swap_sequence_matches_closed_form(self):
        for bw in np.linspace(0.05, 3.0, 40):
            st = ExtractionSetup(LN2, float(bw), 1.0)
            eps, _ = run_sequence_protocol("ETP", st)
            assert abs(eps - epsilon_etp(st)) <= 1e-12

    def test_swap_sequence_error_free_below_system_gap(self):
        eps, _ = run_sequence_protocol("ETP", ExtractionSetup(LN2, 0.3, 1.0))
        assert abs(eps) <= 1e-12

    def test_trace_records_normalized_states(self):
        _, trace = run_sequence_protocol("MTP", REF)
        assert len(trace) == 4  # initial plus three operations
        for _label, state in trace:
            assert isinstance(state, PopulationVector)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            run_sequence_protocol("TP", REF)
        with pytest.raises(ValueError):
            run_sequence_protocol("MTP", REF, "reversed")


class TestMemoryProtocol:
    def test_single_slot_equals_markovian_optimum(self):
        for bw in (0.2, LN2, LN4, 2.0):
            st = ExtractionSetup(LN2, bw, 1.0)
            eps = run_memory_extraction(st, 1)
            assert abs(eps - epsilon_mtp(st)) <= 1e-12

    @pytest.mark.parametrize("beta_E", [LN2, 1.0])
    def test_simulation_matches_closed_form(self, beta_E):
        for bw in np.linspace(0.1, 2.6, 25):
            st = ExtractionSetup(beta_E, float(bw), 1.0)
            for d in range(1, 11):
                eps = run_memory_extraction(st, d)
                assert abs(eps - epsilon_d_closed(st, d)) <= 1e-10

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
            setup = ExtractionSetup(LN2, bw, 1.0)
            assert run_memory_extraction(setup, d) == stepwise_extraction(setup, d)[0]
            order = rng.permutation(d)
            assert (extraction_in_order(setup, d, order)
                    == stepwise_extraction(setup, d, order)[0])

    @settings(max_examples=40, deadline=None)
    @given(d=strategies.integers(1, 200),
           bw=strategies.sampled_from([0.2, LN2, LN4, 2.0, 3.0]),
           seed=strategies.integers(0, 2 ** 32 - 1))
    def test_one_sweep_equals_the_stepwise_drain_property(self, d, bw, seed):
        setup = ExtractionSetup(LN2, bw, 1.0)
        order = np.random.default_rng(seed).permutation(d)
        assert (extraction_in_order(setup, d, order)
                == stepwise_extraction(setup, d, order)[0])

    def test_grid_equals_the_stepwise_oracle_bit_for_bit(self):
        setups = [ExtractionSetup(be, bw, 1.0) for be in (LN2, 1.0)
                  for bw in (0.1, 0.3, LN2, 1.0, LN4, 2.6)]
        ds = [*range(1, 11), 100]
        grid = memory_extraction_grid(setups, ds)
        assert len(grid) == len(ds)
        for d, errors in zip(ds, grid):
            expected = np.array([stepwise_extraction(st, d)[0] for st in setups])
            assert errors.tobytes() == expected.tobytes(), d

    def test_grid_takes_memory_sizes_in_any_order(self):
        setups = [ExtractionSetup(LN2, bw, 1.0) for bw in (0.3, LN4, 2.0)]
        ds = [7, 1, 130, 7, 3]
        grid = memory_extraction_grid(setups, ds)
        for d, errors in zip(ds, grid):
            assert errors.tolist() == [run_memory_extraction(st, d) for st in setups]
        assert memory_extraction_grid([], ds)[0].shape == (0,)
        assert memory_extraction_grid(setups, []) == []
        with pytest.raises(ValueError):
            memory_extraction_grid(setups, [3, 0])

    def test_depletion_factors_match_effective_chain(self):
        # independent oracle: run the (d+1)-level drain chain, feeding each
        # pass the previous pass's leftovers with an emptied head slot
        for d in (1, 2, 4, 8):
            gw = REF.gamma_W
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
        eps_best = run_memory_extraction(REF, d)
        assert extraction_in_order(REF, d, range(d)) == eps_best
        for _ in range(50):
            order = rng.permutation(d)
            eps = extraction_in_order(REF, d, order)
            assert eps_best <= eps + 1e-14


class TestMemoryErrorCurve:
    def test_bracketing_and_monotonicity(self):
        for bw in np.linspace(0.05, 3.0, 30):
            st = ExtractionSetup(LN2, float(bw), 1.0)
            tp, mtp = epsilon_tp(st), epsilon_mtp(st)
            prev = mtp
            for d in range(1, 41):
                eps = epsilon_d_closed(st, d)
                assert tp - 1e-12 <= eps <= prev + 1e-12
                prev = eps

    def test_large_memory_approaches_unrestricted(self):
        w0 = REF.W_0
        for bw in (0.5 * w0, 0.9 * w0, 1.1 * w0, 1.5 * w0, 2.2 * w0):
            st = ExtractionSetup(LN2, float(bw), 1.0)
            assert abs(epsilon_d_closed(st, 400) - epsilon_tp(st)) <= 0.02

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            epsilon_d_closed(REF, 0)
        for bad in (0, True, 2.0):
            with pytest.raises(ValueError):
                run_memory_extraction(REF, bad)
