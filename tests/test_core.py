"""States, Gibbs distributions, and elementary transition matrices."""

import math

import numpy as np
import pytest

from thermoproc.core import (Hamiltonian, PopulationVector, TransitionMatrix,
                             apply, beta_swap, clip_noise, compose,
                             elementary_tp, full_thermalization, gibbs_state,
                             is_gibbs_stochastic, partial_thermalization)

LN2 = math.log(2.0)
LN3 = math.log(3.0)


class TestGibbsState:
    def test_qubit_ln3(self):
        h = Hamiltonian((0.0, 1.0))
        tau = gibbs_state(h, LN3)
        np.testing.assert_allclose(tau.probs, [0.75, 0.25], atol=1e-15)

    def test_infinite_temperature_uniform(self):
        h = Hamiltonian((0.0, 3.0, 7.5))
        tau = gibbs_state(h, 0.0)
        np.testing.assert_allclose(tau.probs, [1 / 3] * 3, atol=1e-15)

    def test_degenerate_three_level(self):
        h = Hamiltonian((0.0, 1.0, 1.0))
        tau = gibbs_state(h, LN2)
        np.testing.assert_allclose(tau.probs, [0.5, 0.25, 0.25], atol=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            Hamiltonian(())
        with pytest.raises(ValueError):
            Hamiltonian((0.0, math.inf))
        with pytest.raises(ValueError):
            gibbs_state(Hamiltonian((0.0, 1.0)), -0.1)


class TestPartialThermalization:
    def test_lambda_zero_is_identity(self):
        m = partial_thermalization(4, 1, 3, 0.0, 0.6)
        np.testing.assert_array_equal(m.entries, np.eye(4))

    def test_full_thermalization_balances_pair(self):
        gamma = 0.75
        m = partial_thermalization(2, 0, 1, 1.0, gamma)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(0.0, 1.0)
            out = apply(m, PopulationVector([x, 1.0 - x]))
            # detailed balance within the pair: p_j' = p_i' (1-gamma)/gamma
            assert abs(out[1] - out[0] * (1.0 - gamma) / gamma) <= 1e-14

    def test_half_step_block(self):
        m = partial_thermalization(2, 0, 1, 0.5, 0.75)
        np.testing.assert_allclose(m.entries, [[0.875, 0.375], [0.125, 0.625]],
                                   atol=1e-15)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            partial_thermalization(2, 0, 1, 1.2, 0.75)
        with pytest.raises(ValueError):
            partial_thermalization(2, 0, 1, -0.1, 0.75)
        with pytest.raises(ValueError):
            partial_thermalization(2, 0, 0, 0.5, 0.75)


class TestBetaSwap:
    def test_ground_state_transfer(self):
        out = apply(beta_swap(2, 0, 1, 1.0 / 3.0), PopulationVector([1.0, 0.0]))
        np.testing.assert_allclose(out.probs, [2 / 3, 1 / 3], atol=1e-15)

    def test_zero_gap_is_plain_swap(self):
        m = beta_swap(2, 0, 1, 1.0)
        np.testing.assert_array_equal(m.entries, [[0.0, 1.0], [1.0, 0.0]])

    def test_fixes_gibbs_pair(self):
        gamma = 1.0 / (1.0 + math.exp(-LN2))  # q = 1/2
        out = apply(beta_swap(2, 0, 1, 0.5), PopulationVector([gamma, 1 - gamma]))
        np.testing.assert_allclose(out.probs, [gamma, 1 - gamma], atol=1e-15)

    def test_rejects_misoriented_pair(self):
        with pytest.raises(ValueError):
            beta_swap(2, 0, 1, 1.5)
        with pytest.raises(ValueError):
            beta_swap(2, 0, 1, -0.1)


class TestElementaryTp:
    def test_endpoints(self):
        np.testing.assert_array_equal(elementary_tp(2, 0, 1, 0.0, 0.3).entries,
                                      np.eye(2))
        np.testing.assert_allclose(elementary_tp(2, 0, 1, 1.0, 0.3).entries,
                                   beta_swap(2, 0, 1, 0.3).entries, atol=1e-16)

    def test_half_mixture(self):
        m = elementary_tp(2, 0, 1, 0.5, 1.0 / 3.0)
        np.testing.assert_allclose(m.entries, [[5 / 6, 1 / 2], [1 / 6, 1 / 2]],
                                   atol=1e-15)


class TestApplyCompose:
    def test_identity(self):
        p = PopulationVector([0.2, 0.3, 0.5])
        m = TransitionMatrix(np.eye(3))
        np.testing.assert_array_equal(apply(m, p).probs, p.probs)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(beta_swap(2, 0, 1, 0.5), PopulationVector([1.0, 0.0, 0.0]))

    def test_composition_associativity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            ms = [elementary_tp(3, int(i), int(j), rng.uniform(), rng.uniform())
                  for i, j in rng.permutation([[0, 1], [0, 2], [1, 2]])[:2]]
            x = rng.dirichlet(np.ones(3))
            p = PopulationVector(x)
            lhs = apply(ms[0], apply(ms[1], p))
            rhs = apply(compose(ms), p)
            np.testing.assert_allclose(lhs.probs, rhs.probs, atol=1e-12)

    def test_single_matrix(self):
        m = beta_swap(2, 0, 1, 0.4)
        np.testing.assert_array_equal(compose([m]).entries, m.entries)

    def test_full_thermalization_idempotent(self):
        t = full_thermalization(3, 0, 2, 0.7)
        np.testing.assert_allclose(compose([t, t]).entries, t.entries, atol=1e-15)

    def test_swap_composition_identity(self):
        # two swaps collapse to (1-q) * swap + q * identity, entrywise
        for q in np.linspace(0.0, 1.0, 11):
            b = beta_swap(2, 0, 1, float(q))
            lhs = compose([b, b]).entries
            rhs = (1.0 - q) * b.entries + q * np.eye(2)
            assert np.abs(lhs - rhs).max() <= 1e-14

    def test_empty_composition_rejected(self):
        with pytest.raises(ValueError):
            compose([])


class TestGibbsStochastic:
    def test_beta_swap_with_matching_q(self):
        h = Hamiltonian((0.0, 1.0))
        tau = gibbs_state(h, LN2)
        assert is_gibbs_stochastic(beta_swap(2, 0, 1, 0.5), tau)

    def test_plain_swap_moves_gibbs(self):
        h = Hamiltonian((0.0, 1.0))
        tau = gibbs_state(h, LN2)
        assert not is_gibbs_stochastic(TransitionMatrix([[0, 1], [1, 0]]), tau)

    def test_elementary_family_preserves_gibbs(self):
        beta = 1.3
        h = Hamiltonian((0.0, 0.8, 2.1))
        tau = gibbs_state(h, beta)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            gap = h.levels[j] - h.levels[i]
            q = math.exp(-beta * gap)
            gamma = 1.0 / (1.0 + q)
            for lam in (0.0, 0.4, 1.0):
                assert is_gibbs_stochastic(
                    partial_thermalization(3, i, j, lam, gamma), tau, tol=1e-12)
                assert is_gibbs_stochastic(
                    elementary_tp(3, i, j, lam, q), tau, tol=1e-12)

    def test_optimal_extraction_matrix_is_gibbs_stochastic(self):
        # middle-regime joint matrix against the 4-level composite Gibbs state
        from thermoproc.workx import ExtractionSetup, optimal_tp_matrix
        setup = ExtractionSetup(LN2, 1.0, 1.0)  # E < W < threshold gap
        assert setup.E < setup.W <= setup.W_0
        # the Gibbs state of the composite (g0, g1, e0, e1), energies (0, W, E, E + W)
        w = np.exp(-setup.beta * np.array([0.0, setup.W, setup.E, setup.E + setup.W]))
        assert is_gibbs_stochastic(optimal_tp_matrix(setup),
                                   PopulationVector(w / w.sum()), tol=1e-12)


class TestValidation:
    def test_population_clamps_rounding_noise(self):
        p = PopulationVector([1.0 + 5e-13, -5e-13])
        assert p[1] == 0.0

    def test_population_rejects_real_negatives(self):
        with pytest.raises(ValueError):
            PopulationVector([1.0 + 1e-8, -1e-8])

    def test_population_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            PopulationVector([0.6, 0.3])

    def test_matrix_rejects_bad_columns(self):
        with pytest.raises(ValueError):
            TransitionMatrix([[0.9, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            TransitionMatrix([[1.2, -0.2], [-0.2, 1.2]])

    def test_clip_noise(self):
        assert clip_noise(1.0 + 2.2e-16) == 1.0
        assert clip_noise(-5e-13) == 0.0
        assert clip_noise(0.25) == 0.25
        with pytest.raises(ValueError):
            clip_noise(1.0 + 1e-8)
        with pytest.raises(ValueError):
            clip_noise(-1e-8)

    def test_apply_keeps_probabilities_clean(self):
        rng = np.random.default_rng(5)
        p = PopulationVector(rng.dirichlet(np.ones(4)))
        for _ in range(200):
            i, j = rng.choice(4, size=2, replace=False)
            m = elementary_tp(4, int(i), int(j), rng.uniform(), rng.uniform())
            p = apply(m, p)
        assert p.probs.min() >= 0.0
        assert abs(p.probs.sum() - 1.0) <= 1e-12
