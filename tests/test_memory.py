"""The d^2-thermalization swap simulation and its closed forms."""

from fractions import Fraction

import numpy as np
import pytest

from thermoproc._kernels import WAVEFRONT_MIN_WIDTH, _memory_sweep_py, memory_sweep
from thermoproc.combinatorics import catalan_tail_bound, delta_d, f_coeff
from thermoproc.memory import (_round_response, _sweep, closed_form_p_d,
                               simulate_memory_beta_swap)


def initial_state(d, p0):
    """The protocol's start: p0 spread over the ground slots, 1 - p0 over the
    excited ones."""
    return np.concatenate([np.full(d, p0 / d), np.full(d, (1.0 - p0) / d)])


def exact_protocol(d, p0, gamma):
    """Exact-rational protocol run.

    Returns (p_final, ground_history) where ground_history[(k, j)] is the
    population of ground slot k after thermalizing it against excited slot j
    (both 1-based), the quantity the closed-form slot recurrences describe.
    """
    p0, gamma = Fraction(p0), Fraction(gamma)
    a = [p0 / d] * d
    b = [(1 - p0) / d] * d
    history = {}
    for k in range(d):
        for j in range(d):
            total = a[k] + b[j]
            a[k] = gamma * total
            b[j] = (1 - gamma) * total
            history[(k + 1, j + 1)] = a[k]
    return sum(a), history


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


class TestSweepTotals:
    def test_one_reduction_equals_the_two_block_sums(self):
        # every narrow d: below 8 numpy sums a block in order, from 8 on in
        # its blocked pairwise order, which the one reduction must share
        rng = np.random.default_rng(29)
        for d in range(1, WAVEFRONT_MIN_WIDTH):
            for _ in range(3):
                p_ground, p_excited = rng.random(2)
                gamma = rng.uniform(0.0, 1.0)
                vec = np.empty(2 * d)
                vec[:d] = p_ground / d
                vec[d:] = p_excited / d
                _memory_sweep_py(vec, d, gamma, 0, d)
                expected = [vec[:d].sum(), vec[d:].sum()]
                got = _sweep(d, gamma, p_ground, p_excited)
                assert np.array(got).tobytes() == np.array(expected).tobytes(), d


class TestRoundResponse:
    @pytest.mark.parametrize("d", [48, 64, 256])
    @pytest.mark.parametrize("gamma", [0.55, 0.75, 0.95])
    def test_gibbs_pair_is_fixed_and_mass_conserved(self, d, gamma):
        (a_g, a_e), (b_g, b_e) = _round_response(d, gamma)
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
        assert _round_response(d, gamma) == tuple(totals)


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
