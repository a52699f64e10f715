"""Coherent and incoherent cooling rounds against their closed forms."""

import math
from fractions import Fraction

import numpy as np
import pytest

from thermoproc import _kernels, cooling, memory
from thermoproc._kernels import _memory_sweep_py
from thermoproc.combinatorics import delta_d
from thermoproc.core import clip_noise
from thermoproc.majorization import beta_order, tp_reach_vertices
from thermoproc.memory import RESPONSE_MIN_D

from reference import (exact_coherent, incoherent_by_numpy_scalars, round_response,
                       scalar_incoherent_weights, scalar_p_star)

REF = dict(E=1.0, script_E=2.0, beta=1.0, beta_hot=0.2)

# Beta-order of the refreshed composite state that makes the g0/e1 swap the
# optimal step: (g1, e1, g0, e0) as positions in the (g0, g1, e0, e1) basis.
EXPECTED_ROUND_ORDER = (1, 3, 0, 2)


def round_ordering_holds(pops, kw):
    """Every refreshed composite state of an incoherent run has beta-order
    (g1, e1, g0, e0), the premise under which the g0/e1 swap is the optimal
    step in every round.

    The hot-bath refresh leaves the product [p eta, p (1-eta), (1-p) eta,
    (1-p)(1-eta)] with p the ground population before the round, so the
    states are rebuilt from the run's populations.  Ties (which occur in
    round one) resolve to the expected order through the ascending-index
    tie break.
    """
    g, _, _, eta, _ = scalar_incoherent_weights(**kw)
    ga = 1.0 / (1.0 + math.exp(-kw["beta"] * (kw["script_E"] - kw["E"])))
    tau = np.kron([g, 1.0 - g], [ga, 1.0 - ga])
    return all(tuple(beta_order(np.kron([p, 1.0 - p], [eta, 1.0 - eta]), tau))
               == EXPECTED_ROUND_ORDER for p in (g, *pops[:-1]))


def coherent_mmtp_by_loop(n, gamma, d):
    """MMTP coherent rounds, each a fresh sweep by the reference loop."""
    p, pops = gamma, []
    for _ in range(n):
        inverted = 1.0 - p
        vec = np.empty(2 * d)
        vec[:d] = inverted / d
        vec[d:] = (1.0 - inverted) / d
        _memory_sweep_py(vec, d, gamma, 0, d)
        p = clip_noise(float(vec[:d].sum()))
        pops.append(p)
    return np.array(pops)


def incoherent_mmtp_by_loop(n, d, E, script_E, beta, beta_hot):
    """MMTP incoherent rounds, each pair step a fresh sweep by the reference
    loop over the (g0, e1) pair alone, g1 and e0 left as they are, then the
    hot-bath refresh."""
    g, _, gamma_big, eta, _ = scalar_incoherent_weights(E, script_E, beta, beta_hot)
    v = np.array([g * eta, g * (1.0 - eta), (1.0 - g) * eta, (1.0 - g) * (1.0 - eta)])
    pops = []
    for _ in range(n):
        pair = np.empty(2 * d)
        pair[:d] = v[0] / d
        pair[d:] = v[3] / d
        _memory_sweep_py(pair, d, gamma_big, 0, d)
        v[0], v[3] = float(pair[:d].sum()), float(pair[d:].sum())
        pops.append(v[0] + v[1])
        ground, excited = v[0] + v[1], v[2] + v[3]
        v = np.array([ground * eta, ground * (1.0 - eta),
                      excited * eta, excited * (1.0 - eta)])
    return np.array(pops)


def incoherent_mmtp_by_composite_loop(n, d, E, script_E, beta, beta_hot):
    """MMTP incoherent rounds on the whole 4d-level composite: all four
    levels spread over the memory slots, the sweep between the g0 and e1
    blocks, the memory traced back out.  The spectators g1 and e0 pick up
    the rounding of the spread and the trace."""
    g, _, gamma_big, eta, _ = scalar_incoherent_weights(E, script_E, beta, beta_hot)
    v = np.array([g * eta, g * (1.0 - eta), (1.0 - g) * eta, (1.0 - g) * (1.0 - eta)])
    pops = []
    for _ in range(n):
        w = np.repeat(v, d) / d
        _memory_sweep_py(w, d, gamma_big, 0, 3 * d)
        v = w.reshape(4, d).sum(axis=1)
        pops.append(v[0] + v[1])
        ground, excited = v[0] + v[1], v[2] + v[3]
        v = np.array([ground * eta, ground * (1.0 - eta),
                      excited * eta, excited * (1.0 - eta)])
    return np.array(pops)


def coherent_closed_form_at(process, n, gamma, d=None):
    """The coherent closed form at round n alone, the per-entry expression
    the column must reproduce."""
    q = (1 - gamma) / gamma
    if process == "TP":
        return 1 - (1 - gamma) * q ** n
    if process == "MTP":
        return gamma
    p_max = cooling.coherent_p_max(d, gamma)
    return p_max - (q - delta_d(d, gamma)) ** n * (p_max - gamma)


def incoherent_closed_form_at(process, n, d=None, **kw):
    """The incoherent closed form at round n alone."""
    gamma, *_, p_star = scalar_incoherent_weights(**kw)
    rate = cooling.incoherent_rate(process, d=d, **kw)
    return p_star - rate ** n * (p_star - gamma)


LD = np.longdouble
EXTENDED = np.finfo(LD).eps < 1e-18


def longdouble_response(d, weight):
    """((A_g, A_e), (B_g, B_e)) of ``round_response`` from
    anti-diagonal sweeps in long double: the cells k + j = s of one step
    take three array operations, as in the wavefront."""
    w = LD(weight)
    v = 1 - w
    totals = []
    for a0, b0 in ((1, 0), (0, 1)):
        a, b = np.full(d, LD(a0) / d), np.full(d, LD(b0) / d)
        for s in range(2 * d - 1):
            k = np.arange(max(0, s - d + 1), min(s, d - 1) + 1)
            pooled = a[k] + b[s - k]
            a[k] = w * pooled
            b[s - k] = v * pooled
        totals.append((a.sum(), b.sum()))
    return totals


def coherent_mmtp_by_longdouble(n, gamma, d):
    """MMTP coherent rounds on the long-double response."""
    (a_g, _), (b_g, _) = longdouble_response(d, gamma)
    p, pops = LD(gamma), []
    for _ in range(n):
        inverted = 1 - p
        p = min(inverted * a_g + (1 - inverted) * b_g, LD(1))
        pops.append(p)
    return np.array(pops)


def incoherent_mmtp_by_longdouble(n, d, E, script_E, beta, beta_hot):
    """MMTP incoherent rounds on the long-double response, every product
    and sum in long double."""
    gamma, _, gamma_big, eta, _ = scalar_incoherent_weights(E, script_E, beta, beta_hot)
    (a_g, a_e), (b_g, b_e) = longdouble_response(d, gamma_big)
    g, eta = LD(gamma), LD(eta)
    v = [g * eta, g * (1 - eta), (1 - g) * eta, (1 - g) * (1 - eta)]
    pops = []
    for _ in range(n):
        g0, e1 = v[0], v[3]
        ground, excited = g0 * a_g + e1 * b_g + v[1], v[2] + g0 * a_e + e1 * b_e
        pops.append(ground)
        v = [ground * eta, ground * (1 - eta), excited * eta, excited * (1 - eta)]
    return np.array(pops)


# the corners of the benchmark's scaled incoherent draws, and REF
INCOHERENT_SETTINGS = [
    REF,
    dict(E=0.75, script_E=1.75, beta=0.75, beta_hot=0.125),
    dict(E=1.25, script_E=2.25, beta=1.25, beta_hot=0.3125),
]

# either side of the width from which the rounds step through the response,
# and of numpy's pairwise-sum block of 128 values, past which the response's
# block totals add in another order
WIDE_DS = [RESPONSE_MIN_D - 1, RESPONSE_MIN_D, RESPONSE_MIN_D + 1, 127, 128, 256]
RESPONSE_DS = [RESPONSE_MIN_D, 64, 256]


def assert_rounds_match_the_loop(populations, by_loop, d):
    """Bit for bit where every round runs its own sweep; from
    ``RESPONSE_MIN_D`` on, the response's rounding differs from the
    sweeps' by at most 1.7e-14 (measured)."""
    if d < RESPONSE_MIN_D:
        assert populations.tobytes() == by_loop.tobytes()
    else:
        assert np.abs(populations - by_loop).max() <= 1e-13


class TestMMTPRounds:
    """The MMTP rounds against the per-round reference loop and a long-double
    reference: per-round sweeps below ``RESPONSE_MIN_D``, the round response
    from there on."""

    @pytest.mark.parametrize("d", WIDE_DS)
    def test_coherent_rounds_equal_fresh_loop_sweeps(self, d):
        pops = cooling.cool_coherent("MMTP", 4, 0.75, d)
        assert_rounds_match_the_loop(pops, coherent_mmtp_by_loop(4, 0.75, d), d)

    @pytest.mark.parametrize("d", [*range(1, 9), *WIDE_DS])
    def test_incoherent_rounds_equal_fresh_loop_sweeps(self, d):
        pops = cooling.cool_incoherent("MMTP", 4, d=d, **REF)
        assert_rounds_match_the_loop(pops,
                                     incoherent_mmtp_by_loop(4, d, **REF), d)

    @pytest.mark.parametrize("d", [*range(1, 13), RESPONSE_MIN_D - 1])
    def test_incoherent_pair_rounds_near_the_composite_loop(self, d):
        # bit for bit where d is a power of two, the spread and trace of the
        # spectators then being exact; otherwise at most 2.9e-15 apart over
        # d <= 47 and these settings (measured)
        for kw in INCOHERENT_SETTINGS:
            pops = cooling.cool_incoherent("MMTP", 50, d=d, **kw)
            composite = incoherent_mmtp_by_composite_loop(50, d, **kw)
            if d & (d - 1) == 0:
                assert pops.tobytes() == composite.tobytes()
            else:
                assert np.abs(pops - composite).max() <= 1e-14

    @pytest.mark.parametrize("d", RESPONSE_DS)
    def test_fifty_response_rounds_stay_near_the_loop(self, d):
        gamma = 0.75
        pops = cooling.cool_coherent("MMTP", 50, gamma, d)
        assert_rounds_match_the_loop(pops,
                                     coherent_mmtp_by_loop(50, gamma, d), d)
        pops = cooling.cool_incoherent("MMTP", 50, d=d, **INCOHERENT_SETTINGS[1])
        assert_rounds_match_the_loop(
            pops, incoherent_mmtp_by_loop(50, d, **INCOHERENT_SETTINGS[1]), d)

    @pytest.mark.parametrize("d", RESPONSE_DS)
    def test_coherent_rounds_are_affine_steps_on_the_response(self, d):
        (a_g, _), (b_g, _) = round_response(d, 0.75)
        p, expected = 0.75, []
        for _ in range(20):
            inverted = 1.0 - p
            p = clip_noise(inverted * a_g + (1.0 - inverted) * b_g)
            expected.append(p)
        assert cooling.cool_coherent("MMTP", 20, 0.75, d).tolist() == expected

    @pytest.mark.parametrize("d", RESPONSE_DS)
    def test_incoherent_rounds_are_affine_steps_on_the_response(self, d):
        g, _, gamma_big, eta, _ = scalar_incoherent_weights(**REF)
        (a_g, a_e), (b_g, b_e) = round_response(d, gamma_big)
        v = np.array([g * eta, g * (1.0 - eta), (1.0 - g) * eta, (1.0 - g) * (1.0 - eta)])
        expected = []
        for _ in range(20):
            g0, e1 = v[0], v[3]
            v = np.array([g0 * a_g + e1 * b_g, v[1], v[2], g0 * a_e + e1 * b_e])
            expected.append(v[0] + v[1])
            ground, excited = v[0] + v[1], v[2] + v[3]
            v = np.array([ground * eta, ground * (1.0 - eta),
                          excited * eta, excited * (1.0 - eta)])
        pops = cooling.cool_incoherent("MMTP", 20, d=d, **REF)
        assert pops.tolist() == expected

    @pytest.mark.skipif(not EXTENDED, reason="long double is no wider than double here")
    @pytest.mark.parametrize("d", RESPONSE_DS)
    @pytest.mark.parametrize("gamma", [0.55, 0.75, 0.95])
    def test_coherent_rounds_near_a_long_double_reference(self, d, gamma):
        pops = cooling.cool_coherent("MMTP", 50, gamma, d)
        reference = coherent_mmtp_by_longdouble(50, gamma, d)
        assert float(np.abs(pops - reference).max()) <= 1e-14

    @pytest.mark.skipif(not EXTENDED, reason="long double is no wider than double here")
    @pytest.mark.parametrize("d", RESPONSE_DS)
    @pytest.mark.parametrize("setting", range(len(INCOHERENT_SETTINGS)))
    def test_incoherent_rounds_near_a_long_double_reference(self, d, setting):
        kw = INCOHERENT_SETTINGS[setting]
        pops = cooling.cool_incoherent("MMTP", 50, d=d, **kw)
        reference = incoherent_mmtp_by_longdouble(50, d, **kw)
        assert float(np.abs(pops - reference).max()) <= 1e-14

    def test_one_two_row_wavefront_per_run_from_the_response_width(self, monkeypatch):
        # 48, not RESPONSE_MIN_D: which runs keep their bytes is a contract
        ran, kernel = [], _kernels.run_wavefront

        def record(*args):
            ran.append(args[0])
            return kernel(*args)

        monkeypatch.setattr(memory, "run_wavefront", record)
        monkeypatch.setattr(_kernels, "run_wavefront", record)
        for d in (47, 48):
            cooling.cool_coherent("MMTP", 3, 0.75, d)
            cooling.cool_incoherent("MMTP", 3, d=d, **REF)
        assert ran == [[48, 48]] * 2


CLASSES = [("TP", None), ("MTP", None), ("MMTP", 1), ("MMTP", 3), ("MMTP", 8)]


class TestClosedFormColumns:
    @pytest.mark.parametrize("process, d", CLASSES)
    @pytest.mark.parametrize("gamma", [0.6, 0.75, 0.9])
    def test_coherent_column_equals_per_round_values(self, process, d, gamma):
        column = cooling.coherent_closed_form(process, 30, gamma, d)
        expected = [coherent_closed_form_at(process, n, gamma, d) for n in range(1, 31)]
        assert np.array(column).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("process, d", CLASSES)
    def test_incoherent_column_equals_per_round_values(self, process, d):
        column = cooling.incoherent_closed_form(process, 30, d=d, **REF)
        expected = [incoherent_closed_form_at(process, n, d=d, **REF)
                    for n in range(1, 31)]
        assert np.array(column).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("process, d", CLASSES)
    def test_fraction_gamma_gives_equal_fractions(self, process, d):
        gamma = Fraction(3, 4)
        column = cooling.coherent_closed_form(process, 6, gamma, d)
        assert all(isinstance(v, Fraction) for v in column)
        assert column == [coherent_closed_form_at(process, n, gamma, d)
                          for n in range(1, 7)]

    @pytest.mark.parametrize("process, d", CLASSES)
    def test_exact_rounds_equal_the_closed_form_as_rationals(self, process, d):
        # the exact runs that score the default cooling CSVs: d^2 Fraction
        # thermalizations per swap, against the Catalan tail in the closed form
        for gamma in (Fraction(3, 5), Fraction(3, 4), Fraction(9, 10)):
            assert (exact_coherent(process, 20, gamma, d)
                    == cooling.coherent_closed_form(process, 20, gamma, d))


class TestCoherent:
    def test_first_round_swap_value(self):
        pops = cooling.cool_coherent("TP", 1, 0.75)
        assert abs(pops[0] - (1.0 - 0.25 / 3.0)) <= 1e-15

    def test_swap_closed_form_third_round(self):
        assert abs(cooling.coherent_closed_form("TP", 3, 0.75)[2]
                   - (1.0 - 0.25 / 27.0)) <= 1e-15

    def test_thermalization_class_pins_to_gamma(self):
        pops = cooling.cool_coherent("MTP", 10, 0.8)
        np.testing.assert_allclose(pops, 0.8, atol=1e-15)

    def test_single_slot_memory_equals_thermalization(self):
        pops = cooling.cool_coherent("MMTP", 10, 0.75, 1)
        np.testing.assert_allclose(pops, 0.75, atol=1e-12)

    @pytest.mark.parametrize("gamma", [0.6, 0.75, 0.9])
    def test_simulation_matches_closed_forms(self, gamma):
        worst = 0.0
        for process, ds in (("TP", [None]), ("MTP", [None]),
                            ("MMTP", [1, 2, 4, 8])):
            for d in ds:
                pops = cooling.cool_coherent(process, 50, gamma, d)
                closed = cooling.coherent_closed_form(process, 50, gamma, d)
                worst = max(worst, np.abs(pops - closed).max())
        assert worst <= 1e-10

    def test_memory_run_clips_rounding_past_one(self):
        # the ground population reaches 1 at round 13; the next test has runs
        # whose rounds round it past 1
        gamma, d = 30 / 32, 64
        pops = cooling.cool_coherent("MMTP", 50, gamma, d)
        assert pops.max() == 1.0
        closed = cooling.coherent_closed_form("MMTP", 50, gamma, d)
        np.testing.assert_allclose(pops, closed, rtol=0, atol=1e-12)

    # unclipped, round 13 of the per-round sweeps gives 1 + 2.2e-16 and round 7
    # of the response 1 + 6.7e-16
    @pytest.mark.parametrize("gamma, d", [(30 / 32, 30), (0.99, 48)])
    def test_both_round_paths_clip_rounding_past_one(self, gamma, d):
        pops = cooling.cool_coherent("MMTP", 50, gamma, d)
        assert pops.max() == 1.0

    def test_monotone_convergence(self):
        for process, d in (("TP", None), ("MMTP", 2), ("MMTP", 6)):
            pops = np.concatenate(([0.75], cooling.cool_coherent(process, 40, 0.75, d)))
            assert np.all(np.diff(pops) >= -1e-15)

    def test_measured_contraction_matches_rate(self):
        gamma, d = 0.75, 3
        q = (1.0 - gamma) / gamma
        rate = q - float(delta_d(d, gamma))
        p_max = float(cooling.coherent_p_max(d, gamma))
        pops = cooling.cool_coherent("MMTP", 12, gamma, d)
        gaps = p_max - np.concatenate(([gamma], pops))
        ratios = gaps[1:] / gaps[:-1]
        assert np.abs(ratios - rate).max() <= 1e-8

    def test_asymptote_values(self):
        assert cooling.coherent_p_max(2, Fraction(3, 4)) == Fraction(45, 52)
        assert abs(float(cooling.coherent_p_max(1, 0.75)) - 0.75) <= 1e-12
        assert float(cooling.coherent_p_max(80, 0.75)) > 0.99999

    def test_asymptote_strictly_increasing(self):
        for gamma in (Fraction(3, 5), Fraction(3, 4), Fraction(9, 10)):
            vals = [cooling.coherent_p_max(d, gamma) for d in range(1, 31)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cooling.cool_coherent("MMTP", 5, 0.75)  # missing d
        for d in (0, 2.7, 2.0, True, "2"):
            with pytest.raises(ValueError, match="memory dimension d"):
                cooling.cool_coherent("MMTP", 2, 0.75, d)
        with pytest.raises(ValueError):
            cooling.cool_coherent("TP", 0, 0.75)
        with pytest.raises(ValueError):
            cooling.cool_coherent("ETP", 5, 0.75)
        with pytest.raises(ValueError):
            cooling.cool_coherent("TP", 5, 0.4)

    @pytest.mark.parametrize("pops", [[0.5, math.nan], [math.nan], [0.5, -0.1],
                                      [1.5], [0.5, math.inf], [-math.inf]])
    def test_run_rejects_populations_outside_the_unit_interval(self, pops):
        with pytest.raises(ValueError, match="populations must"):
            cooling._checked(pops)


class TestIncoherent:
    def test_asymptote_reference_value(self):
        *_, p_star = cooling.incoherent_weights(**REF)
        assert abs(p_star - 1.0 / (1.0 + math.exp(-1.8))) <= 1e-15

    def test_hot_limit_asymptote(self):
        # beta_hot -> 0 pushes the asymptote to the largest-gap Gibbs weight
        *_, p_star = cooling.incoherent_weights(1.0, 2.0, 1.0, 0.0)
        assert abs(p_star - 1.0 / (1.0 + math.exp(-2.0))) <= 1e-15

    def test_swap_class_recurrence(self):
        *_, p_star = cooling.incoherent_weights(**REF)
        v_tp = cooling.incoherent_rate("TP", **REF)
        pops = cooling.cool_incoherent("TP", 6, **REF)
        gamma = 1.0 / (1.0 + math.exp(-1.0))
        gaps = p_star - np.concatenate(([gamma], pops))
        np.testing.assert_allclose(gaps[1:], v_tp * gaps[:-1], atol=1e-14)

    @pytest.mark.parametrize("process,d", [("TP", None), ("MTP", None),
                                           ("MMTP", 1), ("MMTP", 2),
                                           ("MMTP", 5), ("MMTP", 8)])
    def test_simulation_matches_closed_form(self, process, d):
        pops = cooling.cool_incoherent(process, 50, d=d, **REF)
        closed = cooling.incoherent_closed_form(process, 50, d=d, **REF)
        worst = np.abs(pops - closed).max()
        assert worst <= 1e-10

    def test_all_classes_share_asymptote(self):
        *_, p_star = cooling.incoherent_weights(**REF)
        for process, d in (("TP", None), ("MTP", None), ("MMTP", 3)):
            pops = cooling.cool_incoherent(process, 50, d=d, **REF)
            assert abs(pops[-1] - p_star) <= 1e-6

    def test_measured_rates_match(self):
        gamma, *_, p_star = cooling.incoherent_weights(**REF)
        for process, d in (("TP", None), ("MTP", None), ("MMTP", 1), ("MMTP", 6)):
            pops = cooling.cool_incoherent(process, 10, d=d, **REF)
            rate = cooling.incoherent_rate(process, d=d, **REF)
            assert np.abs(cooling.measured_rates(pops, gamma, p_star) - rate).max() <= 1e-10

    def test_single_slot_memory_rate_is_thermalization_rate(self):
        assert abs(cooling.incoherent_rate("MMTP", d=1, **REF)
                   - cooling.incoherent_rate("MTP", **REF)) <= 1e-10

    def test_rate_ordering_and_memory_monotonicity(self):
        v_tp = cooling.incoherent_rate("TP", **REF)
        v_mtp = cooling.incoherent_rate("MTP", **REF)
        assert v_tp < v_mtp
        rates = [cooling.incoherent_rate("MMTP", d=d, **REF) for d in range(1, 13)]
        assert all(b <= a for a, b in zip(rates, rates[1:]))
        for v in rates[1:]:
            assert v_tp < v < v_mtp

    def test_round_ordering_holds_on_runs(self):
        for process, d in (("TP", None), ("MTP", None), ("MMTP", 4)):
            pops = cooling.cool_incoherent(process, 30, d=d, **REF)
            assert round_ordering_holds(pops, REF)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            cooling.cool_incoherent("TP", 5, E=2.0, script_E=1.0,
                                    beta=1.0, beta_hot=0.2)
        with pytest.raises(ValueError):
            cooling.cool_incoherent("TP", 5, E=1.0, script_E=2.0,
                                    beta=1.0, beta_hot=1.5)
        with pytest.raises(ValueError):
            cooling.cool_incoherent("MMTP", 5, **REF)  # missing d
        for d in (0, 2.7, True):
            with pytest.raises(ValueError, match="memory dimension d"):
                cooling.cool_incoherent("MMTP", 5, d=d, **REF)


class TestTPOptimality:
    """Each TP round reaches the largest ground population that any thermal
    process reaches from the state before the round: the best vertex of that
    state's TP-reachable polytope."""

    @pytest.mark.parametrize("gamma", [0.6, 0.75, 0.9])
    def test_coherent_round_is_the_best_vertex_of_the_inverted_state(self, gamma):
        gibbs = [gamma, 1.0 - gamma]
        pops = cooling.cool_coherent("TP", 5, gamma)
        for p, after in zip([gamma, *pops[:-1]], pops):
            best = max(v[0] for v in tp_reach_vertices([1.0 - p, p], gibbs))
            assert abs(after - best) <= 1e-15
            # inverting first does no worse than acting on the state as it is
            assert after >= max(v[0] for v in tp_reach_vertices([p, 1.0 - p], gibbs))

    @pytest.mark.parametrize("beta_hot", [0.2, 0.3])
    def test_incoherent_round_is_the_best_vertex_of_the_refreshed_state(self, beta_hot):
        kw = dict(REF, beta_hot=beta_hot)
        gamma, _, _, eta, _ = scalar_incoherent_weights(**kw)
        E, script_E = kw["E"], kw["script_E"]
        # the composite's Gibbs state on (g0, g1, e0, e1)
        gibbs = np.exp(-kw["beta"] * np.array([0.0, script_E - E, E, script_E]))
        gibbs /= gibbs.sum()
        pops = cooling.cool_incoherent("TP", 6, **kw)
        for p, after in zip([gamma, *pops[:-1]], pops):
            refreshed = [p * eta, p * (1.0 - eta), (1.0 - p) * eta, (1.0 - p) * (1.0 - eta)]
            best = max(v[0] + v[1] for v in tp_reach_vertices(refreshed, gibbs))
            assert abs(after - best) <= 1e-15


class TestRoundCount:
    @pytest.mark.parametrize("rounds", [2.5, True, 0])
    @pytest.mark.parametrize("call", [
        lambda n: cooling.cool_coherent("TP", n, 0.75),
        lambda n: cooling.coherent_closed_form("MMTP", n, 0.75, 2),
        lambda n: cooling.cool_incoherent("MTP", n, **REF),
        lambda n: cooling.incoherent_closed_form("TP", n, **REF),
    ], ids=["cool_coherent", "coherent_closed_form", "cool_incoherent",
            "incoherent_closed_form"])
    def test_rounds_must_be_an_integer_from_one(self, call, rounds):
        with pytest.raises(ValueError, match="rounds"):
            call(rounds)


class TestIncoherentState:
    @pytest.mark.parametrize("process, d", [("TP", None), ("MTP", None), ("MMTP", 1),
                                            ("MMTP", 8), ("MMTP", 64)])
    @pytest.mark.parametrize("setting", range(len(INCOHERENT_SETTINGS)))
    def test_python_floats_equal_the_numpy_scalar_rounds(self, process, d, setting):
        kw = INCOHERENT_SETTINGS[setting]
        pops = cooling.cool_incoherent(process, 50, d=d, **kw)
        expected = incoherent_by_numpy_scalars(process, 50, d, **kw)
        assert pops.tobytes() == expected.tobytes()


class TestGridAgreement:
    @pytest.mark.parametrize("beta_E", [math.log(2.0), math.log(3.0)])
    @pytest.mark.parametrize("beta_script_E", [math.log(4.0), math.log(6.0)])
    @pytest.mark.parametrize("hot_product", [0.1, 0.5])
    def test_incoherent_grid(self, beta_E, beta_script_E, hot_product):
        # dimensionless products: beta = 1, beta_hot set by the stated
        # beta_hot * (script_E - E) product
        kw = dict(E=beta_E, script_E=beta_script_E, beta=1.0,
                  beta_hot=hot_product / (beta_script_E - beta_E))
        if kw["beta_hot"] >= kw["beta"]:
            # the product would make the "hot" bath colder than the reservoir
            with pytest.raises(ValueError):
                cooling.cool_incoherent("TP", 1, **kw)
            return
        for process, d in (("TP", None), ("MTP", None), ("MMTP", 2), ("MMTP", 8)):
            pops = cooling.cool_incoherent(process, 50, d=d, **kw)
            closed = cooling.incoherent_closed_form(process, 50, d=d, **kw)
            worst = np.abs(pops - closed).max()
            assert worst <= 1e-10


def random_incoherent_settings(count, seed):
    """Draws of (E, script_E, beta, beta_hot) across the accepted domain:
    script_E > E > 0 and 0 <= beta_hot < beta, beta_hot = 0 included."""
    rng = np.random.default_rng(seed)
    settings = []
    for i in range(count):
        E = rng.uniform(0.05, 3.0)
        script_E = E + rng.uniform(1e-3, 4.0)
        beta = rng.uniform(0.05, 3.0)
        beta_hot = 0.0 if i % 10 == 0 else beta * rng.uniform(0.0, 0.999)
        settings.append(dict(E=E, script_E=script_E, beta=beta, beta_hot=beta_hot))
    return settings


# past 709.78, beta_hot (script_E - E) overflows e^{beta_hot (script_E - E)} at
# the first and beta script_E overflows e^{beta script_E} at the second
OVERFLOW_SETTINGS = [dict(E=1.0, script_E=800.0, beta=1.0, beta_hot=0.99),
                     dict(E=1.0, script_E=800.0, beta=1.0, beta_hot=0.1)]


class TestIncoherentWeights:
    def test_equal_the_scalar_oracles_bit_for_bit(self):
        for kw in random_incoherent_settings(300, 40) + INCOHERENT_SETTINGS:
            got = cooling.incoherent_weights(**kw)
            assert [v.hex() for v in got] == [v.hex() for v in scalar_incoherent_weights(**kw)]

    @pytest.mark.parametrize("E, script_E, beta, beta_hot", [
        (1.0, 1.0, 1.0, 0.2), (2.0, 1.0, 1.0, 0.2), (0.0, 2.0, 1.0, 0.2),
        (-1.0, 2.0, 1.0, 0.2), (1.0, 2.0, 1.0, 1.0), (1.0, 2.0, 1.0, 1.5),
        (1.0, 2.0, 1.0, -0.1), (math.nan, 2.0, 1.0, 0.2), (1.0, math.nan, 1.0, 0.2),
        (1.0, 2.0, math.nan, 0.2), (1.0, 2.0, 1.0, math.nan),
    ])
    def test_rejects_a_setting_outside_the_domain(self, E, script_E, beta, beta_hot):
        with pytest.raises(ValueError, match="need"):
            cooling.incoherent_weights(E, script_E, beta, beta_hot)

    @pytest.mark.parametrize("kw", OVERFLOW_SETTINGS, ids=["hot-overflow", "cold-overflow"])
    def test_closed_form_is_finite_where_an_exponential_overflows(self, kw):
        for process in ("TP", "MTP"):
            pops = cooling.cool_incoherent(process, 3, **kw)
            closed = cooling.incoherent_closed_form(process, 3, **kw)
            assert np.isfinite(closed).all()
            assert np.abs(pops - closed).max() <= 1e-12
            assert math.isfinite(cooling.incoherent_rate(process, **kw))

    def test_asymptote_past_the_overflow_is_the_one_exponential_form(self):
        # the true value at beta_hot (script_E - E) = 791.01 is 0.99988
        *_, p_star = cooling.incoherent_weights(**OVERFLOW_SETTINGS[0])
        assert abs(p_star - 1.0 / (1.0 + math.exp(791.01 - 800.0))) <= 1e-15
        with pytest.raises(OverflowError):
            scalar_p_star(**OVERFLOW_SETTINGS[0])

    def test_asymptote_forms_agree_just_below_the_overflow(self):
        # beta_hot (script_E - E) about 709, where e^{709} is finite and q a
        # subnormal e^{-712}
        kw = dict(E=1.0, script_E=712.0, beta=1.0, beta_hot=709.0 / 711.0)
        hot = kw["beta_hot"] * (kw["script_E"] - kw["E"])
        *_, p_star = cooling.incoherent_weights(**kw)
        assert p_star == scalar_p_star(**kw)
        assert abs(p_star - 1.0 / (1.0 + math.exp(hot - 712.0))) <= 1e-15

    def test_mtp_rate_past_the_overflow_is_the_tp_rate(self):
        kw = OVERFLOW_SETTINGS[1]
        assert cooling.incoherent_rate("MTP", **kw) == cooling.incoherent_rate("TP", **kw)
