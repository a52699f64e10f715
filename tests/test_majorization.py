"""Lorenz-curve ordering, qubit reachability, vertices, and the minimum extraction error."""

import math

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoproc.core import Hamiltonian, gibbs_state
from thermoproc.majorization import (CURVE_TOL, VERTEX_DEDUP_DECIMALS, beta_order,
                                     lorenz_curve, min_extraction_error_tp,
                                     thermo_majorizes, tp_reach_vertices)
from thermoproc.workx import extraction_closed_forms, threshold_gap

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def oracle_curve(p, tau):
    """Lorenz breakpoints of one state: levels by (-p/tau, index), then cumsum."""
    p, tau = np.asarray(p, dtype=np.float64), np.asarray(tau, dtype=np.float64)
    ratios = p / tau
    order = sorted(range(p.size), key=lambda k: (-ratios[k], k))
    return (np.concatenate(([0.0], np.cumsum(tau[order]))),
            np.concatenate(([0.0], np.cumsum(p[order]))))


def oracle_majorizes(p, q, tau, tol=CURVE_TOL):
    """p's curve on or above q's - tol at every breakpoint, by ``np.interp``."""
    (pxs, pys), (qxs, qys) = oracle_curve(p, tau), oracle_curve(q, tau)
    grid = np.concatenate((pxs, qxs))
    return bool((np.interp(grid, pxs, pys) >= np.interp(grid, qxs, qys) - tol).all())


def extraction_feasible(E, W, beta, eps):
    """Can [0,1]_S x [1,0]_W reach Gibbs_S x [eps, 1-eps] by a thermal process?

    One self-contained test on the ``np.interp`` oracle: the Hamiltonian,
    Gibbs state, target and both Lorenz curves are built anew.
    """
    tau = gibbs_state(Hamiltonian((0.0, W, E, E + W)), beta).probs
    gamma_s = 1.0 / (1.0 + math.exp(-beta * E))
    target = np.array([gamma_s * eps, gamma_s * (1.0 - eps),
                       (1.0 - gamma_s) * eps, (1.0 - gamma_s) * (1.0 - eps)])
    return oracle_majorizes(np.array([0.0, 0.0, 1.0, 0.0]), target, tau)


def bisection_over_oracle(E, W, beta):
    """The least feasible eps by 64 halvings of [0, gamma_W] over
    ``extraction_feasible``: a search that assumes nothing about the curves."""
    if extraction_feasible(E, W, beta, 0.0):
        return 0.0
    lo = 0.0
    hi = 1.0 / (1.0 + math.exp(-beta * W))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if extraction_feasible(E, W, beta, mid):
            hi = mid
        else:
            lo = mid
    return hi


def qubit_gibbs(gamma):
    return np.array([gamma, 1.0 - gamma])


def qubit_tp_reachable(p, p_target, gamma, tol=1.0e-12):
    """Ground population p can reach p_target on a single qubit.

    The reachable interval is [p, p_beta] for p below the Gibbs weight gamma
    and [p_beta, p] above it, where p_beta = 1 - p (1-gamma)/gamma is the
    output of the extremal swap.  At p = gamma both ends collapse to gamma.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= p_target <= 1.0):
        raise ValueError("populations must lie in [0, 1]")
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    p_beta = 1.0 - p * (1.0 - gamma) / gamma
    if p <= gamma:
        return p - tol <= p_target <= p_beta + tol
    return p_beta - tol <= p_target <= p + tol


class TestBetaOrder:
    def test_gibbs_is_identity_order(self):
        tau = np.array([0.5, 0.3, 0.2])
        assert list(beta_order(tau, tau)) == [0, 1, 2]

    def test_refreshed_cooling_state_order(self):
        # composite (g0, g1, e0, e1) after the hot-bath refresh: inside the
        # protocol's population range (between the thermal start and the
        # asymptote ~0.858) the ratio order is (g1, e1, g0, e0), with ties
        # in round one; beyond the asymptote the premise genuinely breaks
        E, script_E, beta, beta_hot = 1.0, 2.0, 1.0, 0.2
        gamma = 1.0 / (1.0 + math.exp(-beta * E))
        gamma_aux = 1.0 / (1.0 + math.exp(-beta * (script_E - E)))
        eta = 1.0 / (1.0 + math.exp(-beta_hot * (script_E - E)))
        tau = np.kron([gamma, 1 - gamma], [gamma_aux, 1 - gamma_aux])
        for p in (gamma, 0.8, 0.85):
            state = np.kron([p, 1 - p], [eta, 1 - eta])
            assert list(beta_order(state, tau)) == [1, 3, 0, 2]
        beyond = np.kron([0.9, 0.1], [eta, 1 - eta])
        assert list(beta_order(beyond, tau)) != [1, 3, 0, 2]

    def test_sort_oracle(self):
        rng = np.random.default_rng(17)
        tau = rng.dirichlet(np.ones(5))
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            order = beta_order(p, tau)
            ratios = (p / tau)[order]
            assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_rejects_zero_gibbs(self):
        with pytest.raises(ValueError):
            beta_order(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


class TestLorenzCurve:
    def test_gibbs_is_diagonal(self):
        tau = qubit_gibbs(0.75)
        curve = lorenz_curve(tau, tau)
        np.testing.assert_allclose(curve.xs, [0.0, 0.75, 1.0], atol=1e-15)
        np.testing.assert_allclose(curve.ys, [0.0, 0.75, 1.0], atol=1e-15)

    def test_pure_ground_state(self):
        gamma = 0.75
        curve = lorenz_curve(np.array([1.0, 0.0]), qubit_gibbs(gamma))
        np.testing.assert_allclose(curve.xs, [0.0, gamma, 1.0], atol=1e-15)
        np.testing.assert_allclose(curve.ys, [0.0, 1.0, 1.0], atol=1e-15)

    def test_pure_excited_state(self):
        gamma = 0.75
        curve = lorenz_curve(np.array([0.0, 1.0]), qubit_gibbs(gamma))
        np.testing.assert_allclose(curve.xs, [0.0, 1.0 - gamma, 1.0], atol=1e-15)
        np.testing.assert_allclose(curve.ys, [0.0, 1.0, 1.0], atol=1e-15)

    def test_tied_ratios_give_same_curve(self):
        # a state with two levels at exactly equal ratios: the curve must not
        # depend on which of the tied levels is listed first
        tau = np.array([0.5, 0.25, 0.25])
        p = np.array([0.4, 0.3, 0.3])
        c1 = lorenz_curve(p, tau)
        c2 = lorenz_curve(p[[0, 2, 1]], tau[[0, 2, 1]])
        np.testing.assert_array_equal(c1.xs, c2.xs)
        np.testing.assert_array_equal(c1.ys, c2.ys)


class TestThermoMajorizes:
    def test_gibbs_is_bottom(self):
        rng = np.random.default_rng(29)
        tau = rng.dirichlet(np.ones(4))
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            assert thermo_majorizes(p, tau, tau)

    def test_reflexive(self):
        rng = np.random.default_rng(31)
        tau = rng.dirichlet(np.ones(3))
        for _ in range(50):
            p = rng.dirichlet(np.ones(3))
            assert thermo_majorizes(p, p, tau)

    def test_agrees_with_qubit_interval(self):
        for gamma in (0.6, 0.75):
            tau = qubit_gibbs(gamma)
            for p in np.linspace(0.0, 1.0, 10):
                for pt in np.linspace(0.0, 1.0, 10):
                    by_curves = thermo_majorizes(np.array([p, 1 - p]),
                                                 np.array([pt, 1 - pt]), tau)
                    by_interval = qubit_tp_reachable(float(p), float(pt), gamma)
                    assert by_curves == by_interval

    def test_antisymmetry_up_to_equality(self):
        rng = np.random.default_rng(37)
        tau = rng.dirichlet(np.ones(3))
        hits = 0
        for _ in range(1000):
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            if thermo_majorizes(p, q, tau) and thermo_majorizes(q, p, tau):
                hits += 1
                assert np.abs(p - q).max() <= 1e-10
        # mutual domination of independent samples is measure-zero
        assert hits == 0

    def test_transitivity(self):
        rng = np.random.default_rng(41)
        tau = rng.dirichlet(np.ones(3))
        for _ in range(1000):
            p, q, r = (rng.dirichlet(np.ones(3)) for _ in range(3))
            if thermo_majorizes(p, q, tau) and thermo_majorizes(q, r, tau):
                assert thermo_majorizes(p, r, tau)


    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([3, 4]), rows=st.integers(1, 6))
    def test_rows_equal_the_interp_oracle(self, data, dim, rows):
        # random states, zeros and ties included; one Gibbs vector per row
        def states(low):
            entries = st.lists(st.floats(low, 1.0), min_size=dim, max_size=dim)
            raw = np.array(data.draw(st.lists(entries.filter(lambda v: sum(v) > 0.0),
                                              min_size=rows, max_size=rows)))
            return raw / raw.sum(axis=1, keepdims=True)

        p, q, tau = states(0.0), states(0.0), states(0.01)
        verdicts = thermo_majorizes(p, q, tau)
        assert verdicts.tolist() == [oracle_majorizes(*row) for row in zip(p, q, tau)]
        curves = lorenz_curve(p, tau)
        grid = np.concatenate((curves.xs, lorenz_curve(q, tau).xs, 1.5 * tau), axis=1)
        # one row of points that every curve reads
        line = np.concatenate((grid[0], np.linspace(-0.5, 1.5, 9)))
        for r in range(rows):
            xs, ys = oracle_curve(p[r], tau[r])
            assert curves.xs[r].tobytes() == xs.tobytes()
            assert curves.ys[r].tobytes() == ys.tobytes()
            assert (curves.value_at(grid)[r].tobytes()
                    == np.interp(grid[r], xs, ys).tobytes())
            assert (curves.value_at(line)[r].tobytes()
                    == np.interp(line, xs, ys).tobytes())


class TestQubitReachable:
    def test_below_gibbs_interval(self):
        gamma, p = 0.75, 0.2
        p_beta = 1.0 - p * (1.0 - gamma) / gamma
        assert abs(p_beta - (1.0 - 0.2 / 3.0)) <= 1e-15
        assert qubit_tp_reachable(p, 0.2, gamma)
        assert qubit_tp_reachable(p, 0.9, gamma)
        assert not qubit_tp_reachable(p, 0.95, gamma)
        assert not qubit_tp_reachable(p, 0.1, gamma)

    def test_at_gibbs_only_gibbs(self):
        gamma = 0.7
        assert qubit_tp_reachable(gamma, gamma, gamma)
        assert not qubit_tp_reachable(gamma, gamma + 1e-6, gamma)
        assert not qubit_tp_reachable(gamma, gamma - 1e-6, gamma)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            qubit_tp_reachable(0.5, 0.5, 1.0)


class TestVertices:
    def test_gibbs_single_vertex(self):
        tau = np.array([0.5, 0.3, 0.2])
        vertices = tp_reach_vertices(tau, tau)
        assert len(vertices) == 1
        np.testing.assert_allclose(vertices[0].probs, tau, atol=1e-12)

    def test_all_vertices_dominated(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            tau = rng.dirichlet(np.ones(3))
            p = rng.dirichlet(np.ones(3))
            for v in tp_reach_vertices(p, tau):
                assert thermo_majorizes(p, v, tau)

    def test_degenerate_qutrit_symmetry(self):
        tau = gibbs_state(Hamiltonian((0.0, 1.0, 1.0)), LN2).probs
        vertices = {tuple(np.round(v.probs, 10))
                    for v in tp_reach_vertices(np.array([1.0, 0.0, 0.0]), tau)}
        mirrored = {(g, e2, e1) for g, e1, e2 in vertices}
        assert vertices == mirrored

    def test_equal_the_per_permutation_interp_loop_bit_for_bit(self):
        rng = np.random.default_rng(47)
        for dim in (2, 3, 4, 5):
            tau = rng.dirichlet(np.ones(dim))
            p = rng.dirichlet(np.ones(dim))
            xs, ys = oracle_curve(p, tau)
            expected = {}
            for perm in permutations(range(dim)):
                v, x, y_prev = np.zeros(dim), 0.0, 0.0
                for idx in perm:
                    x += tau[idx]
                    y = float(np.interp(x, xs, ys))
                    v[idx] = y - y_prev
                    y_prev = y
                expected.setdefault(tuple(np.round(v, VERTEX_DEDUP_DECIMALS)), v)
            got = [v.probs.tobytes() for v in tp_reach_vertices(p, tau)]
            assert got == [v.tobytes() for v in expected.values()]

    def test_dimension_cap(self):
        tau = np.ones(7) / 7
        with pytest.raises(ValueError):
            tp_reach_vertices(tau, tau)


# the read-off and the closed form eps_TP each round a handful of operations on numbers
# at most 1, so they may differ by a few ulp of 1 (3.5 ulp on the grids
# below); 8 ulp bounds that, six orders below validate's 1e-9
FEW_ULP = 8 * np.finfo(np.float64).eps


class TestExtractionBisection:
    def test_threshold_gap_is_error_free(self):
        # beta_E = ln 2 puts the zero-error threshold at beta_W = ln 3
        assert min_extraction_error_tp(LN2, LN3, 1.0) == 0.0

    def test_above_threshold_value(self):
        got = min_extraction_error_tp(LN2, math.log(4.0), 1.0)
        assert abs(got - 0.25) <= 1e-9

    def test_tiny_work_gap(self):
        assert min_extraction_error_tp(LN2, 1e-6, 1.0) == 0.0

    @pytest.mark.parametrize("beta_E", [LN2, LN3, 1.0])
    def test_matches_closed_form_on_grid(self, beta_E):
        w0 = threshold_gap(beta_E, 1.0)
        near = w0 + np.array([-1e-9, -1e-12, -1e-13, -1e-15, 0.0, 1e-15, 1e-13, 1e-12, 1e-9])
        gaps = np.concatenate([np.linspace(0.05, 3.0, 500), [1e-6], near])
        got = min_extraction_error_tp(beta_E, gaps, 1.0)
        gamma_w = 1.0 / (1.0 + np.exp(-gaps))
        assert ((got >= 0.0) & (got <= gamma_w)).all()
        assert np.abs(got - extraction_closed_forms(beta_E, gaps, 1.0)[0]).max() <= FEW_ULP

    def test_agrees_with_a_bisection_over_the_oracle(self):
        # the bisection stops where CURVE_TOL lets an infeasible target pass,
        # up to CURVE_TOL below the read-off; E and beta up to 2 keep the
        # start's slope 1/tau_e0 from scaling rounding past a second CURVE_TOL
        rng = np.random.default_rng(7)
        for _ in range(50):
            E, beta, W = rng.uniform(0.05, 2.0), rng.uniform(0.2, 2.0), rng.uniform(1e-3, 4.0)
            got = min_extraction_error_tp(E, W, beta)
            assert abs(got - bisection_over_oracle(E, W, beta)) <= 2 * CURVE_TOL, (E, W, beta)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_grid_agrees_with_a_bisection_over_the_oracle_per_gap(self, seed):
        # one array call, several curves: each row must read off its own gap
        rng = np.random.default_rng(seed)
        E, beta = rng.uniform(0.05, 2.0), rng.uniform(0.2, 2.0)
        gaps = np.sort(rng.uniform(1e-3, 4.0, size=12))
        got = min_extraction_error_tp(E, gaps, beta)
        for bw, eps in zip(gaps.tolist(), got.tolist()):
            assert abs(eps - bisection_over_oracle(E, bw, beta)) <= 2 * CURVE_TOL, (E, bw, beta)

    def test_agrees_with_a_bisection_over_the_oracle_next_to_the_threshold_gap(self):
        w0 = threshold_gap(LN2, 1.0)
        gaps = w0 + np.array([-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3])
        got = min_extraction_error_tp(LN2, gaps, 1.0)
        for bw, eps in zip(gaps.tolist(), got.tolist()):
            assert abs(eps - bisection_over_oracle(LN2, bw, 1.0)) <= 2 * CURVE_TOL, bw

    @pytest.mark.parametrize("error_free", [True, False], ids=["all-error-free", "none-error-free"])
    def test_all_or_no_gap_is_error_free(self, error_free):
        # W <= W_0 extracts without error; every larger gap leaves a positive error
        w0 = threshold_gap(LN2, 1.0)
        gaps = np.linspace(1e-6, w0 - 1e-6, 40) if error_free else np.linspace(w0 + 1e-6, 4.0, 40)
        got = min_extraction_error_tp(LN2, gaps, 1.0)
        if error_free:
            assert (got == 0.0).all()
        else:
            assert (got > 0.0).all()
            assert np.abs(got - extraction_closed_forms(LN2, gaps, 1.0)[0]).max() <= FEW_ULP

    def test_nondecreasing_in_the_work_gap(self):
        # a larger gap moves the elbow 1 - gamma_W left, to a lower point of the start's curve
        got = min_extraction_error_tp(1.0, np.linspace(0.05, 3.0, 500), 1.0)
        assert (np.diff(got) >= -FEW_ULP).all()

    @pytest.mark.parametrize("beta_E", [LN2, LN3, 1.0])
    def test_is_the_least_feasible_error(self, beta_E):
        # the read-off passes the oracle's feasibility test, 1e-6 less fails it
        w0 = threshold_gap(beta_E, 1.0)
        for bw in (w0 + 0.05, w0 + 0.5, w0 + 2.0):
            eps = min_extraction_error_tp(beta_E, bw, 1.0)
            assert extraction_feasible(beta_E, bw, 1.0, eps), bw
            assert not extraction_feasible(beta_E, bw, 1.0, eps - 1e-6), bw

    @pytest.mark.parametrize("beta_E", [LN2, 1.0, LN3])
    def test_array_equals_scalar_calls_bit_for_bit(self, beta_E):
        # the threshold gap (error-free at beta_E = ln 2) and a tiny gap included
        gaps = np.concatenate([np.linspace(0.05, 2.5, 50), [LN3, 1e-6, 4.0]])
        got = min_extraction_error_tp(beta_E, gaps, 1.0)
        assert got.shape == gaps.shape
        assert ([v.hex() for v in got.tolist()]
                == [min_extraction_error_tp(beta_E, w, 1.0).hex() for w in gaps.tolist()])

    def test_shapes_round_trip(self):
        gaps = np.linspace(0.2, 2.0, 6)
        flat = min_extraction_error_tp(LN2, gaps, 1.0)
        grid = min_extraction_error_tp(LN2, gaps.reshape(2, 3), 1.0)
        assert grid.shape == (2, 3)
        assert grid.tobytes() == flat.tobytes()
        for scalar in (0.7, np.float64(0.7), np.array(0.7)):
            got = min_extraction_error_tp(LN2, scalar, 1.0)
            assert isinstance(got, float)
            assert got == min_extraction_error_tp(LN2, [0.7], 1.0)[0]

    @pytest.mark.parametrize("E, W, beta", [
        (0.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, -0.5, 1.0),
        (1.0, 1.0, 0.0), (1.0, 1.0, -1.0), (1.0, [0.5, 0.0], 1.0),
        (1.0, [0.5, -1.0], 1.0), (1.0, [0.5, float("nan")], 1.0),
        (float("nan"), 1.0, 1.0),
    ])
    def test_rejects_nonpositive_parameters_in_any_form(self, E, W, beta):
        with pytest.raises(ValueError):
            min_extraction_error_tp(E, W, beta)

    def test_feasibility_monotone_in_error(self):
        for bw in (0.5, 1.2, 2.0):
            flags = [extraction_feasible(LN2, bw, 1.0, float(e))
                     for e in np.linspace(0.0, 1.0 / (1.0 + 0.25), 50)]
            # once feasible, feasible for every larger error
            assert all(b or not a for a, b in zip(flags, flags[1:]))
            assert flags[-1]

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            min_extraction_error_tp(0.0, 1.0, 1.0)
