"""Qutrit reachable-set geometry."""

import math

import numpy as np
import pytest

from thermoproc.core import (PopulationVector, apply, beta_swap,
                             elementary_tp, full_thermalization,
                             partial_thermalization)
from thermoproc.memory import closed_form_p_d
from thermoproc.reachable import (SimplexRegion, bary_xy, convex_hull_xy,
                                  etp_orbit_hull, etp_orbit_points, hull_margin,
                                  inside_tp_cone, mtp_mixing_path, mtp_region,
                                  qutrit_gibbs, qutrit_mmtp2_vertices, tp_region)

GROUND = PopulationVector(np.array([1.0, 0.0, 0.0]))


def hull_oracle(points_xy):
    """Andrew's monotone chain with every turn test on numpy rows."""
    pts = np.asarray(points_xy, dtype=np.float64)
    order = np.lexsort((pts[:, 1], pts[:, 0]))

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    def build(indices):
        chain = []
        for i in indices:
            while len(chain) >= 2 and cross(pts[chain[-1]] - pts[chain[-2]],
                                            pts[i] - pts[chain[-2]]) <= 1.0e-15:
                chain.pop()
            chain.append(i)
        return chain

    return (build(order)[:-1] + build(order[::-1])[:-1])


def _thermalizations(gamma):
    """The three full two-level thermalizations as (i, j, pair weight)."""
    return ((0, 1, gamma), (0, 2, gamma), (1, 2, 0.5))


class TestMemoryVertices:
    def test_a_vertices_mirror_each_other(self):
        a1, a2, b1, b2 = qutrit_mmtp2_vertices(0.75)
        np.testing.assert_allclose(a1.probs, a2.probs[[0, 2, 1]], atol=1e-15)
        np.testing.assert_allclose(b1.probs, b2.probs[[0, 2, 1]], atol=1e-15)

    def test_all_vertices_thermally_reachable(self):
        for gamma in (0.65, 0.75, 0.85):
            vertices = qutrit_mmtp2_vertices(gamma)
            for v in vertices:
                assert inside_tp_cone(gamma, v.probs)
            rows = np.array([v.probs for v in vertices])
            assert inside_tp_cone(gamma, rows).tolist() == [True] * 4

    def test_pumped_component_matches_memory_closed_form(self):
        # the A vertex is the two-slot swap simulation applied to the full
        # ground population, so its target component is 1 - p_d(2, p0 = 1)
        for gamma in (0.65, 0.75, 0.9):
            a1, a2, _b1, _b2 = qutrit_mmtp2_vertices(gamma)
            expected = 1.0 - closed_form_p_d(2, 1.0, gamma)
            assert abs(a1[1] - expected) <= 1e-14
            assert abs(a2[2] - expected) <= 1e-14
            assert abs(a1[2]) <= 1e-15  # untouched level stays empty

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            qutrit_mmtp2_vertices(0.5)


class TestOrbit:
    def test_depth_one_images(self):
        gamma = 0.75
        q = (1.0 - gamma) / gamma
        pts = {tuple(np.round(p, 12)) for p in etp_orbit_points(gamma, 1)}
        assert tuple(np.round([1 - q, q, 0.0], 12)) in pts
        assert tuple(np.round([1 - q, 0.0, q], 12)) in pts

    def test_hull_contains_gibbs(self):
        for gamma in (0.65, 0.8):
            hull = etp_orbit_hull(gamma, 8)
            assert hull_margin(hull, qutrit_gibbs(gamma)) < 0.0

    def test_hull_inside_tp_cone(self):
        for gamma in (0.65, 0.75, 0.85):
            for v in etp_orbit_hull(gamma, 8).vertices:
                assert inside_tp_cone(gamma, v)

    def test_hull_monotone_in_depth(self):
        gamma = 0.75
        for depth in (1, 2, 4, 7):
            inner = etp_orbit_hull(gamma, depth)
            outer = etp_orbit_hull(gamma, depth + 1)
            for v in inner.vertices:
                assert hull_margin(outer, v) <= 1e-12

    @pytest.mark.parametrize("gamma", [0.55, 0.6, 0.65, 0.75, 0.8, 0.85, 0.88,
                                       0.92, 0.999])
    def test_hull_indices_equal_the_numpy_chain(self, gamma):
        for depth in range(1, 11):
            xy = bary_xy(etp_orbit_points(gamma, depth))
            assert convex_hull_xy(xy).tolist() == hull_oracle(xy), depth

    def test_hull_indices_equal_the_numpy_chain_on_random_points(self):
        # collinear and repeated points exercise the turn tolerance
        rng = np.random.default_rng(53)
        for _ in range(20):
            xy = rng.random((40, 2))
            xy[:10] = np.round(xy[:10], 1)
            xy[10:20] = xy[:10]
            assert convex_hull_xy(xy).tolist() == hull_oracle(xy)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            etp_orbit_points(0.75, 0)


class TestSeparation:
    def test_b_vertices_inside_hull_at_moderate_weights(self):
        # at these pair weights the swap orbit strictly dominates the
        # two-slot memory pumps: the B states stay inside the hull
        for gamma in (0.65, 0.75, 0.85):
            hull = etp_orbit_hull(gamma, 8)
            _a1, _a2, b1, b2 = qutrit_mmtp2_vertices(gamma)
            assert hull_margin(hull, b1.probs) < 0.0
            assert hull_margin(hull, b2.probs) < 0.0

    def test_b_vertices_escape_hull_at_large_weights(self):
        # close to degeneracy the memory-assisted double pump reaches below
        # the swap-orbit floor: states no swap sequence can produce
        for gamma in (0.88, 0.92, 0.96):
            hull = etp_orbit_hull(gamma, 8)
            _a1, _a2, b1, b2 = qutrit_mmtp2_vertices(gamma)
            assert hull_margin(hull, b1.probs) > 1e-6
            assert hull_margin(hull, b2.probs) > 1e-6
            assert inside_tp_cone(gamma, b1.probs)
            assert inside_tp_cone(gamma, b2.probs)

    def test_crossover_matches_closed_forms(self):
        # the escape condition in closed form: gamma^4 (3 - 2 gamma) drops
        # below the double-swap floor ((2 gamma - 1)/gamma)^2
        for gamma in (0.75, 0.85, 0.88, 0.92):
            _a1, _a2, b1, _b2 = qutrit_mmtp2_vertices(gamma)
            assert abs(b1[0] - gamma ** 4 * (3.0 - 2.0 * gamma)) <= 1e-12
            floor = ((2.0 * gamma - 1.0) / gamma) ** 2
            escapes = gamma ** 4 * (3.0 - 2.0 * gamma) < floor
            hull = etp_orbit_hull(gamma, 8)
            assert (hull_margin(hull, b1.probs) > 0.0) == escapes


class TestSwapWitness:
    """One swap and two partial swaps reach B exactly below gamma ~ 0.855.

    With q = (1 - gamma)/gamma: swap (g, e1), partial swap (g, e2) with
    strength lam, partial swap (e1, e2) with strength mu, where lam and mu
    are solved from the target B_1.  B_2 is the mirror sequence.
    """

    @staticmethod
    def _strengths(gamma):
        q = (1.0 - gamma) / gamma
        _a1, _a2, b1, _b2 = qutrit_mmtp2_vertices(gamma)
        lam = (1.0 - b1[0] / (1.0 - q)) / q
        mu = (q - b1[1]) / (q - lam * q * (1.0 - q))
        return q, lam, mu

    def test_three_swaps_reach_b_on_the_stated_grid(self):
        for gamma in (0.65, 0.75, 0.85):
            q, lam, mu = self._strengths(gamma)
            _a1, _a2, b1, b2 = qutrit_mmtp2_vertices(gamma)
            for target, (e, other) in ((b1, (1, 2)), (b2, (2, 1))):
                p = GROUND
                for m in (beta_swap(3, 0, e, q),
                          elementary_tp(3, 0, other, lam, q),
                          elementary_tp(3, e, other, mu, 1.0)):
                    p = apply(m, p)
                np.testing.assert_allclose(p.probs, target.probs, rtol=0.0,
                                           atol=1e-12)

    def test_witness_breaks_down_where_b_escapes_the_hull(self):
        for gamma in (0.88, 0.92, 0.96):
            _q, lam, _mu = self._strengths(gamma)
            assert lam > 1.0


class TestMtpRegion:
    GAMMAS = (0.55, 0.65, 0.75, 0.85, 0.95)

    def test_closed_under_full_thermalizations(self):
        for gamma in self.GAMMAS:
            region = mtp_region(gamma)
            for v in region.vertices:
                for i, j, pair in _thermalizations(gamma):
                    img = apply(full_thermalization(3, i, j, pair),
                                PopulationVector(v))
                    assert hull_margin(region, img.probs) <= 1e-12

    def test_partial_thermalization_sequence_stays_inside(self):
        rng = np.random.default_rng(7)
        for gamma in self.GAMMAS:
            region = mtp_region(gamma)
            pairs = _thermalizations(gamma)
            p = GROUND
            for _ in range(200):
                i, j, pair = pairs[rng.integers(3)]
                p = apply(partial_thermalization(3, i, j, rng.random(), pair), p)
                assert hull_margin(region, p.probs) <= 1e-12

    def test_contains_mixing_path(self):
        for gamma in self.GAMMAS:
            region = mtp_region(gamma)
            for v in mtp_mixing_path(gamma).vertices:
                assert hull_margin(region, v) <= 1e-12

    def test_vertices_inside_tp_cone(self):
        for gamma in self.GAMMAS:
            for v in mtp_region(gamma).vertices:
                assert inside_tp_cone(gamma, v)

    def test_memoryless_counterpart_of_b_does_not_separate(self):
        # the same two pumps without memory land on the boundary, so the
        # 1e-6 bar of criterion 8 is one that a wrong B would fail
        for gamma in (0.65, 0.75, 0.85):
            counterpart = [gamma ** 2, 1.0 - gamma, gamma * (1.0 - gamma)]
            assert hull_margin(mtp_region(gamma), counterpart) <= 1e-6


class TestRegions:
    def test_tp_region_vertices(self):
        region = tp_region(0.75)
        pts = {tuple(np.round(v, 10)) for v in region.vertices}
        third = round(1.0 / 3.0, 10)
        assert tuple(np.round([1.0, 0.0, 0.0], 10)) in pts
        assert (third, third, third) in pts

    def test_mixing_path_endpoints(self):
        path = mtp_mixing_path(0.75)
        assert len(path.vertices) == 17
        np.testing.assert_allclose(path.vertices[0], [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(path.vertices[-1], qutrit_gibbs(0.75), atol=1e-15)

    def test_polygon_validation(self):
        with pytest.raises(ValueError):
            SimplexRegion("bad", "polygon",
                          [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                           [0.5, 0.25, 0.25], [0.0, 0.0, 1.0]])

    @pytest.mark.parametrize("kind", ["points", "polygon"])
    def test_nan_vertex_is_rejected(self, kind):
        # every comparison with NaN is false, so each check is written to fail on it
        with pytest.raises(ValueError, match="probability rows"):
            SimplexRegion("bad", kind, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                        [0.0, math.nan, 1.0]])

    def test_bary_corners(self):
        xy = bary_xy([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        np.testing.assert_allclose(xy[0], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(xy[1], [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(xy[2], [0.5, np.sqrt(3) / 2], atol=1e-15)

