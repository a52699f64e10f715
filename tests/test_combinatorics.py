"""Exact coefficients, the L/K/I family, the Catalan tail, and the error kernel."""

import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoproc import _split
from thermoproc import combinatorics as comb

from reference import (I_d_double_sum, I_d_fraction, alternating_fraction,
                       delta_d_column_fraction, lki_references, per_point_I_d, weighted_float,
                       weighted_fraction, whole_row_points)

SQRT_PI = math.sqrt(math.pi)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def L_derivative(n, m, x):
    """Closed-form derivative dL/dx = -n C(n+m, m) x^m (1-x)^{n-1}."""
    return -n * math.comb(n + m, m) * x ** m * (1 - x) ** (n - 1)


# L (definition route), K and I, each beside its reference
LKI = (lambda n, m, x: comb.L_eval(n, m, x), comb.K_eval, comb.I_nm_eval)
EXACT_ORACLES = tuple(zip(LKI, lki_references(weighted_fraction)))
FLOAT_ORACLES = tuple(zip(LKI, lki_references(weighted_float)))


@st.composite
def orders(draw, max_n=60):
    """(n, m) with n <= max_n and 0 <= m < n."""
    n = draw(st.integers(1, max_n), label="n")
    return n, draw(st.integers(0, n - 1), label="m")


class TestCoefficients:
    def test_known_values(self):
        assert all(comb.f_coeff(j, 0) == 1 for j in range(1, 20))
        assert all(comb.f_coeff(1, k) == 1 for k in range(20))
        assert comb.f_coeff(3, 2) == 6

    def test_recurrence_equals_binomial(self):
        table = comb.f_table(60, 60)
        for j in range(1, 61):
            for k in range(61):
                assert table[j][k] == comb.f_coeff(j, k)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            comb.f_coeff(0, 3)
        with pytest.raises(ValueError):
            comb.f_coeff(2, -1)

    @pytest.mark.parametrize("j, k, message", [
        (0, 3, "j must be >= 1"), (-2, 3, "j must be >= 1"), (2, -1, "k must be >= 0"),
        (2.0, 1, "j must be an integer"), (True, 1, "j must be an integer"),
        (2, 1.0, "k must be an integer"), (1, False, "k must be an integer"),
        ("2", 1, "j must be an integer"), (np.int64(0), 1, "j must be >= 1"),
    ])
    def test_every_argument_off_the_plain_int_path_is_still_checked(self, j, k, message):
        with pytest.raises(ValueError, match=message):
            comb.f_coeff(j, k)

    def test_numpy_integers_give_the_plain_int_values(self):
        for j, k in ((1, 0), (3, 2), (60, 60)):
            got = comb.f_coeff(np.int64(j), np.int32(k))
            assert type(got) is int and got == comb.f_coeff(j, k)


class TestLRoutes:
    def test_endpoint_values(self):
        # the quadrature rule is exact for the integrand's degree, so the
        # quadrature route is off only by rounding (<= 8.9e-16 on these cases)
        for route, tol in (("definition", 1e-15), ("alternating", 1e-15),
                           ("quadrature", 1e-14)):
            for n, m in ((1, 0), (5, 2), (12, 11)):
                assert abs(comb.L_eval(n, m, 0.0, route) - 1.0) <= tol
                assert abs(comb.L_eval(n, m, 1.0, route)) <= tol

    def test_routes_agree(self):
        worst = 0.0
        for n in (1, 2, 3, 5, 8, 13, 21, 34, 40):
            for m in range(n):
                for x in np.arange(0.1, 0.95, 0.1):
                    a = comb.L_eval(n, m, float(x), "definition")
                    b = comb.L_eval(n, m, float(x), "alternating")
                    c = comb.L_eval(n, m, float(x), "quadrature")
                    worst = max(worst, abs(a - b), abs(a - c))
        assert worst <= 1e-9

    def test_quadrature_route_is_exact_up_to_rounding(self):
        # the grid of the special-function-routes check
        worst = 0.0
        for n in range(1, 41):
            for m in {0, n // 2, n - 1}:
                for x in np.arange(0.1, 0.95, 0.1):
                    exact = float(comb.L_eval(n, m, Fraction(float(x)), "alternating"))
                    worst = max(worst, abs(comb.L_eval(n, m, float(x), "quadrature") - exact))
        assert worst <= 1e-14

    def test_gauss_legendre_rule(self):
        for count in range(1, 41):
            nodes, weights = comb._gauss_legendre(count)
            ref_nodes, ref_weights = np.polynomial.legendre.leggauss(count)
            assert np.abs(nodes - ref_nodes).max() <= 1e-14
            assert np.abs(weights - ref_weights).max() <= 1e-14
            assert nodes.tobytes() == (-nodes[::-1] + 0.0).tobytes()
            assert weights.tobytes() == weights[::-1].tobytes()
            # exact for every monomial of degree <= 2 count - 1
            for k in range(2 * count):
                exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
                assert abs(float(weights @ nodes ** k) - exact) <= 1e-14

    def test_quadrature_route_loads_no_polynomial_module(self):
        code = ("import sys; from thermoproc import combinatorics as c; "
                "c.L_eval(40, 39, 0.3, 'quadrature'); "
                "print('numpy.polynomial' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env={**os.environ,
                                                         "PYTHONPATH": SRC})
        assert out.stdout.strip() == "False"

    def test_quadrature_array_equals_per_point_calls(self):
        # the check's grid, the endpoints, and points near them
        xs = np.concatenate([np.arange(0.1, 0.95, 0.1), [0.0, 1.0, 1e-300, 1e-9, 0.999]])
        for n in range(1, 41):
            for m in {0, n // 2, n - 1, 2 * n}:
                got = comb.L_eval(n, m, xs, "quadrature")
                assert type(got) is np.ndarray and got.shape == xs.shape
                expected = [comb.L_eval(n, m, x, "quadrature") for x in xs.tolist()]
                assert got.tobytes() == np.array(expected).tobytes(), (n, m)

    @settings(max_examples=60, deadline=None)
    @given(orders(40), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_property_quadrature_array_equals_per_point_calls(self, nm, xs):
        n, m = nm
        got = comb.L_eval(n, m, np.array(xs), "quadrature")
        expected = [comb.L_eval(n, m, x, "quadrature") for x in xs]
        assert got.tobytes() == np.array(expected).tobytes()

    # every route takes a 1-D array of x; TestGrids covers each route with
    # each bad grid
    @pytest.mark.parametrize("route, x", [
        ("definition", np.array([0.5, 1.5])),
        ("alternating", np.array([0.5, np.nan])),
        ("quadrature", np.array([[0.5]])),
        ("quadrature", np.array([0.5, 1.5])),
        ("quadrature", np.array([-0.1, 0.5])),
        ("quadrature", np.array([np.nan])),
    ], ids=["definition", "alternating", "2-d", "above-1", "below-0", "nan"])
    def test_bad_x_arrays_rejected(self, route, x):
        with pytest.raises(ValueError):
            comb.L_eval(3, 1, x, route)

    def test_rational_routes_agree_exactly(self):
        for n in (1, 2, 5, 10, 17, 25):
            for m in {0, n // 2, n - 1}:
                for x in (Fraction(1, 10), Fraction(1, 3), Fraction(9, 10)):
                    assert (comb.L_eval(n, m, x, "definition")
                            == comb.L_eval(n, m, x, "alternating"))

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError):
            comb.L_eval(3, 1, 0.5, "montecarlo")

    def test_non_increasing_in_x(self):
        for n, m in ((4, 1), (10, 5), (25, 24)):
            xs = np.linspace(0.0, 1.0, 40)
            values = [comb.L_eval(n, m, float(x)) for x in xs]
            assert all(b <= a + 1e-14 for a, b in zip(values, values[1:]))


# exact inputs: fractions with small denominators, and floats taken exactly
EXACT_UNIT = (st.fractions(0, 1, max_denominator=1000)
              | st.floats(0.0, 1.0).map(Fraction))
# exact pair weights of delta_d's domain, strictly above 1/2 + its margin
EXACT_GAMMA = (st.fractions(Fraction(501, 1000), 1, max_denominator=1000)
               | st.floats(0.501, 1.0, exclude_max=True).map(Fraction)).filter(
                   lambda g: 0.5 + comb.DELTA_GAMMA_MARGIN < g < 1)


class TestIntegerRoutes:
    """The integer-numerator exact forms (the alternating and definition
    routes of L, K, I, I_d and the delta_d tails) against the Fraction loops
    they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(orders(), EXACT_UNIT)
    def test_exact_definition_K_and_I_equal_the_fraction_loops(self, nm, x):
        n, m = nm
        for fn, oracle in EXACT_ORACLES:
            got = fn(n, m, x)
            assert type(got) is Fraction
            assert got == oracle(n, m, x)

    def test_exact_definition_K_and_I_edge_cases(self):
        for n, m in ((1, 0), (1, 5), (60, 0), (60, 59)):
            for x in (0, 1, Fraction(0), Fraction(1), Fraction(1, 3)):
                for fn, oracle in EXACT_ORACLES:
                    got = fn(n, m, x)
                    assert type(got) is Fraction and got == oracle(n, m, x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 200), EXACT_GAMMA)
    def test_exact_delta_d_column_equals_the_fraction_loop(self, d_max, gamma):
        column = comb.delta_d_column(d_max, gamma)
        assert all(type(v) is Fraction for v in column)
        assert column == delta_d_column_fraction(d_max, gamma)
        assert comb.delta_d(d_max, gamma) == column[-1]

    @pytest.mark.parametrize("gamma", [Fraction(0.7), Fraction(3, 5), Fraction(3, 4),
                                       Fraction(9, 10), Fraction(27, 32)],
                             ids=["0.7", "3/5", "3/4", "9/10", "27/32"])
    def test_exact_delta_d_to_d200_equals_the_fraction_loop(self, gamma):
        expected = delta_d_column_fraction(200, gamma)
        assert comb.delta_d_column(200, gamma) == expected
        for d in (1, 2, 3, 31, 199, 200):
            got = comb.delta_d(d, gamma)
            assert type(got) is Fraction and got == expected[d - 1]

    @settings(max_examples=150, deadline=None)
    @given(orders(), st.floats(0.0, 1.0))
    def test_alternating_float_is_bitwise_the_fraction_loop(self, nm, x):
        n, m = nm
        got = comb.L_eval(n, m, x, "alternating")
        assert type(got) is float
        assert got.hex() == alternating_fraction(n, m, x).hex()

    @settings(max_examples=150, deadline=None)
    @given(orders(), st.fractions(0, 1, max_denominator=1000))
    def test_alternating_fraction_equals_the_fraction_loop(self, nm, x):
        n, m = nm
        got = comb.L_eval(n, m, x, "alternating")
        assert type(got) is Fraction
        assert got == alternating_fraction(n, m, x)

    @settings(max_examples=150, deadline=None)
    @given(orders(40), st.floats(0.0, 1.0) | st.fractions(0, 1, max_denominator=1000))
    def test_alternating_is_the_rounded_definition(self, nm, x):
        # the cached coefficients and Horner's rule against the definition
        # route on the exact input: a float gets the correctly rounded value,
        # a Fraction the exact one
        n, m = nm
        exact = comb.L_eval(n, m, Fraction(x), "definition")
        got = comb.L_eval(n, m, x, "alternating")
        if isinstance(x, float):
            assert type(got) is float and got.hex() == float(exact).hex()
        else:
            assert type(got) is Fraction and got == exact

    @pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(2, 7), Fraction(9, 10)])
    def test_alternating_denominators_that_are_not_powers_of_two(self, x):
        for n in (1, 2, 7, 30, 60):
            for m in {0, n // 2, n - 1}:
                assert (comb.L_eval(n, m, x, "alternating")
                        == alternating_fraction(n, m, x)
                        == comb.L_eval(n, m, x, "definition"))
                as_float = float(x)
                assert (comb.L_eval(n, m, as_float, "alternating").hex()
                        == alternating_fraction(n, m, as_float).hex())

    def test_alternating_edge_cases(self):
        for n, m in ((1, 0), (1, 3), (2, 0), (60, 0), (60, 59)):
            for x in (0.0, Fraction(0), 0):
                assert comb.L_eval(n, m, x, "alternating") == 1
            for x in (1.0, Fraction(1), 1):
                assert comb.L_eval(n, m, x, "alternating") == 0
        assert type(comb.L_eval(3, 1, 1.0, "alternating")) is float
        assert type(comb.L_eval(3, 1, 1, "alternating")) is Fraction
        x = Fraction(2, 7)
        for k in (0, 1, 5, 59):
            # n = 1: L = (1-x)(1 + x + ... + x^m) = 1 - x^{m+1}
            assert comb.L_eval(1, k, x, "alternating") == 1 - x ** (k + 1)
            # m = 0: L = (1-x)^n
            assert comb.L_eval(k + 1, 0, x, "alternating") == (1 - x) ** (k + 1)

    @pytest.mark.parametrize("x", [np.float64(0.3), np.float32(0.7), np.int64(0), np.int64(1)],
                             ids=["float64", "float32", "int64-0", "int64-1"])
    def test_alternating_takes_numpy_scalars(self, x):
        # numpy integers have no as_integer_ratio, and as numerators they
        # overflowed from n = 30 on
        for n, m in ((1, 0), (7, 3), (30, 29), (60, 59)):
            got = comb.L_eval(n, m, x, "alternating")
            assert type(got) is float
            assert got.hex() == comb.L_eval(n, m, float(x), "alternating").hex()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 60),
           st.fractions(0, 1, max_denominator=1000).filter(lambda v: v < 1),
           st.floats(0.0, 1.0, exclude_max=True).map(Fraction))
    def test_exact_I_d_equals_the_fraction_loop(self, d, x, y):
        got = comb.I_d_eval(d, x, y)
        assert type(got) is Fraction
        assert got == I_d_fraction(d, x, y)
        assert got == comb.I_d_eval(d, y, x)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 60),
           st.fractions(0, 1, max_denominator=1000).filter(lambda v: v < 1),
           st.fractions(0, 1, max_denominator=1000).filter(lambda v: v < 1))
    def test_exact_I_d_equals_the_double_sum(self, d, x, y):
        assert comb.I_d_eval(d, x, y) == I_d_double_sum(d, x, y)

    @pytest.mark.parametrize("d", [400, 1000])
    def test_exact_I_d_equals_the_double_sum_at_large_d(self, d):
        x, y = Fraction(0.31), Fraction(0.47)
        assert comb.I_d_eval(d, x, y) == I_d_double_sum(d, x, y)

    def test_exact_I_d_edge_cases(self):
        for d in (1, 2, 60):
            assert comb.I_d_eval(d, Fraction(0), Fraction(0)) == 1
            assert comb.I_d_eval(d, 0, 0) == 1
        x, y = Fraction(1, 3), Fraction(2, 7)
        assert comb.I_d_eval(1, x, y) == (1 - x) * (1 - y)

    def test_exact_I_d_at_d1000_matches_float(self):
        # the first and the last fig2 point whose start terms (1-x)^1000 and
        # (1-y)^1000 are normal doubles
        d = 1000
        x, y = _fig2_grid(40)
        normal = [(a, b) for a, b in zip(x.tolist(), y.tolist())
                  if min((1.0 - a) ** d, (1.0 - b) ** d) >= sys.float_info.min]
        assert len(normal) >= 2
        for a, b in (normal[0], normal[-1]):
            exact = float(comb.I_d_eval(d, Fraction(a), Fraction(b)))
            assert abs(comb.I_d_eval(d, a, b) - exact) <= 1e-12 * exact


# grid points (n, m, x): n <= 60, m from 0 to past n, x with both ends
GRID_POINTS = st.tuples(st.integers(1, 60), st.integers(0, 130),
                        st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))


def as_grid(points):
    n, m, x = zip(*points)
    return np.array(n), np.array(m), np.array(x)


class TestGrids:
    """L (every route), K and I over grids of (n, m, x) against the scalar
    loops they replaced and against calls on one point."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(GRID_POINTS, min_size=1, max_size=30))
    def test_L_K_and_I_grids_equal_the_scalar_loops(self, points):
        n, m, x = as_grid(points)
        for fn, oracle in FLOAT_ORACLES:
            expected = np.array([oracle(*point) for point in points])
            got = fn(n, m, x)
            assert type(got) is np.ndarray and got.shape == (len(points),)
            assert got.tobytes() == expected.tobytes()
            one_point = [fn(*point) for point in points]
            assert all(type(v) is float for v in one_point)
            assert np.array(one_point).tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(GRID_POINTS, min_size=1, max_size=25))
    def test_every_route_grid_equals_its_one_point_calls(self, points):
        n, m, x = as_grid(points)
        alternating = np.array([alternating_fraction(*point) for point in points])
        assert comb.L_eval(n, m, x, "alternating").tobytes() == alternating.tobytes()
        for route in ("definition", "alternating", "quadrature"):
            expected = np.array([comb.L_eval(*point, route) for point in points])
            assert comb.L_eval(n, m, x, route).tobytes() == expected.tobytes(), route

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 130),
           st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1,
                    max_size=20))
    def test_numbers_are_repeated_at_every_point(self, n, m, xs):
        x = np.array(xs)
        for route in ("definition", "alternating", "quadrature"):
            full = comb.L_eval(np.full(len(xs), n), np.full(len(xs), m), x, route)
            assert comb.L_eval(n, m, x, route).tobytes() == full.tobytes()
        expected = np.array([weighted_float(n, k, 0.3, n, -1) / n for k in range(m + 1)])
        assert comb.I_nm_eval(n, np.arange(m + 1), 0.3).tobytes() == expected.tobytes()

    def test_no_lane_runs_past_its_order(self):
        # x = 1 lanes of order 0 next to one of order 500: a lane's term
        # stops at its own m, so nothing warns or overflows
        n = np.array([60, 60, 1, 60])
        m = np.array([0, 500, 0, 7])
        x = np.array([1.0, 1.0, 0.5, 0.0])
        with np.errstate(all="raise"):
            for fn, oracle in FLOAT_ORACLES:
                expected = [oracle(*point) for point in zip(n.tolist(), m.tolist(), x.tolist())]
                assert fn(n, m, x).tobytes() == np.array(expected).tobytes()

    def test_grid_of_the_routes_check(self):
        xs = np.arange(0.1, 0.95, 0.1)
        orders = [(n, m) for n in range(1, 41) for m in sorted({0, n // 2, n - 1})]
        n, m = np.repeat(np.array(orders).T, len(xs), axis=1)
        x = np.tile(xs, len(orders))
        points = list(zip(n.tolist(), m.tolist(), x.tolist()))
        expected = np.array([weighted_float(*point, 1, 0) for point in points])
        assert comb.L_eval(n, m, x).tobytes() == expected.tobytes()
        expected = np.array([alternating_fraction(*point) for point in points])
        assert comb.L_eval(n, m, x, "alternating").tobytes() == expected.tobytes()

    @pytest.mark.parametrize("fn", [
        *(lambda n, m, x, route=route: comb.L_eval(n, m, x, route)
          for route in ("definition", "alternating", "quadrature")),
        comb.K_eval, comb.I_nm_eval], ids=["definition", "alternating", "quadrature", "K", "I"])
    @pytest.mark.parametrize("n, m, x", [
        (np.array([3, 4]), 1, np.array([0.5, 0.5, 0.5])),
        (3, np.array([0, 1, 2]), np.array([0.5, 0.5])),
        (np.array([3, 4]), np.array([1]), 0.5),
        (3, 1, np.array([0.5, 1.5])),
        (3, 1, np.array([-0.1, 0.5])),
        (3, 1, np.array([0.2, np.nan])),
        (3, np.array([1, 2]), math.nan),
        (3, 1, np.array([[0.5]])),
        (np.array([3.0]), 1, np.array([0.5])),
        (np.array([0, 3]), 1, np.array([0.5, 0.5])),
        (3, np.array([-1, 1]), np.array([0.5, 0.5])),
    ], ids=["n-and-x-lengths", "m-and-x-lengths", "n-and-m-lengths", "above-1",
            "below-0", "nan", "nan-number", "2-d", "float-n", "n-below-1", "m-below-0"])
    def test_bad_grids_rejected(self, fn, n, m, x):
        with pytest.raises(ValueError):
            fn(n, m, x)


class TestKAndI:
    def test_identity_k_from_l_and_derivative(self):
        for n in (1, 3, 8, 20):
            for m in {0, n // 2, n - 1}:
                for x in (0.1, 0.35, 0.6, 0.9):
                    lhs = comb.K_eval(n, m, x)
                    rhs = (x / (1 - x) * comb.L_eval(n, m, x)
                           + x / n * L_derivative(n, m, x))
                    assert abs(lhs - rhs) <= 1e-9

    def test_k_plus_i_equals_l_exactly(self):
        for n in (2, 7, 15):
            for m in {0, n - 1}:
                x = Fraction(2, 7)
                assert (comb.K_eval(n, m, x) + comb.I_nm_eval(n, m, x)
                        == comb.L_eval(n, m, x, "definition"))

    @pytest.mark.parametrize("fn", [comb.L_eval, comb.K_eval, comb.I_nm_eval],
                             ids=["L", "K", "I"])
    @pytest.mark.parametrize("x", [2.0, -0.1, math.nextafter(1.0, 2.0), math.nan, math.inf,
                                   Fraction(3, 2), Fraction(-1, 2), 2, -1],
                             ids=["2.0", "-0.1", "above-1", "nan", "inf", "3/2",
                                  "-1/2", "int-2", "int--1"])
    def test_x_outside_the_unit_interval_rejected(self, fn, x):
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\]"):
            fn(3, 1, x)

    def test_first_diagonal_value(self):
        for x in (0.0, 0.2, 0.5, 0.9):
            assert abs(comb.I_nm_eval(1, 0, x) - (1.0 - x)) <= 1e-15

    def test_diagonal_closed_form(self):
        # I(n, n-1, x) = (1-2x)/(1-x) + x * delta_n(1-x) for x < 1/2
        for n in range(1, 51):
            for x in (0.1, 0.2, 0.3, 0.4):
                lhs = comb.I_nm_eval(n, n - 1, x)
                rhs = (1 - 2 * x) / (1 - x) + x * float(comb.delta_d(n, 1.0 - x))
                assert abs(lhs - rhs) / abs(rhs) <= 1e-10


class TestDeltaTail:
    def test_full_series_value(self):
        for gamma in (0.6, 0.75, 0.9):
            assert abs(float(comb.delta_d(1, gamma)) - (1 - gamma) / gamma) <= 1e-15

    def test_one_term_subtracted(self):
        assert comb.delta_d(2, Fraction(3, 4)) == Fraction(7, 48)

    def test_domain_rejections(self):
        with pytest.raises(ValueError):
            comb.delta_d(3, 0.5)
        with pytest.raises(ValueError):
            comb.delta_d(3, 0.5 + 1e-12)
        with pytest.raises(ValueError):
            comb.delta_d(3, 1.0)
        with pytest.raises(ValueError):
            comb.delta_d(0, 0.75)

    @pytest.mark.parametrize("gamma", [0.55, 0.75, 27 / 32, 0.95, Fraction(3, 4)])
    def test_column_entries_are_the_per_d_tails(self, gamma):
        column = comb.delta_d_column(40, gamma)
        per_d = [comb.delta_d(d, gamma) for d in range(1, 41)]
        assert [type(v) for v in column] == [type(v) for v in per_d]
        assert column == per_d

    def test_strictly_decreasing_in_d(self):
        # exact rationals: float cannot resolve the tail at high gamma
        for gamma in (Fraction(11, 20), Fraction(3, 4), Fraction(19, 20)):
            values = [comb.delta_d(d, gamma) for d in range(1, 101)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_tail_bound(self):
        for d in range(10, 61):
            delta = float(comb.delta_d(d, 0.75))
            bound = (4 * 0.1875) ** d / (SQRT_PI * d ** 1.5 * 0.5 ** 2)
            assert delta <= bound
            assert abs(bound - comb.catalan_tail_bound(d, 0.75)) <= 1e-16 * bound


class TestErrorKernel:
    def test_single_memory_value(self):
        for x, y in ((0.0, 0.0), (0.3, 0.5), (0.9, 0.1)):
            assert abs(comb.I_d_eval(1, x, y) - (1 - x) * (1 - y)) <= 1e-15

    def test_origin_is_one(self):
        for d in (1, 5, 50, 400):
            assert comb.I_d_eval(d, 0.0, 0.0) == 1.0

    def test_limit_convergence(self):
        assert abs(comb.I_d_eval(400, 0.2, 0.2) - 0.5) <= 0.02

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 7, 40):
            for _ in range(10):
                x, y = rng.uniform(0.0, 0.95, size=2)
                assert abs(comb.I_d_eval(d, x, y) - comb.I_d_eval(d, y, x)) <= 1e-12

    def test_exact_mode_matches_float(self):
        for d in (1, 3, 8):
            exact = comb.I_d_eval(d, Fraction(1, 5), Fraction(2, 7))
            approx = comb.I_d_eval(d, 0.2, 2.0 / 7.0)
            assert abs(float(exact) - approx) <= 1e-13

    def test_float_mode_dimension_cap(self):
        with pytest.raises(ValueError):
            comb.I_d_eval(1001, 0.2, 0.2)
        # exact mode has no cap
        value = comb.I_d_eval(1001, Fraction(0), Fraction(0))
        assert value == 1

    def test_argument_domain(self):
        with pytest.raises(ValueError):
            comb.I_d_eval(3, 1.0, 0.2)


# (x, y) at d = 160 whose start term (1-x)^d or (1-y)^d underflows
UNDERFLOWING_STARTS = [(0.99, 0.05), (0.99, 0.00625), (0.0, 0.99)]


def _fig2_grid(points=2000, beta_E=0.7):
    """(x, y) = (1 - gamma_delta, 1 - gamma_W) over a fig2-like W grid."""
    ws = np.linspace(0.03, 3.2, points)
    x = 1.0 / (1.0 + np.exp(ws - beta_E))  # 1 - gamma_delta at beta = 1
    y = 1.0 / (1.0 + np.exp(ws))  # 1 - gamma_W
    return x, y


class TestErrorKernelArrays:
    @pytest.mark.parametrize("d", [1, 2, 5, 20, 100, 400, 1000])
    def test_bitwise_equal_to_the_per_point_formula(self, d):
        # every point below _RECURRENCE_MIN_D has whole rows of normal start
        # terms; from it on every point takes the recurrence
        x, y = _fig2_grid()
        whole = whole_row_points(d, x, y)
        assert whole.all() if d < comb._RECURRENCE_MIN_D else not whole.any()
        self.assert_bitwise_on_every_grid_length(d, x, y, whole)

    @pytest.mark.parametrize("d", [160, 1000])
    def test_log_space_rows_bitwise_equal_to_the_per_point_formula(self, d):
        # every third x so close to 1 that (1-x)^d underflows, and x = 0
        # next to an underflowing y.  Their points take the recurrence; at
        # d = 160 they lie between whole rows of normal start terms, in at
        # least 10 block-sized stretches of the grid
        x, y = _grid_with_log_rows()
        underflowing = np.minimum((1.0 - x) ** d, (1.0 - y) ** d) < sys.float_info.min
        assert underflowing.sum() >= 600
        if d < comb._RECURRENCE_MIN_D:
            block = comb._BLOCK_ELEMENTS // d
            mixed = [rows.any() and not rows.all()
                     for rows in np.split(underflowing, range(block, len(x), block))]
            assert sum(mixed) >= 10, mixed
        self.assert_bitwise_on_every_grid_length(d, x, y, whole_row_points(d, x, y))

    @staticmethod
    def assert_bitwise_on_every_grid_length(d, x, y, whole):
        """On every grid length, each value has the bits of the per-point
        formula where ``whole`` and of the call on its point elsewhere."""
        reference = np.array([per_point_I_d(d, a, b) if w else comb.I_d_eval(d, a, b)
                              for a, b, w in zip(x.tolist(), y.tolist(), whole)])
        block = max(1, comb._BLOCK_ELEMENTS // d)
        for n in (1, block - 1, block, block + 1, 2000):
            # a grid longer than 2000 repeats the 2000 points
            xs, ys = np.resize(x, n), np.resize(y, n)
            got = comb.I_d_eval(d, xs, ys)
            assert got.shape == (n,)
            assert got.tobytes() == np.resize(reference, n).tobytes(), (d, n)

    @pytest.mark.parametrize("d, step, bound", [(100, 100, 1.09e-14), (400, 200, 4.44e-14),
                                                (1000, 250, 3.44e-13)])
    def test_within_the_exact_error_of_the_whole_rows(self, d, step, bound):
        # ``bound`` is the largest relative error of the whole rows against
        # exact I_d on these points; d = 1000 takes the recurrence
        x, y = _fig2_grid()
        got = comb.I_d_eval(d, x, y)
        for k in range(0, len(x), step):
            exact = comb.I_d_eval(d, Fraction(x[k]), Fraction(y[k]))
            assert abs(Fraction(got[k]) - exact) <= bound * exact, k

    def test_scalar_arguments_return_a_float(self):
        for x, y in ((0.2, 0.3), (np.float64(0.2), np.float64(0.3)), (0.0, 0.0)):
            value = comb.I_d_eval(5, x, y)
            assert type(value) is float
            assert value == comb.I_d_eval(5, np.array([x]), np.array([y]))[0]

    def test_shape_is_kept_and_checked(self):
        x, y = _fig2_grid(12)
        grid = comb.I_d_eval(7, x.reshape(3, 4), y.reshape(3, 4))
        assert grid.shape == (3, 4)
        assert grid.ravel().tobytes() == comb.I_d_eval(7, x, y).tobytes()
        with pytest.raises(ValueError, match="shape"):
            comb.I_d_eval(7, x, y[:5])
        with pytest.raises(ValueError):
            comb.I_d_eval(7, np.append(x, 1.0), np.append(y, 0.5))
        with pytest.raises(ValueError):
            comb.I_d_eval(1001, x, y)

    def test_d1000_is_finite_and_below_d400(self):
        for beta_E in (0.6, 0.7, 0.8):
            x, y = _fig2_grid(beta_E=beta_E)
            at_1000 = comb.I_d_eval(1000, x, y)
            at_400 = comb.I_d_eval(400, x, y)
            assert np.all(np.isfinite(at_1000))
            assert np.all(at_1000 >= 0.0)
            assert np.any((1.0 - x) ** 1000 < sys.float_info.min)  # underflowing starts
            assert np.all(at_1000 <= at_400 * (1.0 + 1e-12))

    @pytest.mark.parametrize("x, y", UNDERFLOWING_STARTS)
    def test_underflowing_start_term_matches_fraction_twin(self, x, y):
        # (1 - 0.99)^160 = 1e-320 keeps ~10 bits, so a row started from it
        # would be off by 1e-5 relative; the point takes the recurrence.  At
        # y = 0.00625 the term ratio y * 160 rounds to exactly 1; at x = 0
        # every ratio is 0.
        d = 160
        assert min((1.0 - x) ** d, (1.0 - y) ** d) < sys.float_info.min
        exact = float(comb.I_d_eval(d, Fraction(x), Fraction(y)))
        assert 1e-300 < exact
        assert abs(comb.I_d_eval(d, x, y) - exact) <= 1e-12 * exact
        assert abs(comb.I_d_eval(d, y, x) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("beta_E", [0.6, 0.7, 0.8])
    def test_no_overflow_division_by_zero_or_invalid_value(self, beta_E):
        # underflow stays allowed: the terms decay past the smallest double
        x, y = _fig2_grid(beta_E=beta_E)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for d in (1, 2, 5, 20, 100, 400, 1000):
                assert np.all(np.isfinite(comb.I_d_eval(d, x, y)))
            for a, b in UNDERFLOWING_STARTS:
                assert math.isfinite(comb.I_d_eval(160, a, b))
                assert math.isfinite(comb.I_d_eval(160, b, a))


class TestErrorKernelOverDimensions:
    """I_d over a sequence of d against one call per d."""

    @staticmethod
    def assert_equal_to_per_d_calls(ds, x, y):
        got = comb.I_d_eval(ds, x, y)
        assert type(got) is list and len(got) == len(ds)
        for d, values in zip(ds, got):
            expected = comb.I_d_eval(d, x, y)
            assert type(values) is type(expected)
            assert np.asarray(values).tobytes() == np.asarray(expected).tobytes(), d

    def test_unsorted_and_repeated_d_on_the_fig2_grid(self):
        # d = 1000 takes the recurrence
        x, y = _fig2_grid()
        self.assert_equal_to_per_d_calls([20, 1, 1000, 5, 20, 2, 400, 1], x, y)

    def test_mixed_anchored_blocks(self):
        # at d = 160 the points of underflowing start terms take the
        # recurrence, between whole rows
        x, y = _fig2_grid(600)
        x[::3] = 1.0 - np.geomspace(1e-4, 1e-2, len(x[::3]))
        x[1::15], y[1::15] = 0.0, 1.0 - 1e-3
        self.assert_equal_to_per_d_calls([1000, 160, 3, 160], x, y)

    def test_one_point_grids_scalars_and_shapes(self):
        ds = [7, 1, 300, 2]
        self.assert_equal_to_per_d_calls(ds, np.array([0.3]), np.array([0.6]))
        self.assert_equal_to_per_d_calls(ds, 0.3, 0.6)
        self.assert_equal_to_per_d_calls(ds, 0.99, 0.0)
        x, y = _fig2_grid(12)
        self.assert_equal_to_per_d_calls(ds, x.reshape(3, 4), y.reshape(3, 4))
        assert comb.I_d_eval([], x, y) == []
        assert comb.I_d_eval(range(1, 4), x, y)[2].tobytes() == comb.I_d_eval(3, x, y).tobytes()

    def test_exact_arguments(self):
        x, y = Fraction(1, 3), Fraction(2, 7)
        assert comb.I_d_eval([3, 1, 3], x, y) == [comb.I_d_eval(d, x, y) for d in (3, 1, 3)]

    @pytest.mark.parametrize("ds", [[5, 0], [5, 1001], [5, 2.0]],
                             ids=["zero", "above-cap", "float"])
    def test_bad_d_rejected(self, ds):
        with pytest.raises(ValueError):
            comb.I_d_eval(ds, np.array([0.2]), np.array([0.3]))

    @pytest.mark.parametrize("x, y", [(np.array([0.2, 0.3]), np.array([0.3])),
                                      (np.array([0.2, 1.0]), np.array([0.3, 0.3])),
                                      (np.array([0.2, np.nan]), np.array([0.3, 0.3]))],
                             ids=["lengths", "x-is-1", "nan"])
    def test_bad_points_rejected(self, x, y):
        with pytest.raises(ValueError):
            comb.I_d_eval([1, 2], x, y)

    def test_each_d_keeps_its_block_rows(self, monkeypatch):
        # a block of whole rows holds min(points, _BLOCK_ELEMENTS // d) x
        # rows above as many y rows, at most 2 x _BLOCK_ELEMENTS cells; no
        # point of d = 1000 takes whole rows
        seen = {}
        rows_of = comb._I_d_rows

        def recording(tx, *args):
            seen.setdefault(tx.shape[1], set()).add(tx.shape[0])
            return rows_of(tx, *args)

        monkeypatch.setattr(comb, "_I_d_rows", recording)
        x, y = _fig2_grid()
        ds = [1000, 1, 40, 400]
        # the serial kernel: a split call's parent blocks only its own chunk
        comb._I_d_float(ds, x, y)
        assert sorted(seen) == [1, 40, 400]
        for d in seen:
            assert max(seen[d]) == min(len(x), comb._BLOCK_ELEMENTS // d), d


# the work gap of fig2's grid (beta E = 0.7) where mu = x/(1-x) + y/(1-y) is 1
# and I_d tends to 0 as d grows: below it the value is a lower tail
W_0 = math.log(1.0 + math.exp(0.7))


@st.composite
def small_rationals(draw, max_denominator=12):
    """A Fraction in [0, 1) with a denominator of at most ``max_denominator``."""
    q = draw(st.integers(1, max_denominator))
    return Fraction(draw(st.integers(0, q - 1)), q)


class TestErrorKernelAccuracy:
    """Float I_d, on whole rows and on the recurrence, against exact I_d."""

    @pytest.mark.parametrize("d", [100, 400, 1000])
    @pytest.mark.parametrize("w", [0.5, W_0 - 0.05, W_0, 2.0])
    def test_across_the_threshold(self, d, w):
        # at W_0 the recurrence's error is largest; at W = 0.5 and d = 1000
        # the value is about 4e-58
        x, y = 1.0 / (1.0 + math.exp(w - 0.7)), 1.0 / (1.0 + math.exp(w))
        exact = comb.I_d_eval(d, Fraction(x), Fraction(y))
        assert abs(Fraction(comb.I_d_eval(d, x, y)) - exact) <= d * 2.0 ** -52 * exact
        if d == 1000 and w == 0.5:
            assert 1e-58 < exact < 1e-57

    @pytest.mark.parametrize("d", [160, 1000])
    @pytest.mark.parametrize("x, y", UNDERFLOWING_STARTS + [(0.0, 0.3), (0.5, 0.0), (0.0, 0.0)])
    def test_underflowing_starts_and_the_axes(self, d, x, y):
        exact = comb.I_d_eval(d, Fraction(x), Fraction(y))
        for a, b in ((x, y), (y, x)):
            got = comb.I_d_eval(d, a, b)
            assert got >= 0.0
            if exact > 1e-300:
                assert abs(Fraction(got) - exact) <= d * 2.0 ** -52 * exact
            else:
                assert got < 1e-290

    @pytest.mark.parametrize("d, a, b", [(600, 212, 157), (700, 177, 191), (700, 192, 176),
                                         (750, 183, 180)])
    def test_rows_spanning_more_than_2_to_the_1022(self, d, a, b):
        # from the first term that can move the value to the largest, the
        # rows of these points span more than 2^1022
        x, y = Fraction(a, 256), Fraction(b, 256)
        exact = comb.I_d_eval(d, x, y)
        assert exact > 1e-300
        assert abs(Fraction(comb.I_d_eval(d, float(x), float(y))) - exact) <= 1e-13 * exact

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(st.integers(1, 200), st.integers(comb._RECURRENCE_MIN_D, comb.MAX_FLOAT_D)),
           *[st.one_of(st.integers(0, 1023), st.integers(560, 880))] * 2, st.booleans())
    def test_property_dyadic_points(self, d, a, b, every_d):
        # every_d: the recurrence at every d, so that it also runs the
        # points of d <= 200.  From d = 515 on, x and y from 560/1024 to
        # 880/1024 give rows whose largest term exceeds the first by more
        # than 2^1022.
        x, y = Fraction(a, 1024), Fraction(b, 1024)
        exact = comb.I_d_eval(d, x, y)
        with pytest.MonkeyPatch.context() as mp:
            if every_d:
                mp.setattr(comb, "_RECURRENCE_MIN_D", 1)
            got = comb.I_d_eval(d, float(x), float(y))
        assert got >= 0.0
        if exact > 1e-300:
            assert abs(Fraction(got) - exact) <= 1e-13 * exact


class TestNegativeBinomialMean:
    """I_d = E[(1 - S/d)^+], S a sum of 2d independent geometric variables
    (``I_d_eval``), and three of its consequences, exactly."""

    @settings(max_examples=60, deadline=None)
    @given(small_rationals(), small_rationals())
    def test_one_level_is_the_product(self, x, y):
        assert comb.I_d_eval(1, x, y) == (1 - x) * (1 - y)

    @settings(max_examples=60, deadline=None)
    @given(small_rationals(), small_rationals(), st.integers(1, 60))
    def test_at_or_above_jensens_bound(self, x, y, d):
        mu = x / (1 - x) + y / (1 - y)
        assert comb.I_d_eval(d, x, y) >= max(0, 1 - mu)

    @settings(max_examples=60, deadline=None)
    @given(small_rationals(), small_rationals(), st.integers(1, 59))
    def test_non_increasing_in_d(self, x, y, d):
        now, then = comb.I_d_eval([d, d + 1], x, y)
        assert then <= now


def _grid_with_log_rows(points=2000):
    """The fig2 grid with every third x so close to 1 that (1-x)^d
    underflows from d = 160, and x = 0 next to an underflowing y."""
    x, y = _fig2_grid(points)
    x[::3] = 1.0 - np.geomspace(1e-4, 1e-2, len(x[::3]))
    x[1::15], y[1::15] = 0.0, 1.0 - 1e-3
    return x, y


def _fork_refused(*args):
    raise AssertionError("os.fork was called")


def _in_children(fn):
    """A stand-in for ``_I_d_float`` that calls ``fn`` in a forked child and
    the real kernel in the process that made it, which runs the first part."""
    real, parent = comb._I_d_float, os.getpid()

    def kernel(ds, x, y):
        return real(ds, x, y) if os.getpid() == parent else fn(ds, x, y)
    return kernel


class TestErrorKernelSplit:
    """A large float I_d call splits its points across forked processes."""

    @pytest.mark.parametrize("parts", [2, 3])
    def test_split_equals_serial_kernel_and_one_point_calls(self, parts):
        x, y = _grid_with_log_rows()
        ds = [1, 400, 1000]
        serial = comb._I_d_float(ds, x, y)
        split = comb._I_d_parts(ds, x, y, parts)
        for d, s, got in zip(ds, serial, split):
            assert got.tobytes() == s.tobytes(), d
        assert np.any((1.0 - x) ** 400 < sys.float_info.min)  # log rows run
        for k in range(0, len(x), 7):
            for d, got in zip(ds, split):
                assert got[k] == comb.I_d_eval(d, x[k], y[k]), (d, k)

    def test_large_call_takes_the_split_on_a_multi_cpu_host(self, monkeypatch):
        if _split.usable_cpus() < 2:
            pytest.skip("one usable CPU: every call is serial")
        x, y = _grid_with_log_rows()
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        got = comb.I_d_eval([1, 400, 1000], x, y)
        assert forks
        for values, serial in zip(got, comb._I_d_float([1, 400, 1000], x, y)):
            assert values.tobytes() == serial.tobytes()

    def test_call_below_the_threshold_never_forks(self, monkeypatch):
        monkeypatch.setattr(os, "fork", _fork_refused)
        d = 100
        points = -(-2 * comb._PART_MIN_CELLS // d)  # the first size with 2 parts
        x, y = _fig2_grid(points)
        below = comb.I_d_eval(d, x[:-1], y[:-1])
        assert below.tobytes() == comb._I_d_float([d], x[:-1], y[:-1])[0].tobytes()
        if _split.usable_cpus() >= 2:
            with pytest.raises(AssertionError, match="os.fork was called"):
                comb.I_d_eval(d, x, y)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity mask")
    def test_one_usable_cpu_never_forks(self, monkeypatch):
        monkeypatch.setattr(os, "fork", _fork_refused)
        x, y = _fig2_grid()
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(mask)})
        try:
            assert _split.usable_cpus() == 1
            got = comb.I_d_eval(1000, x, y)
        finally:
            os.sched_setaffinity(0, mask)
        assert got.tobytes() == comb._I_d_float([1000], x, y)[0].tobytes()

    def test_a_call_below_the_threshold_loads_no_split_module(self):
        code = ("import sys; import numpy as np; from thermoproc import combinatorics as c; "
                "x = np.linspace(0.0, 0.9, 60); c.I_d_eval(range(1, 41), x, x); "
                "print('thermoproc._split' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
        assert out.stdout.strip() == "False"

    def test_failing_child_raises_its_message(self, monkeypatch):
        # as in a serial call: the kernel's own exception, type and message
        def fail(ds, x, y):
            raise ValueError("no such point")

        monkeypatch.setattr(comb, "_I_d_float", _in_children(fail))
        x, y = _fig2_grid()
        with pytest.raises(ValueError) as info:
            comb._I_d_parts([20], x, y, 3)
        assert str(info.value) == "no such point"

    def test_child_runtime_warning_is_raised_not_dropped(self, monkeypatch):
        # as in a serial call: the warning reaches this process, and under an
        # "error" filter it is raised as the RuntimeWarning itself
        def overflow(ds, x, y):
            with np.errstate(over="warn"):
                return [np.exp(np.full(len(x), 1000.0))]

        monkeypatch.setattr(comb, "_I_d_float", _in_children(overflow))
        x, y = _fig2_grid()
        with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
            (values,) = comb._I_d_parts([20], x, y, 2)
        assert np.isinf(values).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow encountered in exp"):
                comb._I_d_parts([20], x, y, 2)

    @staticmethod
    def _raise_here_while_children_sleep(monkeypatch, exc):
        """Split a call in 3 parts whose first part, run here, raises
        ``exc`` while the children's parts sleep 60 s; returns the seconds
        until ``exc`` is raised."""
        real = comb._I_d_float
        parent = os.getpid()

        def kernel(ds, x, y):
            if os.getpid() == parent:
                raise exc
            time.sleep(60)
            return real(ds, x, y)

        monkeypatch.setattr(comb, "_I_d_float", kernel)
        x, y = _fig2_grid()
        start = time.perf_counter()
        with pytest.raises(type(exc)):
            comb._I_d_parts([20], x, y, 3)
        return time.perf_counter() - start

    def test_parent_exception_kills_and_reaps_every_child(self, monkeypatch):
        assert self._raise_here_while_children_sleep(
            monkeypatch, KeyError("parent chunk")) < 30  # killed, not waited for

    def test_parent_interrupt_kills_and_reaps_every_child(self, monkeypatch):
        assert self._raise_here_while_children_sleep(monkeypatch, KeyboardInterrupt()) < 30

    def test_split_under_warnings_as_errors(self):
        # Python 3.12+ warns about fork in a multi-threaded process; the
        # split silences that warning alone
        x, y = _fig2_grid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            split = comb._I_d_parts([20, 1000], x, y, 2)
        for got, serial in zip(split, comb._I_d_float([20, 1000], x, y)):
            assert got.tobytes() == serial.tobytes()
