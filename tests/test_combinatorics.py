"""Exact coefficients, the L/K/I family, the Catalan tail, and the error kernel."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoproc import combinatorics as comb

SQRT_PI = math.sqrt(math.pi)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def L_derivative(n, m, x):
    """Closed-form derivative dL/dx = -n C(n+m, m) x^m (1-x)^{n-1}."""
    return -n * math.comb(n + m, m) * x ** m * (1 - x) ** (n - 1)


def alternating_fraction_oracle(n, m, x):
    """The Fraction loop the integer alternating route replaced, kept
    literally as the reference it must equal (float input: bit for bit)."""
    exact_in = isinstance(x, (Fraction, int))
    xq = x if isinstance(x, Fraction) else Fraction(x)
    acc = Fraction(0)
    sign = 1
    xpow = Fraction(1)
    for l in range(n):
        acc += Fraction(sign * math.comb(n - 1, l), m + l + 1) * xpow
        xpow *= xq
        sign = -sign
    result = 1 - n * math.comb(n + m, m) * xq ** (m + 1) * acc
    return result if exact_in else float(result)


def I_d_fraction_oracle(d, x, y):
    """The Fraction terms and prefix sums exact I_d replaced, kept literally
    as the reference it must equal."""
    def terms(x):
        t = (1 - x) ** d
        out = [t]
        for k in range(d - 1):
            t = t * x * (d + k) / (k + 1)
            out.append(t)
        return out

    tx, ty = terms(x), terms(y)
    p = [tx[0]]  # prefix sums of tx
    q = [0 * tx[0]]  # prefix sums of k * tx_k
    for k in range(1, d):
        p.append(p[-1] + tx[k])
        q.append(q[-1] + k * tx[k])
    total = 0 * tx[0]
    for j in range(d):
        total += ty[j] * ((d - j) * p[d - 1 - j] - q[d - 1 - j])
    return total / d


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

    @pytest.mark.parametrize("route, x", [
        ("definition", np.array([0.5])),
        ("alternating", np.array([0.5])),
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


class TestIntegerRoutes:
    """The integer-numerator alternating route and exact I_d against the
    Fraction loops they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(orders(), st.floats(0.0, 1.0))
    def test_alternating_float_is_bitwise_the_fraction_loop(self, nm, x):
        n, m = nm
        got = comb.L_eval(n, m, x, "alternating")
        assert type(got) is float
        assert got.hex() == alternating_fraction_oracle(n, m, x).hex()

    @settings(max_examples=150, deadline=None)
    @given(orders(), st.fractions(0, 1, max_denominator=1000))
    def test_alternating_fraction_equals_the_fraction_loop(self, nm, x):
        n, m = nm
        got = comb.L_eval(n, m, x, "alternating")
        assert type(got) is Fraction
        assert got == alternating_fraction_oracle(n, m, x)

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
                        == alternating_fraction_oracle(n, m, x)
                        == comb.L_eval(n, m, x, "definition"))
                as_float = float(x)
                assert (comb.L_eval(n, m, as_float, "alternating").hex()
                        == alternating_fraction_oracle(n, m, as_float).hex())

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
        assert got == I_d_fraction_oracle(d, x, y)
        assert got == comb.I_d_eval(d, y, x)

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


def _per_point_I_d(d, x, y):
    """The per-point float I_d the block form replaced, kept literally as
    the reference it must equal bit for bit."""
    def terms(x):
        t0 = (1.0 - x) ** d
        if d == 1:
            return np.array([t0])
        ks = np.arange(1, d, dtype=np.float64)
        ratios = x * (d + ks - 1.0) / ks
        out = np.empty(d)
        out[0] = t0
        out[1:] = t0 * np.cumprod(ratios)
        return out

    tx = terms(float(x))
    ty = terms(float(y))
    p = np.cumsum(tx)
    q = np.cumsum(np.arange(d) * tx)
    js = np.arange(d)
    total = float(np.sum(ty * ((d - js) * p[::-1] - q[::-1])))
    return total / d


def _fig2_grid(points=2000, beta_E=0.7):
    """(x, y) = (1 - gamma_delta, 1 - gamma_W) over a fig2-like W grid."""
    ws = np.linspace(0.03, 3.2, points)
    x = 1.0 / (1.0 + np.exp(ws - beta_E))  # 1 - gamma_delta at beta = 1
    y = 1.0 / (1.0 + np.exp(ws))  # 1 - gamma_W
    return x, y


class TestErrorKernelArrays:
    @pytest.mark.parametrize("d", [1, 2, 5, 20, 100, 400, 1000])
    def test_bitwise_equal_to_the_per_point_formula(self, d):
        x, y = _fig2_grid()
        normal = np.array([min((1.0 - a) ** d, (1.0 - b) ** d) >= sys.float_info.min
                           for a, b in zip(x.tolist(), y.tolist())])
        reference = np.array([_per_point_I_d(d, a, b) if ok else np.nan
                              for a, b, ok in zip(x, y, normal)])
        block = max(1, comb._BLOCK_ELEMENTS // d)
        for n in (1, block - 1, block, block + 1, 2000):
            # a grid longer than 2000 repeats the 2000 points
            xs, ys = np.resize(x, n), np.resize(y, n)
            ref, keep = np.resize(reference, n), np.resize(normal, n)
            got = comb.I_d_eval(d, xs, ys)
            assert got.shape == (n,)
            assert got[keep].tobytes() == ref[keep].tobytes(), (d, n)

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
            assert np.any((1.0 - x) ** 1000 < sys.float_info.min)  # the log path runs
            assert np.all(at_1000 <= at_400 * (1.0 + 1e-12))

    @pytest.mark.parametrize("x, y", [(0.99, 0.05), (0.99, 0.00625), (0.0, 0.99)])
    def test_underflowing_start_term_matches_fraction_twin(self, x, y):
        # (1 - 0.99)^160 = 1e-320 keeps ~10 bits: the direct recurrence was
        # off by 1e-5 relative.  At y = 0.00625 the term ratio y * 160 rounds
        # to exactly 1, whose logarithm is 0; at x = 0 every ratio is 0.
        d = 160
        assert min((1.0 - x) ** d, (1.0 - y) ** d) < sys.float_info.min
        exact = float(comb.I_d_eval(d, Fraction(x), Fraction(y)))
        assert 1e-300 < exact
        assert abs(comb.I_d_eval(d, x, y) - exact) <= 1e-12 * exact
        assert abs(comb.I_d_eval(d, y, x) - exact) <= 1e-12 * exact
