"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines; ``thermoproc validate`` prints the same information.

Criterion 8 (the qutrit separation at pair weights {0.65, 0.75, 0.85})
measures the memory-assisted B vertices against the exact Markovian (MTP)
region, which the memory is meant to exceed.  It is not measured against
the swap sequences: at these weights one swap and two partial swaps reach
B exactly (see test_reachable.TestSwapWitness), so no swap region can
separate it there.
"""

import math

import numpy as np

from thermoproc import combinatorics as comb
from thermoproc import validation, workx

LN2 = math.log(2.0)


def _report(number, passed, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_memory_boost():
    boost = validation.check_memory_boost()
    line = _report(1, boost.passed,
                   f"two-slot memory protocol: {boost.detail}, dev {boost.deviation:.2e} "
                   f"(tol 1e-12)")
    assert boost.passed, line


def test_criterion_2_swap_simulation():
    closed = validation.check_memory_closed_form()
    bound = validation.check_memory_tail_bound()
    passed = closed.passed and bound.passed
    line = _report(2, passed,
                   f"simulation vs closed form dev {closed.deviation:.2e} "
                   f"(tol 1e-10); tail-bound excess {bound.deviation:.2e}")
    assert passed, line


def test_criterion_3_coherent_cooling():
    closed = validation.check_coherent_cooling()
    asymptote = validation.check_coherent_asymptote()
    passed = closed.passed and asymptote.passed
    line = _report(3, passed,
                   f"round closed forms dev {closed.deviation:.2e} (tol 1e-10); "
                   f"|p_max(1)-gamma| = {asymptote.deviation:.2e} (tol 1e-12, inf unless "
                   f"the asymptote strictly increases d=1..30)")
    assert passed, line


def test_criterion_4_incoherent_cooling():
    conv = validation.check_incoherent_convergence()
    rates = validation.check_incoherent_rates()
    passed = conv.passed and rates.passed
    line = _report(4, passed,
                   f"convergence gap {conv.deviation:.2e} (tol 1e-6, {conv.detail}); "
                   f"rate dev {rates.deviation:.2e} (tol 1e-10, {rates.detail})")
    assert passed, line


def test_criterion_5_extraction_closed_forms():
    points = validation.check_extraction_point_values()
    read_off = validation.check_extraction_readoff()
    tp, etp, mtp, _x, _y = workx.extraction_closed_forms(LN2, np.linspace(0.05, 3.0, 100), 1.0)
    ordering_ok = bool(((tp <= etp + 1e-15) & (etp + 1e-15 <= mtp + 2e-15)).all())
    passed = points.passed and read_off.passed and ordering_ok
    line = _report(5, passed,
                   f"point values dev {points.deviation:.2e} (tol 1e-12); "
                   f"read-off dev {read_off.deviation:.2e} (tol 1e-9); "
                   f"ordering gridwide: {ordering_ok}")
    assert passed, line


def test_criterion_6_memory_extraction():
    closed = validation.check_memory_extraction()
    # it also holds the one-slot memory to eps_MTP at beta_W = ln 4
    points = validation.check_extraction_point_values()
    mono = validation.check_extraction_ordering()
    large = validation.check_memory_extraction_large_d()
    passed = closed.passed and points.passed and mono.passed and large.passed
    line = _report(6, passed,
                   f"sim vs closed dev {closed.deviation:.2e} (tol 1e-10, d<=10); "
                   f"point values with eps(1) = eps_MTP dev {points.deviation:.2e} "
                   f"(tol 1e-12); monotone excess {mono.deviation:.2e}; "
                   f"d=400 gap {large.deviation:.2e} (tol 0.02)")
    assert passed, line


def test_criterion_7_special_functions():
    # every m < n, where the routes check takes m in {0, n // 2, n - 1}
    xs = np.arange(0.1, 0.95, 0.1)
    orders = [(n, m) for n in range(1, 41) for m in range(n)]
    n, m = np.repeat(np.array(orders).T, len(xs), axis=1)
    x = np.tile(xs, len(orders))
    definition = comb.L_eval(n, m, x, "definition")
    # a NaN anywhere makes the maximum NaN, which fails the bound
    worst_routes = max(np.abs(definition - comb.L_eval(n, m, x, route)).max()
                       for route in ("alternating", "quadrature"))
    identities = validation.check_function_identities()
    exact = validation.check_exact_coefficients()
    passed = worst_routes <= 1e-9 and identities.passed and exact.passed
    line = _report(7, passed,
                   f"route agreement {worst_routes:.2e} (tol 1e-9, full n<=40 grid); "
                   f"diagonal identity rel dev {identities.deviation:.2e} (tol 1e-10); "
                   f"exact equalities: {exact.passed}")
    assert passed, line


def test_criterion_8_qutrit_separation():
    """Stated grid: B vertices outside the exact MTP region at gamma in
    {0.65, 0.75, 0.85} with margin >= 1e-6, while inside the TP polytope.
    """
    separation = validation.check_qutrit_separation()
    membership = validation.check_qutrit_tp_membership()
    line = _report(8, separation.passed and membership.passed,
                   f"TP membership: {membership.passed}; MTP clearances {separation.detail}")
    assert membership.passed, line
    assert separation.passed, line


def test_criterion_9_run_determinism():
    det = validation.check_run_determinism()
    line = _report(9, det.passed, det.detail)
    assert det.passed, line
