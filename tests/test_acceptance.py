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
from fractions import Fraction

import numpy as np

from thermoproc import combinatorics as comb
from thermoproc import cooling, memory, reachable, validation, workx

LN2 = math.log(2.0)


def _report(number, passed, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_memory_boost():
    p2 = memory.simulate_memory_beta_swap(2, 0.0, 0.75)
    dev = abs(p2 - 0.890625)
    line = _report(1, dev <= 1e-12,
                   f"two-slot memory protocol: |{p2!r} - 0.890625| = {dev:.2e} (tol 1e-12)")
    assert dev <= 1e-12, line


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
    p1 = abs(float(cooling.coherent_p_max(1, 0.75)) - 0.75)
    monotone = True
    for gamma in (Fraction(3, 5), Fraction(3, 4), Fraction(9, 10)):
        vals = [cooling.coherent_p_max(d, gamma) for d in range(1, 31)]
        monotone &= all(b > a for a, b in zip(vals, vals[1:]))
    passed = closed.passed and p1 <= 1e-12 and monotone
    line = _report(3, passed,
                   f"round closed forms dev {closed.deviation:.2e} (tol 1e-10); "
                   f"|p_max(1)-gamma| = {p1:.2e}; asymptote strictly increasing "
                   f"d=1..30: {monotone}")
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
    bisect = validation.check_extraction_bisection()
    ordering_ok = True
    for bw in np.linspace(0.05, 3.0, 100):
        st = workx.ExtractionSetup(LN2, float(bw), 1.0)
        ordering_ok &= (workx.epsilon_tp(st) <= workx.epsilon_etp(st) + 1e-15
                        <= workx.epsilon_mtp(st) + 2e-15)
    passed = points.passed and bisect.passed and ordering_ok
    line = _report(5, passed,
                   f"point values dev {points.deviation:.2e} (tol 1e-12); "
                   f"bisection dev {bisect.deviation:.2e} (tol 1e-9); "
                   f"ordering gridwide: {ordering_ok}")
    assert passed, line


def test_criterion_6_memory_extraction():
    closed = validation.check_memory_extraction()
    st = workx.ExtractionSetup(LN2, math.log(4.0), 1.0)
    eps1 = float(workx.memory_extraction_grid([st], [1])[0][0])
    d1 = abs(eps1 - workx.epsilon_mtp(st))
    mono = validation.check_extraction_ordering()
    large = validation.check_memory_extraction_large_d()
    passed = closed.passed and d1 <= 1e-12 and mono.passed and large.passed
    line = _report(6, passed,
                   f"sim vs closed dev {closed.deviation:.2e} (tol 1e-10, d<=10); "
                   f"|eps(1)-eps_MTP| = {d1:.2e}; monotone excess {mono.deviation:.2e}; "
                   f"d=400 gap {large.deviation:.2e} (tol 0.02)")
    assert passed, line


def test_criterion_7_special_functions():
    worst_routes = 0.0
    for n in range(1, 41):
        for m in range(n):
            for x in np.arange(0.1, 0.95, 0.1):
                a = comb.L_eval(n, m, float(x), "definition")
                b = comb.L_eval(n, m, float(x), "alternating")
                c = comb.L_eval(n, m, float(x), "quadrature")
                worst_routes = max(worst_routes, abs(a - b), abs(a - c))
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
    {0.65, 0.75, 0.85} with margin > 1e-6, while inside the TP polytope.
    """
    membership_ok = True
    margins = {}
    for gamma in (0.65, 0.75, 0.85):
        region = reachable.mtp_region(gamma)
        _a1, _a2, b1, b2 = reachable.qutrit_mmtp2_vertices(gamma)
        for label, v in (("B1", b1), ("B2", b2)):
            margins[f"{label}@{gamma}"] = reachable.hull_margin(region, v.probs)
            membership_ok &= reachable.inside_tp_cone(gamma, v.probs)
    separation_ok = all(m > 1e-6 for m in margins.values())
    detail = ("TP membership: " + str(membership_ok) + "; MTP clearances " +
              ", ".join(f"{k}: {v:+.2e}" for k, v in margins.items()))
    line = _report(8, membership_ok and separation_ok, detail)
    assert membership_ok, line
    assert separation_ok, line


def test_criterion_9_run_determinism():
    det = validation.check_run_determinism()
    line = _report(9, det.passed, det.detail)
    assert det.passed, line
