"""Validation checks fail on a NaN from what they read, wherever it falls,
and every declared check runs."""

import math

import numpy as np
import pytest

from thermoproc import combinatorics as comb
from thermoproc import cli, memory, reachable, validation, workx


def nan_at_one_point(fn, hit):
    """``fn`` with its result replaced by NaN on the calls where ``hit(*args)``
    holds; for an array result only its middle entry turns NaN."""
    def patched(*args, **kwargs):
        result = fn(*args, **kwargs)
        if not hit(*args):
            return result
        if isinstance(result, np.ndarray):
            result = result.copy()
            result[len(result) // 2] = math.nan
            return result
        if isinstance(result, list):
            return [nan_at_one_point(lambda: v, lambda: True)() for v in result]
        return math.nan
    return patched


def route_with_nan(route):
    exact, on_grid = comb._L_ROUTES[route]
    return exact, nan_at_one_point(on_grid, lambda *args: True)


@pytest.mark.parametrize("patch, module, checks", [
    # the batched grid call of each swap check (one d per entry); the
    # boost check's one-point call keeps its value
    (lambda mp: mp.setattr(memory, "simulate_memory_beta_swap", nan_at_one_point(
        memory.simulate_memory_beta_swap, lambda d, p0, g: np.ndim(d) == 1)),
     "memory", ["swap-simulation-closed-form", "swap-simulation-tail-bound"]),
    (lambda mp: mp.setitem(comb._L_ROUTES, "quadrature", route_with_nan("quadrature")),
     "combinatorics", ["special-function-routes"]),
    (lambda mp: mp.setitem(comb._L_ROUTES, "alternating", route_with_nan("alternating")),
     "combinatorics", ["special-function-routes"]),
    (lambda mp: mp.setattr(comb, "I_nm_eval", nan_at_one_point(
        comb.I_nm_eval, lambda *args: True)),
     "combinatorics", ["special-function-identities", "exact-coefficient-recurrence"]),
    (lambda mp: mp.setattr(workx, "epsilon_d_grid", nan_at_one_point(
        workx.epsilon_d_grid, lambda *args: True)),
     "workx", ["extraction-error-ordering", "memory-extraction-closed-form",
      "memory-extraction-large-d"]),
    (lambda mp: mp.setattr(workx, "memory_extraction_grid", nan_at_one_point(
        workx.memory_extraction_grid, lambda setups, ds: len(setups) > 1)),
     "workx", ["memory-extraction-closed-form"]),
    (lambda mp: mp.setattr(reachable, "hull_margin", nan_at_one_point(
        reachable.hull_margin, lambda region, probs: True)),
     "reachable", ["qutrit-separation", "qutrit-separation-large-gamma"]),
], ids=["swap-simulation", "quadrature-route", "alternating-route", "I", "I_d",
        "extraction-simulation", "hull-margin"])
def test_a_nan_fails_every_check_that_reads_it(monkeypatch, patch, module, checks):
    # the checks of one module, run with one function patched to give NaN
    patch(monkeypatch)
    results = {r.name: r for r in validation.run_checks(only=module)}
    for name in checks:
        assert not results[name].passed, name
        assert results[name].deviation == math.inf, name
    assert all(r.passed for r in results.values() if r.name not in checks)


def test_worst_counts_a_nan_as_inf_wherever_it_falls():
    assert validation._worst(0.0, math.nan, 1.0) == math.inf
    assert validation._worst(-math.inf, 2.0, np.array([1.0, math.nan])) == math.inf
    assert validation._worst(3.0, np.array([1.0, 5.0]), 4.0) == 5.0
    assert validation._worst(-math.inf) == -math.inf


def test_every_check_is_listed_once_and_the_modules_follow_the_list():
    # a check left out of ALL_CHECKS never runs, and nothing fails
    defined = sorted(name for name, obj in vars(validation).items()
                     if name.startswith("check_") and callable(obj))
    listed = [check.__name__ for check in validation.ALL_CHECKS]
    assert sorted(listed) == defined
    # validation.MODULES follows the list; the config field ``only`` offers
    # the same modules in the same order without importing validation
    assert validation.MODULES == cli._VALIDATED_MODULES


def test_the_extraction_read_off_check_deviates_by_a_few_ulp():
    # the read-off and epsilon_tp each round a handful of operations on
    # numbers at most 1 (6.7e-16 apart on this grid); 8 ulp of 1 flags a
    # regression long before it nears the check's tolerance of 1e-9
    result = validation.check_extraction_readoff()
    assert result.name == "extraction-bisection-grid" and result.tolerance == 1e-9
    assert result.deviation <= 8 * np.finfo(np.float64).eps
