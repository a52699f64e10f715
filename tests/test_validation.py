"""Validation checks fail on a NaN from what they read, wherever it falls,
every declared check runs, and a run split across processes reports what
a serial run does."""

import json
import math
import os
import time
import warnings

import numpy as np
import pytest

from thermoproc import _split
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
    # I_d as the checks read it, from combinatorics
    (lambda mp: mp.setattr(comb, "I_d_eval", nan_at_one_point(
        comb.I_d_eval, lambda *args: True)),
     "workx", ["extraction-error-ordering", "memory-extraction-closed-form",
      "memory-extraction-large-d"]),
    (lambda mp: mp.setattr(workx, "memory_extraction_grid", nan_at_one_point(
        workx.memory_extraction_grid, lambda E, W, beta, ds: np.size(W) > 1)),
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
    # the read-off and the closed form eps_TP each round a handful of operations on
    # numbers at most 1 (6.7e-16 apart on this grid); 8 ulp of 1 flags a
    # regression long before it nears the check's tolerance of 1e-9
    result = validation.check_extraction_readoff()
    assert result.name == "extraction-bisection-grid" and result.tolerance == 1e-9
    assert result.deviation <= 8 * np.finfo(np.float64).eps


def run_split(monkeypatch, cpus):
    """``run_checks()`` as a host with ``cpus`` usable CPUs runs it, and the
    number of forks it made."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(_split, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    results = validation.run_checks()
    monkeypatch.undo()
    return results, len(forks)


def test_a_split_run_reports_the_bytes_of_a_serial_run(monkeypatch):
    serial, serial_forks = run_split(monkeypatch, 1)
    split, split_forks = run_split(monkeypatch, 2)
    assert (serial_forks, split_forks) == (0, 1)
    assert {r.pid for r in serial} == {os.getpid()}
    assert len({r.pid for r in split}) <= 2
    drop = lambda r: {k: v for k, v in vars(r).items() if k not in ("seconds", "pid")}
    assert [drop(r) for r in split] == [drop(r) for r in serial]
    report = lambda results: json.dumps(validation.summarize(results), indent=2,
                                        sort_keys=True)
    assert report(split) == report(serial)


def test_a_selection_of_one_module_runs_serially(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork was called"))
    assert validation.run_checks(only="workx")


def stand_in_checks(monkeypatch, body, count=8):
    """``count`` checks of module "core" that run ``body(i)``, on two
    processes: check 0 runs first in this process and check 1 in the
    child."""
    def declare(i):
        def check_stand_in():
            body(i)
            return 0.0, 0.5, f"stand-in {i}"
        return validation._check(f"stand-in-{i}", "core")(check_stand_in)

    monkeypatch.setattr(validation, "ALL_CHECKS", tuple(map(declare, range(count))))
    monkeypatch.setattr(_split, "usable_cpus", lambda: 2)
    return os.getpid()


def test_child_warnings_reach_this_process_in_check_order(monkeypatch):
    parent = stand_in_checks(
        monkeypatch, lambda i: warnings.warn(f"check {i}", RuntimeWarning))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = validation.run_checks()
    assert [str(w.message) for w in caught] == [f"check {i}" for i in range(8)]
    assert all(w.category is RuntimeWarning for w in caught)
    assert results[0].pid == parent and results[1].pid != parent


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_warning_under_an_error_filter_fails_as_it_does_serially(monkeypatch, cpus):
    def warn_from_the_second(i):
        if i >= 1:
            warnings.warn(f"check {i}", RuntimeWarning)

    stand_in_checks(monkeypatch, warn_from_the_second)
    monkeypatch.setattr(_split, "usable_cpus", lambda: cpus)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning) as info:
            validation.run_checks()
    assert str(info.value) == "check 1"  # a child's traceback is only a note


def test_a_lower_failure_in_a_child_wins_over_one_here(monkeypatch):
    # this process raises at check 2 while the child still runs check 1,
    # which raises later: a serial run would have raised check 1's
    parent = os.getpid()

    def fail(i):
        if i == 1:
            time.sleep(0.3)
            raise ValueError("check 1")
        if i >= 2 and os.getpid() == parent:
            raise KeyError(f"check {i}")

    stand_in_checks(monkeypatch, fail)
    with pytest.raises(ValueError, match="check 1"):
        validation.run_checks()


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_child_run_check_raises_its_exception(monkeypatch, cpus):
    def fail_from_the_third(i):
        if i >= 2:
            raise ZeroDivisionError(f"check {i} divides by zero")

    stand_in_checks(monkeypatch, fail_from_the_third)
    monkeypatch.setattr(_split, "usable_cpus", lambda: cpus)
    with pytest.raises(ZeroDivisionError) as info:
        validation.run_checks()
    assert str(info.value) == "check 2 divides by zero"


def test_an_exception_in_this_process_leaves_no_child(monkeypatch):
    parent = os.getpid()

    def fail_here(i):
        if os.getpid() == parent:
            raise KeyError(f"check {i}")

    stand_in_checks(monkeypatch, fail_here)
    with pytest.raises(KeyError, match="check 0"):
        validation.run_checks()


def test_the_qutrit_checks_call_the_vertices_once_each(monkeypatch):
    # each check runs its gamma grid as one batch of the evaluator
    calls = []
    vertices = reachable.qutrit_mmtp2_vertices

    def counted(gamma):
        calls.append(gamma)
        return vertices(gamma)

    monkeypatch.setattr(reachable, "qutrit_mmtp2_vertices", counted)
    monkeypatch.setattr(_split, "usable_cpus", lambda: 1)
    results = validation.run_checks(only="reachable")
    assert all(r.passed for r in results)
    assert calls == [(0.65, 0.75, 0.85), (0.88, 0.92, 0.96), (0.65, 0.75, 0.85)]
