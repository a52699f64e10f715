"""The fork primitive, ``_split.map_parts``, called directly: a run on
several processes gives what the serial loop gives, its results, warnings
and exceptions, and leaves no child behind; and the count of CPUs a split
may use."""

import os
import re
import warnings

import numpy as np
import pytest

from thermoproc import _split
from thermoproc import combinatorics as comb


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("text, cpus", [("max 100000", None), ("150000 100000", 1),
                                        ("50000 100000", 1), ("400000 100000\n", 4)])
def test_cgroup_quota_in_whole_cpus(text, cpus):
    assert _split._quota_cpus(text) == cpus


def test_usable_cpus_within_the_affinity_mask():
    assert 1 <= _split.usable_cpus() <= len(os.sched_getaffinity(0))


def test_a_child_never_forks():
    # a large float I_d call (3 million cells), which splits in this process
    # on a multi-CPU host, runs alone in a child
    x = np.linspace(0.01, 0.95, 2000)
    ds = [1, 2, 5, 20, 100, 400, 1000]
    parent = os.getpid()
    forks = []

    def item(i):
        if os.getpid() == parent:
            return None
        os.fork, fork = (lambda: forks.append(1) or fork()), os.fork
        try:
            values = comb.I_d_eval(ds, x, x[::-1].copy())
        finally:
            os.fork = fork
        return os.getpid(), _split.usable_cpus(), len(forks), values

    ran = [r for r in _split.map_parts(item, [0, 1], 2) if r is not None]
    assert len(ran) == 1
    serial = comb._I_d_float(ds, x, x[::-1].copy())
    for pid, cpus, child_forks, values in ran:
        assert pid != parent and cpus == 1 and child_forks == 0
        assert all(v.tobytes() == s.tobytes() for v, s in zip(values, serial))
    assert_no_child_left()


def test_a_check_that_calls_blas_completes_in_a_child():
    a = np.random.default_rng(1).random((300, 300))
    parent = os.getpid()

    def product(i):
        return os.getpid(), a @ a

    results = _split.map_parts(product, [0, 1], 2)
    assert results[1][0] != parent
    for _, value in results:
        assert np.array_equal(value, a @ a)
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.waitid")
def test_an_item_that_raises_stops_the_later_items(tmp_path):
    # as in a serial loop, no item after the one that raised starts: item 1
    # raises in the child, and item 0, here, ends once the child has exited
    # (WNOWAIT leaves it to be reaped)
    started = tmp_path / "started"

    def item(i):
        with open(started, "a") as log:
            log.write(f"{i}\n")
        if i == 0:
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        elif i == 1:
            raise KeyError(i)

    with pytest.raises(KeyError):
        _split.map_parts(item, range(10), 2)
    assert sorted(started.read_text().split()) == ["0", "1"]
    assert_no_child_left()


def in_a_child(outcome):
    """An item function whose items this process runs return the item; the
    child's (item 1 of two, on two processes) give ``outcome(item)``."""
    parent = os.getpid()

    def item(i):
        return i if os.getpid() == parent else outcome(i)
    return item


class TwoArgumentError(Exception):
    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")  # pickles, but does not unpickle


def raise_two_argument_error(i):
    raise TwoArgumentError(i, "two arguments")


@pytest.mark.parametrize("outcome", [lambda i: (lambda: i), raise_two_argument_error],
                         ids=["closure-result", "exception-without-its-arguments"])
def test_an_outcome_that_cannot_be_sent_raises_runtime_error(outcome):
    with pytest.raises(RuntimeError, match="cannot be sent from a forked process"):
        _split.map_parts(in_a_child(outcome), [0, 1], 2)
    assert_no_child_left()


def raise_in_the_child(i):
    raise LookupError(f"item {i}")


@pytest.mark.skipif(not hasattr(BaseException, "add_note"), reason="Python 3.11+")
def test_a_child_exception_carries_its_traceback_as_a_note():
    with pytest.raises(LookupError) as info:
        _split.map_parts(in_a_child(raise_in_the_child), [0, 1], 2)
    assert str(info.value) == "item 1"
    (note,) = info.value.__notes__
    assert note.startswith("raised in a forked process of map_parts:")
    assert "raise_in_the_child" in note
    assert_no_child_left()


@pytest.mark.parametrize("processes", [1, 2])
def test_a_default_filter_shows_a_repeated_warning_once_as_serially(processes):
    def item(i):
        warnings.warn("the same line", RuntimeWarning)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        _split.map_parts(item, [0, 1, 2, 3], processes)
    assert [str(w.message) for w in caught] == ["the same line"]
    assert_no_child_left()


@pytest.mark.parametrize("processes", [1, 2])
def test_a_module_filter_over_an_error_filter_acts_as_serially(processes):
    # the warnings are emitted again as from this module, which the filter
    # names, so that they are shown, not raised
    def item(i):
        warnings.warn(f"item {i}", RuntimeWarning)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error")
        warnings.filterwarnings("always", module=re.escape(__name__))
        _split.map_parts(item, [0, 1, 2], processes)
    assert [str(w.message) for w in caught] == ["item 0", "item 1", "item 2"]
    assert_no_child_left()


def test_one_byte_names_each_item(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork was called"))
    assert _split.map_parts(str, range(_split.MAX_ITEMS + 1), 1)[-1] == "256"
    with pytest.raises(ValueError, match="at most 256 items"):
        _split.map_parts(str, range(_split.MAX_ITEMS + 1), 2)
