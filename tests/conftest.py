"""Fixtures shared by every test module."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail any test that leaves a child process behind, running or not yet
    reaped: the fork layer must reap every child it starts, on every path."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({pid or 'still running'})")
