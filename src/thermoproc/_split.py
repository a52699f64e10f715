"""Run a float kernel over its points in forked processes.

``combinatorics`` loads this module for a float ``I_d`` call large enough
to split (see ``combinatorics._PART_MIN_CELLS``), so that a process that
never splits neither imports nor compiles it.  ``split`` cuts the points
into contiguous chunks, runs the first one in this process and each other
one in a child made by ``os.fork``, which writes its float64 values to a
pipe and leaves through ``os._exit``.  The kernel's value at a point must
not depend on the other points, so the joined values have the bits of one
serial call.  ``usable_cpus`` counts the CPUs a split may use.
"""

from __future__ import annotations

import os
import warnings

import numpy as np


def _quota_cpus(text):
    """Whole CPUs of a cgroup-v2 ``cpu.max`` line "quota period" (a quota of
    1.5 CPUs counts as 1), or None for the unlimited "max"."""
    quota, period = text.split()
    return None if quota == "max" else max(1, int(quota) // int(period))


def usable_cpus():
    """The CPUs this process may run on: its affinity mask, capped by each
    cgroup-v2 ``cpu.max`` quota that can be read, from its own cgroup up to
    the root of the cgroup2 mount."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    try:
        with open("/proc/self/mounts") as mounts:
            root = next(f[1] for f in map(str.split, mounts) if f[2:3] == ["cgroup2"])
        with open("/proc/self/cgroup") as groups:
            group = next(line[3:].strip() for line in groups if line.startswith("0::"))
    except (OSError, StopIteration):
        return cpus
    group = os.path.normpath(root + group)
    while True:
        try:
            with open(os.path.join(group, "cpu.max")) as limit:
                cpus = min(cpus, _quota_cpus(limit.read()) or cpus)
        except (OSError, ValueError):
            pass
        if len(group) <= len(root):
            return cpus
        group = os.path.dirname(group)


def _run_part(kernel, fd, ds, x, y):
    """The body of a forked child: write the float64 bytes of
    ``kernel(ds, x, y)`` to the pipe ``fd`` and exit 0, or on any exception
    write its message and exit 1.  A RuntimeWarning is raised as an error,
    so that the parent reports it instead of it being lost with the child.
    The child always leaves through ``os._exit``, so it never returns into
    the caller's stack or runs its exit handlers."""
    status = 1
    try:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                payload, done = kernel(ds, x, y), 0
        except BaseException as exc:
            payload, done = [f"{type(exc).__name__}: {exc}".encode()], 1
        for chunk in payload:
            view = memoryview(chunk).cast("B")
            while view:
                view = view[os.write(fd, view):]
        status = done
    finally:
        os._exit(status)


def _fork_part(kernel, ds, x, y):
    """Fork a child that runs ``_run_part`` on its points; returns its pid
    and the read end of its pipe."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that a fork of a multi-threaded process
            # (numpy's BLAS pool) may deadlock the child on a lock a thread
            # held.  The child calls no BLAS: it runs ufuncs, scans and pipe
            # writes, and leaves through os._exit.
            warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _run_part(kernel, write_fd, ds, x, y)
    os.close(write_fd)
    return pid, read_fd


def split(kernel, ds, x, y, parts):
    """``kernel(ds, x, y)``, one float64 array per d of ``ds`` over the 1-D
    points x, y, with the points cut into ``parts`` contiguous chunks: the
    first runs here, each other one in a forked child at the same time.
    The parent reads every pipe to its end and reaps each child; a child
    that fails makes it raise RuntimeError with the child's message, and on
    any exception every child not yet reaped is killed and reaped."""
    bounds = [len(x) * k // parts for k in range(parts + 1)]
    pending = {}  # pid -> (read end of its pipe, its point count)
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            pid, fd = _fork_part(kernel, ds, x[lo:hi], y[lo:hi])
            pending[pid] = fd, hi - lo
        chunks = [kernel(ds, x[:bounds[1]], y[:bounds[1]])]
        for pid, (fd, count) in list(pending.items()):
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            os.close(pending.pop(pid)[0])
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"a child process of the split exited with {code}: "
                                   + data.decode(errors="replace"))
            chunks.append(np.frombuffer(data).reshape(len(ds), count))
    finally:
        for pid, (fd, _) in pending.items():
            from signal import SIGKILL  # loaded only by a call that failed
            os.kill(pid, SIGKILL)
            os.close(fd)
            os.waitpid(pid, 0)
    return [np.concatenate(values) for values in zip(*chunks)]
