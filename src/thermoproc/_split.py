"""Map a function over a list of items in forked processes.

``map_parts(fn, items, processes)`` returns ``[fn(item) for item in
items]``.  With two processes or more, this process and ``processes - 1``
children made by ``os.fork`` each run one of the first items, then claim
the others one at a time from a shared pipe, so that one long item does
not hold up the rest; each child sends its results back pickled and leaves
through ``os._exit``.  The call then behaves like the serial loop: the
results are those of the items, in their order, each item's warnings are
emitted again here in item order, as from the module that warned, and the
exception of the lowest item that raised is raised here with its own type
and message (a child's carries its traceback as a note).  No child
outlives the call.  Float ``I_d`` maps strided chunks of its
points (``combinatorics._I_d_parts``) and ``validate`` its checks
(``validation.run_checks``).  ``usable_cpus`` counts the CPUs a split may
use; in a child it is 1, so a child never forks again.

``validation`` imports this module, and ``combinatorics`` loads it for
the first ``I_d`` call large enough to split, so that the other commands
neither import nor compile it.
"""

from __future__ import annotations

import io
import os
import pickle
import sys
import warnings

# at most this many items, so that one byte names an item's index
MAX_ITEMS = 256

_in_child = False  # set in a forked child, where usable_cpus() is 1


def _quota_cpus(text):
    """Whole CPUs of a cgroup-v2 ``cpu.max`` line "quota period" (a quota of
    1.5 CPUs counts as 1), or None for the unlimited "max"."""
    quota, period = text.split()
    return None if quota == "max" else max(1, int(quota) // int(period))


def usable_cpus():
    """The CPUs this process may run on: its affinity mask, capped by each
    cgroup-v2 ``cpu.max`` quota that can be read, from its own cgroup up to
    the root of the cgroup2 mount.  1 without ``os.fork`` and in a child of
    ``map_parts``."""
    if _in_child or not hasattr(os, "fork"):
        return 1
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


def _module_of(filename):
    """The name of the loaded module whose file is ``filename``, which
    ``warnings.warn`` takes as the module of a warning from that file, or
    None."""
    return next((name for name, module in list(sys.modules.items())
                 if getattr(module, "__file__", None) == filename), None)


def _run_claimed(fn, items, first, claims):
    """Run ``fn`` on ``items[first]``, then on each item whose index this
    process reads from the pipe ``claims``, one byte each, until the pipe
    is empty.  Returns one (index, raised, result or exception, warnings)
    per item run; each warning is the (message, category, filename, lineno,
    module) that the active filters let through.  After an item raises,
    the pipe is emptied, so that no process starts a later item."""
    done = []
    index = first
    while True:
        with warnings.catch_warnings(record=True) as caught:
            try:
                value, raised = fn(items[index]), False
            except Exception as exc:
                value, raised = exc, True
        done.append((index, raised, value,
                     [(w.message, w.category, w.filename, w.lineno, _module_of(w.filename))
                      for w in caught]))
        if raised:
            while os.read(claims, MAX_ITEMS):
                pass
            return done
        claim = os.read(claims, 1)
        if not claim:
            return done
        index = claim[0]


def _pickled(entry):
    """The pickle of one entry of ``_run_claimed``, run in a child.  An
    exception carries its traceback in the child as a note (Python 3.11+),
    since pickling drops the traceback; a result or exception that cannot
    be pickled and unpickled is sent as a RuntimeError that says so."""
    index, raised, value, _ = entry
    if raised and hasattr(value, "add_note"):
        import traceback
        value.add_note("raised in a forked process of map_parts:\n"
                       + "".join(traceback.format_tb(value.__traceback__)).rstrip())
    try:
        data = pickle.dumps(entry, pickle.HIGHEST_PROTOCOL)
        if raised:
            pickle.loads(data)  # an exception whose __init__ takes other arguments
        return data
    except Exception as exc:
        failure = RuntimeError(f"item {index}'s outcome cannot be sent from a "
                               f"forked process: {type(exc).__name__}: {exc}")
        return pickle.dumps((index, True, failure, []), pickle.HIGHEST_PROTOCOL)


def _child(fn, items, first, claims, out):
    """The body of a forked child: run ``items[first]`` and the items it
    claims, and write their pickled entries to the pipe ``out``, then exit 0
    (1 if that failed).  The child always leaves through ``os._exit``, so it
    never returns into the caller's stack or runs its exit handlers."""
    global _in_child
    status = 1
    try:
        _in_child = True
        done = _run_claimed(fn, items, first, claims)
        view = memoryview(b"".join(map(_pickled, done)))
        while view:
            view = view[os.write(out, view):]
        status = 0
    finally:
        os._exit(status)


def _fork(fn, items, first, claims):
    """Fork a child that runs ``_child``; returns its pid and the read end
    of its result pipe."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that a fork of a multi-threaded process
            # (numpy's OpenBLAS pool) may deadlock the child on a lock a
            # thread held.  OpenBLAS stops its threads around a fork and
            # starts them again in the child (pthread_atfork), so a child
            # may call BLAS; numpy's ufuncs and scans take no such lock.
            warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _child(fn, items, first, claims, write_fd)
    os.close(write_fd)
    return pid, read_fd


def _entries(data):
    """The entries of ``_run_claimed`` pickled one after another in ``data``."""
    stream = io.BytesIO(data)
    while stream.tell() < len(data):
        yield pickle.load(stream)


def map_parts(fn, items, processes):
    """``[fn(item) for item in items]`` (a sequence of at most ``MAX_ITEMS``),
    run by ``processes`` processes when it is 2 or more: this one and
    forked children.  Process k runs item k first (this one item 0); then
    each claims the next item left until none is.  Each item's warnings
    are emitted here in item order, and the exception of the lowest item
    that raised is raised here; no item after it starts.  When an item this
    process runs raises and every item below it ran here too (as for item
    0, the only one a call with as many items as processes runs here), the
    children are killed and reaped at once, since none holds a lower item;
    otherwise each child finishes the item it holds, which may be lower.
    On any other exception here (KeyboardInterrupt, a child that dies)
    every child not yet reaped is killed and reaped."""
    processes = min(processes, len(items))
    if processes < 2:
        return [fn(item) for item in items]
    if len(items) > MAX_ITEMS:
        raise ValueError(f"map_parts takes at most {MAX_ITEMS} items, got {len(items)}")
    claims, write_fd = os.pipe()
    os.write(write_fd, bytes(range(processes, len(items))))  # fits in the pipe's buffer
    os.close(write_fd)
    children = {}  # pid -> read end of its result pipe
    try:
        for first in range(1, processes):
            pid, fd = _fork(fn, items, first, claims)
            children[pid] = fd
        done = _run_claimed(fn, items, 0, claims)
        last, raised = done[-1][:2]
        if not raised or len(done) <= last:  # a child ran an item below it
            for pid in list(children):
                with open(children[pid], "rb", closefd=False) as pipe:
                    data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                os.close(children.pop(pid))
                if status:
                    raise RuntimeError(f"forked process {pid} of map_parts exited "
                                       f"with {os.waitstatus_to_exitcode(status)}")
                done.extend(_entries(data))
    finally:
        os.close(claims)
        if children:
            from signal import SIGKILL  # loaded only by a call that failed
            for pid, fd in children.items():
                os.kill(pid, SIGKILL)
                os.close(fd)
                os.waitpid(pid, 0)
    results = []
    shown = {}  # per file without a module, as a loop's warnings share a registry
    for index, raised, value, caught in sorted(done, key=lambda entry: entry[0]):
        for message, category, filename, lineno, module in caught:
            origin = sys.modules.get(module)
            registry = (vars(origin).setdefault("__warningregistry__", {}) if origin
                        else shown.setdefault(filename, {}))
            warnings.warn_explicit(message, category, filename, lineno, module, registry)
        if raised:
            raise value
        results.append(value)
    return results
