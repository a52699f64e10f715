"""Spans around thermoproc's functions, patched in from outside the package.

The package imports names by value (``from .memory import
simulate_memory_beta_swap``), so wrapping a function where it is defined is
not enough: every module global, dict entry and tuple entry bound to the same
function object is re-bound to the wrapper as well (``cooling.memory_sweep``,
``cli.simulate_memory_beta_swap``, ``cli._EMITTERS``,
``validation.ALL_CHECKS``, ...).  Leaving the ``with`` block restores every
binding.

A span is ``[function index, start, end, parent span, info]``; spans are kept
in memory and aggregated or written out after the pass.  ``info`` is what
``layers.span_info`` makes of the call's arguments and result.  Numpy
RuntimeWarnings raised while a span is open are attributed to the innermost
one.
"""

from __future__ import annotations

import contextlib
import inspect
import warnings
from collections import Counter
from time import perf_counter

from layers import EXTRA_NAMES, LAYERS, layer_name, span_info


@contextlib.contextmanager
def runtime_warnings(key=str):
    """Count every RuntimeWarning raised inside the block, by ``key(message)``."""
    counts = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = lambda message, *_a, **_k: counts.update([key(message)])
        yield counts


class Tracer:
    """Records spans while installed; ``functions[i]`` is ``(layer, name)``."""

    def __init__(self, package):
        self.package = package
        self.functions = []
        self.spans = []
        self.warnings = Counter()  # (function index or -1, message) -> count
        self._stack = []
        self._restore = []
        self._warning_context = None

    # -- installing -------------------------------------------------------
    def _modules(self):
        return [getattr(self.package, layer) for layer in LAYERS]

    def _targets(self):
        """Original function object -> (layer, public name), per module."""
        targets = {}
        for module in self._modules():
            layer = module.__name__.rsplit(".", 1)[-1]
            extra = EXTRA_NAMES.get(layer, set())
            for name, obj in sorted(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and (not name.startswith("_") or name in extra)
                        and id(obj) not in targets):
                    targets[id(obj)] = (obj, layer, name)
        return targets

    def _wrap(self, fn, layer, name):
        index = len(self.functions)
        self.functions.append((layer, name))
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[4] = span_info(layer, name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def __enter__(self):
        wrappers = {key: self._wrap(fn, layer, name)
                    for key, (fn, layer, name) in self._targets().items()}
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                patched = None
                if id(value) in wrappers:
                    patched = wrappers[id(value)]
                elif isinstance(value, dict) and any(id(v) in wrappers for v in value.values()):
                    patched = {k: wrappers.get(id(v), v) for k, v in value.items()}
                elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                    patched = tuple(wrappers.get(id(v), v) for v in value)
                if patched is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, patched)
        self._warning_context = runtime_warnings(self._warning_key)
        self.warnings = self._warning_context.__enter__()
        return self

    def __exit__(self, *exc):
        self._warning_context.__exit__(*exc)
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
        return False

    def _warning_key(self, message):
        owner = self.spans[self._stack[-1]][0] if self._stack else -1
        return owner, str(message)

    # -- reading ----------------------------------------------------------
    def self_times(self):
        """Each span's duration minus the durations of its child spans."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def by_function(self):
        """Per (layer, name): calls, self seconds, inclusive seconds."""
        selfs = self.self_times()
        table = {}
        for span, own in zip(self.spans, selfs):
            row = table.setdefault(self.functions[span[0]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += own
            row[2] += span[2] - span[1]
        return table

    def warning_table(self):
        """Warning counts keyed by ``layer.function`` of the innermost span."""
        out = Counter()
        for (owner, message), n in self.warnings.items():
            where = "outside" if owner < 0 else "{}.{}".format(
                layer_name(self.functions[owner][0]), self.functions[owner][1])
            out[f"{where}: {message}"] += n
        return out

    def export(self):
        """Spans as plain lists, times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        names = [f"{layer_name(layer)}.{name}" for layer, name in self.functions]
        return {"functions": names,
                "spans": [[s[0], s[1] - t0, s[2] - t0, s[3]] for s in self.spans]}
