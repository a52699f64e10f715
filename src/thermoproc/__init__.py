"""Markovian thermal processes with finite memories: simulation and closed forms.

``import thermoproc`` loads only the modules the names below come from;
any other submodule is imported on first attribute access
(``thermoproc.validation``).
"""

import importlib

from ._kernels import backend_name, memory_sweep

__version__ = "0.1.0"

from .core import (Hamiltonian, PopulationVector, TransitionMatrix, apply,
                   beta_swap, compose, elementary_tp, full_thermalization,
                   gibbs_state, is_gibbs_stochastic, partial_thermalization)

__all__ = [
    "Hamiltonian", "PopulationVector", "TransitionMatrix", "apply",
    "beta_swap", "compose", "elementary_tp",
    "full_thermalization", "gibbs_state", "is_gibbs_stochastic",
    "partial_thermalization", "__version__",
    # read only by the benchmark: the kernel path it records, and the
    # one-off sweep it checks bit for bit against ``_memory_sweep_py``
    "backend_name", "memory_sweep",
]


def __getattr__(name):
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
