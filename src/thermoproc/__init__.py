"""Markovian thermal processes with finite memories: simulation and closed forms."""

from ._kernels import backend_name

__version__ = "0.1.0"

from .core import (Hamiltonian, PopulationVector, TransitionMatrix, apply,
                   beta_swap, compose, elementary_tp, full_thermalization,
                   gibbs_state, is_gibbs_stochastic, partial_thermalization)

__all__ = [
    "Hamiltonian", "PopulationVector", "TransitionMatrix", "apply",
    "backend_name", "beta_swap", "compose", "elementary_tp",
    "full_thermalization", "gibbs_state", "is_gibbs_stochastic",
    "partial_thermalization", "__version__",
]
