"""States, Gibbs distributions, and elementary two-level transition matrices.

Conventions used throughout the package:

  - Population vectors are probability distributions over energy eigenstates.
  - Transition matrices are column-stochastic: column index = input state,
    row index = output state, so evolution is ``p' = G p``.
  - Two-level operations take gap-derived parameters directly (the pair
    equilibrium weight ``gamma_pair`` or the Boltzmann factor ``q``) instead
    of recomputing them from a Hamiltonian.  Callers orient the pair: the
    first index is the level that keeps the equilibrium weight.  A zero gap
    gives q = 1, a plain swap.
  - Composite bases list the system index slowest and the memory index
    fastest, i.e. flat index = system_index * mem_dim + memory_index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Entries this far below zero are treated as rounding noise and clamped;
# anything below the hard floor indicates a logic error upstream.
CLAMP_NOISE = -1.0e-9
SUM_TOL = 1.0e-12
COLUMN_TOL = 1.0e-12


@dataclass(frozen=True)
class Hamiltonian:
    """A finite list of energy levels (any consistent energy unit)."""

    levels: tuple

    def __post_init__(self):
        levels = tuple(float(e) for e in self.levels)
        if len(levels) == 0:
            raise ValueError("Hamiltonian needs at least one level")
        if not all(np.isfinite(levels)):
            raise ValueError("Hamiltonian levels must be finite")
        object.__setattr__(self, "levels", levels)

    @property
    def dim(self) -> int:
        return len(self.levels)


class PopulationVector:
    """Probability distribution over energy eigenstates.

    Entries in [-1e-9, 0) are clamped to zero (accumulated rounding);
    entries below that raise.  The total must be 1 within 1e-12.
    """

    __slots__ = ("probs",)

    def __init__(self, probs):
        arr = np.array(probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("population vector must be a non-empty 1-d array")
        low = arr.min()
        if low < CLAMP_NOISE:
            raise ValueError(f"population entry {low} below noise floor {CLAMP_NOISE}")
        if low < 0.0:
            arr = np.where(arr < 0.0, 0.0, arr)
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"population sum {total} deviates from 1 by more than {SUM_TOL}")
        arr.flags.writeable = False
        self.probs = arr

    @property
    def dim(self) -> int:
        return self.probs.size

    def __getitem__(self, k):
        return self.probs[k]

    def __len__(self):
        return self.probs.size

    def __iter__(self):
        return iter(self.probs)

    def __repr__(self):
        return f"PopulationVector({self.probs.tolist()})"


class TransitionMatrix:
    """Column-stochastic matrix of conditional probabilities.

    Column index = input state, row index = output state.  All entries must
    lie in [-1e-14, 1+1e-14] (clipped into [0, 1] on construction) and every
    column must sum to 1 within 1e-12.
    """

    __slots__ = ("entries",)

    ENTRY_TOL = 1.0e-14

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("transition matrix must be square")
        if arr.min() < -self.ENTRY_TOL or arr.max() > 1.0 + self.ENTRY_TOL:
            raise ValueError("transition matrix entry outside [-1e-14, 1+1e-14]")
        arr = np.clip(arr, 0.0, 1.0)
        colsums = arr.sum(axis=0)
        worst = float(np.abs(colsums - 1.0).max())
        if worst > COLUMN_TOL:
            raise ValueError(f"column sums deviate from 1 by {worst}")
        arr.flags.writeable = False
        self.entries = arr

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __matmul__(self, other):
        if isinstance(other, TransitionMatrix):
            return TransitionMatrix(self.entries @ other.entries)
        return NotImplemented

    def __repr__(self):
        return f"TransitionMatrix(dim={self.dim})"


def gibbs_state(h: Hamiltonian, beta: float) -> PopulationVector:
    """Equilibrium distribution e^{-beta E_k} / Z at inverse temperature beta.

    beta = 0 gives the uniform distribution.  Energies are shifted by their
    minimum before exponentiating, which leaves the distribution unchanged
    and avoids overflow.
    """
    if beta < 0.0 or not np.isfinite(beta):
        raise ValueError("beta must be >= 0 and finite")
    energies = np.asarray(h.levels, dtype=np.float64)
    weights = np.exp(-beta * (energies - energies.min()))
    return PopulationVector(weights / weights.sum())


def _two_level_block(dim: int, i: int, j: int, block: np.ndarray) -> np.ndarray:
    if i == j:
        raise ValueError("pair indices must differ")
    if not (0 <= i < dim and 0 <= j < dim):
        raise ValueError("pair index out of range")
    m = np.eye(dim)
    m[i, i] = block[0, 0]
    m[i, j] = block[0, 1]
    m[j, i] = block[1, 0]
    m[j, j] = block[1, 1]
    return m


def partial_thermalization(dim: int, i: int, j: int, lam: float,
                           gamma_pair: float) -> TransitionMatrix:
    """Partial thermalization between levels i and j, identity elsewhere.

    ``gamma_pair`` is the equilibrium weight of level i within the pair.
    lam = 0 is the identity; lam = 1 pools the pair populations and splits
    them gamma_pair : 1-gamma_pair (full thermalization).
    """
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lambda must lie in [0, 1]")
    if not (0.0 < gamma_pair < 1.0):
        raise ValueError("gamma_pair must lie in (0, 1)")
    block = np.array([
        [1.0 - lam * (1.0 - gamma_pair), lam * gamma_pair],
        [lam * (1.0 - gamma_pair), 1.0 - lam * gamma_pair],
    ])
    return TransitionMatrix(_two_level_block(dim, i, j, block))


def full_thermalization(dim: int, i: int, j: int, gamma_pair: float) -> TransitionMatrix:
    """Shorthand for partial_thermalization with lam = 1."""
    return partial_thermalization(dim, i, j, 1.0, gamma_pair)


def beta_swap(dim: int, i: int, j: int, q: float) -> TransitionMatrix:
    """Extremal two-level Gibbs-stochastic matrix [[1-q, 1], [q, 0]].

    ``i`` must be the lower-energy level, with q = exp(-beta * gap) <= 1;
    all population of j transfers to i while a fraction q of i moves up.
    q = 1 (zero gap) is a plain swap.
    """
    if not (0.0 <= q <= 1.0):
        raise ValueError("q must lie in [0, 1]; orient the pair so i is the lower level")
    block = np.array([[1.0 - q, 1.0], [q, 0.0]])
    return TransitionMatrix(_two_level_block(dim, i, j, block))


def elementary_tp(dim: int, i: int, j: int, lam: float, q: float) -> TransitionMatrix:
    """Convex mixture (1-lam) * identity + lam * beta_swap on the (i, j) block."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lambda must lie in [0, 1]")
    if not (0.0 <= q <= 1.0):
        raise ValueError("q must lie in [0, 1]")
    block = np.array([
        [1.0 - lam * q, lam],
        [lam * q, 1.0 - lam],
    ])
    return TransitionMatrix(_two_level_block(dim, i, j, block))


def apply(m: TransitionMatrix, p: PopulationVector) -> PopulationVector:
    """Evolve a population vector: p' = G p."""
    if m.dim != p.dim:
        raise ValueError(f"dimension mismatch: matrix {m.dim} vs vector {p.dim}")
    return PopulationVector(m.entries @ p.probs)


def compose(ms) -> TransitionMatrix:
    """Product of transition matrices; the rightmost entry acts first.

    An empty list is rejected: pass an explicit identity if that is meant.
    """
    ms = list(ms)
    if not ms:
        raise ValueError("compose() of an empty list; pass an identity explicitly")
    dim = ms[0].dim
    out = np.eye(dim)
    for m in ms:
        if m.dim != dim:
            raise ValueError("all matrices must share one dimension")
        out = out @ m.entries
    return TransitionMatrix(out)


def is_gibbs_stochastic(m: TransitionMatrix, gibbs: PopulationVector,
                        tol: float = 1.0e-12) -> bool:
    """True iff m is column-stochastic and fixes the given Gibbs vector, within tol."""
    if m.dim != gibbs.dim:
        raise ValueError("dimension mismatch")
    cols_ok = bool(np.abs(m.entries.sum(axis=0) - 1.0).max() <= tol)
    fixed_ok = bool(np.abs(m.entries @ gibbs.probs - gibbs.probs).max() <= tol)
    return cols_ok and fixed_ok


def clip_noise(p: float) -> float:
    """Clip a probability that left [0, 1] by rounding noise back into it.

    Noise is the same band PopulationVector clamps: at most 1e-9 outside.
    Anything further out indicates a logic error upstream and raises.
    """
    if not (CLAMP_NOISE <= p <= 1.0 - CLAMP_NOISE):
        raise ValueError(f"probability {p} outside [0, 1] beyond the noise floor")
    return min(max(p, 0.0), 1.0)
