"""Simulating a beta-swap on a qubit with a maximally mixed d-level memory.

The protocol runs d^2 full two-level thermalizations on the composite of a
qubit (ground weight ``gamma`` in equilibrium) and a d-dimensional memory
with trivial Hamiltonian: sweep k = 1..d over ground slots, and inside each
sweep thermalize |g,k> against every excited slot |e,j>, j = 1..d.  A single
memory refresh at the very end returns the memory to uniform; refreshing
earlier would erase the correlations the protocol exploits.

The resulting ground population has the closed form

    p_d = 1 - p0 (1-gamma)/gamma - (gamma - p0) delta_d(gamma),

i.e. the exact swap output minus a Catalan-tail correction that decays like
(4 gamma (1-gamma))^d d^{-3/2}.

Composite basis: flat index s*d + m with s = 0 (ground), 1 (excited) and
memory slot m = 0..d-1 fastest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._kernels import memory_sweep
from .combinatorics import catalan_tail_bound, delta_d, f_coeff
from .core import SUM_TOL


@dataclass
class MemoryProtocolTrace:
    """Record of one protocol run.

    ``steps`` holds (label, 2d-vector copy) snapshots after each elementary
    thermalization (empty when the fast path was requested); ``final_a`` and
    ``final_b`` are the ground/excited slot populations after all d^2 steps,
    before the memory refresh.
    """

    d: int
    gamma: float
    p0: float
    final_a: np.ndarray
    final_b: np.ndarray
    steps: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.final_a) != self.d or len(self.final_b) != self.d:
            raise ValueError("slot population lists must have length d")
        for label, vec in self.steps:
            total = float(np.sum(vec))
            if abs(total - 1.0) > SUM_TOL:
                raise ValueError(f"trace step {label} sums to {total}")


def _initial_state(d: int, p0: float) -> np.ndarray:
    vec = np.empty(2 * d)
    vec[:d] = p0 / d
    vec[d:] = (1.0 - p0) / d
    return vec


def simulate_memory_beta_swap(d: int, p0: float, gamma: float,
                              record_steps: bool = False):
    """Run the d^2-step protocol; return (final ground population, trace).

    ``record_steps=True`` stores every intermediate composite vector in the
    trace (O(d^3) memory); the default fast path keeps only the final slot
    populations and runs the whole sweep in one kernel call.
    """
    if d < 1:
        raise ValueError("memory dimension d must be >= 1")
    if not (0.0 <= p0 <= 1.0):
        raise ValueError("p0 must lie in [0, 1]")
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    vec = _initial_state(d, p0)
    steps = []
    if record_steps:
        for k in range(d):
            for j in range(d):
                memory_sweep(vec, 1, gamma, k, d + j)
                steps.append((f"T[g{k + 1},e{j + 1}]", vec.copy()))
    else:
        memory_sweep(vec, d, gamma, 0, d)
    final_a = vec[:d].copy()
    final_b = vec[d:].copy()
    p_final = float(final_a.sum())
    if record_steps:
        refreshed = np.empty(2 * d)
        refreshed[:d] = p_final / d
        refreshed[d:] = (1.0 - p_final) / d
        steps.append(("thermalize_memory", refreshed))
    trace = MemoryProtocolTrace(d=d, gamma=gamma, p0=p0,
                                final_a=final_a, final_b=final_b, steps=steps)
    return p_final, trace


def simulate_memory_beta_swap_exact(d: int, p0: Fraction, gamma: Fraction):
    """Exact-rational protocol run.

    Returns (p_final, ground_history) where ground_history[(k, j)] is the
    population of ground slot k after thermalizing it against excited slot j
    (both 1-based), the quantity the closed-form slot recurrences describe.
    """
    if d < 1:
        raise ValueError("memory dimension d must be >= 1")
    p0 = Fraction(p0)
    gamma = Fraction(gamma)
    a = [p0 / d] * d
    b = [(1 - p0) / d] * d
    history = {}
    for k in range(d):
        for j in range(d):
            total = a[k] + b[j]
            a[k] = gamma * total
            b[j] = (1 - gamma) * total
            history[(k + 1, j + 1)] = a[k]
    return sum(a), history


def closed_form_p_d(d: int, p0, gamma):
    """Ground population after the protocol: 1 - p0 (1-g)/g - (g - p0) delta_d(g).

    Accepts floats or Fractions; gamma must exceed 1/2 (delta_d domain).
    The d -> infinity limit, 1 - p0 (1-gamma)/gamma, is the exact swap output.
    """
    if d < 1:
        raise ValueError("memory dimension d must be >= 1")
    return 1 - p0 * (1 - gamma) / gamma - (gamma - p0) * delta_d(d, gamma)


def slot_population_closed_form(d: int, k: int, p0: Fraction, gamma: Fraction) -> Fraction:
    """Exact final population of ground slot k (1-based) after the protocol.

    a_d^(k) = (1/d) [ g/(1-g) (1-p0)
                      - (g-p0)/(1-g) g^d sum_{k'=0}^{k-1} f_d(k') (1-g)^k' ].
    """
    p0 = Fraction(p0)
    g = Fraction(gamma)
    partial = sum(f_coeff(d, kp) * (1 - g) ** kp for kp in range(k))
    return (g / (1 - g) * (1 - p0) - (g - p0) / (1 - g) * g ** d * partial) / d


@dataclass(frozen=True)
class SwapSimulationReport:
    """Comparison of one simulated run against its closed forms."""

    d: int
    gamma: float
    p_i: float
    p_j: float
    simulated: float
    predicted: float
    deviation: float
    passed: bool
    exact_swap: float
    swap_deviation: float
    delta_term: float
    tail_bound: float


def verify_swap_simulation(d: int, gamma: float, p_pair,
                           tol: float = 1.0e-10) -> SwapSimulationReport:
    """Run the protocol on a two-level restriction and compare to closed forms.

    ``p_pair = (p_i, p_j)`` may carry total mass below 1 (an embedded pair of
    a larger system); the protocol recurrences are linear, so the prediction

        p_i' = (1 - q) p_i + p_j + [(1-gamma) p_i - gamma p_j] delta_d(gamma)

    with q = (1-gamma)/gamma applies unchanged.  The report also compares
    against the exact swap output (1-q) p_i + p_j, whose distance is the
    delta term itself, bounded by the explicit Catalan tail bound.
    """
    p_i, p_j = (float(v) for v in p_pair)
    if p_i < 0.0 or p_j < 0.0 or p_i + p_j > 1.0 + SUM_TOL:
        raise ValueError("pair populations must be nonnegative with p_i + p_j <= 1")
    vec = np.empty(2 * d)
    vec[:d] = p_i / d
    vec[d:] = p_j / d
    memory_sweep(vec, d, gamma, 0, d)
    simulated = float(vec[:d].sum())
    q = (1.0 - gamma) / gamma
    delta = float(delta_d(d, gamma))
    coeff = (1.0 - gamma) * p_i - gamma * p_j
    predicted = (1.0 - q) * p_i + p_j + coeff * delta
    exact_swap = (1.0 - q) * p_i + p_j
    deviation = abs(simulated - predicted)
    return SwapSimulationReport(
        d=d, gamma=gamma, p_i=p_i, p_j=p_j,
        simulated=simulated, predicted=predicted,
        deviation=deviation, passed=deviation <= tol,
        exact_swap=exact_swap,
        swap_deviation=abs(simulated - exact_swap),
        delta_term=abs(coeff) * delta,
        tail_bound=abs(coeff) * catalan_tail_bound(d, gamma),
    )
