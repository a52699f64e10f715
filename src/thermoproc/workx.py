"""Single-shot work extraction from an excited qubit.

The composite of the system qubit (gap E, starting excited) and the work
bit (gap W, starting in its ground state) lives on the basis
(g0, g1, e0, e1) with energies (0, W, E, E+W); all population starts on e0.
The extraction error epsilon is the work-bit ground weight left at the end,
i.e. the total population on g0 and e0, with the final system marginal
required to be thermal.

Closed-form minima implemented here:

  - unrestricted thermal processes: zero error up to the threshold gap
    W_0 = E + ln(1 + e^{-beta E}) / beta, then 1 - e^{beta(E-W)} - e^{-beta W};
  - sequences of two-level full thermalizations (the Markovian optimum):
    gamma_delta * gamma_W at every W, the product of the e0 retention
    weights against g1 (gap |W-E|) and against e1 (gap W);
  - sequences of two-level extremal swaps: zero for W <= E, otherwise
    (1 - e^{-beta(W-E)})(1 - e^{-beta W});
  - memory-assisted with a d-level memory: I_d(1-gamma_delta, 1-gamma_W),
    which equals the Markovian optimum at d = 1 and converges to the
    unrestricted optimum as d grows.

The two-step memory protocol: step one runs the memory-simulated swap
between the e0 and g1 slot blocks (outer loop over e0 slots); step two
drains each e0 slot against all e1 slots, as one sweep that visits the e0
slots in ascending order.  That is the ascending order of the step-one
residuals and the error-minimizing order, so it is part of the protocol;
``tests/test_workx.py::TestMemoryProtocol::test_ascending_order_is_optimal``
probes other orders with a drain of its own that permutes the e0 block.
``memory_extraction_grid`` simulates a grid of setups and memory sizes as
batched wavefronts: each (setup, d) pair is one row with its own weights,
gamma_delta in step one and gamma_W in the drain, and each row's error has
the bits of a sweep run on that point alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import Wavefront, wavefront_blocks
from .combinatorics import I_d_eval, _require_int
from .core import (PopulationVector, TransitionMatrix, beta_swap, compose,
                   full_thermalization)

@dataclass(frozen=True)
class ExtractionSetup:
    """System gap, work-bit gap and inverse temperature.

    Everything else (pair weights, threshold gap, composite Gibbs state) is
    derived on access so nothing can go stale.
    """

    E: float
    W: float
    beta: float

    def __post_init__(self):
        if not (self.E > 0.0 and self.W > 0.0 and self.beta > 0.0):
            raise ValueError("E, W and beta must be positive")

    @property
    def q_E(self) -> float:
        return math.exp(-self.beta * self.E)

    @property
    def gamma(self) -> float:
        """System ground weight in equilibrium."""
        return 1.0 / (1.0 + self.q_E)

    @property
    def gamma_W(self) -> float:
        """Work-bit ground weight, also the e0 retention against e1."""
        return 1.0 / (1.0 + math.exp(-self.beta * self.W))

    @property
    def gamma_delta(self) -> float:
        """Retention weight of e0 against g1: 1 / (1 + e^{-beta (W-E)})."""
        return 1.0 / (1.0 + math.exp(-self.beta * (self.W - self.E)))

    @property
    def Z(self) -> float:
        return 1.0 + self.q_E

    @property
    def W_0(self) -> float:
        """Largest gap extractable with vanishing error: E + ln(Z)/beta."""
        return self.E + math.log(self.Z) / self.beta

    def initial_state(self) -> PopulationVector:
        return PopulationVector([0.0, 0.0, 1.0, 0.0])


def epsilon_tp(setup: ExtractionSetup) -> float:
    """Minimum error over all thermal processes."""
    if setup.W <= setup.W_0:
        return 0.0
    return 1.0 - math.exp(setup.beta * (setup.E - setup.W)) \
        - math.exp(-setup.beta * setup.W)


def epsilon_mtp(setup: ExtractionSetup) -> float:
    """Minimum error over Markovian thermal processes: gamma_delta * gamma_W."""
    return setup.gamma_delta * setup.gamma_W


def epsilon_etp(setup: ExtractionSetup) -> float:
    """Minimum error over two-level swap sequences."""
    if setup.W <= setup.E:
        return 0.0
    return (1.0 - math.exp(-setup.beta * (setup.W - setup.E))) \
        * (1.0 - math.exp(-setup.beta * setup.W))


def optimal_tp_matrix(setup: ExtractionSetup) -> TransitionMatrix:
    """Optimal joint transition matrix, by gap regime.

    Followed by a local full thermalization of the system it realizes the
    unrestricted minimum error.  The E < W branches satisfy detailed balance
    entrywise; all three fix the composite Gibbs state.
    """
    beta, E, W = setup.beta, setup.E, setup.W
    if W <= E:
        # swap on the (g1, e0) pair, g1 the lower level
        return beta_swap(4, 1, 2, math.exp(-beta * (E - W)))
    if W <= setup.W_0:
        return TransitionMatrix([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, math.exp(-beta * (W - E)), 0.0],
            [0.0, 1.0, 0.0, math.exp(beta * W) - math.exp(beta * E)],
            [0.0, 0.0, 1.0 - math.exp(-beta * (W - E)),
             1.0 - math.exp(beta * W) + math.exp(beta * E)],
        ])
    return TransitionMatrix([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, math.exp(-beta * (W - E)), 0.0],
        [0.0, 1.0, 1.0 - math.exp(-beta * W) * (1.0 + math.exp(beta * E)), 1.0],
        [0.0, 0.0, math.exp(-beta * W), 0.0],
    ])


def _system_thermalization(setup: ExtractionSetup) -> TransitionMatrix:
    """Full thermalization of the system qubit, leaving the work bit alone."""
    return compose([
        full_thermalization(4, 0, 2, setup.gamma),
        full_thermalization(4, 1, 3, setup.gamma),
    ])


def run_tp_protocol(setup: ExtractionSetup):
    """Apply the optimal joint matrix and the system thermalization.

    Returns (epsilon, final PopulationVector); the error matches
    ``epsilon_tp`` and the final state is the required thermal product.
    """
    g = compose([_system_thermalization(setup), optimal_tp_matrix(setup)])
    final = PopulationVector(g.entries @ setup.initial_state().probs)
    return float(final[0] + final[2]), final


def _pair_e0_g1(setup: ExtractionSetup, extremal: bool) -> TransitionMatrix:
    if not extremal:
        return full_thermalization(4, 2, 1, setup.gamma_delta)
    if setup.W >= setup.E:
        return beta_swap(4, 2, 1, math.exp(-setup.beta * (setup.W - setup.E)))
    return beta_swap(4, 1, 2, math.exp(-setup.beta * (setup.E - setup.W)))


def _pair_e0_e1(setup: ExtractionSetup, extremal: bool) -> TransitionMatrix:
    if not extremal:
        return full_thermalization(4, 2, 3, setup.gamma_W)
    return beta_swap(4, 2, 3, math.exp(-setup.beta * setup.W))


def run_sequence_protocol(kind: str, setup: ExtractionSetup,
                          variant: str = "primary"):
    """Compose the optimal two-level sequence of the given class.

    kind "MTP" uses full thermalizations, "ETP" extremal swaps, on the
    (e0, g1) and (e0, e1) pairs; the two variants apply the pair operations
    in opposite orders and give the same error.  A local system
    thermalization closes the sequence.  Returns (epsilon, step trace).
    """
    if kind not in ("MTP", "ETP"):
        raise ValueError("kind must be 'MTP' or 'ETP'")
    if variant not in ("primary", "tilde"):
        raise ValueError("variant must be 'primary' or 'tilde'")
    extremal = kind == "ETP"
    ops = [
        ("e0<->g1", _pair_e0_g1(setup, extremal)),
        ("e0<->e1", _pair_e0_e1(setup, extremal)),
    ]
    if variant == "tilde":
        ops.reverse()
    ops.append(("thermalize_S", _system_thermalization(setup)))
    state = setup.initial_state()
    trace = [("initial", state)]
    for label, op in ops:
        state = PopulationVector(op.entries @ state.probs)
        trace.append((label, state))
    return float(state[0] + state[2]), trace


def run_memory_extraction(setup: ExtractionSetup, d: int) -> float:
    """Simulate the two-step memory-assisted protocol on the 4d-level composite
    and return its error epsilon: the one-point ``memory_extraction_grid``.

    Each call builds two wavefronts, so a caller that loops over setups or
    memory sizes should pass them to ``memory_extraction_grid`` in one call.
    """
    (eps,) = memory_extraction_grid([setup], [d])
    return float(eps[0])


def memory_extraction_grid(setups, ds) -> list:
    """``run_memory_extraction`` over a grid of setups: one array per d in
    ``ds``, equal bit for bit to the per-point values.

    Every (setup, d) pair is one row of a batch of sweeps, run one
    ``wavefront_blocks`` block at a time: the e0 block (outer) against the
    g1 block with each row's gamma_delta, then the drain of the e0 block
    against the e1 block with each row's gamma_W.
    """
    ds = [_require_int(d, "memory dimension d", 1) for d in ds]
    row_d = [d for d in ds for _ in setups]
    gamma_delta = [st.gamma_delta for st in setups] * len(ds)
    gamma_w = [st.gamma_W for st in setups] * len(ds)
    errors = np.empty(len(row_d))
    for rows in wavefront_blocks(row_d):
        block = [row_d[i] for i in rows]
        e0 = np.empty((len(block), max(block)))
        e0[:] = 1.0 / np.array(block)[:, None]
        Wavefront(block, [gamma_delta[i] for i in rows]).run(e0, np.zeros_like(e0))
        Wavefront(block, [gamma_w[i] for i in rows]).run(e0, np.zeros_like(e0))
        errors[rows] = [e0[i, :d].sum() for i, d in enumerate(block)]
    return list(errors.reshape(len(ds), len(setups)))


def epsilon_d_closed(setup: ExtractionSetup, d: int) -> float:
    """Closed-form memory-assisted error I_d(1 - gamma_delta, 1 - gamma_W)."""
    (eps,) = epsilon_d_grid([setup], [d])
    return float(eps[0])


def epsilon_d_grid(setups, ds) -> list:
    """``epsilon_d_closed`` over a grid of setups: one array per d in ``ds``,
    each from one array call of I_d, equal bit for bit to the per-setup values."""
    x = np.array([1.0 - st.gamma_delta for st in setups])
    y = np.array([1.0 - st.gamma_W for st in setups])
    return [I_d_eval(d, x, y) for d in ds]
