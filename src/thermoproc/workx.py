"""Single-shot work extraction from an excited qubit.

The composite of the system qubit (gap E, starting excited) and the work
bit (gap W, starting in its ground state) lives on the basis
(g0, g1, e0, e1) with energies (0, W, E, E+W); all population starts on e0.
The extraction error epsilon is the work-bit ground weight left at the end,
i.e. the total population on g0 and e0, with the final system marginal
required to be thermal.

Every function here takes the one parameterisation (E, W, beta): two
numbers and a work gap W that is a number or a grid.  One helper,
``_weights``, checks them and computes u = e^{-beta(W-E)} and
v = e^{-beta W}, two ``math.exp`` per W, and the pair weights
gamma_delta = 1/(1+u), the e0 retention against g1, and gamma_W = 1/(1+v),
the e0 retention against e1; it is the one place they are written.

Closed-form minima implemented here:

  - unrestricted thermal processes: zero error up to the threshold gap
    W_0 = E + ln(1 + e^{-beta E}) / beta (``threshold_gap``), then
    1 - u - v;
  - sequences of two-level full thermalizations (the Markovian optimum):
    gamma_delta * gamma_W at every W;
  - sequences of two-level extremal swaps: zero for W <= E, otherwise
    (1 - u)(1 - v);
  - memory-assisted with a d-level memory: I_d(1-gamma_delta, 1-gamma_W).

``extraction_closed_forms(E, W, beta)`` gives eps_TP, eps_ETP, eps_MTP and
I_d's arguments x = 1 - gamma_delta and y = 1 - gamma_W over a grid of W;
a single point is the grid (W,).  Each value has the bits of the scalar
forms the grid replaced (``tests/reference.py`` keeps them): E - W is
-(W - E) exactly, so beta(E - W) and -beta(W - E) round to the same
double, and numpy's +, -, * and / round as Python's do.  The exponentials
themselves stay ``math.exp`` calls, since numpy's exp may round
differently from the platform's.

The memory-assisted error is a negative-binomial mean.  f_d(k) x^k (1-x)^d
is the probability that K = k, where K counts the failures before the d-th
success at failure probability x, so with J likewise for y

    eps_d = I_d(x, y) = E[(1 - S/d)^+],  S = J + K = sum_{i<=d} (G_i + H_i),

with G_i, H_i independent geometric variables, P(G = k) = (1-x) x^k and
P(H = k) = (1-y) y^k, whose means are x/(1-x) = u and y/(1-y) = v.  Then,
with mu = E[S]/d = u + v, which is 1 exactly at W = W_0:

  - d = 1: I_1 = P(G = H = 0) = (1-x)(1-y) = gamma_delta gamma_W = eps_MTP;
  - Jensen's inequality for the convex (1 - s)^+: I_d >= (1 - mu)^+, which
    is eps_TP, so no memory beats unrestricted thermal processes;
  - convex order of sample means: S_{d+1}/(d+1) is the average of its d+1
    leave-one-out means, each distributed as S_d/d, so I_{d+1} <= I_d
    (Shaked and Shanthikumar, Stochastic Orders, Springer, 2007, ch. 3);
  - law of large numbers: S/d -> mu, and (1 - s)^+ is bounded and
    continuous on s >= 0, so I_d -> (1 - mu)^+ = eps_TP, the paper's
    statement that a large enough memory reaches TP.

The two-step memory protocol: step one runs the memory-simulated swap
between the e0 and g1 slot blocks (outer loop over e0 slots); step two
drains each e0 slot against all e1 slots, as one sweep that visits the e0
slots in ascending order.  That is the ascending order of the step-one
residuals and the error-minimizing order, so it is part of the protocol;
``tests/test_workx.py::TestMemoryProtocol::test_ascending_order_is_optimal``
probes other orders with a drain of its own that permutes the e0 block.
``memory_extraction_grid`` runs it on ``memory``'s one protocol evaluator,
as a protocol of the blocks (g0, g1, e0, e1) = (0, 1, 2, 3) with unit mass
on e0 and the sweeps (e0, g1) and (e0, e1): each (W, d) pair is one row
with its own weights, gamma_delta in step one and gamma_W in the drain, and
each row's error has the bits of that point run alone.
"""

from __future__ import annotations

import math

import numpy as np

from .combinatorics import _require_int
from .core import (PopulationVector, TransitionMatrix, beta_swap, compose,
                   full_thermalization)
from .memory import _protocol_totals

_START = (0.0, 0.0, 1.0, 0.0)  # all population on e0


def _exp_or_nan(t: float) -> float:
    try:
        return math.exp(t)
    except OverflowError:
        return math.nan


def _exp(t: np.ndarray) -> np.ndarray:
    """``math.exp`` of each entry of a float array, NaN where it overflows
    (where ``math.exp`` raises OverflowError).  numpy's own exp may round
    differently from the platform's, which would move the scalar forms' bits."""
    values = t.tolist()
    try:
        return np.array(list(map(math.exp, values)), dtype=np.float64)
    except OverflowError:
        return np.array(list(map(_exp_or_nan, values)), dtype=np.float64)


def _weights(E: float, W, beta: float):
    """(w, u, v, gamma_delta, gamma_W): the work gaps as a float array, u =
    e^{-beta(W-E)}, v = e^{-beta W} and the pair weights 1/(1+u) and 1/(1+v),
    after checking that E, every W and beta are positive.  u, and with it
    gamma_delta, is NaN where e^{-beta(W-E)} overflows."""
    w = np.array(W, dtype=np.float64, ndmin=1)
    if not (E > 0.0 and beta > 0.0 and (w > 0.0).all()):
        raise ValueError("E, W and beta must be positive")
    u, v = _exp(-beta * (w - E)), _exp(-beta * w)
    return w, u, v, 1.0 / (1.0 + u), 1.0 / (1.0 + v)


def threshold_gap(E: float, beta: float) -> float:
    """W_0 = E + ln(1 + e^{-beta E}) / beta, the largest work gap extractable
    with vanishing error."""
    if not (E > 0.0 and beta > 0.0):
        raise ValueError("E and beta must be positive")
    return E + math.log(1.0 + math.exp(-beta * E)) / beta


def extraction_closed_forms(E: float, W, beta: float):
    """The closed-form errors at one system gap E and one beta over a grid
    of work gaps ``W``: (eps_TP, eps_ETP, eps_MTP, x, y), five float arrays,
    with x = 1 - gamma_delta and y = 1 - gamma_W the arguments of I_d.

    Where e^{-beta(W-E)} overflows, eps_MTP and x are NaN, and eps_TP =
    eps_ETP = 0.
    """
    w, u, v, gamma_delta, gamma_w = _weights(E, W, beta)
    tp = np.where(w <= threshold_gap(E, beta), 0.0, 1.0 - u - v)
    etp = np.where(w <= E, 0.0, (1.0 - u) * (1.0 - v))
    return tp, etp, gamma_delta * gamma_w, 1.0 - gamma_delta, 1.0 - gamma_w


def _point(E: float, W: float, beta: float):
    """(u, v, gamma_delta, gamma_W) of ``_weights`` at one work gap, as floats."""
    return [float(a[0]) for a in _weights(E, (W,), beta)[1:]]


def _swap_e0_g1(E: float, W: float, beta: float, u: float) -> TransitionMatrix:
    """The extremal swap of e0 and g1, the lower of the two levels first."""
    if W <= E:
        return beta_swap(4, 1, 2, math.exp(-beta * (E - W)))
    return beta_swap(4, 2, 1, u)


def optimal_tp_matrix(E: float, W: float, beta: float) -> TransitionMatrix:
    """Optimal joint transition matrix, by gap regime.

    Followed by a local full thermalization of the system it realizes the
    unrestricted minimum error.  The E < W branches satisfy detailed balance
    entrywise; all three fix the composite Gibbs state.  The middle branch
    moves e^{beta E} expm1(beta(W-E)) of e1 to e0, a fraction that is at
    most 1 exactly where W <= W_0; written so, it stays within rounding of
    [0, 1] at W_0 for any beta E, where e^{beta W} - e^{beta E} is off by
    an ulp of e^{beta E}.
    """
    u, v, _, _ = _point(E, W, beta)
    if W <= E:
        return _swap_e0_g1(E, W, beta, u)
    up = math.exp(beta * E) * math.expm1(beta * (W - E))
    if up <= 1.0:
        return TransitionMatrix([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, u, 0.0],
            [0.0, 1.0, 0.0, up],
            [0.0, 0.0, 1.0 - u, 1.0 - up],
        ])
    return TransitionMatrix([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, u, 0.0],
        [0.0, 1.0, 1.0 - v * (1.0 + math.exp(beta * E)), 1.0],
        [0.0, 0.0, v, 0.0],
    ])


def _system_thermalization(E: float, beta: float) -> TransitionMatrix:
    """Full thermalization of the system qubit, leaving the work bit alone."""
    gamma = 1.0 / (1.0 + math.exp(-beta * E))
    return compose([full_thermalization(4, 0, 2, gamma), full_thermalization(4, 1, 3, gamma)])


def run_tp_protocol(E: float, W: float, beta: float):
    """Apply the optimal joint matrix and the system thermalization.

    Returns (epsilon, final PopulationVector); the error matches eps_TP and
    the final state is the required thermal product.
    """
    g = compose([_system_thermalization(E, beta), optimal_tp_matrix(E, W, beta)])
    final = PopulationVector(g.entries @ _START)
    return float(final[0] + final[2]), final


def run_sequence_protocol(kind: str, E: float, W: float, beta: float,
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
    u, v, gamma_delta, gamma_w = _point(E, W, beta)
    if kind == "ETP":
        pairs = [_swap_e0_g1(E, W, beta, u), beta_swap(4, 2, 3, v)]
    else:
        pairs = [full_thermalization(4, 2, 1, gamma_delta),
                 full_thermalization(4, 2, 3, gamma_w)]
    ops = list(zip(("e0<->g1", "e0<->e1"), pairs))
    if variant == "tilde":
        ops.reverse()
    ops.append(("thermalize_S", _system_thermalization(E, beta)))
    state = PopulationVector(_START)
    trace = [("initial", state)]
    for label, op in ops:
        state = PopulationVector(op.entries @ state.probs)
        trace.append((label, state))
    return float(state[0] + state[2]), trace


def memory_extraction_grid(E: float, W, beta: float, ds) -> list:
    """Simulate the two-step memory-assisted protocol on the 4d-level
    composite over a grid of work gaps ``W``: its error epsilon, one array
    per d in ``ds``, each entry bit for bit the value of a one-point grid,
    NaN where e^{-beta(W-E)} overflows.

    Every (W, d) pair is one row of the protocol evaluator: the e0 block
    (outer) against the g1 block with each row's gamma_delta, then the drain
    of the e0 block against the e1 block with each row's gamma_W.
    """
    ds = [_require_int(d, "memory dimension d", 1) for d in ds]
    _, _, _, gamma_delta, gamma_w = _weights(E, W, beta)
    sweeps = ((2, 1, np.tile(gamma_delta, len(ds))), (2, 3, np.tile(gamma_w, len(ds))))
    row_d = [d for d in ds for _ in range(len(gamma_w))]
    start = np.broadcast_to(_START, (len(row_d), 4))
    (errors,) = _protocol_totals(row_d, sweeps, start, (2,))
    return list(np.array(errors).reshape(len(ds), len(gamma_w)))
