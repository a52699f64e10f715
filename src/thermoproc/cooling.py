"""Round-based cooling of a qubit under coherent and incoherent control.

Coherent control: each round inverts the qubit populations (an exact swap,
applied while the system is decoupled from the bath) and then applies the
class-optimal bath step:

  - TP:    extremal two-level swap; asymptote 1, rate q = e^{-beta E};
  - MTP:   full thermalization; the qubit pins to the Gibbs weight gamma;
  - MMTP:  memory-simulated swap with a fresh (uniform) d-level memory per
           round; asymptote between gamma and 1, rate q - delta_d(gamma).

Incoherent control: the qubit is joined to an auxiliary qubit with gap
(script_E - E).  Each round re-thermalizes the auxiliary in the hot bath
(preserving the system marginal) and then acts on the composite pair
{|g0>, |e1>} (gap script_E) with the class step.  All classes share the
asymptote p_star = 1 / (1 + e^{-beta script_E} e^{beta_hot (script_E - E)});
only the geometric convergence rate differs.

Composite basis for the incoherent paradigm: (g0, g1, e0, e1), system letter
first, auxiliary level second, energies (0, script_E - E, E, script_E).

The incoherent paradigm has one parameterisation, (E, script_E, beta,
beta_hot), which every incoherent function takes.  ``incoherent_weights``
checks it and computes gamma, q = e^{-beta script_E}, Gamma = 1/(1+q), eta
and p_star; it is the one place they are written.

A simulated round needs only the system's (ground, excited) pair: the
refresh sets (g0, g1, e0, e1) to (ground eta, ground (1-eta), excited eta,
excited (1-eta)), and after the step on (g0, e1) the pair is (g0 + g1,
e0 + e1).  Those are the products and sums a refresh of the 4-level state
computes, in the same order, so two floats give the 4-level composite's
bits.

The memory-assisted incoherent rate implemented by ``incoherent_rate`` is
derived from the linear round map of the swap simulation and satisfies both
consistency limits (d = 1 reduces to the MTP rate, d -> infinity to the TP
rate); the 4d-level simulation is the arbiter.

Every MMTP round, in both paradigms, is the pair step ``memory.swap_round``
gives, on (inverted, 1 - inverted) or on (g0, e1); g1 and e0 keep their
values.  Each run asks for the step once, and ``memory`` decides how it runs.

Every class's closed form in either paradigm has one shape, asymptote -
rate^k (asymptote - start) after round k, built by ``_approach``.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import memory_sweep  # noqa: F401  (unused; perfbench's tracer test reads it)
from .combinatorics import _require_int, delta_d
from .core import clip_noise
from .memory import swap_round

PROCESS_CLASSES = ("TP", "MTP", "MMTP")


def _checked(populations) -> np.ndarray:
    """The per-round ground populations of a run as a float64 array, each in
    [0, 1]; entry k is the population after round k+1."""
    pops = np.asarray(populations, dtype=np.float64)
    # NaN propagates through min and max and fails both comparisons
    if not (pops.min() >= 0.0 and pops.max() <= 1.0):
        raise ValueError("populations must lie in [0, 1]")
    return pops


def _approach(asymptote, rate, start, n):
    """The closed-form column asymptote - rate^k (asymptote - start) for
    rounds k = 1..n.  Fraction arguments evaluate exactly."""
    n = _require_int(n, "rounds", 1)
    return [asymptote - rate ** k * (asymptote - start) for k in range(1, n + 1)]


def _check_process(process: str, d):
    if process not in PROCESS_CLASSES:
        raise ValueError(f"process must be one of {PROCESS_CLASSES}")
    if process == "MMTP":
        if d is None:
            raise ValueError("MMTP needs a memory dimension d >= 1")
        return _require_int(d, "memory dimension d", 1)
    return None


def cool_coherent(process: str, n: int, gamma: float, d=None) -> np.ndarray:
    """Simulate n coherent-control rounds from the thermal starting point;
    the ground population after each round."""
    n = _require_int(n, "rounds", 1)
    if not (0.5 < gamma < 1.0):
        raise ValueError("gamma must lie in (1/2, 1)")
    d = _check_process(process, d)
    if process == "MMTP":
        step = swap_round(d, gamma)
    q = (1.0 - gamma) / gamma
    p = gamma
    pops = np.empty(n)
    for r in range(n):
        inverted = 1.0 - p
        if process == "TP":
            # swap on the inverted state: ground <- (1-q) * inverted + p
            p = 1.0 - q * inverted
        elif process == "MTP":
            p = gamma
        else:
            # the memory round can round the population just past 1
            p = clip_noise(step(inverted, 1.0 - inverted)[0])
        pops[r] = p
    return _checked(pops)


def coherent_p_max(d: int, gamma):
    """Asymptotic coherent-control population with a d-level memory.

    1 - gamma / (1 + (1 - q)/delta_d(gamma)) with q = (1-gamma)/gamma;
    equals gamma at d = 1 and tends to 1 as d grows.  Fraction arguments
    evaluate exactly.
    """
    return _p_max(gamma, (1 - gamma) / gamma, delta_d(d, gamma))


def _p_max(gamma, q, delta):
    return 1 - gamma / (1 + (1 - q) / delta)


def coherent_closed_form(process: str, n: int, gamma, d=None) -> list:
    """Closed-form ground populations after coherent rounds 1..n.

    TP: 1 - q^k (1 - gamma); MTP: gamma; MMTP: p_max - (q - delta_d)^k
    (p_max - gamma).  ``delta_d`` and ``p_max`` are computed once for the
    column.  Fraction arguments evaluate exactly.
    """
    d = _check_process(process, d)
    q = (1 - gamma) / gamma
    if process == "TP":
        return _approach(1, q, gamma, n)
    if process == "MTP":
        # an integer rate keeps a Fraction gamma exact
        return _approach(gamma, 0, gamma, n)
    delta = delta_d(d, gamma)
    return _approach(_p_max(gamma, q, delta), q - delta, gamma, n)


def incoherent_weights(E: float, script_E: float, beta: float, beta_hot: float):
    """(gamma, q, Gamma, eta, p_star) of the incoherent paradigm, after
    checking script_E > E > 0 and 0 <= beta_hot < beta: the system's Gibbs
    weight gamma = 1/(1+e^{-beta E}), the pair's Boltzmann factor q =
    e^{-beta script_E} and Gibbs weight Gamma = 1/(1+q), the hot auxiliary's
    weight eta = 1/(1+e^{-beta_hot (script_E - E)}) and the shared asymptote
    p_star = 1/(1 + q e^{beta_hot (script_E - E)}).

    Where e^{beta_hot (script_E - E)} overflows, q times it is written as
    one exponential, e^{beta_hot (script_E - E) - beta script_E} < 1.
    """
    if not (script_E > E > 0.0):
        raise ValueError("need script_E > E > 0")
    if not (0.0 <= beta_hot < beta):
        raise ValueError("need 0 <= beta_hot < beta")
    gamma = 1.0 / (1.0 + math.exp(-beta * E))
    q = math.exp(-beta * script_E)
    eta = 1.0 / (1.0 + math.exp(-beta_hot * (script_E - E)))
    try:
        p_star = 1.0 / (1.0 + q * math.exp(beta_hot * (script_E - E)))
    except OverflowError:
        p_star = 1.0 / (1.0 + math.exp(beta_hot * (script_E - E) - beta * script_E))
    return gamma, q, 1.0 / (1.0 + q), eta, p_star


def cool_incoherent(process: str, n: int, E: float, script_E: float,
                    beta: float, beta_hot: float, d=None) -> np.ndarray:
    """Simulate n incoherent-control rounds on the 4-level composite; the
    system ground population after each round.

    The state is two Python floats, the system's (ground, excited) pair; the
    module docstring says why its rounds have the 4-level composite's bits.
    """
    n = _require_int(n, "rounds", 1)
    d = _check_process(process, d)
    gamma, q, gamma_big, eta, _ = incoherent_weights(E, script_E, beta, beta_hot)
    if process == "MMTP":
        step = swap_round(d, gamma_big)
    ground, excited = gamma, 1.0 - gamma
    pops = []
    for _ in range(n):
        # the hot-bath refresh, then the class step on the (g0, e1) pair
        g0, g1, e0, e1 = ground * eta, ground * (1.0 - eta), excited * eta, excited * (1.0 - eta)
        if process == "TP":
            g0, e1 = (1.0 - q) * g0 + e1, q * g0
        elif process == "MTP":
            pool = g0 + e1
            g0, e1 = gamma_big * pool, (1.0 - gamma_big) * pool
        else:
            g0, e1 = step(g0, e1)
        ground, excited = g0 + g1, e0 + e1
        pops.append(ground)
    return _checked(pops)


def _rate(process, d, beta_script_E, q, g, eta):
    """The class's rate from the weights of ``incoherent_weights``; g is
    Gamma."""
    v_tp = eta * (1.0 - q)
    if process == "TP":
        return v_tp
    if process == "MTP":
        try:
            return v_tp + (1.0 - eta + eta * q) / (1.0 + math.exp(beta_script_E))
        except OverflowError:
            # the second term is below 6e-309
            return v_tp
    return v_tp + (eta * (1.0 - g) + g * (1.0 - eta)) * float(delta_d(d, g))


def incoherent_rate(process: str, E: float, script_E: float, beta: float,
                    beta_hot: float, d=None) -> float:
    """Geometric convergence rate of the given class.

    TP:   eta (1 - q)                      with q = e^{-beta script_E}
    MTP:  TP rate + (1 - eta + eta q) / (1 + e^{beta script_E}); the second
          term is taken as 0 where e^{beta script_E} overflows
    MMTP: TP rate + [eta (1 - G) + G (1 - eta)] delta_d(G),
          G = 1/(1+q); reduces to the MTP rate at d = 1 and to the TP rate
          as d -> infinity.
    """
    d = _check_process(process, d)
    _, q, gamma_big, eta, _ = incoherent_weights(E, script_E, beta, beta_hot)
    return _rate(process, d, beta * script_E, q, gamma_big, eta)


def incoherent_closed_form(process: str, n: int, E: float, script_E: float,
                           beta: float, beta_hot: float, d=None) -> list:
    """Closed-form ground populations after incoherent rounds 1..n:
    p_star - rate^k (p_star - gamma), with the rate computed once."""
    gamma, q, gamma_big, eta, p_star = incoherent_weights(E, script_E, beta, beta_hot)
    rate = _rate(process, _check_process(process, d), beta * script_E, q, gamma_big, eta)
    return _approach(p_star, rate, gamma, n)


def measured_rates(pops: np.ndarray, p0: float, p_star: float) -> np.ndarray:
    """Per-round contraction ratios (p_star - p_k) / (p_star - p_{k-1}) of a
    run that starts from p0."""
    gaps = p_star - np.concatenate(([p0], pops))
    return gaps[1:] / gaps[:-1]
