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

The memory-assisted incoherent rate implemented by ``incoherent_rate`` is
derived from the linear round map of the swap simulation and satisfies both
consistency limits (d = 1 reduces to the MTP rate, d -> infinity to the TP
rate); the 4d-level simulation is the arbiter.

That round map is also how the MMTP runs simulate from
``memory.RESPONSE_MIN_D`` on: every round attaches a fresh uniform memory,
so a round is fixed by the totals of one sweep from unit ground mass (A) and
one from unit excited mass (B), which ``memory._round_response`` computes
once per run.  A coherent round is then p' = inv A_g + (1 - inv) B_g with
inv = 1 - p, and an incoherent one g0' = g0 A_g + e1 B_g,
e1' = g0 A_e + e1 B_e.  Below ``RESPONSE_MIN_D`` each round runs its own d^2
sweep, so that the default runs (d <= 8) keep their output bytes.  Either
way the pair step acts on (g0, e1) alone; g1 and e0 keep their values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import _require_int, delta_d
from .core import clip_noise
from .memory import RESPONSE_MIN_D, _round_response, _sweep
from .memory import memory_sweep  # noqa: F401  (unused; perfbench's tracer test reads it)

PROCESS_CLASSES = ("TP", "MTP", "MMTP")


@dataclass
class CoolingRun:
    """Per-round ground-state populations of one cooling run.

    ``populations[k]`` is the system ground population after round k+1; the
    starting population (the Gibbs weight) is implicit.
    """

    paradigm: str
    process: str
    params: dict
    populations: np.ndarray

    def __post_init__(self):
        pops = np.asarray(self.populations, dtype=np.float64)
        # NaN propagates through min and max and fails both comparisons
        if not (pops.min() >= 0.0 and pops.max() <= 1.0):
            raise ValueError("populations must lie in [0, 1]")
        self.populations = pops


def _check_process(process: str, d):
    if process not in PROCESS_CLASSES:
        raise ValueError(f"process must be one of {PROCESS_CLASSES}")
    if process == "MMTP":
        if d is None:
            raise ValueError("MMTP needs a memory dimension d >= 1")
        return _require_int(d, "memory dimension d", 1)
    return None


def cool_coherent(process: str, n: int, gamma: float, d=None) -> CoolingRun:
    """Simulate n coherent-control rounds from the thermal starting point."""
    n = _require_int(n, "rounds", 1)
    if not (0.5 < gamma < 1.0):
        raise ValueError("gamma must lie in (1/2, 1)")
    d = _check_process(process, d)
    if process == "MMTP" and d >= RESPONSE_MIN_D:
        (a_g, _), (b_g, _) = _round_response(d, gamma)
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
        elif d < RESPONSE_MIN_D:
            # the d^2-step sweep can round the population just past 1
            p = clip_noise(_sweep(d, gamma, inverted, 1.0 - inverted)[0])
        else:
            p = clip_noise(inverted * a_g + (1.0 - inverted) * b_g)
        pops[r] = p
    return CoolingRun("coherent", process, {"gamma": gamma, "d": d}, pops)


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

    TP: 1 - (1 - gamma) q^k; MTP: gamma; MMTP: p_max - (q - delta_d)^k
    (p_max - gamma).  ``delta_d`` and ``p_max`` are computed once for the
    column.  Fraction arguments evaluate exactly.
    """
    n = _require_int(n, "rounds", 1)
    d = _check_process(process, d)
    rounds = range(1, n + 1)
    q = (1 - gamma) / gamma
    if process == "TP":
        return [1 - (1 - gamma) * q ** k for k in rounds]
    if process == "MTP":
        return [gamma] * n
    delta = delta_d(d, gamma)
    p_max = _p_max(gamma, q, delta)
    rate = q - delta
    return [p_max - rate ** k * (p_max - gamma) for k in rounds]


@dataclass(frozen=True)
class IncoherentSetting:
    """Derived quantities of the incoherent paradigm, recomputed on demand."""

    E: float
    script_E: float
    beta: float
    beta_hot: float

    def __post_init__(self):
        if not (self.script_E > self.E > 0.0):
            raise ValueError("need script_E > E > 0")
        if not (0.0 <= self.beta_hot < self.beta):
            raise ValueError("need 0 <= beta_hot < beta")

    @property
    def gamma(self) -> float:
        return 1.0 / (1.0 + math.exp(-self.beta * self.E))

    @property
    def q_big(self) -> float:
        return math.exp(-self.beta * self.script_E)

    @property
    def gamma_big(self) -> float:
        return 1.0 / (1.0 + self.q_big)

    @property
    def eta(self) -> float:
        return 1.0 / (1.0 + math.exp(-self.beta_hot * (self.script_E - self.E)))

    @property
    def p_star(self) -> float:
        return 1.0 / (1.0 + self.q_big * math.exp(self.beta_hot * (self.script_E - self.E)))


def _refresh_auxiliary(v: list, eta: float) -> list:
    s_ground = v[0] + v[1]
    s_excited = v[2] + v[3]
    return [s_ground * eta, s_ground * (1.0 - eta),
            s_excited * eta, s_excited * (1.0 - eta)]


def cool_incoherent(process: str, n: int, E: float, script_E: float,
                    beta: float, beta_hot: float, d=None) -> CoolingRun:
    """Simulate n incoherent-control rounds on the 4-level composite.

    The state is a list of Python floats: each round does the IEEE operations
    numpy scalars would do, to the same bits, without numpy's per-operation
    cost.
    """
    n = _require_int(n, "rounds", 1)
    d = _check_process(process, d)
    setting = IncoherentSetting(E, script_E, beta, beta_hot)
    eta = setting.eta
    q_big = setting.q_big
    gamma_big = setting.gamma_big
    if process == "MMTP" and d >= RESPONSE_MIN_D:
        (a_g, a_e), (b_g, b_e) = _round_response(d, gamma_big)
    v = [setting.gamma * eta, setting.gamma * (1.0 - eta),
         (1.0 - setting.gamma) * eta, (1.0 - setting.gamma) * (1.0 - eta)]
    pops = []
    for _ in range(n):
        # each step acts on the (g0, e1) pair of this round's fresh state
        g0, e1 = v[0], v[3]
        if process == "TP":
            v[0], v[3] = (1.0 - q_big) * g0 + e1, q_big * g0
        elif process == "MTP":
            pool = g0 + e1
            v[0], v[3] = gamma_big * pool, (1.0 - gamma_big) * pool
        elif d < RESPONSE_MIN_D:
            v[0], v[3] = _sweep(d, gamma_big, g0, e1)
        else:
            v[0], v[3] = g0 * a_g + e1 * b_g, g0 * a_e + e1 * b_e
        pops.append(v[0] + v[1])
        v = _refresh_auxiliary(v, eta)
    params = {"E": E, "script_E": script_E, "beta": beta,
              "beta_hot": beta_hot, "d": d}
    return CoolingRun("incoherent", process, params, np.array(pops))


def p_star_incoherent(E: float, script_E: float, beta: float, beta_hot: float) -> float:
    """Shared asymptotic ground population of all incoherent classes."""
    return IncoherentSetting(E, script_E, beta, beta_hot).p_star


def incoherent_rate(process: str, E: float, script_E: float, beta: float,
                    beta_hot: float, d=None) -> float:
    """Geometric convergence rate of the given class.

    TP:   eta (1 - q)                      with q = e^{-beta script_E}
    MTP:  TP rate + (1 - eta + eta q) / (1 + e^{beta script_E})
    MMTP: TP rate + [eta (1 - G) + G (1 - eta)] delta_d(G),
          G = 1/(1+q); reduces to the MTP rate at d = 1 and to the TP rate
          as d -> infinity.
    """
    d = _check_process(process, d)
    s = IncoherentSetting(E, script_E, beta, beta_hot)
    v_tp = s.eta * (1.0 - s.q_big)
    if process == "TP":
        return v_tp
    if process == "MTP":
        return v_tp + (1.0 - s.eta + s.eta * s.q_big) / (1.0 + math.exp(beta * script_E))
    g = s.gamma_big
    return v_tp + (s.eta * (1.0 - g) + g * (1.0 - s.eta)) * float(delta_d(d, g))


def incoherent_closed_form(process: str, n: int, E: float, script_E: float,
                           beta: float, beta_hot: float, d=None) -> list:
    """Closed-form ground populations after incoherent rounds 1..n:
    p_star - rate^k (p_star - gamma), with the rate computed once."""
    n = _require_int(n, "rounds", 1)
    s = IncoherentSetting(E, script_E, beta, beta_hot)
    rate = incoherent_rate(process, E, script_E, beta, beta_hot, d)
    p_star, gamma = s.p_star, s.gamma
    return [p_star - rate ** k * (p_star - gamma) for k in range(1, n + 1)]


def measured_rates(run: CoolingRun, p_star: float) -> np.ndarray:
    """Per-round contraction ratios (p_star - p_k) / (p_star - p_{k-1})."""
    if run.paradigm == "coherent":
        p0 = run.params["gamma"]
    else:
        p0 = IncoherentSetting(run.params["E"], run.params["script_E"],
                               run.params["beta"], run.params["beta_hot"]).gamma
    gaps = p_star - np.concatenate(([p0], run.populations))
    return gaps[1:] / gaps[:-1]
