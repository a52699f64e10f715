"""Named validation checks: closed forms against simulations, at fixed tolerances.

Each check compares an explicit stochastic-matrix simulation against the
corresponding closed form (or two independent evaluation routes against each
other) and reports the worst measured deviation next to its tolerance.  The
CLI ``validate`` command runs these and exits nonzero when any fail; the
acceptance test suite runs the same checks one criterion at a time.

Each tolerance is a constant of its check: an exact or boolean check reports
0 or inf against 1/2, a margin check the clearance it asks for minus the one
it finds against 0.  The JSON report gives every deviation next to its
tolerance, which shows how close each check runs to its bound.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import combinatorics as comb
from . import cooling, majorization, memory, reachable, workx
from .core import (Hamiltonian, beta_swap, elementary_tp, gibbs_state,
                   partial_thermalization)

MODULES = ("core", "combinatorics", "majorization", "memory", "cooling",
           "workx", "reachable", "cli")

LN2 = math.log(2.0)
LN3 = math.log(3.0)

# reference incoherent-cooling parameters (dimensionless products)
INC_REF = dict(E=1.0, script_E=2.0, beta=1.0, beta_hot=0.2)


@dataclass
class CheckResult:
    name: str
    module: str
    passed: bool
    deviation: float
    tolerance: float
    detail: str
    seconds: float = 0.0  # wall time of the check, kept out of the report

    def to_dict(self):
        out = asdict(self)
        del out["seconds"]
        return out


# check function name -> the module it validates; keyed by name so that a
# check wrapped by a caller (a tracer, a counting test) still selects
_MODULE_OF = {}


def _check(name, module):
    """Declare a check of ``module``.  The decorated body takes no argument
    and returns (deviation, tolerance, detail); the check, which keeps the
    body's name and docstring, returns the CheckResult, which passes iff
    deviation <= tolerance and records the body's wall time."""
    def declare(body):
        @functools.wraps(body)
        def check():
            t0 = time.perf_counter()
            deviation, tolerance, detail = body()
            return CheckResult(name=name, module=module,
                               passed=bool(deviation <= tolerance),
                               deviation=float(deviation),
                               tolerance=float(tolerance), detail=detail,
                               seconds=time.perf_counter() - t0)
        _MODULE_OF[check.__name__] = module
        return check
    return declare


@_check("elementary-matrix-invariants", "core")
def check_core_elementary():
    """Elementary matrices are Gibbs-stochastic and satisfy the swap identity."""
    tol = 1.0e-12
    worst = 0.0
    h = Hamiltonian((0.0, 1.0))
    for beta in (LN2, LN3, 1.0):
        tau = gibbs_state(h, beta)
        q = math.exp(-beta)
        gamma = 1.0 / (1.0 + q)
        for lam in (0.0, 0.3, 1.0):
            for m in (partial_thermalization(2, 0, 1, lam, gamma),
                      elementary_tp(2, 0, 1, lam, q)):
                worst = max(worst,
                            float(np.abs(m.entries @ tau.probs - tau.probs).max()),
                            float(np.abs(m.entries.sum(axis=0) - 1.0).max()))
    for q in np.linspace(0.0, 1.0, 11):
        b = beta_swap(2, 0, 1, float(q))
        lhs = b.entries @ b.entries
        rhs = (1.0 - q) * b.entries + q * np.eye(2)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst, tol, "Gibbs fixed point and swap composition identity"


@_check("qubit-memory-boost", "memory")
def check_memory_boost():
    """d = 2 protocol from the ground state hits the known closed value."""
    tol = 1.0e-12
    p2 = memory.simulate_memory_beta_swap(2, 0.0, 0.75)
    dev = abs(p2 - 0.890625)
    return dev, tol, f"simulated {p2!r} vs closed 0.890625"


@_check("swap-simulation-closed-form", "memory")
def check_memory_closed_form():
    """Simulation equals the closed form over the (d, gamma, p0) grid."""
    tol = 1.0e-10
    worst = 0.0
    for d in range(1, 13):
        for g in (0.55, 0.65, 0.75, 0.85, 0.95):
            for p0 in (0.0, 0.25, 0.5, g, 0.9):
                sim = memory.simulate_memory_beta_swap(d, p0, g)
                worst = max(worst, abs(sim - memory.closed_form_p_d(d, p0, g)))
    return worst, tol, "d <= 12 across gamma and p0 grids"


@_check("swap-simulation-tail-bound", "memory")
def check_memory_tail_bound():
    """Distance to the exact swap output obeys the Catalan tail bound, d >= 10."""
    worst_excess = -math.inf  # the largest excess itself, < 0 when all points clear
    slack = 1.0e-13  # float rounding of the d^2-step sweep
    for d in (10, 11, 12):
        for g in (0.55, 0.65, 0.75, 0.85, 0.95):
            bound = comb.catalan_tail_bound(d, g)
            for p0 in (0.0, 0.25, 0.5, 0.9):
                # the exact swap output (1-q) p0 + 1 - p0 is missed by the
                # delta term |(1-g) p0 - g (1-p0)| delta_d, below its bound
                sim = memory.simulate_memory_beta_swap(d, p0, g)
                exact_swap = (1.0 - (1.0 - g) / g) * p0 + (1.0 - p0)
                coeff = (1.0 - g) * p0 - g * (1.0 - p0)
                worst_excess = max(worst_excess,
                                   abs(sim - exact_swap) - abs(coeff) * bound)
            worst_excess = max(worst_excess, float(comb.delta_d(d, g)) - bound)
    return worst_excess, slack, "swap deviation minus bound, d in {10,11,12}"


@_check("coherent-cooling-closed-forms", "cooling")
def check_coherent_cooling():
    """Round-by-round simulation equals the closed forms, every class."""
    tol = 1.0e-10
    worst = 0.0
    for g in (0.6, 0.75, 0.9):
        for process, ds in (("TP", [None]), ("MTP", [None]),
                            ("MMTP", [1, 2, 4, 8])):
            for d in ds:
                run = cooling.cool_coherent(process, 50, g, d)
                closed = cooling.coherent_closed_form(process, 50, g, d)
                worst = max(worst, np.abs(run.populations - closed).max())
    return worst, tol, "TP/MTP/MMTP, n <= 50, gamma in {0.6, 0.75, 0.9}, d <= 8"


@_check("coherent-asymptote-monotone", "cooling")
def check_coherent_asymptote():
    """Memory asymptote: equals gamma at d = 1, strictly increasing to d = 30."""
    tol = 1.0e-12
    dev = abs(float(cooling.coherent_p_max(1, 0.75)) - 0.75)
    ok_monotone = True
    for g in (Fraction(3, 5), Fraction(3, 4), Fraction(9, 10)):
        q = (1 - g) / g
        values = [cooling._p_max(g, q, delta) for delta in comb.delta_d_column(30, g)]
        ok_monotone &= all(b > a for a, b in zip(values, values[1:]))
    deviation = dev if ok_monotone else math.inf
    return deviation, tol, "p_max(1) = gamma; exact-rational strict increase d = 1..30"


@_check("incoherent-cooling-convergence", "cooling")
def check_incoherent_convergence():
    """All classes converge to the shared asymptote at the reference point."""
    tol = 1.0e-6
    p_star = cooling.p_star_incoherent(**INC_REF)
    worst = 0.0
    detail = f"p_star = {p_star:.9f}"
    for process, d in (("TP", None), ("MTP", None), ("MMTP", 4)):
        run = cooling.cool_incoherent(process, 50, d=d, **INC_REF)
        worst = max(worst, abs(run.populations[-1] - p_star))
    return worst, tol, detail


@_check("incoherent-rates", "cooling")
def check_incoherent_rates():
    """Measured contraction matches the closed rates; d = 1 equals the MTP rate."""
    tol = 1.0e-10
    p_star = cooling.p_star_incoherent(**INC_REF)
    worst = 0.0
    for process, d in (("TP", None), ("MTP", None), ("MMTP", 1), ("MMTP", 6)):
        run = cooling.cool_incoherent(process, 12, d=d, **INC_REF)
        rate = cooling.incoherent_rate(process, d=d, **INC_REF)
        ratios = cooling.measured_rates(run, p_star)
        worst = max(worst, float(np.abs(ratios - rate).max()))
    worst = max(worst, abs(cooling.incoherent_rate("MMTP", d=1, **INC_REF)
                           - cooling.incoherent_rate("MTP", **INC_REF)))
    return worst, tol, "TP, MTP and MMTP at d in {1, 6}; the d = 1 rate equals MTP's"


@_check("extraction-point-values", "workx")
def check_extraction_point_values():
    """Reference errors at beta_E = ln2, beta_W = ln4, each matched by protocol."""
    tol = 1.0e-12
    st = workx.ExtractionSetup(LN2, math.log(4.0), 1.0)
    worst = abs(workx.epsilon_tp(st) - 0.25)
    worst = max(worst, abs(workx.epsilon_mtp(st) - 8.0 / 15.0))
    worst = max(worst, abs(workx.epsilon_etp(st) - 0.375))
    worst = max(worst, abs(workx.run_tp_protocol(st)[0] - workx.epsilon_tp(st)))
    for kind, target in (("MTP", workx.epsilon_mtp(st)), ("ETP", workx.epsilon_etp(st))):
        for variant in ("primary", "tilde"):
            eps, _ = workx.run_sequence_protocol(kind, st, variant)
            worst = max(worst, abs(eps - target))
    eps1 = float(workx.memory_extraction_grid([st], [1])[0][0])
    worst = max(worst, abs(eps1 - workx.epsilon_mtp(st)))
    return (worst, tol,
            "eps_TP = 1/4, eps_ETP = 3/8, eps_MTP = 8/15 and protocol oracles")


@_check("extraction-bisection-grid", "majorization")
def check_extraction_bisection():
    """Reachability bisection reproduces the closed minimum error on a W grid."""
    tol = 1.0e-9
    gaps = np.linspace(0.05, 2.5, 50)
    bisected = majorization.min_extraction_error_tp(LN2, gaps, 1.0)
    worst = max(abs(eps - workx.epsilon_tp(workx.ExtractionSetup(LN2, bw, 1.0)))
                for eps, bw in zip(bisected.tolist(), gaps.tolist()))
    return worst, tol, "50-point work-gap grid at beta_E = ln 2"


@_check("extraction-error-ordering", "workx")
def check_extraction_ordering():
    """eps_TP <= eps_ETP <= eps_MTP and the memory errors bracket in between."""
    tol = 1.0e-12
    setups = [workx.ExtractionSetup(LN2, float(bw), 1.0) for bw in np.linspace(0.05, 3.0, 60)]
    tp = np.array([workx.epsilon_tp(st) for st in setups])
    etp = np.array([workx.epsilon_etp(st) for st in setups])
    mtp = np.array([workx.epsilon_mtp(st) for st in setups])
    eps = np.array([mtp, *workx.epsilon_d_grid(setups, range(1, 41))])
    worst = max(np.max(tp - etp), np.max(etp - mtp), np.max(tp - eps[1:]),
                np.max(np.diff(eps, axis=0)))
    return float(worst), tol, "class ordering and monotone memory errors, d <= 40"


@_check("memory-extraction-closed-form", "workx")
def check_memory_extraction():
    """4d-level protocol simulation equals the closed-form error, d <= 10."""
    tol = 1.0e-10
    setups = [workx.ExtractionSetup(be, float(bw), 1.0)
              for be in (LN2, 1.0) for bw in np.linspace(0.1, 2.6, 25)]
    ds = range(1, 11)
    worst = max(float(np.max(np.abs(sim - closed))) for sim, closed in zip(
        workx.memory_extraction_grid(setups, ds), workx.epsilon_d_grid(setups, ds)))
    return worst, tol, "25-point work-gap grid, beta_E in {ln 2, 1}, d <= 10"


@_check("memory-extraction-large-d", "workx")
def check_memory_extraction_large_d():
    """d = 400 closed form sits within 0.02 of the unrestricted optimum."""
    tol = 0.02
    w0 = workx.ExtractionSetup(LN2, 1.0, 1.0).W_0
    setups = [workx.ExtractionSetup(LN2, float(bw), 1.0)
              for bw in np.concatenate([np.linspace(0.2, 0.9 * w0, 8),
                                        np.linspace(1.1 * w0, 2.5, 8)])]
    (eps_400,) = workx.epsilon_d_grid(setups, [400])
    tp = np.array([workx.epsilon_tp(st) for st in setups])
    worst = float(np.max(np.abs(eps_400 - tp)))
    return worst, tol, "work gaps at least 10% away from the zero-error threshold"


@_check("special-function-routes", "combinatorics")
def check_function_routes():
    """Three independent evaluation routes of L agree."""
    tol = 1.0e-9
    worst = 0.0
    xs = np.arange(0.1, 0.95, 0.1)
    for n in range(1, 41):
        for m in {0, n // 2, n - 1}:
            quadrature = comb.L_eval(n, m, xs, "quadrature").tolist()
            for x, c in zip(xs.tolist(), quadrature):
                a = comb.L_eval(n, m, x, "definition")
                b = comb.L_eval(n, m, x, "alternating")
                worst = max(worst, abs(a - b), abs(a - c))
    return worst, tol, "definition vs alternating vs quadrature, n <= 40"


@_check("special-function-identities", "combinatorics")
def check_function_identities():
    """The (n-1)-order diagonal matches its Catalan-tail closed form."""
    tol = 1.0e-10
    worst = 0.0
    for n in range(1, 51):
        for x in (0.1, 0.2, 0.3, 0.4):
            lhs = comb.I_nm_eval(n, n - 1, x)
            rhs = (1.0 - 2.0 * x) / (1.0 - x) + x * float(comb.delta_d(n, 1.0 - x))
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst, tol, "relative error of the diagonal closed form, n <= 50"


@_check("exact-coefficient-recurrence", "combinatorics")
def check_exact_coefficients():
    """Recurrence table equals binomials exactly; rational routes agree exactly."""
    table = comb.f_table(60, 60)
    exact = all(table[j][k] == comb.f_coeff(j, k)
                for j in range(1, 61) for k in range(61))
    for n in (3, 10, 25):
        for m in (0, n // 2, n - 1):
            for x in (Fraction(1, 10), Fraction(2, 5), Fraction(9, 10)):
                exact &= (comb.L_eval(n, m, x, "definition")
                          == comb.L_eval(n, m, x, "alternating"))
                exact &= (comb.K_eval(n, m, x) + comb.I_nm_eval(n, m, x)
                          == comb.L_eval(n, m, x, "definition"))
    deviation = 0.0 if exact else math.inf
    return deviation, 0.5, "exact integer and rational equalities"


@_check("qutrit-separation", "reachable")
def check_qutrit_separation():
    """Memory-assisted B vertices against the Markovian region, stated grid.

    Asks for a positive clearance of at least 1e-6 outside the exact MTP
    polygon at gamma in {0.65, 0.75, 0.85}: the memory reaches states no
    memoryless Markovian process can.  (Against the swap sequences no such
    clearance exists at this grid: one swap and two partial swaps reach B.)
    """
    needed = 1.0e-6
    worst_margin = math.inf
    details = []
    for g in (0.65, 0.75, 0.85):
        region = reachable.mtp_region(g)
        _a1, _a2, b1, b2 = reachable.qutrit_mmtp2_vertices(g)
        for label, v in (("B1", b1), ("B2", b2)):
            margin = reachable.hull_margin(region, v.probs)
            worst_margin = min(worst_margin, margin)
            details.append(f"{label}@{g}: {margin:+.2e}")
    deviation = needed - worst_margin  # <= 0 iff every margin clears the bar
    return deviation, 0.0, "; ".join(details)


@_check("qutrit-separation-large-gamma", "reachable")
def check_qutrit_separation_large_gamma():
    """The same separation where it does hold: large pair weights."""
    needed = 1.0e-6
    worst_margin = math.inf
    for g in (0.88, 0.92, 0.96):
        hull = reachable.etp_orbit_hull(g, 8)
        _a1, _a2, b1, b2 = reachable.qutrit_mmtp2_vertices(g)
        for v in (b1, b2):
            worst_margin = min(worst_margin, reachable.hull_margin(hull, v.probs))
    return (needed - worst_margin, 0.0,
            f"worst margin {worst_margin:+.3e} at gamma in {{0.88, 0.92, 0.96}}")


@_check("qutrit-tp-membership", "reachable")
def check_qutrit_tp_membership():
    """All four memory-assisted vertices are thermally reachable states."""
    ok = True
    for g in (0.65, 0.75, 0.85):
        vertices = np.array([v.probs for v in reachable.qutrit_mmtp2_vertices(g)])
        ok &= bool(reachable.inside_tp_cone(g, vertices).all())
    return (0.0 if ok else math.inf, 0.5,
            "thermo-majorization membership of A and B vertices")


@_check("run-determinism", "cli")
def check_run_determinism():
    """Two identical experiment runs emit byte-identical data files."""
    import tempfile
    from pathlib import Path

    from . import cli

    config = {
        "schema_version": 1,
        "experiment": "fig2",
        "params": {"beta_E": LN2, "w_min": 0.2, "w_max": 1.8,
                   "w_points": 12, "d_list": [1, 3]},
    }
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        for sub in ("a", "b"):
            outdir = Path(tmp) / sub
            cfg = dict(config, output_dir=str(outdir))
            manifest = cli.run_experiment(cli.ExperimentConfig.from_dict(cfg))
            digests.append(sorted((f["name"], f["sha256"]) for f in manifest.files))
    same = digests[0] == digests[1]
    deviation = 0.0 if same else math.inf
    return (deviation, 0.5,
            "byte-identical outputs across repeated identical runs")


ALL_CHECKS = (
    check_core_elementary,
    check_exact_coefficients,
    check_function_routes,
    check_function_identities,
    check_extraction_bisection,
    check_memory_boost,
    check_memory_closed_form,
    check_memory_tail_bound,
    check_coherent_cooling,
    check_coherent_asymptote,
    check_incoherent_convergence,
    check_incoherent_rates,
    check_extraction_point_values,
    check_extraction_ordering,
    check_memory_extraction,
    check_memory_extraction_large_d,
    check_qutrit_separation,
    check_qutrit_separation_large_gamma,
    check_qutrit_tp_membership,
    check_run_determinism,
)


def run_checks(only=None):
    """Run the validation checks, optionally restricted to one module."""
    if only is not None and only not in MODULES:
        raise ValueError(f"unknown module {only!r}; pick one of {MODULES}")
    return [check() for check in ALL_CHECKS
            if only is None or _MODULE_OF[check.__name__] == only]


def summarize(results) -> dict:
    """Machine-readable summary of a validation run."""
    return {
        "passed": all(r.passed for r in results),
        "n_checks": len(results),
        "n_failed": sum(not r.passed for r in results),
        "checks": [r.to_dict() for r in results],
    }
