"""What each layer's spans record, and the per-layer metrics of a traced pass.

Metrics are named ``<module>.<quantity>``.

Every metric is reported on every workload, as 0 where the workload never
enters the layer (``kernels.*`` on ``fig2-dense``, ``validation.*`` outside
``default-suite``), so the set of names never depends on the inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

LAYERS = ("_kernels", "core", "combinatorics", "majorization", "memory",
          "cooling", "workx", "reachable", "validation", "cli")

# private functions that are layer boundaries all the same
EXTRA_NAMES = {
    "cli": {"_emit_fig2", "_emit_fig3", "_emit_cooling_coherent",
            "_emit_cooling_incoherent", "_emit_beta_swap_sweep",
            "_emit_validate", "_write_csv", "_sha256"},
}

EXACT_INTEGER_FUNCTIONS = {"f_coeff", "f_table", "catalan"}
FLAG_EXACT = 1
FLAG_NONFINITE = 2

VALIDATION_CHECKS = (
    "elementary-matrix-invariants", "exact-coefficient-recurrence",
    "special-function-routes", "special-function-identities",
    "extraction-bisection-grid", "qubit-memory-boost",
    "swap-simulation-closed-form", "swap-simulation-tail-bound",
    "coherent-cooling-closed-forms", "coherent-asymptote-monotone",
    "incoherent-cooling-convergence", "incoherent-rates",
    "extraction-point-values", "extraction-error-ordering",
    "memory-extraction-closed-form", "memory-extraction-large-d",
    "qutrit-separation", "qutrit-separation-large-gamma",
    "qutrit-tp-membership", "run-determinism",
)

KERNEL_SWEEPS = {"memory_sweep", "memory_sweep_ordered", "pair_sweep"}
COOLING_SIM = {"cool_coherent", "cool_incoherent"}
COOLING_CLOSED = {"coherent_closed_form", "coherent_p_max", "incoherent_closed_form",
                  "incoherent_rate", "incoherent_rate_variant", "p_star_incoherent",
                  "rate_discrepancy_report"}
L_FAMILY = {"L_eval", "K_eval", "I_nm_eval", "L_derivative"}
WORKX_CLOSED = {"epsilon_tp", "epsilon_etp", "epsilon_mtp", "epsilon_d_closed",
                "step1_residuals_closed_form", "step2_depletion_factors"}
WORKX_SIM = {"run_memory_extraction", "run_tp_protocol", "run_sequence_protocol",
             "optimal_tp_matrix"}
CLI_WRITE = {"_write_csv", "_sha256"}


def layer_name(module_name: str) -> str:
    """Metric prefix of a module: ``thermoproc._kernels`` -> ``kernels``."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _combinatorics_flags(name, args, kwargs, result):
    flags = 0
    if (name in EXACT_INTEGER_FUNCTIONS
            or kwargs.get("route") == "alternating"
            or (len(args) > 3 and args[3] == "alternating")
            or any(isinstance(a, Fraction) for a in (*args, *kwargs.values()))):
        flags |= FLAG_EXACT
    if isinstance(result, float) and not math.isfinite(result):
        flags |= FLAG_NONFINITE
    return flags


def span_info(layer, name, args, kwargs, result):
    """The per-call count a span keeps: thermalizations for the kernels,
    orbit points for ``reachable.etp_orbit_points``, rows for
    ``cli._write_csv``, exact/non-finite flags for ``combinatorics``, the
    check's name and verdict for ``validation``."""
    if layer == "_kernels":
        if name == "memory_sweep":
            return args[1] * args[1]
        if name == "memory_sweep_ordered":
            return len(args[5]) * args[1]
        if name == "pair_sweep":
            return len(args[1])
        return 0
    if layer == "combinatorics":
        return _combinatorics_flags(name, args, kwargs, result)
    if layer == "reachable" and name == "etp_orbit_points":
        return len(result)
    if layer == "cli" and name == "_write_csv":
        return len(args[3])
    if layer == "validation" and name.startswith("check_"):
        return (result.name, result.passed)
    return None


# (name, unit) in report order
PER_LAYER = (
    [("kernels.calls", "count"), ("kernels.thermalizations", "count"),
     ("kernels.self_s", "s"), ("kernels.ns_per_thermalization", "ns"),
     ("memory.calls", "count"), ("memory.self_s", "s"),
     ("cooling.sim_calls", "count"), ("cooling.sim_self_s", "s"),
     ("cooling.closed_form_calls", "count"), ("cooling.closed_form_self_s", "s"),
     ("combinatorics.I_d_calls", "count"), ("combinatorics.I_d_self_s", "s"),
     ("combinatorics.nonfinite", "count"),
     ("combinatorics.delta_d_calls", "count"), ("combinatorics.delta_d_self_s", "s"),
     ("combinatorics.L_calls", "count"), ("combinatorics.L_self_s", "s"),
     ("combinatorics.exact_calls", "count"), ("combinatorics.exact_self_s", "s"),
     ("workx.closed_form_calls", "count"), ("workx.closed_form_self_s", "s"),
     ("workx.extraction_sim_calls", "count"), ("workx.extraction_sim_self_s", "s"),
     ("majorization.bisection_calls", "count"),
     ("majorization.feasibility_tests", "count"), ("majorization.self_s", "s"),
     ("core.calls", "count"), ("core.self_s", "s"),
     ("reachable.orbit_points", "count"), ("reachable.self_s", "s")]
    + [(f"validation.{name}_s", "s") for name in VALIDATION_CHECKS]
    + [("validation.failed", "count"),
       ("cli.emit_self_s", "s"), ("cli.write_s", "s"),
       ("cli.bytes_written", "bytes"), ("cli.rows", "count")]
    + [(f"warnings.{layer_name(layer)}", "count") for layer in LAYERS]
    + [("warnings.total", "count"), ("checks.failed_frac", "ratio"),
       ("trace.spans", "count"), ("trace.overhead_s", "s"),
       ("trace.overhead_frac", "ratio")]
)


def layer_metrics(tracer, bytes_written):
    """Per-layer metrics of one traced pass (``trace.*`` and ``checks.*`` excluded)."""
    m = {name: 0 if unit in ("count", "bytes") else 0.0
         for name, unit in PER_LAYER if not name.startswith(("trace.", "checks."))}

    def add(name, value):
        m[name] += value

    for span, own in zip(tracer.spans, tracer.self_times()):
        layer, fn = tracer.functions[span[0]]
        info = span[4]
        prefix = layer_name(layer)
        if layer == "_kernels":
            if fn in KERNEL_SWEEPS:
                add("kernels.calls", 1)
                add("kernels.thermalizations", info or 0)
            add("kernels.self_s", own)
        elif layer in ("memory", "core"):
            add(f"{prefix}.calls", 1)
            add(f"{prefix}.self_s", own)
        elif layer == "cooling":
            kind = "sim" if fn in COOLING_SIM else "closed_form" if fn in COOLING_CLOSED else None
            if kind:
                add(f"cooling.{kind}_calls", 1)
                add(f"cooling.{kind}_self_s", own)
        elif layer == "combinatorics":
            kind = {"I_d_eval": "I_d", "delta_d": "delta_d"}.get(
                fn, "L" if fn in L_FAMILY else None)
            if kind:
                add(f"combinatorics.{kind}_calls", 1)
                add(f"combinatorics.{kind}_self_s", own)
            if info and info & FLAG_EXACT:
                add("combinatorics.exact_calls", 1)
                add("combinatorics.exact_self_s", own)
            if info and info & FLAG_NONFINITE:
                add("combinatorics.nonfinite", 1)
        elif layer == "workx":
            kind = "closed_form" if fn in WORKX_CLOSED else "extraction_sim" if fn in WORKX_SIM else None
            if kind:
                add(f"workx.{kind}_calls", 1)
                add(f"workx.{kind}_self_s", own)
        elif layer == "majorization":
            if fn == "min_extraction_error_tp":
                add("majorization.bisection_calls", 1)
            elif fn == "extraction_feasible":
                add("majorization.feasibility_tests", 1)
            add("majorization.self_s", own)
        elif layer == "reachable":
            if fn == "etp_orbit_points":
                add("reachable.orbit_points", info)
            add("reachable.self_s", own)
        elif layer == "validation" and info is not None:
            check, passed = info
            key = f"validation.{check}_s"
            if key in m:  # a check this benchmark does not know is skipped
                add(key, span[2] - span[1])
            add("validation.failed", not passed)
        elif layer == "cli":
            if fn.startswith("_emit_"):
                add("cli.emit_self_s", own)
            elif fn in CLI_WRITE:
                add("cli.write_s", span[2] - span[1])
            if fn == "_write_csv":
                add("cli.rows", info)
    m["kernels.ns_per_thermalization"] = (
        m["kernels.self_s"] / m["kernels.thermalizations"] * 1e9
        if m["kernels.thermalizations"] else 0.0)
    m["cli.bytes_written"] = bytes_written
    for (owner, _message), n in tracer.warnings.items():
        if owner >= 0:
            add(f"warnings.{layer_name(tracer.functions[owner][0])}", n)
        add("warnings.total", n)
    return m
