"""The benchmark's workloads: seeded experiment configs and the pass that runs them.

Every workload is a list of steps, each one experiment config that goes
through ``cli.run_experiment``; ``validate`` runs ``validation.run_checks``
behind the same entry point.  The seed picks the physical parameters inside
the domains config validation accepts.  Pair weights are dyadic (k/32, k/16)
so that the float parameter equals its exact rational twin.  The
default-config runs of ``default-suite`` always use the documented defaults,
whose output digests are recorded in ``seed_digests.json``; there the seed
only picks the order of the five experiments.

``sweep-scaled`` also has a domain probe: one more ``cooling-coherent`` run,
with gamma drawn from the whole domain config validation accepts, made once
per benchmark run, checked and counted but not timed.  In thermoproc 0.1.0,
gamma = 26/32, 27/32, 29/32, 30/32 and 31/32 make that run raise ValueError
(a simulated ground population rounds above 1 and the next round rejects its
inversion as p0 < 0), after between 1% and half of its work; the probe counts
the rows it should have written as failed.  The timed coherent run draws gamma
below 26/32, where it does all of its stated work, so that the timed passes of
different seeds do the same amount of work.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

WHY = {
    "sweep-scaled": "d^2 kernel sweeps at large d (about 9.7 M thermalizations); "
                    "where a faster sweep kernel must show",
    "fig2-dense": "2000-point fig2 up to d=1000: float I_d closed forms and CSV "
                  "writing, no kernel calls",
    "default-suite": "five default experiments plus the 20-check validate: many "
                     "tiny sweeps and exact-rational arithmetic",
}
WORKLOADS = tuple(WHY)

DEFAULT_EXPERIMENTS = ("fig2", "fig3", "cooling-coherent", "cooling-incoherent",
                       "beta-swap-sweep")
SCALED_D_LIST = [1, 2, 4, 8, 64, 256]
DENSE_D_LIST = [1, 2, 5, 20, 100, 400, 1000]


@dataclass(frozen=True)
class Step:
    name: str
    experiment: str
    params: dict


def _pair_weight(rng, low, high):
    return rng.randint(low, high) / 32


def build(workload: str, seed: int):
    """The steps of one workload for one seed; the same seed gives the same steps."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-scaled":
        return [
            Step("beta-swap-sweep", "beta-swap-sweep",
                 {"gamma": _pair_weight(rng, 24, 28), "p0": rng.randint(0, 8) / 16,
                  "d_max": 200}),
            Step("cooling-coherent", "cooling-coherent",
                 {"gamma": _pair_weight(rng, 17, 25), "rounds": 50,
                  "d_list": SCALED_D_LIST}),
            Step("cooling-incoherent", "cooling-incoherent",
                 {"beta": rng.randint(12, 20) / 16, "E": rng.randint(12, 20) / 16,
                  "script_E": rng.randint(28, 36) / 16,
                  "beta_hot": rng.randint(2, 5) / 16, "rounds": 50,
                  "d_list": SCALED_D_LIST}),
        ]
    if workload == "fig2-dense":
        return [Step("fig2", "fig2",
                     {"beta_E": rng.uniform(0.6, 0.8), "w_min": rng.uniform(0.03, 0.07),
                      "w_max": rng.uniform(2.8, 3.2), "w_points": 2000,
                      "d_list": DENSE_D_LIST})]
    if workload == "default-suite":
        order = list(DEFAULT_EXPERIMENTS)
        rng.shuffle(order)
        return ([Step(name, name, {}) for name in order]
                + [Step("validate", "validate", {})])
    raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")


def probes(workload: str, seed: int):
    """Untimed steps run once per benchmark run: inputs from the whole domain."""
    if workload != "sweep-scaled":
        return []
    rng = random.Random(f"{workload}-probe:{seed}")
    return [Step("cooling-coherent-domain", "cooling-coherent",
                 {"gamma": _pair_weight(rng, 17, 31), "rounds": 50,
                  "d_list": SCALED_D_LIST})]


def stated_ops(cli, step):
    """Operations a step produces at its stated size: output rows or checks.

    A fig3 run counts as one operation, since its row count depends on the
    orbit it computes.
    """
    p = cli.ExperimentConfig.from_dict(
        {"experiment": step.experiment, "params": step.params}).params
    if step.experiment == "fig2":
        return p["w_points"]
    if step.experiment in ("cooling-coherent", "cooling-incoherent"):
        return p["rounds"]
    if step.experiment == "beta-swap-sweep":
        return p["d_max"]
    if step.experiment == "validate":
        return len(cli.validation.ALL_CHECKS)
    return 1


@dataclass
class PassOutput:
    wall_s: float
    step_s: dict  # step name -> seconds
    manifests: dict  # step name -> RunManifest
    errors: dict  # step name -> repr of the exception
    warnings: dict  # RuntimeWarning message -> count


def run_pass(cli, steps, outdir, warning_counter, after_step=None) -> PassOutput:
    """Run every step once through ``cli.run_experiment``; the pass's time is
    the sum of its steps' times.

    ``warning_counter`` is a context manager yielding a Counter of
    RuntimeWarnings.  A step that raises is recorded and the pass goes on,
    so one broken experiment is reported instead of ending the benchmark.
    ``after_step``, when given, is called untimed with each step's seconds.
    """
    configs = [(s.name, cli.ExperimentConfig.from_dict(
        {"schema_version": 1, "experiment": s.experiment, "params": s.params,
         "output_dir": str(outdir / s.name)})) for s in steps]
    step_s, manifests, errors = {}, {}, {}
    with warning_counter as counts:
        for name, cfg in configs:
            t1 = time.perf_counter()
            try:
                manifests[name] = cli.run_experiment(cfg)
            except Exception as exc:  # reported as a failed operation
                errors[name] = repr(exc)
            step_s[name] = time.perf_counter() - t1
            if after_step is not None:
                after_step(step_s[name])
    return PassOutput(sum(step_s.values()), step_s, manifests, errors, dict(counts))


