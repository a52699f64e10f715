"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

import contextlib
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import calibrate
import checks
import layers
import run
import tracer
import workloads

PACKAGE = run.load_package()


def _traced_pass(steps, outdir):
    with tracer.Tracer(PACKAGE) as tr:
        out = workloads.run_pass(PACKAGE.cli, steps, outdir,
                                 contextlib.nullcontext(Counter()))
    return tr, out


def _digests(outdir, out):
    return checks.check_pass(outdir, out.manifests, checks.Tally())


def _expected_thermalizations(step):
    """Sum of d^2 over the memory sweeps an experiment's config asks for."""
    p = PACKAGE.cli.ExperimentConfig.from_dict(
        {"experiment": step.experiment, "params": step.params}).params
    if step.experiment == "beta-swap-sweep":
        return sum(d * d for d in range(1, p["d_max"] + 1))
    if step.experiment in ("cooling-coherent", "cooling-incoherent"):
        return p["rounds"] * sum(d * d for d in p["d_list"])
    if step.experiment == "fig3":
        return 6 * 2 * 2  # A1, A2: one d=2 sweep each; B1, B2: two each
    assert step.experiment == "fig2"
    return 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_passes_write_identical_outputs(workload, tmp_path):
    steps = workloads.build(workload, 3)
    plain = workloads.run_pass(PACKAGE.cli, steps, tmp_path / "plain",
                               tracer.runtime_warnings())
    _tr, traced = _traced_pass(steps, tmp_path / "traced")
    assert not plain.errors and not traced.errors
    assert _digests(tmp_path / "plain", plain) == _digests(tmp_path / "traced", traced)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_kernel_thermalizations_equal_sum_of_d_squared(workload, tmp_path):
    # validate's sweeps are not derived from a config, so it is left out
    steps = [s for s in workloads.build(workload, 5) if s.experiment != "validate"]
    tr, out = _traced_pass(steps, tmp_path)
    assert not out.errors
    metrics = layers.layer_metrics(tr, 0)
    assert metrics["kernels.thermalizations"] == sum(map(_expected_thermalizations, steps))
    if workload == "fig2-dense":
        assert metrics["kernels.calls"] == 0


def test_tracing_restores_every_binding():
    cooling, cli = PACKAGE.cooling, PACKAGE.cli
    before = (cooling.memory_sweep, cli.simulate_memory_beta_swap,
              dict(cli._EMITTERS), PACKAGE.validation.ALL_CHECKS)
    with tracer.Tracer(PACKAGE):
        assert cooling.memory_sweep is not before[0]
        assert cli.simulate_memory_beta_swap is not before[1]
    after = (cooling.memory_sweep, cli.simulate_memory_beta_swap,
             dict(cli._EMITTERS), PACKAGE.validation.ALL_CHECKS)
    assert after == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert workloads.build(workload, 1) == workloads.build(workload, 1)
    assert workloads.build(workload, 1) != workloads.build(workload, 2)
    assert workloads.probes(workload, 1) == workloads.probes(workload, 1)


def test_probe_draws_gamma_from_the_whole_domain():
    gammas = {workloads.probes("sweep-scaled", seed)[0].params["gamma"]
              for seed in range(200)}
    assert gammas == {k / 32 for k in range(17, 32)}


def test_a_step_that_raises_counts_its_rows_as_failed(tmp_path):
    # gamma = 31/32 makes the d=64 memory run raise after 10 rounds
    step = workloads.Step("coherent", "cooling-coherent",
                          {"gamma": 31 / 32, "rounds": 50, "d_list": [1, 64]})
    out = workloads.run_pass(PACKAGE.cli, [step], tmp_path, tracer.runtime_warnings())
    assert "ValueError" in out.errors["coherent"]
    tally = checks.Tally()
    run._check_outputs(PACKAGE, [step], out, tmp_path, {}, tally)
    assert (tally.attempted, tally.failed) == (50, 50)


def _metric_names(line):
    return set(json.loads(line)["metrics"])


@pytest.mark.parametrize("trace", [0, 1])
def test_seed_does_not_change_metric_names(trace, monkeypatch):
    monkeypatch.setattr(run, "SETUP_STARTS", 1)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    names = set()
    for seed in (1, 2):
        result = run.run_benchmark(PACKAGE, "fig2-dense", seed, 0, trace)
        line = run.summary_line(result)
        names.add(frozenset(_metric_names(line)))
        assert set(json.loads(line)) == {"correct", "attempted", "failed", "metrics"}
    assert names == {frozenset(m["name"] for m in declared[key])}


def test_failure_counts_do_not_depend_on_the_number_of_passes(monkeypatch):
    monkeypatch.setattr(run, "SETUP_STARTS", 1)
    one = run.run_benchmark(PACKAGE, "fig2-dense", 6, 0, 0)
    more = run.run_benchmark(PACKAGE, "fig2-dense", 6, 4, 0)
    assert len(one["samples"]["pass_s"]) == 1 < len(more["samples"]["pass_s"])
    assert (one["attempted"], one["failed"]) == (more["attempted"], more["failed"])
    assert one["failed"] > 0


def test_reference_speed_divides_by_the_mean_calibration():
    calibration = calibrate.Calibration()
    calibration.measure(0.0)
    calibration.measure(0.0)
    assert calibration.runs == 2
    assert calibration.at_reference_speed(calibration.mean_s()) == pytest.approx(
        calibrate.REFERENCE_S)


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig2-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
