#!/usr/bin/env python3
"""thermoproc benchmark: time to a verified result, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep-scaled --seed 1 --seconds 30 --trace 0

``--trace 0`` times untraced passes and reports the end-to-end metrics,
scaled to a reference host speed measured between the timed steps (see
``calibrate.py``); ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics and the tracing overhead.  Every pass's
outputs are checked (see ``checks.py``); failed checks are counted, not
fatal.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with provenance and per-check counts, goes to ``perfbench/_out/``.

The package is imported from ``src/`` of the checkout and nowhere else;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import calibrate
import checks
import layers
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "_out"
SEED_DIGESTS = Path(__file__).resolve().parent / "seed_digests.json"
SETUP_STARTS = 11
# after each timed interpreter start or step, calibrate for this share of its time
CALIBRATION_SHARE = 0.25
KERNEL_CHECK_DIMS = (50, 100, 200, 400)

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
              "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no package source, bad arguments)."""


def load_package():
    """Import thermoproc from ``src/`` of the checkout; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "thermoproc" / "__init__.py").is_file():
        raise SetupError(f"no package source at {src / 'thermoproc'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("thermoproc")
    importlib.import_module("thermoproc.cli")
    if src.resolve() not in Path(package.__file__).resolve().parents:
        raise SetupError(f"thermoproc imported from {package.__file__}, not {src}")
    return package


def measure_setup(starts, calibration):
    """Seconds of ``starts`` fresh interpreters that import ``thermoproc.cli``.

    ``calibration`` runs after each start, for ``CALIBRATION_SHARE`` of its time.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("THERMOPROC_THREADS", None)
    samples = []
    for _ in range(starts):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls the child in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import thermoproc.cli"], cwd=ROOT,
                       env=env, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
        calibration.measure(CALIBRATION_SHARE * samples[-1])
    return samples


def _git_commit():
    if not (ROOT / ".git").exists():  # else git would report an enclosing repository
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(package, threads_env):
    """How the result was made, read from outside the package."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thermoproc": package.__version__,
        "backend": package.backend_name(),
        "THERMOPROC_THREADS": ("unset" if threads_env is None
                               else f"unset for the passes (was {threads_env!r})"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


def kernel_bitwise_check(package, seed, tally):
    """The compiled sweep (when present) equals ``_memory_sweep_py`` bit for bit."""
    import numpy as np

    kernels = package._kernels
    rng = random.Random(f"kernel:{seed}")
    ok = True
    for d in KERNEL_CHECK_DIMS:
        p0, gamma = rng.randint(0, 16) / 16, rng.randint(17, 31) / 32
        vec = np.empty(2 * d)
        vec[:d] = p0 / d
        vec[d:] = (1.0 - p0) / d
        a, b = vec.copy(), vec.copy()
        kernels.memory_sweep(a, d, gamma, 0, d)
        kernels._memory_sweep_py(b, d, gamma, 0, d)
        same = bool(np.array_equal(a, b))
        tally.op({"kernel-bitwise": same})
        ok &= same
    return ok


def _bytes_written(manifests):
    return sum(e["bytes"] for m in manifests.values() for e in m.files)


def _one_pass(package, steps, work, traced, calibration=None):
    """Run one pass; returns (PassOutput, Tracer or None).

    ``calibration``, when given, runs after each step of an untraced pass,
    for ``CALIBRATION_SHARE`` of the step's time.
    """
    if not traced:
        after_step = None if calibration is None else (
            lambda seconds: calibration.measure(CALIBRATION_SHARE * seconds))
        return workloads.run_pass(package.cli, steps, work, tracer.runtime_warnings(),
                                  after_step), None
    tr = tracer.Tracer(package)
    with tr:  # the tracer counts the warnings itself, by innermost span
        out = workloads.run_pass(package.cli, steps, work, contextlib.nullcontext(Counter()))
    return out, tr


def _check_outputs(package, steps, out, work, recorded, tally):
    """Count the pass's output checks into ``tally``; returns the output digests.

    A step that raised counts the operations it should have made as failed.
    """
    for step in steps:
        if step.name in out.errors:
            for _ in range(workloads.stated_ops(package.cli, step)):
                tally.op({"step-completed": False})
    digests = checks.check_pass(work, out.manifests, tally)
    if recorded:
        checks.check_seed_digests(digests, recorded, tally)
    return digests


def run_benchmark(package, workload, seed, seconds, trace):
    """Measure one workload; returns the full result as a dict.

    Rounds run until the next one would end after ``seconds`` (at least
    one round).  A round is one untraced pass, plus one traced pass when
    ``trace`` is set.  The interpreter starts behind ``setup_s`` are spread
    evenly over the run, so that they span the run rather than one moment
    of the machine.  The calibration (``calibrate.py``) runs after
    every start and every step of an untraced pass, for
    ``CALIBRATION_SHARE`` of its time; ``setup_s`` and ``wall_s`` are the
    mean start and untraced pass at reference speed.  The unscaled times
    are in ``samples`` and ``unscaled_means``.

    ``attempted`` and ``failed`` count the kernel bitwise check, the domain
    probe and the first pass, so they depend on the seed alone and not on
    how many passes fit in ``seconds``.  ``correct`` is false when a later
    pass writes other bytes than the first pass or when the kernel bitwise
    check fails.  Failed output checks, steps that raise and default-config
    outputs that differ from the recorded digests are counted in
    ``failed``, not in ``correct``.
    """
    steps = workloads.build(workload, seed)
    probe_steps = workloads.probes(workload, seed)
    threads_env = os.environ.pop("THERMOPROC_THREADS", None)
    work = OUT / "work" / workload
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    saved_tempdir, tempfile.tempdir = tempfile.tempdir, str(OUT / "tmp")
    recorded = json.loads(SEED_DIGESTS.read_text()) if workload == "default-suite" else {}
    try:
        tally = checks.Tally()
        problems = []
        if workload == "sweep-scaled" and not kernel_bitwise_check(package, seed, tally):
            problems.append("memory_sweep differs from _memory_sweep_py")
        errors = {}
        if probe_steps:
            out, _ = _one_pass(package, probe_steps, work / "probe", False)
            _check_outputs(package, probe_steps, out, work / "probe", {}, tally)
            errors.update(out.errors)
        plain, traced_walls, per_layer, setup = [], [], [], []
        first_digests = ops_per_pass = last_tracer = None
        pass_cal, setup_cal = calibrate.Calibration(), calibrate.Calibration()
        calibrate.work()  # warm-up
        t_start = time.perf_counter()
        rounds = 0
        while True:
            share = (time.perf_counter() - t_start) / seconds if seconds > 0 else 0.0
            setup += measure_setup(min(SETUP_STARTS - 1, int(SETUP_STARTS * share) + 1)
                                   - len(setup), setup_cal)
            for traced in ((False, True) if trace else (False,)):
                out, tr = _one_pass(package, steps, work, traced, pass_cal)
                pass_tally = checks.Tally()
                digests = _check_outputs(package, steps, out, work, recorded, pass_tally)
                errors.update(out.errors)
                if first_digests is None:
                    first_digests, ops_per_pass = digests, pass_tally.attempted
                    tally.merge(pass_tally)
                elif digests != first_digests:
                    problems.append(f"a{' traced' if traced else 'n untraced'} pass wrote "
                                    "other bytes than the first pass")
                if not traced:
                    plain.append(out)
                else:
                    traced_walls.append(out.wall_s)
                    per_layer.append(layers.layer_metrics(tr, _bytes_written(out.manifests)))
                    last_tracer = tr
            rounds += 1
            if (time.perf_counter() - t_start) * (rounds + 1) / rounds > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += measure_setup(SETUP_STARTS - len(setup), setup_cal)
    finally:
        tempfile.tempdir = saved_tempdir
        if threads_env is not None:
            os.environ["THERMOPROC_THREADS"] = threads_env

    walls = [p.wall_s for p in plain]
    wall = pass_cal.at_reference_speed(statistics.mean(walls))
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "why": workloads.WHY[workload],
        "provenance": provenance(package, threads_env),
        "inputs": [{"step": s.name, "experiment": s.experiment, "params": s.params,
                    "timed": s in steps} for s in steps + probe_steps],
        "correct": not problems, "problems": sorted(set(problems)),
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "checks": tally.table(),
        "step_errors": errors,
        "runtime_warnings_per_pass": dict(sorted(plain[0].warnings.items())),
        "samples": {"setup_s": setup, "pass_s": walls,
                    "step_s": [p.step_s for p in plain]},
        "calibration": {"reference_s": calibrate.REFERENCE_S,
                        "pass_mean_s": pass_cal.mean_s(), "pass_runs": pass_cal.runs,
                        "setup_mean_s": setup_cal.mean_s(), "setup_runs": setup_cal.runs},
        "unscaled_means": {"setup_s": statistics.mean(setup),
                           "wall_s": statistics.mean(walls)},
        "end_to_end": {
            "setup_s": setup_cal.at_reference_speed(statistics.mean(setup)),
            "wall_s": wall,
            "items_per_s": ops_per_pass / wall,
            "peak_rss_mb": peak_rss_mb,
        },
        "ops_per_pass": ops_per_pass,
        "digests": first_digests,
    }
    if trace:
        tr = last_tracer
        raw_wall = statistics.median(walls)
        metrics = {name: statistics.median(p[name] for p in per_layer) for name in per_layer[0]}
        traced_wall = statistics.median(traced_walls)
        metrics["checks.failed_frac"] = result["failed_frac"]
        metrics["trace.spans"] = len(tr.spans)
        metrics["trace.overhead_s"] = traced_wall - raw_wall
        metrics["trace.overhead_frac"] = (traced_wall - raw_wall) / raw_wall
        result["samples"]["traced_pass_s"] = traced_walls
        result["per_layer"] = {name: metrics[name] for name, _unit in layers.PER_LAYER}
        result["functions"] = {
            f"{layers.layer_name(layer)}.{fn}": {"calls": c, "self_s": s, "incl_s": i}
            for (layer, fn), (c, s, i) in sorted(tr.by_function().items())}
        result["runtime_warnings_by_span"] = dict(sorted(tr.warning_table().items()))
        result["spans"] = tr.export()
    return result


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result):
    """Human-readable summary; the caller prints the JSON line after it."""
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    spans = result.pop("spans", None)
    if spans is not None:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(spans) + "\n")
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {result['workload']} (seed {result['seed']}, "
          f"trace {result['trace']}): {result['why']}")
    print("provenance " + json.dumps(result["provenance"]))
    for step in result["inputs"]:
        timed = "" if step["timed"] else " (untimed domain probe, run once)"
        print(f"input {step['step']}{timed}: {json.dumps(step['params'])}")
    print(f"output checks (first pass, probe and kernel check): {result['failed']} of "
          f"{result['attempted']} operations failed ({result['ops_per_pass']} per pass)")
    for name, row in result["checks"].items():
        print(f"  {name:<20} {row['failed']:>7} failed of {row['attempted']}")
    for step, error in result["step_errors"].items():
        print(f"  step {step} raised {error}")
    for problem in result["problems"]:
        print(f"  NOT CORRECT: {problem}")
    for where, n in result["runtime_warnings_per_pass"].items():
        print(f"  RuntimeWarning x{n} per pass: {where}")
    for where, n in result.get("runtime_warnings_by_span", {}).items():
        print(f"  RuntimeWarning x{n} in traced pass, innermost span {where}")
    s = result["samples"]
    e2e = result["end_to_end"]
    raw, cal = result["unscaled_means"], result["calibration"]
    print(f"end-to-end metrics (times at the reference speed, where the calibration "
          f"takes {_fmt(cal['reference_s'])} s; it took {_fmt(cal['pass_mean_s'])} s "
          f"between steps here):")
    print(f"  setup_s      {_fmt(e2e['setup_s'])} s  (mean of {len(s['setup_s'])} "
          f"interpreter starts; {_fmt(raw['setup_s'])} s unscaled)")
    print(f"  wall_s       {_fmt(e2e['wall_s'])} s  (mean of {len(s['pass_s'])} untraced "
          f"passes; {_fmt(raw['wall_s'])} s unscaled, fastest {_fmt(min(s['pass_s']))} s, "
          f"slowest {_fmt(max(s['pass_s']))} s)")
    print(f"  items_per_s  {_fmt(e2e['items_per_s'])} 1/s")
    print(f"  failed_frac  {_fmt(result['failed_frac'])}  (not gated: known defects)")
    print(f"  peak_rss_mb  {_fmt(e2e['peak_rss_mb'])} MB")
    if result["trace"]:
        print(f"per-layer metrics (medians of {len(s['traced_pass_s'])} traced passes):")
        for name, unit in layers.PER_LAYER:
            print(f"  {name:<48} {_fmt(result['per_layer'][name])} {unit}")
    print(f"full result: {OUT / f'result-{tag}.json'}")


def summary_line(result):
    if result["trace"]:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        package = load_package()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2
    result = run_benchmark(package, args.workload, args.seed, args.seconds, args.trace)
    report(result)
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
