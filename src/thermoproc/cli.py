"""Reproducible experiment runner.

Subcommands:

  thermoproc run <config.json>             run one experiment from a config file
  thermoproc fig <experiment> [...]        run one of fig2, fig3, cooling-coherent,
                                           cooling-incoherent, beta-swap-sweep
  thermoproc validate [--only M] [--out DIR]  run the validation checks

Configs are JSON with a versioned schema; all physical inputs are
dimensionless products (beta*E, beta*W, ...).  ``PARAMS`` declares every
experiment's fields once; config validation and the CLI flags both read it.
``fig <experiment>`` and ``validate`` take one flag per field of their
experiment (``--beta-E`` for ``beta_E``, ``--d-list 1,2,4`` for ``d_list``)
plus ``--out DIR``, and a flag left out takes the config default.  Every
command builds one config and runs it through ``run_experiment``, which
writes the experiment's files and ``run_manifest.json``.  Runs are fully
deterministic: identical configs produce byte-identical data files (the
manifest echoes per-file SHA-256 digests; only its wall-clock field varies
between runs).  Every CSV, fig3's included, goes through one writer: floats
carry 17 significant digits so they round-trip exactly; a NaN or infinite
value raises OutputError instead of being written.

Exit codes: 0 success, 2 config error, 3 validation failure or a NaN or
infinite value refused by the CSV writer, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, cooling, reachable, validation, workx
from .memory import _p_d, simulate_memory_beta_swap
from .combinatorics import DELTA_GAMMA_MARGIN, catalan_tail_bound, delta_d_column

SCHEMA_VERSION = 1
DEFAULT_OUTPUT_DIR = "thermoproc-out"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class OutputError(ValueError):
    """A value the CSV writer refuses to write: NaN or infinite."""


@dataclass(frozen=True)
class Param:
    """One config field: type, default, accepted range and the message shown
    when a value falls outside it.

    ``kind`` is float (ints are accepted and converted), int, str, or list
    for a list of integers, spelled ``1,2,5`` on the command line.  A field
    whose default is None may be left unset.  Its CLI flag is ``--name``
    with dashes for underscores.
    """

    name: str
    kind: type
    default: object
    check: Callable
    message: str
    help: str | None = None

    @property
    def option(self) -> str:
        return "--" + self.name.replace("_", "-")

    def parse(self, params: dict):
        """The validated value of this field in ``params``, or its default."""
        value = params.get(self.name, self.default)
        if value is None and self.default is None:
            return None
        path = f"params.{self.name}"
        if self.kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if isinstance(value, bool) or not isinstance(value, self.kind):
            raise ConfigError(path, f"expected {self.kind.__name__}")
        if not self.check(value):
            raise ConfigError(path, self.message)
        return list(value) if self.kind is list else value


def _int_list(text: str) -> list:
    """CLI spelling of an integer-list field: ``1,2,5`` -> [1, 2, 5]."""
    return [int(v) for v in text.split(",")]


def _positive(name, default):
    return Param(name, float, default, lambda v: v > 0, "must be > 0")


def _at_least_one(name, default):
    return Param(name, int, default, lambda v: v >= 1, "must be >= 1")


def _d_list(default):
    # a repeated d would write its columns twice
    return Param("d_list", list, default,
                 lambda v: bool(v) and all(isinstance(x, int) and not isinstance(x, bool)
                                           and x >= 1 for x in v)
                 and len(set(v)) == len(v),
                 "expected a non-empty list of distinct integers >= 1")


_GAMMA = Param("gamma", float, 0.75, lambda v: 0.5 < v < 1.0, "must lie in (1/2, 1)")
# the experiments that evaluate delta_d take gamma only from its domain
_DELTA_GAMMA = Param("gamma", float, 0.75,
                     lambda v: 0.5 + DELTA_GAMMA_MARGIN < v < 1.0,
                     f"must lie in (1/2 + {DELTA_GAMMA_MARGIN:g}, 1)")
_COOLING_D_LIST = _d_list([1, 2, 4, 8])

PARAMS = {
    "fig2": (
        _positive("beta_E", math.log(2.0)),
        _positive("w_min", 0.05),
        _positive("w_max", 3.0),
        Param("w_points", int, 200, lambda v: v >= 2, "need at least 2 grid points"),
        _d_list([1, 2, 5, 20]),
    ),
    "fig3": (_GAMMA, _at_least_one("depth", 8)),
    "cooling-coherent": (_DELTA_GAMMA, _at_least_one("rounds", 20), _COOLING_D_LIST),
    "cooling-incoherent": (
        _positive("beta", 1.0),
        _positive("E", 1.0),
        _positive("script_E", 2.0),
        Param("beta_hot", float, 0.2, lambda v: v >= 0, "must be >= 0"),
        _at_least_one("rounds", 50),
        _COOLING_D_LIST,
    ),
    "beta-swap-sweep": (
        _DELTA_GAMMA,
        Param("p0", float, 0.0, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
        _at_least_one("d_max", 30),
    ),
    "validate": (
        Param("only", str, None, lambda v: v in validation.MODULES,
              f"must be one of {validation.MODULES}",
              help="restrict to one module's checks: " + ", ".join(validation.MODULES)),
    ),
}

EXPERIMENTS = tuple(PARAMS)

CONFIG_FIELDS = ("schema_version", "experiment", "params", "output_dir")


def _reject_unknown(given: dict, known, prefix: str, owner: str) -> None:
    """Raise ConfigError on the first key of ``given`` not in ``known``, so a
    misspelled field is an error rather than a silently applied default."""
    for key in given:
        if key not in known:
            raise ConfigError(f"{prefix}{key}", f"not a field of {owner}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated experiment request."""

    experiment: str
    params: dict
    output_dir: Path

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        _reject_unknown(raw, CONFIG_FIELDS, "", "the config")
        version = raw.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError("schema_version", f"unsupported version {version}")
        experiment = raw.get("experiment")
        if experiment not in EXPERIMENTS:
            raise ConfigError("experiment", f"must be one of {EXPERIMENTS}")
        params_in = raw.get("params", {})
        if not isinstance(params_in, dict):
            raise ConfigError("params", "expected a JSON object")
        _reject_unknown(params_in, [p.name for p in PARAMS[experiment]],
                        "params.", experiment)
        params = {p.name: p.parse(params_in) for p in PARAMS[experiment]}
        if experiment == "cooling-incoherent":
            if not params["script_E"] > params["E"]:
                raise ConfigError("params.script_E", "must exceed E")
            if not params["beta_hot"] < params["beta"]:
                raise ConfigError("params.beta_hot", "must be below beta")
            # the MMTP rate evaluates delta_d at gamma_big
            gamma_big = cooling.IncoherentSetting(
                params["E"], params["script_E"], params["beta"], params["beta_hot"]).gamma_big
            if not 0.5 + DELTA_GAMMA_MARGIN < gamma_big < 1.0:
                raise ConfigError(
                    "params.script_E", "gamma_big = 1/(1 + e^(-beta script_E)) must lie "
                    f"in (1/2 + {DELTA_GAMMA_MARGIN:g}, 1)")
        outdir = raw.get("output_dir", DEFAULT_OUTPUT_DIR)
        if not isinstance(outdir, str) or not outdir:
            raise ConfigError("output_dir", "expected a non-empty string")
        return cls(experiment=experiment, params=params, output_dir=Path(outdir))

    def echo(self) -> dict:
        params = {k: v for k, v in sorted(self.params.items())}
        return {"schema_version": SCHEMA_VERSION, "experiment": self.experiment,
                "params": params, "output_dir": str(self.output_dir)}


@dataclass
class RunManifest:
    """What a run produced: config echo, file digests, timing.  A
    ``validate`` run also carries its check results in ``checks``, which
    ``to_dict`` leaves out: the report holds them, without their times."""

    experiment: str
    config: dict
    artifact_version: str
    files: list = field(default_factory=list)
    wall_clock_s: float = 0.0
    checks: list | None = None

    @property
    def validation_passed(self) -> bool | None:
        """Whether every check passed; None for a run that is not ``validate``."""
        return None if self.checks is None else all(r.passed for r in self.checks)

    def to_dict(self):
        out = {
            "experiment": self.experiment,
            "config": self.config,
            "artifact_version": self.artifact_version,
            "files": self.files,
            "wall_clock_s": self.wall_clock_s,
        }
        if self.checks is not None:
            out["validation_passed"] = self.validation_passed
        return out


def _spec(kind: type) -> str:
    """The %-conversion that prints a value of type ``kind``: floats with 17
    significant digits, anything else as ``str`` prints it."""
    return "%.17g" if issubclass(kind, (float, np.floating)) else "%s"


def _fmt(value) -> str:
    return _spec(type(value)) % (value,)


def _write_csv(path: Path, header_meta: dict, columns, rows, title=None):
    """Write rows of numbers and labels under a commented header titled
    ``title`` (the file's stem if None); a NaN or infinite number raises
    OutputError naming its row and column, and nothing is written."""
    lines = [f"# thermoproc {title or path.stem} v{SCHEMA_VERSION}"]
    for key in sorted(header_meta):
        lines.append(f"# {key}={_fmt(header_meta[key])}")
    lines.append(",".join(columns))
    formats = {}  # per sequence of value types: row template, which cells are numbers
    for i, row in enumerate(rows, 1):
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = (",".join(map(_spec, kinds)),
                                    [not issubclass(k, str) for k in kinds])
        template, numbers = fmt
        if not all(map(math.isfinite, compress(row, numbers))):
            column = next(c for c, v in compress(zip(columns, row), numbers)
                          if not math.isfinite(v))
            raise OutputError(f"{path}: non-finite value in data row {i}, column {column}")
        lines.append(template % tuple(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _fig2_rows(p):
    """Per work gap W: W, the TP/ETP/MTP errors and the memory error at each
    d, which comes from one array call over the whole W grid per d.  The
    setups are freed on return, before the CSV text is built."""
    ws = np.linspace(p["w_min"], p["w_max"], p["w_points"])
    setups = [workx.ExtractionSetup(p["beta_E"], float(bw), 1.0) for bw in ws]
    eps_d = zip(*(e.tolist() for e in workx.epsilon_d_grid(setups, p["d_list"])))
    return [[bw, workx.epsilon_tp(st), workx.epsilon_etp(st), workx.epsilon_mtp(st), *eds]
            for bw, st, eds in zip(ws, setups, eps_d)]


def _emit_fig2(cfg: ExperimentConfig, outdir: Path):
    p = cfg.params
    columns = ["W", "eps_tp", "eps_etp", "eps_mtp"] + [f"eps_d{d}" for d in p["d_list"]]
    path = _write_csv(outdir / "fig2.csv", cfg.echo()["params"], columns, _fig2_rows(p))
    return [path]


def _emit_fig3(cfg: ExperimentConfig, outdir: Path):
    p = cfg.params
    gamma, depth = p["gamma"], p["depth"]
    regions = [reachable.tp_region(gamma), reachable.etp_orbit_hull(gamma, depth),
               reachable.mtp_mixing_path(gamma), *reachable.mmtp2_point_regions(gamma)]
    rows = [[r.tag, r.kind, i, *probs, *xy] for r in regions
            for i, (probs, xy) in enumerate(zip(r.vertices.tolist(), r.xy().tolist()))]
    columns = ["region", "kind", "index", "p_g", "p_e1", "p_e2", "x", "y"]
    path = _write_csv(outdir / "fig3_regions.csv", cfg.echo()["params"], columns, rows,
                      "qutrit regions")
    return [path]


def _emit_cooling(cfg: ExperimentConfig, outdir: Path):
    """Both cooling paradigms: per round, each class's simulated ground
    population next to its closed form."""
    p = cfg.params
    meta = cfg.echo()["params"]
    if cfg.experiment == "cooling-coherent":
        simulate, closed_form = cooling.cool_coherent, cooling.coherent_closed_form
        kw = {"gamma": p["gamma"]}
    else:
        simulate, closed_form = cooling.cool_incoherent, cooling.incoherent_closed_form
        kw = {k: p[k] for k in ("E", "script_E", "beta", "beta_hot")}
        meta["p_star"] = cooling.p_star_incoherent(**kw)
    columns = ["round"]
    rows = [[n] for n in range(1, p["rounds"] + 1)]
    classes = [("tp", "TP", None), ("mtp", "MTP", None)]
    classes += [(f"mmtp_d{d}", "MMTP", d) for d in p["d_list"]]
    for label, process, d in classes:
        columns += [f"p_{label}", f"p_{label}_closed"]
        sim = simulate(process, p["rounds"], d=d, **kw).populations
        closed = closed_form(process, p["rounds"], d=d, **kw)
        for row, *values in zip(rows, sim, closed):
            row += values
    path = _write_csv(outdir / f"{cfg.experiment.replace('-', '_')}.csv", meta,
                      columns, rows)
    return [path]


def _emit_beta_swap_sweep(cfg: ExperimentConfig, outdir: Path):
    p = cfg.params
    gamma, p0 = p["gamma"], p["p0"]
    rows = []
    ds = range(1, p["d_max"] + 1)
    for d, sim, delta in zip(ds, simulate_memory_beta_swap(ds, p0, gamma).tolist(),
                             delta_d_column(p["d_max"], gamma)):
        closed = _p_d(p0, gamma, delta)
        rows.append([d, sim, closed, abs(sim - closed), delta,
                     catalan_tail_bound(d, gamma)])
    columns = ["d", "p_sim", "p_closed", "abs_dev", "delta_d", "tail_bound"]
    path = _write_csv(outdir / "beta_swap_sweep.csv", cfg.echo()["params"],
                      columns, rows)
    return [path]


def _emit_validate(cfg: ExperimentConfig, outdir: Path):
    """Run the checks ``cfg`` selects and write their JSON report; returns
    the report's path and the checks' results."""
    results = validation.run_checks(only=cfg.params["only"])
    path = outdir / "validation_report.json"
    path.write_text(json.dumps(validation.summarize(results), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return [path], results


_EMITTERS = {
    "fig2": _emit_fig2,
    "fig3": _emit_fig3,
    "cooling-coherent": _emit_cooling,
    "cooling-incoherent": _emit_cooling,
    "beta-swap-sweep": _emit_beta_swap_sweep,
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Dispatch one experiment and write its outputs plus the manifest."""
    t0 = time.monotonic()
    outdir = cfg.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    checks = None
    if cfg.experiment == "validate":
        paths, checks = _emit_validate(cfg, outdir)
    else:
        paths = _EMITTERS[cfg.experiment](cfg, outdir)
    manifest = RunManifest(
        experiment=cfg.experiment,
        config=cfg.echo(),
        artifact_version=__version__,
        files=[{"name": p.name, "sha256": _sha256(p), "bytes": p.stat().st_size}
               for p in paths],
        wall_clock_s=round(time.monotonic() - t0, 6),
        checks=checks,
    )
    (outdir / "run_manifest.json").write_text(
        json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return manifest


def _raw_config(args) -> dict:
    """The config a command asks for: the file ``run`` names, or the
    experiment's flags (the fields left out take their defaults) and ``--out``."""
    if args.command == "run":
        try:
            return json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(args.config, f"cannot read: {exc.strerror or exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(args.config, f"invalid JSON: {exc}") from exc
    params = {p.name: getattr(args, p.name) for p in PARAMS[args.experiment]
              if hasattr(args, p.name)}
    return {"experiment": args.experiment, "params": params, "output_dir": args.out}


def _report(manifest: RunManifest) -> int:
    """Print each check's line if the run validated, then the files it wrote;
    returns the exit code."""
    if manifest.checks is not None:
        results = manifest.checks
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.name:<{width}}  dev={r.deviation:.3e}  "
                  f"tol={r.tolerance:.3e}  t={r.seconds * 1e3:.1f}ms  ({r.module}) {r.detail}")
        print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    outdir = Path(manifest.config["output_dir"])
    for entry in manifest.files:
        print(f"wrote {outdir / entry['name']} ({entry['bytes']} bytes)")
    return EXIT_VALIDATION if manifest.validation_passed is False else EXIT_OK


_FLAG_TYPES = {float: float, int: int, str: str, list: _int_list}


def _add_experiment(parser, experiment: str) -> None:
    """One flag per config field of ``experiment``, plus ``--out``; an
    omitted field flag leaves the field unset, so the config default applies."""
    parser.set_defaults(experiment=experiment)
    for p in PARAMS[experiment]:
        parser.add_argument(p.option, dest=p.name, type=_FLAG_TYPES[p.kind],
                            default=argparse.SUPPRESS, help=p.help)
    parser.add_argument("--out", default=DEFAULT_OUTPUT_DIR, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoproc",
        description="Thermal-process simulations with finite memories: "
                    "figure data, sweeps, and validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the config file")

    _add_experiment(sub.add_parser("validate", help="run the validation checks"), "validate")

    p_fig = sub.add_parser("fig", help="run one experiment with a flag per config field")
    fig_sub = p_fig.add_subparsers(dest="experiment", required=True)
    for experiment in _EMITTERS:
        _add_experiment(fig_sub.add_parser(experiment), experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        manifest = run_experiment(ExperimentConfig.from_dict(_raw_config(args)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return _report(manifest)


if __name__ == "__main__":
    sys.exit(main())
