"""Output checks that count failures instead of stopping at the first one.

One operation is one output row, one validation check or one digest
comparison.  A row fails when any check on it fails; every check is also
counted on its own, so known defects stay visible by name:

  - ``finite``: every number in the row is finite;
  - ``range``: populations and errors lie in [0, 1];
  - ``sim-vs-closed``: each simulated column matches its ``_closed`` column
    within ``SIM_TOL``, the tolerance ``validation`` uses;
  - ``delta_d-positive`` / ``delta_d-decreasing``: the Catalan tail is
    positive and strictly decreasing in d, as its docstring promises;
  - ``error-ordering``: eps_tp <= eps_d <= eps_mtp for every memory size;
  - ``validation-check``: a ``validate`` check that did not pass;
  - ``step-completed``: one per operation a step that raised should have
    made (see ``run.py``);
  - ``seed-digest``: a default-config output whose SHA-256 differs from the
    digest recorded at the seed commit (``seed_digests.json``).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter

SIM_TOL = 1.0e-10
ORDER_TOL = 1.0e-12


class Tally:
    """Operations attempted and failed, overall and per check name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = Counter()  # check name -> attempts
        self.check_failures = Counter()  # check name -> failures

    def op(self, results):
        """Count one operation from ``{check name: passed}``."""
        self.attempted += 1
        self.failed += not all(results.values())
        for name, ok in results.items():
            self.checks[name] += 1
            self.check_failures[name] += not ok

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.checks.update(other.checks)
        self.check_failures.update(other.check_failures)

    def table(self):
        return {name: {"attempted": n, "failed": self.check_failures[name]}
                for name, n in sorted(self.checks.items())}


def read_csv(path):
    """Header names and rows of a thermoproc CSV (comment lines skipped)."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _in_unit(v):
    return 0.0 <= v <= 1.0


def check_rows(path, tally):
    """Row checks for one CSV the experiments write."""
    header, raw = read_csv(path)
    if path.name == "fig3_regions.csv":
        header, raw = header[3:], [r[3:] for r in raw]  # drop tag, kind, index
    col = {name: i for i, name in enumerate(header)}
    pairs = [(name, name + "_closed") for name in col if name + "_closed" in col]
    if "p_sim" in col:
        pairs.append(("p_sim", "p_closed"))
    previous_delta = math.inf
    for fields in raw:
        row = [float(v) for v in fields]
        res = {"finite": all(math.isfinite(v) for v in row)}
        if path.name == "fig2.csv":
            eps = [row[i] for name, i in col.items() if name.startswith("eps_")]
            res["range"] = all(_in_unit(v) for v in eps)
            tp, mtp = row[col["eps_tp"]], row[col["eps_mtp"]]
            res["error-ordering"] = all(
                tp - ORDER_TOL <= row[i] <= mtp + ORDER_TOL
                for name, i in col.items() if name.startswith("eps_d"))
        elif path.name == "fig3_regions.csv":
            res["range"] = all(_in_unit(row[col[k]]) for k in ("p_g", "p_e1", "p_e2"))
        else:  # cooling_*.csv and beta_swap_sweep.csv
            pops = [row[i] for name, i in col.items() if name.startswith("p_")]
            res["range"] = all(_in_unit(v) for v in pops)
            res["sim-vs-closed"] = all(abs(row[col[a]] - row[col[b]]) <= SIM_TOL
                                       for a, b in pairs)
            if "delta_d" in col:
                delta = row[col["delta_d"]]
                res["delta_d-positive"] = delta > 0.0
                res["delta_d-decreasing"] = delta < previous_delta
                previous_delta = delta
        tally.op(res)


def check_validation_report(path, tally):
    for check in json.loads(path.read_text(encoding="utf-8"))["checks"]:
        tally.op({"validation-check": check["passed"]})


def check_pass(outdir, manifests, tally):
    """Check every file the pass wrote; returns ``{file name: sha256}``."""
    digests = {}
    for step, manifest in sorted(manifests.items()):
        for entry in manifest.files:
            path = outdir / step / entry["name"]
            digests[entry["name"]] = hashlib.sha256(path.read_bytes()).hexdigest()
            if path.suffix == ".csv":
                check_rows(path, tally)
            else:
                check_validation_report(path, tally)
    return digests


def check_seed_digests(digests, recorded, tally):
    for name, sha in sorted(recorded.items()):
        tally.op({"seed-digest": digests.get(name) == sha})
