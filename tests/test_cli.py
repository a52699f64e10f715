"""Config validation, experiment runs, determinism, and exit codes."""

import argparse
import functools
import hashlib
import inspect
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from thermoproc import cli, reachable, validation
from thermoproc.combinatorics import DELTA_GAMMA_MARGIN, MAX_FLOAT_D, delta_d
from thermoproc.memory import _p_d
from thermoproc.workx import (ExtractionSetup, epsilon_d_grid, epsilon_etp,
                              epsilon_mtp, epsilon_tp)

from reference import (I_d_fraction, delta_d_column_fraction, exact_coherent, exact_incoherent,
                       exact_protocol)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_fig(out, experiment, *flags):
    """``thermoproc fig <experiment> <flags> --out <out>``, which must succeed."""
    assert cli.main(["fig", experiment, *flags, "--out", str(out)]) == 0


def read_rows(path):
    columns, rows = None, []
    for line in open(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if columns is None:
            columns = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return columns, np.array(rows)


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(cli.ConfigError, match="experiment"):
            cli.ExperimentConfig.from_dict({"experiment": "fig9"})

    def test_field_path_in_message(self):
        with pytest.raises(cli.ConfigError, match="params.w_points"):
            cli.ExperimentConfig.from_dict({
                "experiment": "fig2", "params": {"w_points": 1}})

    def test_type_errors(self):
        with pytest.raises(cli.ConfigError, match="params.d_list"):
            cli.ExperimentConfig.from_dict({
                "experiment": "fig2", "params": {"d_list": [0]}})
        with pytest.raises(cli.ConfigError, match="params.gamma"):
            cli.ExperimentConfig.from_dict({
                "experiment": "fig3", "params": {"gamma": 1.2}})

    def test_cross_field_constraints(self):
        with pytest.raises(cli.ConfigError, match="script_E"):
            cli.ExperimentConfig.from_dict({
                "experiment": "cooling-incoherent",
                "params": {"E": 2.0, "script_E": 1.0}})

    def test_schema_version_gate(self):
        with pytest.raises(cli.ConfigError, match="schema_version"):
            cli.ExperimentConfig.from_dict({"schema_version": 99,
                                            "experiment": "fig2"})

    @pytest.mark.parametrize("raw, field", [
        ({"experiment": "fig2", "params": {"w_point": 500}}, "params.w_point"),
        ({"experiment": "fig2", "params": {"w_points": 50, "d_lst": [3]}},
         "params.d_lst"),
        ({"experiment": "fig2", "outptu_dir": "elsewhere"}, "outptu_dir"),
        # a field of another experiment is unknown here too
        ({"experiment": "cooling-coherent", "params": {"beta_hot": 0.1}},
         "params.beta_hot"),
        # validate takes no tolerance scale; each tolerance is the check's own
        ({"experiment": "validate", "params": {"tolerance_scale": 1.0}},
         "params.tolerance_scale"),
    ])
    def test_unknown_field_is_rejected(self, raw, field):
        with pytest.raises(cli.ConfigError, match=field) as info:
            cli.ExperimentConfig.from_dict(raw)
        assert info.value.path == field

    def test_unknown_field_exits_with_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "experiment": "fig2", "output_dir": str(tmp_path / "out"),
            "params": {"w_point": 500, "d_lst": [3]}})
        assert cli.main(["run", config]) == 2
        assert "params.w_point" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_defaults_fill_in(self):
        cfg = cli.ExperimentConfig.from_dict({"experiment": "fig2"})
        assert cfg.params["w_points"] == 200
        assert cfg.params["d_list"] == [1, 2, 5, 20]


class TestRunFig2:
    def test_columns_and_values(self, tmp_path):
        cfg = cli.ExperimentConfig.from_dict({
            "experiment": "fig2", "output_dir": str(tmp_path / "out"),
            "params": {"beta_E": math.log(2.0), "w_min": 0.2, "w_max": 2.0,
                       "w_points": 7, "d_list": [1, 4]},
        })
        cli.run_experiment(cfg)
        columns, rows = read_rows(tmp_path / "out" / "fig2.csv")
        assert columns == ["W", "eps_tp", "eps_etp", "eps_mtp", "eps_d1", "eps_d4"]
        assert rows.shape == (7, 6)
        setups = [ExtractionSetup(math.log(2.0), row[0], 1.0) for row in rows]
        eps_d = np.transpose(epsilon_d_grid(setups, [1, 4]))
        for row, st, (eps_1, eps_4) in zip(rows, setups, eps_d):
            assert abs(row[1] - epsilon_tp(st)) <= 1e-15
            assert abs(row[2] - epsilon_etp(st)) <= 1e-15
            assert abs(row[3] - epsilon_mtp(st)) <= 1e-15
            assert abs(row[4] - eps_1) <= 1e-15
            assert abs(row[5] - eps_4) <= 1e-15

    def test_d1000_writes_no_nan(self, tmp_path):
        # a fifth of these rows were NaN before the log-space fallback
        cfg = cli.ExperimentConfig.from_dict({
            "experiment": "fig2", "output_dir": str(tmp_path / "out"),
            "params": {"w_points": 50, "d_list": [1000]},
        })
        cli.run_experiment(cfg)
        columns, rows = read_rows(tmp_path / "out" / "fig2.csv")
        assert rows.shape == (50, 5)
        assert np.all(np.isfinite(rows))
        assert np.all(rows[:, 1] - 1e-12 <= rows[:, 4])
        assert np.all(rows[:, 4] <= rows[:, 3] + 1e-12)

    def test_non_finite_value_is_not_written(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(cli.OutputError, match=r"t\.csv.*row 2, column b"):
            cli._write_csv(path, {}, ["a", "b"], [[1, 0.5], [2, float("nan")]])
        with pytest.raises(cli.OutputError, match="row 1, column a"):
            cli._write_csv(path, {}, ["a", "b"], [[np.float64(-np.inf), 0.5]])
        assert not path.exists()

    def test_rows_print_ints_as_str_and_floats_with_17_digits(self, tmp_path):
        # a column may change type between rows; each row prints by its own types
        rows = [[1, 0.1, np.float64(1 / 3)], [np.int64(2), 3, -0.0],
                [True, 1e-300, 2.5], [4, np.float64(7), 0]]
        cli._write_csv(tmp_path / "t.csv", {"k": 0.2}, ["a", "b", "c"], rows)
        assert (tmp_path / "t.csv").read_text().splitlines()[1:] == [
            "# k=0.20000000000000001", "a,b,c",
            "1,0.10000000000000001,0.33333333333333331",
            "2,3,-0", "True,1e-300,2.5", "4,7,0"]

    def test_manifest_digests_match_files(self, tmp_path):
        cfg = cli.ExperimentConfig.from_dict({
            "experiment": "fig2", "output_dir": str(tmp_path / "out"),
            "params": {"w_points": 5, "d_list": [2]},
        })
        manifest = cli.run_experiment(cfg)
        for entry in manifest.files:
            blob = (tmp_path / "out" / entry["name"]).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
            assert len(blob) == entry["bytes"]


EPS = sys.float_info.epsilon


def worst_relative_error(values, exact):
    """The largest |v - e| / e, each float taken at its exact binary value."""
    return max(float(abs(Fraction(v) - e) / e) for v, e in zip(values, exact))


class TestExactScores:
    """The default outputs scored column by column against exact values at
    the run's float inputs, each within its own stated bound, so that an
    error that grows fails even after ``default_digests.json`` is recorded
    again.  The comment after each bound gives the worst error measured."""

    SWEEP_BOUNDS = {
        "p_sim": 4 * EPS,  # 2.3e-16, the d^2 sweeps up to d = 30
        "p_closed": 2 * EPS,  # 6.7e-17
        # 8.9e-12: delta_d's subtraction (1 - gamma)/gamma - head cancels
        # (ROADMAP item 3)
        "delta_d": 1e-11,
    }
    FIG2_BOUNDS = {"eps_d1": 2 * EPS,  # 9.6e-17
                   "eps_d2": 4 * EPS,  # 4.0e-16
                   "eps_d5": 4 * EPS,  # 4.8e-16
                   "eps_d20": 8 * EPS}  # 9.7e-16
    # the closed forms of the class columns above their zero rows
    CLASS_BOUNDS = {"eps_tp": 2 * EPS,  # 3.0e-16
                    "eps_etp": 2 * EPS,  # 1.8e-16
                    "eps_mtp": 2 * EPS}  # 3.1e-16
    # against exact runs at the config's float inputs (the incoherent
    # paradigm's derived eta, gamma, q_big and gamma_big at their binary
    # values); MTP's coherent rounds hold gamma itself
    COOLING_BOUNDS = {
        "cooling-coherent": {
            "p_tp": EPS, "p_tp_closed": EPS,  # 4.2e-17, 4.2e-17
            "p_mtp": 0.0, "p_mtp_closed": 0.0,
            "p_mmtp_d1": EPS, "p_mmtp_d1_closed": EPS,  # 0, 0
            "p_mmtp_d2": 2 * EPS, "p_mmtp_d2_closed": EPS,  # 1.8e-16, 7.3e-17
            "p_mmtp_d4": 2 * EPS, "p_mmtp_d4_closed": EPS,  # 2.1e-16, 1.0e-16
            "p_mmtp_d8": 2 * EPS, "p_mmtp_d8_closed": EPS},  # 2.5e-16, 5.6e-17
        "cooling-incoherent": {
            "p_tp": 2 * EPS, "p_tp_closed": 2 * EPS,  # 2.2e-16, 1.8e-16
            "p_mtp": 2 * EPS, "p_mtp_closed": 2 * EPS,  # 3.3e-16, 3.6e-16
            "p_mmtp_d1": 2 * EPS, "p_mmtp_d1_closed": 2 * EPS,  # 3.3e-16, 3.6e-16
            "p_mmtp_d2": 4 * EPS, "p_mmtp_d2_closed": 2 * EPS,  # 5.9e-16, 3.5e-16
            "p_mmtp_d4": 4 * EPS, "p_mmtp_d4_closed": 2 * EPS,  # 6.0e-16, 3.5e-16
            "p_mmtp_d8": 4 * EPS, "p_mmtp_d8_closed": 2 * EPS},  # 7.6e-16, 3.5e-16
    }

    def test_beta_swap_sweep_against_exact_sweeps(self, tmp_path):
        p = cli.ExperimentConfig.from_dict({"experiment": "beta-swap-sweep"}).params
        run_fig(tmp_path, "beta-swap-sweep")
        columns, rows = read_rows(tmp_path / "beta_swap_sweep.csv")
        ds = [int(d) for d in rows[:, columns.index("d")]]
        assert ds == list(range(1, p["d_max"] + 1))
        p_exact = [exact_protocol(d, p["p0"], p["gamma"])[0] for d in ds]
        exact = {"p_sim": p_exact, "p_closed": p_exact,
                 "delta_d": delta_d_column_fraction(p["d_max"], Fraction(p["gamma"]))}
        for column, bound in self.SWEEP_BOUNDS.items():
            worst = worst_relative_error(rows[:, columns.index(column)].tolist(),
                                         exact[column])
            assert worst <= bound, (column, worst)

    def test_fig2_against_exact_I_d(self, tmp_path):
        p = cli.ExperimentConfig.from_dict({"experiment": "fig2"}).params
        run_fig(tmp_path, "fig2")
        columns, rows = read_rows(tmp_path / "fig2.csv")
        assert [f"eps_d{d}" for d in p["d_list"]] == list(self.FIG2_BOUNDS)
        setups = [ExtractionSetup(p["beta_E"], w, 1.0) for w in rows[:, 0].tolist()]
        xy = [(Fraction(1.0 - st.gamma_delta), Fraction(1.0 - st.gamma_W)) for st in setups]
        for d in p["d_list"]:
            column = f"eps_d{d}"
            worst = worst_relative_error(rows[:, columns.index(column)].tolist(),
                                         [I_d_fraction(d, x, y) for x, y in xy])
            assert worst <= self.FIG2_BOUNDS[column], (column, worst)

    def test_fig2_class_columns_against_exact_values(self, tmp_path):
        # each math.exp result at its binary value, as the I_d scores take x
        # and y; the branch at E and W_0 is the float one the code takes
        p = cli.ExperimentConfig.from_dict({"experiment": "fig2"}).params
        run_fig(tmp_path, "fig2")
        columns, rows = read_rows(tmp_path / "fig2.csv")
        exact = {"eps_tp": [], "eps_etp": [], "eps_mtp": []}
        for w in rows[:, 0].tolist():
            st = ExtractionSetup(p["beta_E"], w, 1.0)
            e_delta = Fraction(math.exp(-st.beta * (st.W - st.E)))
            e_w = Fraction(math.exp(-st.beta * st.W))
            exact["eps_tp"].append(1 - Fraction(math.exp(st.beta * (st.E - st.W))) - e_w
                                   if st.W > st.W_0 else 0)
            exact["eps_etp"].append((1 - e_delta) * (1 - e_w) if st.W > st.E else 0)
            exact["eps_mtp"].append(1 / (1 + e_delta) / (1 + e_w))
        zeros = {}
        for column, bound in self.CLASS_BOUNDS.items():
            pairs = list(zip(rows[:, columns.index(column)].tolist(), exact[column]))
            # the relative error divides by the exact value, so the rows
            # below the threshold are checked apart: exactly 0.0
            zero = [v for v, e in pairs if e == 0]
            assert zero == [0.0] * len(zero), column
            zeros[column] = len(zero)
            worst = worst_relative_error([v for v, e in pairs if e != 0],
                                         [e for v, e in pairs if e != 0])
            assert worst <= bound, (column, worst)
        assert zeros == {"eps_tp": 71, "eps_etp": 44, "eps_mtp": 0}

    @pytest.mark.parametrize("experiment", ["cooling-coherent", "cooling-incoherent"])
    def test_cooling_against_exact_runs(self, tmp_path, experiment):
        p = cli.ExperimentConfig.from_dict({"experiment": experiment}).params
        run_fig(tmp_path, experiment)
        columns, rows = read_rows(tmp_path / f"{experiment.replace('-', '_')}.csv")
        bounds = self.COOLING_BOUNDS[experiment]
        assert columns[1:] == list(bounds)
        for process, d in [("TP", None), ("MTP", None), *(("MMTP", d) for d in p["d_list"])]:
            if experiment == "cooling-coherent":
                exact = exact_coherent(process, p["rounds"], p["gamma"], d)
            else:
                exact = exact_incoherent(process, p["rounds"], p["E"], p["script_E"],
                                         p["beta"], p["beta_hot"], d)
            label = process.lower() + (f"_d{d}" if d else "")
            for column in (f"p_{label}", f"p_{label}_closed"):
                worst = worst_relative_error(rows[:, columns.index(column)].tolist(), exact)
                assert worst <= bounds[column], (column, worst)


class TestDeterminism:
    CONFIG = {"experiment": "fig2",
              "params": {"w_points": 9, "d_list": [1, 3]}}

    def _digests(self, outdir):
        cfg = cli.ExperimentConfig.from_dict(dict(self.CONFIG,
                                                  output_dir=str(outdir)))
        manifest = cli.run_experiment(cfg)
        return {f["name"]: f["sha256"] for f in manifest.files}

    def test_identical_runs_identical_bytes(self, tmp_path):
        assert self._digests(tmp_path / "a") == self._digests(tmp_path / "b")
        blob_a = (tmp_path / "a" / "fig2.csv").read_bytes()
        blob_b = (tmp_path / "b" / "fig2.csv").read_bytes()
        assert blob_a == blob_b


class TestOtherExperiments:
    def test_fig3_round_trips(self, tmp_path):
        run_fig(tmp_path / "o", "fig3", "--gamma", "0.8", "--depth", "6")
        text = (tmp_path / "o" / "fig3_regions.csv").read_text(encoding="utf-8")
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        assert rows[0].startswith("region,")
        tags = list(dict.fromkeys(ln.split(",")[0] for ln in rows[1:]))
        assert tags == ["TP", "ETP-approx", "MTP-path", "MMTP2-A", "MMTP2-B"]

    def test_cooling_coherent_columns(self, tmp_path):
        run_fig(tmp_path / "o", "cooling-coherent",
                "--gamma", "0.75", "--rounds", "6", "--d-list", "2")
        columns, rows = read_rows(tmp_path / "o" / "cooling_coherent.csv")
        assert columns == ["round", "p_tp", "p_tp_closed", "p_mtp",
                           "p_mtp_closed", "p_mmtp_d2", "p_mmtp_d2_closed"]
        assert rows.shape == (6, 7)
        np.testing.assert_allclose(rows[:, 1], rows[:, 2], atol=1e-12)
        np.testing.assert_allclose(rows[:, 5], rows[:, 6], atol=1e-12)

    def test_beta_swap_sweep(self, tmp_path):
        run_fig(tmp_path / "o", "beta-swap-sweep",
                "--gamma", "0.75", "--p0", "0.0", "--d-max", "10")
        columns, rows = read_rows(tmp_path / "o" / "beta_swap_sweep.csv")
        assert columns == ["d", "p_sim", "p_closed", "abs_dev", "delta_d",
                           "tail_bound"]
        assert np.all(rows[:, 3] <= 1e-10)

    def test_beta_swap_sweep_columns_are_the_per_d_closed_forms(self, tmp_path):
        gamma, p0 = 27 / 32, 0.25
        run_fig(tmp_path / "o", "beta-swap-sweep",
                "--gamma", repr(gamma), "--p0", repr(p0), "--d-max", "60")
        _, rows = read_rows(tmp_path / "o" / "beta_swap_sweep.csv")
        ds = range(1, 61)
        assert rows[:, 2].tolist() == [_p_d(p0, gamma, delta_d(d, gamma)) for d in ds]
        assert rows[:, 4].tolist() == [delta_d(d, gamma) for d in ds]

    def test_validate_experiment_writes_report(self, tmp_path):
        cfg = cli.ExperimentConfig.from_dict({
            "experiment": "validate", "output_dir": str(tmp_path / "v"),
            "params": {"only": "core"},
        })
        manifest = cli.run_experiment(cfg)
        assert manifest.validation_passed is True
        report = json.loads((tmp_path / "v" / "validation_report.json").read_text())
        assert report["passed"] is True
        assert all(c["module"] == "core" for c in report["checks"])


def region_import(path):
    """Read fig3_regions.csv back: per region, in file order, its tag, kind,
    vertex indices, populations and plot coordinates."""
    regions = {}
    for line in open(path, encoding="utf-8"):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("region,"):
            continue
        tag, kind, idx, *values = line.split(",")
        region = regions.setdefault(tag, {"kind": kind, "index": [], "probs": [], "xy": []})
        region["index"].append(int(idx))
        region["probs"].append([float(v) for v in values[:3]])
        region["xy"].append([float(v) for v in values[3:]])
    return regions


def fig3_regions(gamma, depth):
    """The regions fig3 exports, in export order."""
    return [reachable.tp_region(gamma), reachable.etp_orbit_hull(gamma, depth),
            reachable.mtp_mixing_path(gamma), *reachable.mmtp2_point_regions(gamma)]


class TestExport:
    """fig3_regions.csv, written by the CSV writer every experiment uses."""

    def test_empty_export_is_header_only(self, tmp_path):
        path = cli._write_csv(tmp_path / "empty.csv", {"gamma": 0.75},
                              ["region", "kind", "index"], [], "qutrit regions")
        assert path.read_text().splitlines() == [
            "# thermoproc qutrit regions v1", "# gamma=0.75", "region,kind,index"]

    def test_block_layout_and_round_trip(self, tmp_path):
        run_fig(tmp_path / "o", "fig3", "--gamma", "0.75", "--depth", "8")
        path = tmp_path / "o" / "fig3_regions.csv"
        assert path.read_text().splitlines()[:4] == [
            "# thermoproc qutrit regions v1", "# depth=8", "# gamma=0.75",
            "region,kind,index,p_g,p_e1,p_e2,x,y"]
        loaded = region_import(path)
        assert list(loaded) == ["TP", "ETP-approx", "MTP-path", "MMTP2-A", "MMTP2-B"]
        kinds = [r["kind"] for r in loaded.values()]
        assert kinds == ["polygon", "polygon", "path", "points", "points"]
        for orig, back in zip(fig3_regions(0.75, 8), loaded.values()):
            assert back["index"] == list(range(len(orig.vertices)))
            np.testing.assert_allclose(back["probs"], orig.vertices, atol=1e-9)

    def test_round_trip_is_exact(self, tmp_path):
        # 17 significant digits reproduce doubles bit for bit
        run_fig(tmp_path / "o", "fig3", "--gamma", "0.8", "--depth", "6")
        loaded = region_import(tmp_path / "o" / "fig3_regions.csv")
        for orig, back in zip(fig3_regions(0.8, 6), loaded.values(), strict=True):
            assert np.array(back["probs"]).tobytes() == orig.vertices.tobytes()
            assert np.array(back["xy"]).tobytes() == orig.xy().tobytes()

    def test_non_finite_number_raises_and_nothing_is_written(self, tmp_path, monkeypatch,
                                                             capsys):
        class NanPoints:
            tag, kind = "MMTP2-A", "points"
            vertices = np.array([[1.0, 0.0, 0.0], [0.5, math.nan, 0.5]])

            def xy(self):
                return reachable.bary_xy(self.vertices)

        monkeypatch.setattr(reachable, "mmtp2_point_regions", lambda gamma: [NanPoints()])
        out = tmp_path / "o"
        cfg = cli.ExperimentConfig.from_dict(
            {"experiment": "fig3", "params": {"depth": 4}, "output_dir": str(out)})
        message = r"fig3_regions.csv: non-finite value in data row \d+, column p_e1"
        with pytest.raises(cli.OutputError, match=message):
            cli.run_experiment(cfg)
        # from the command line: exit 3 and one line on stderr, no traceback
        assert cli.main(["fig", "fig3", "--depth", "4", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch("output error: .*" + message + "\n", err), err
        assert not (out / "fig3_regions.csv").exists()
        assert not (out / "run_manifest.json").exists()


class TestMainExitCodes:
    def test_run_ok(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "experiment": "beta-swap-sweep", "output_dir": str(tmp_path / "o"),
            "params": {"d_max": 3}})
        assert cli.main(["run", config]) == 0
        assert "beta_swap_sweep.csv" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["run", str(bad)]) == 2

    def test_invalid_field(self, tmp_path, capsys):
        config = write_config(tmp_path, {"experiment": "fig3",
                                         "params": {"depth": 0}})
        assert cli.main(["run", config]) == 2
        assert "params.depth" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, params", [
        ("cooling-coherent", {"rounds": 2, "d_list": [1]}),
        ("beta-swap-sweep", {"d_max": 2}),
    ])
    def test_gamma_below_the_delta_d_domain_is_a_config_error(self, tmp_path, capsys,
                                                              experiment, params):
        # inside (1/2, 1) but not above 1/2 + DELTA_GAMMA_MARGIN, where
        # delta_d is defined
        gamma = 0.5 + DELTA_GAMMA_MARGIN / 10
        config = write_config(tmp_path, {
            "experiment": experiment, "output_dir": str(tmp_path / "o"),
            "params": {"gamma": gamma, **params}})
        assert cli.main(["run", config]) == 2
        assert "params.gamma" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("beta", [
        1e-9,  # gamma_big = 1/2 + 5e-10, below the margin
        40.0,  # gamma_big rounds to 1
    ])
    def test_gamma_big_outside_the_delta_d_domain_is_a_config_error(
            self, tmp_path, capsys, beta):
        config = write_config(tmp_path, {
            "experiment": "cooling-incoherent", "output_dir": str(tmp_path / "o"),
            "params": {"beta": beta, "beta_hot": 0.0, "rounds": 2, "d_list": [1]}})
        assert cli.main(["run", config]) == 2
        assert "params.script_E" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_gamma_big_just_inside_the_delta_d_domain_runs(self, tmp_path):
        # beta * script_E = 1e-8 puts gamma_big at 1/2 + 2.5e-9
        config = write_config(tmp_path, {
            "experiment": "cooling-incoherent", "output_dir": str(tmp_path / "o"),
            "params": {"beta": 5e-9, "beta_hot": 0.0, "rounds": 2, "d_list": [1]}})
        assert cli.main(["run", config]) == 0

    @pytest.mark.parametrize("experiment", ["fig2", "cooling-coherent",
                                            "cooling-incoherent"])
    def test_repeated_d_is_a_config_error(self, tmp_path, capsys, experiment):
        # a repeated d would write its columns twice
        config = write_config(tmp_path, {
            "experiment": experiment, "output_dir": str(tmp_path / "o"),
            "params": {"d_list": [2, 3, 2]}})
        assert cli.main(["run", config]) == 2
        assert "params.d_list" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["fig2"],
        ["cooling-coherent"],
        ["cooling-incoherent"],
    ])
    def test_repeated_d_flag_is_a_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "f"
        assert cli.main(["fig", *argv, "--d-list", "2,2", "--out", str(out)]) == 2
        assert "params.d_list" in capsys.readouterr().err
        assert not out.exists()

    def test_fig2_takes_d_up_to_the_float_limit_of_i_d(self):
        cfg = cli.ExperimentConfig.from_dict(
            {"experiment": "fig2", "params": {"d_list": [1, MAX_FLOAT_D]}})
        assert cfg.params["d_list"] == [1, MAX_FLOAT_D]

    def test_fig2_d_past_the_float_limit_of_i_d_is_a_config_error(self, tmp_path, capsys):
        # I_d_eval refuses it; it used to pass validation and end in a traceback
        out = tmp_path / "f"
        argv = ["fig", "fig2", "--d-list", f"1,{MAX_FLOAT_D + 1}", "--out", str(out)]
        assert cli.main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: params.d_list")
        assert not out.exists()

    @pytest.mark.parametrize("params, code", [
        ({"beta_E": 36.0}, 0),
        # 1 - gamma_delta = 1 - 1/(1 + e^(beta_E - W)) rounds to 1 at W = w_min,
        # which I_d refuses
        ({"beta_E": 38.0}, 2),
        # e^(beta_E - W) overflows
        ({"beta_E": 800.0}, 2),
        # a descending grid: the smallest W is w_max
        ({"beta_E": 37.6, "w_min": 3.0, "w_max": 0.05}, 2),
    ])
    @pytest.mark.parametrize("command", ["fig", "run"])
    def test_fig2_beta_E_is_checked_against_the_domain_of_i_d(
            self, tmp_path, capsys, command, params, code):
        out = tmp_path / "f"
        if command == "fig":
            flags = [s for k, v in params.items() for s in ("--" + k.replace("_", "-"), str(v))]
            argv = ["fig", "fig2", *flags, "--out", str(out)]
        else:
            argv = ["run", write_config(tmp_path, {
                "experiment": "fig2", "output_dir": str(out), "params": params})]
        assert cli.main(argv) == code
        if code == 0:
            assert (out / "fig2.csv").exists()
        else:
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith("config error: params.beta_E")
            assert not out.exists()

    def test_fig3_keeps_the_whole_open_gamma_interval(self):
        cfg = cli.ExperimentConfig.from_dict(
            {"experiment": "fig3", "params": {"gamma": 0.5 + DELTA_GAMMA_MARGIN / 10}})
        assert cfg.params["gamma"] == 0.5 + DELTA_GAMMA_MARGIN / 10

    def test_output_path_collision_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        config = write_config(tmp_path, {
            "experiment": "beta-swap-sweep", "output_dir": str(blocker),
            "params": {"d_max": 2}})
        assert cli.main(["run", config]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_validate_subset_passes(self, tmp_path, capsys):
        assert cli.main(["validate", "--only", "core", "--out", str(tmp_path / "v")]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert f"wrote {tmp_path / 'v' / 'validation_report.json'}" in out
        assert re.search(r"^1/1 checks passed; wall \d+\.\dms on 1 process "
                         r"\(the checks' times sum to \d+\.\dms\)$", out, re.M), out
        manifest = json.loads((tmp_path / "v" / "run_manifest.json").read_text())
        assert manifest["validation_passed"] is True
        assert manifest["processes"] == 1
        assert manifest["config"]["params"] == {"only": "core"}

    def test_validate_prints_each_check_time_but_keeps_it_out_of_the_report(
            self, tmp_path, capsys):
        assert cli.main(["validate", "--only", "majorization",
                         "--out", str(tmp_path)]) == 0
        report = tmp_path / "validation_report.json"
        line, = [l for l in capsys.readouterr().out.splitlines() if l.startswith("[")]
        assert re.search(r"  t=\d+\.\dms  \(majorization\)", line), line
        (check,) = json.loads(report.read_text())["checks"]
        assert sorted(check) == ["detail", "deviation", "module", "name",
                                 "passed", "tolerance"]

    def test_validate_forced_failure(self, tmp_path, capsys, monkeypatch):
        # the core check's body swapped for one whose deviation exceeds its
        # tolerance; same name and module, so selection is unchanged
        def check_core_elementary():
            return 1.0, 1.0e-12, "forced"

        forced = validation._check("elementary-matrix-invariants", "core")(
            check_core_elementary)
        monkeypatch.setattr(validation, "ALL_CHECKS", tuple(
            forced if c.__name__ == forced.__name__ else c
            for c in validation.ALL_CHECKS))
        code = cli.main(["validate", "--only", "core", "--out", str(tmp_path)])
        assert code == 3
        assert "[FAIL] elementary-matrix-invariants" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["validation_passed"] is False
        payload = json.loads((tmp_path / "validation_report.json").read_text())
        assert payload["passed"] is False
        assert payload["n_failed"] == 1
        assert (payload["checks"][0]["deviation"], payload["checks"][0]["tolerance"]) \
            == (1.0, 1.0e-12)

    def test_fig_subcommand(self, tmp_path, capsys):
        code = cli.main(["fig", "fig2", "--w-points", "5", "--d-list", "2",
                         "--out", str(tmp_path / "f")])
        assert code == 0
        assert (tmp_path / "f" / "fig2.csv").exists()

    def test_flags_are_checked_by_the_config_schema(self, tmp_path, capsys):
        assert cli.main(["fig", "fig3", "--depth", "0",
                         "--out", str(tmp_path / "f")]) == 2
        assert "params.depth" in capsys.readouterr().err
        out = tmp_path / "v"
        assert cli.main(["validate", "--only", "kernels", "--out", str(out)]) == 2
        assert "params.only" in capsys.readouterr().err
        assert not out.exists()


# SHA-256 of each default-config output, kept in one ledger at the root of
# the repository.  The five data files match perfbench/seed_digests.json;
# validation_report.json is measured against the exact Markovian qutrit
# region, its incoherent-rates detail states what that check verifies, and
# its tail-bound deviation is the largest excess itself.
DEFAULT_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "default_digests.json").read_text())


def command(experiment):
    """The CLI command that runs ``experiment`` from its flags."""
    return ["validate"] if experiment == "validate" else ["fig", experiment]


def subcommand_options(parser):
    """Per experiment, the option strings of its subcommand, ``-h`` left out."""
    def subparsers(p):
        (action,) = [a for a in p._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    commands = subparsers(parser)
    return {name: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
            for name, sub in [("validate", commands["validate"]),
                              *subparsers(commands["fig"]).items()]}


class TestOneSchema:
    def test_default_outputs_keep_their_digests(self, tmp_path):
        # every default experiment from its command with no flags but --out
        digests = {}
        for experiment in cli.EXPERIMENTS:
            out = tmp_path / experiment
            assert cli.main([*command(experiment), "--out", str(out)]) == 0
            manifest = json.loads((out / "run_manifest.json").read_text())
            for entry in manifest["files"]:
                blob = (out / entry["name"]).read_bytes()
                assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
                digests[entry["name"]] = entry["sha256"]
        assert digests == DEFAULT_DIGESTS

    def test_each_subcommand_offers_exactly_its_fields_and_out(self):
        options = subcommand_options(cli.build_parser())
        assert list(options) == ["validate", *cli._EMITTERS]
        for experiment, flags in options.items():
            assert flags == {p.option for p in cli.PARAMS[experiment]} | {"--out"}

    @pytest.mark.parametrize("argv, experiment", [
        (["fig2"], "fig2"),
        (["fig3"], "fig3"),
        (["cooling-coherent"], "cooling-coherent"),
        # a flag given at its default value changes nothing
        (["cooling-coherent", "--rounds", "20"], "cooling-coherent"),
        (["cooling-incoherent"], "cooling-incoherent"),
        (["beta-swap-sweep"], "beta-swap-sweep"),
    ])
    def test_fig_without_flags_runs_the_default_config(self, tmp_path, argv,
                                                       experiment):
        assert cli.main(["fig", *argv, "--out", str(tmp_path / "fig")]) == 0
        config = write_config(tmp_path, {"experiment": experiment,
                                         "output_dir": str(tmp_path / "run")})
        assert cli.main(["run", config]) == 0
        fig, run = (json.loads((tmp_path / sub / "run_manifest.json").read_text())
                    for sub in ("fig", "run"))
        assert fig["config"]["params"] == run["config"]["params"]
        assert fig["files"] == run["files"]

    def test_flags_override_single_fields(self, tmp_path):
        assert cli.main(["fig", "cooling-incoherent", "--rounds", "3", "--d-list", "2,5",
                         "--beta-hot", "0.1", "--out", str(tmp_path / "f")]) == 0
        manifest = json.loads((tmp_path / "f" / "run_manifest.json").read_text())
        params = manifest["config"]["params"]
        defaults = cli.ExperimentConfig.from_dict(
            {"experiment": "cooling-incoherent"}).params
        assert params == dict(defaults, rounds=3, d_list=[2, 5], beta_hot=0.1)
        assert cli.main(["fig", "fig2", "--beta-E", "0.5", "--w-points", "3",
                         "--out", str(tmp_path / "g")]) == 0
        manifest = json.loads((tmp_path / "g" / "run_manifest.json").read_text())
        assert manifest["config"]["params"]["beta_E"] == 0.5

    @pytest.mark.parametrize("paradigm, flag, value, field", [
        ("incoherent", "--gamma", "0.9", "params.gamma"),
        ("coherent", "--beta", "1.5", "params.beta"),
        ("coherent", "--script-E", "3", "params.script_E"),
    ])
    def test_flag_of_the_other_paradigm_is_a_config_error(
            self, tmp_path, capsys, paradigm, flag, value, field):
        # the flag names a field of the other cooling experiment only, so the
        # parser rejects it with exit 2 before any config is built
        experiment = f"cooling-{paradigm}"
        other = "cooling-incoherent" if paradigm == "coherent" else "cooling-coherent"
        name = field.removeprefix("params.")
        assert name in [p.name for p in cli.PARAMS[other]]
        assert name not in [p.name for p in cli.PARAMS[experiment]]
        out = tmp_path / "f"
        with pytest.raises(SystemExit) as info:
            cli.main(["fig", experiment, flag, value, "--rounds", "2", "--out", str(out)])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_paradigm_and_json_flags_are_gone(self, tmp_path, capsys):
        for argv in (["fig", "cooling", "--out", str(tmp_path)],
                     ["fig", "cooling-coherent", "--paradigm", "coherent"],
                     ["validate", "--json", str(tmp_path / "r.json")],
                     ["fig", "fig2", "--beta-e", "0.5"]):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == 2, argv
        assert not any(tmp_path.iterdir())


class TestValidateSelection:
    def test_only_runs_that_modules_checks(self, monkeypatch):
        calls = []

        def counted(check):
            @functools.wraps(check)
            def run():
                calls.append(check.__name__)
                return check()
            return run

        monkeypatch.setattr(validation, "ALL_CHECKS",
                            tuple(counted(c) for c in validation.ALL_CHECKS))
        results = validation.run_checks(only="core")
        assert calls == ["check_core_elementary"]
        assert [r.module for r in results] == ["core"]
        assert results[0].seconds > 0.0

    def test_checks_keep_their_name_and_doc_and_take_no_argument(self):
        for check in validation.ALL_CHECKS:
            assert inspect.signature(check).parameters == {}
            assert check.__name__.startswith("check_") and check.__doc__
            assert check.__name__ in validation._MODULE_OF

    def test_tail_bound_reports_its_true_margin(self):
        # the largest excess over the bound, not a floor at 0: on working code
        # every point clears the bound, so the deviation is negative
        result = validation.check_memory_tail_bound()
        assert result.passed
        assert -1.0e-12 < result.deviation < 0.0
