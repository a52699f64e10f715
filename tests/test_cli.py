"""Config validation, experiment runs, determinism, and exit codes."""

import functools
import hashlib
import inspect
import json
import math
import re

import numpy as np
import pytest

from thermoproc import cli, reachable, validation
from thermoproc.combinatorics import DELTA_GAMMA_MARGIN, delta_d
from thermoproc.memory import closed_form_p_d
from thermoproc.workx import (ExtractionSetup, epsilon_d_closed, epsilon_etp,
                              epsilon_mtp, epsilon_tp)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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
        for row in rows:
            st = ExtractionSetup(math.log(2.0), row[0], 1.0)
            assert abs(row[1] - epsilon_tp(st)) <= 1e-15
            assert abs(row[2] - epsilon_etp(st)) <= 1e-15
            assert abs(row[3] - epsilon_mtp(st)) <= 1e-15
            assert abs(row[4] - epsilon_d_closed(st, 1)) <= 1e-15
            assert abs(row[5] - epsilon_d_closed(st, 4)) <= 1e-15

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
        with pytest.raises(ValueError, match=r"t\.csv.*row 2, column b"):
            cli._write_csv(path, {}, ["a", "b"], [[1, 0.5], [2, float("nan")]])
        with pytest.raises(ValueError, match="row 1, column a"):
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
        cli.emit_figure_data("fig3", {"gamma": 0.8, "depth": 6}, tmp_path / "o")
        text = (tmp_path / "o" / "fig3_regions.csv").read_text(encoding="utf-8")
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        assert rows[0].startswith("region,")
        tags = list(dict.fromkeys(ln.split(",")[0] for ln in rows[1:]))
        assert tags == ["TP", "ETP-approx", "MTP-path", "MMTP2-A", "MMTP2-B"]

    def test_cooling_coherent_columns(self, tmp_path):
        cli.emit_figure_data("cooling-coherent",
                             {"gamma": 0.75, "rounds": 6, "d_list": [2]},
                             tmp_path / "o")
        columns, rows = read_rows(tmp_path / "o" / "cooling_coherent.csv")
        assert columns == ["round", "p_tp", "p_tp_closed", "p_mtp",
                           "p_mtp_closed", "p_mmtp_d2", "p_mmtp_d2_closed"]
        assert rows.shape == (6, 7)
        np.testing.assert_allclose(rows[:, 1], rows[:, 2], atol=1e-12)
        np.testing.assert_allclose(rows[:, 5], rows[:, 6], atol=1e-12)

    def test_beta_swap_sweep(self, tmp_path):
        cli.emit_figure_data("beta-swap-sweep",
                             {"gamma": 0.75, "p0": 0.0, "d_max": 10},
                             tmp_path / "o")
        columns, rows = read_rows(tmp_path / "o" / "beta_swap_sweep.csv")
        assert columns == ["d", "p_sim", "p_closed", "abs_dev", "delta_d",
                           "tail_bound"]
        assert np.all(rows[:, 3] <= 1e-10)

    def test_beta_swap_sweep_columns_are_the_per_d_closed_forms(self, tmp_path):
        gamma, p0 = 27 / 32, 0.25
        cli.emit_figure_data("beta-swap-sweep", {"gamma": gamma, "p0": p0, "d_max": 60},
                             tmp_path / "o")
        _, rows = read_rows(tmp_path / "o" / "beta_swap_sweep.csv")
        ds = range(1, 61)
        assert rows[:, 2].tolist() == [closed_form_p_d(d, p0, gamma) for d in ds]
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
        cli.emit_figure_data("fig3", {"gamma": 0.75, "depth": 8}, tmp_path / "o")
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
        cli.emit_figure_data("fig3", {"gamma": 0.8, "depth": 6}, tmp_path / "o")
        loaded = region_import(tmp_path / "o" / "fig3_regions.csv")
        for orig, back in zip(fig3_regions(0.8, 6), loaded.values(), strict=True):
            assert np.array(back["probs"]).tobytes() == orig.vertices.tobytes()
            assert np.array(back["xy"]).tobytes() == orig.xy().tobytes()

    def test_non_finite_number_raises_and_nothing_is_written(self, tmp_path, monkeypatch):
        class NanPoints:
            tag, kind = "MMTP2-A", "points"
            vertices = np.array([[1.0, 0.0, 0.0], [0.5, math.nan, 0.5]])

            def xy(self):
                return reachable.bary_xy(self.vertices)

        monkeypatch.setattr(reachable, "mmtp2_point_regions", lambda gamma: [NanPoints()])
        out = tmp_path / "o"
        with pytest.raises(ValueError, match="fig3_regions.csv: non-finite value "
                                             r"in data row \d+, column p_e1"):
            cli.emit_figure_data("fig3", {"gamma": 0.75, "depth": 4}, out)
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
        ["cooling", "--paradigm", "coherent"],
        ["cooling", "--paradigm", "incoherent"],
    ])
    def test_repeated_d_flag_is_a_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "f"
        assert cli.main(["fig", *argv, "--d-list", "2,2", "--out", str(out)]) == 2
        assert "params.d_list" in capsys.readouterr().err
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

    def test_validate_subset_passes(self, capsys):
        assert cli.main(["validate", "--only", "core"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out

    def test_validate_prints_each_check_time_but_keeps_it_out_of_the_report(
            self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert cli.main(["validate", "--only", "majorization",
                         "--json", str(report)]) == 0
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
        report = tmp_path / "report.json"
        code = cli.main(["validate", "--only", "core", "--json", str(report)])
        assert code == 3
        assert "[FAIL] elementary-matrix-invariants" in capsys.readouterr().out
        payload = json.loads(report.read_text())
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
        assert cli.main(["validate", "--only", "kernels"]) == 2
        assert "params.only" in capsys.readouterr().err


# SHA-256 of each default-config output.  The five data files match
# perfbench/seed_digests.json; validation_report.json is measured against the
# exact Markovian qutrit region, its incoherent-rates detail states what that
# check verifies, and its tail-bound deviation is the largest excess itself.
DEFAULT_DIGESTS = {
    "fig2.csv": "245d4bbef9a02d38084aebbec117b20be613e8b0e336ef82247850490c858883",
    "fig3_regions.csv": "e6088d3cbc7b2dc870f851f4a70fbe43f9ca143e7e8316ef72aa64bb60c32467",
    "cooling_coherent.csv": "65cad94d6bfefc4c54f1eb32b6eb114b64ccf5f20d6e162b39263870b4709066",
    "cooling_incoherent.csv": "e1e064acfb7fbe13a63056f90963c507d5fa58457ff33dd213df1f5744d2deb8",
    "beta_swap_sweep.csv": "a9993a8d1e6be4486356eda9b6864263a2c62ef74db4aca55f9b153c9bdba94f",
    "validation_report.json": "a81fa657560720c91e1f6f7e977c2b06ce7e4f8a4878affe7ea89d7f44524fd7",
}


class TestOneSchema:
    def test_default_outputs_keep_their_digests(self, tmp_path):
        digests = {}
        for experiment in cli.EXPERIMENTS:
            manifest = cli.run_experiment(cli.ExperimentConfig.from_dict(
                {"experiment": experiment, "output_dir": str(tmp_path / experiment)}))
            for entry in manifest.files:
                blob = (tmp_path / experiment / entry["name"]).read_bytes()
                digests[entry["name"]] = hashlib.sha256(blob).hexdigest()
        assert digests == DEFAULT_DIGESTS

    @pytest.mark.parametrize("argv, experiment", [
        (["fig2"], "fig2"),
        (["fig3"], "fig3"),
        (["cooling"], "cooling-coherent"),
        (["cooling", "--paradigm", "coherent"], "cooling-coherent"),
        (["cooling", "--paradigm", "incoherent"], "cooling-incoherent"),
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
        assert cli.main(["fig", "cooling", "--paradigm", "incoherent",
                         "--rounds", "3", "--d-list", "2,5",
                         "--out", str(tmp_path / "f")]) == 0
        manifest = json.loads((tmp_path / "f" / "run_manifest.json").read_text())
        params = manifest["config"]["params"]
        defaults = cli.ExperimentConfig.from_dict(
            {"experiment": "cooling-incoherent"}).params
        assert params == dict(defaults, rounds=3, d_list=[2, 5])

    @pytest.mark.parametrize("paradigm, flag, value, field", [
        ("incoherent", "--gamma", "0.9", "params.gamma"),
        ("coherent", "--beta", "1.5", "params.beta"),
        ("coherent", "--script-E", "3", "params.script_E"),
    ])
    def test_flag_of_the_other_paradigm_is_a_config_error(
            self, tmp_path, capsys, paradigm, flag, value, field):
        out = tmp_path / "f"
        assert cli.main(["fig", "cooling", "--paradigm", paradigm, flag, value,
                         "--rounds", "2", "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


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
