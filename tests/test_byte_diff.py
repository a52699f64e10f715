"""The byte-diff report of ``benchmarks/byte_diff.py`` on two small output
directories."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "byte_diff.py"

CSV = "# thermoproc demo v1\n# gamma=0.75\nd,p\n1,0.75\n2,0.5\n3,0.25\n"
CHECKS = [{"name": "alpha", "deviation": 1e-16, "passed": True, "tolerance": 1e-12},
          {"name": "beta", "deviation": 0.0, "passed": True, "tolerance": 0.5}]


@pytest.fixture(scope="module")
def byte_diff():
    spec = importlib.util.spec_from_file_location("byte_diff", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_outputs(directory, csv, checks):
    directory.mkdir()
    (directory / "demo.csv").write_text(csv)
    (directory / "validation_report.json").write_text(json.dumps({"checks": checks}))
    return str(directory)


def column_line(out, name):
    (line,) = [line for line in out.splitlines() if line.split()[:1] == [name]]
    return line.split()


def test_identical_directories_exit_zero(byte_diff, tmp_path, capsys):
    old = write_outputs(tmp_path / "old", CSV, CHECKS)
    new = write_outputs(tmp_path / "new", CSV, CHECKS)
    assert byte_diff.main([old, new]) == 0
    out = capsys.readouterr().out
    assert column_line(out, "p") == ["p", "0", "0.00e+00", "0.00e+00", "-"]
    assert out.splitlines()[-1] == "byte-identical"


def test_one_changed_value_is_counted_measured_and_located(byte_diff, tmp_path, capsys):
    old = write_outputs(tmp_path / "old", CSV, CHECKS)
    new = write_outputs(tmp_path / "new", CSV.replace("2,0.5", "2,0.4"),
                        [dict(CHECKS[0], deviation=2e-16), CHECKS[1]])
    assert byte_diff.main([old, new]) == 1
    out = capsys.readouterr().out
    assert column_line(out, "d") == ["d", "0", "0.00e+00", "0.00e+00", "-"]
    assert column_line(out, "p") == ["p", "1", "1.00e-01", "2.00e-01", "2"]
    assert column_line(out, "alpha") == ["alpha", "1e-16", "2e-16", "True", "True"]
    assert column_line(out, "beta") == ["beta", "0.0", "0.0", "True", "True"]
    assert out.splitlines()[-1] == "differs"


def test_a_file_only_one_side_has_differs(byte_diff, tmp_path, capsys):
    old = write_outputs(tmp_path / "old", CSV, CHECKS)
    new = write_outputs(tmp_path / "new", CSV, CHECKS)
    (tmp_path / "new" / "extra.csv").write_text(CSV)
    assert byte_diff.main([old, new]) == 1
    assert "extra.csv: only in NEW" in capsys.readouterr().out


def test_subdirectories_are_compared_by_relative_path(byte_diff, tmp_path, capsys):
    old = write_outputs(tmp_path / "old", CSV, CHECKS)
    new = write_outputs(tmp_path / "new", CSV, CHECKS)
    for side, csv in (("old", CSV), ("new", CSV.replace("3,0.25", "3,0.2"))):
        (tmp_path / side / "probe").mkdir()
        (tmp_path / side / "probe" / "demo.csv").write_text(csv)
        (tmp_path / side / "probe" / "run_manifest.json").write_text(side)
    assert byte_diff.main([old, new]) == 1
    out = capsys.readouterr().out
    assert "demo.csv: 3 -> 3 rows" in out  # the top-level file, unchanged
    assert "probe/demo.csv: 3 -> 3 rows" in out
    assert [line.split() for line in out.splitlines() if line.split()[:1] == ["p"]] == [
        ["p", "0", "0.00e+00", "0.00e+00", "-"],
        ["p", "1", "5.00e-02", "2.00e-01", "3"]]
    assert "run_manifest" not in out
    assert out.splitlines()[-1] == "differs"


def test_a_nested_file_only_one_side_has_differs(byte_diff, tmp_path, capsys):
    old = write_outputs(tmp_path / "old", CSV, CHECKS)
    new = write_outputs(tmp_path / "new", CSV, CHECKS)
    (tmp_path / "old" / "probe").mkdir()
    (tmp_path / "old" / "probe" / "validation_report.json").write_text(
        json.dumps({"checks": CHECKS}))
    assert byte_diff.main([old, new]) == 1
    out = capsys.readouterr().out
    assert "probe/validation_report.json: only in OLD" in out
    assert out.splitlines()[-1] == "differs"


def test_identical_nested_directories_are_byte_identical(byte_diff, tmp_path, capsys):
    for side in ("old", "new"):
        write_outputs(tmp_path / side, CSV, CHECKS)
        (tmp_path / side / "a" / "b").mkdir(parents=True)
        (tmp_path / side / "a" / "b" / "deep.csv").write_text(CSV)
    assert byte_diff.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    out = capsys.readouterr().out
    assert "a/b/deep.csv: 3 -> 3 rows" in out
    assert out.splitlines()[-1] == "byte-identical"
