"""The report comparer fails on a flipped pass flag or a lost check, and only then."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from freewick import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


@pytest.fixture(scope="module")
def report():
    """A real ``verify`` report, read back from the JSON it writes to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "--suite", "meixner"]) == 0
    return json.loads(out.getvalue())


def write(tmp_path, name, payload, text=None):
    path = tmp_path / name
    path.write_text(text if text is not None else json.dumps(payload), encoding="utf-8")
    return str(path)


def test_identical_reports_exit_0(report, tmp_path, capsys):
    a = write(tmp_path, "a.json", report)
    assert compare_reports.main([a, a]) == 0
    n = len(report["checks"])
    assert capsys.readouterr().out.endswith(f"{n} checks, 0 flipped or gone, {n} identical\n")


def test_flipped_flag_exits_nonzero(report, tmp_path, capsys):
    flipped = json.loads(json.dumps(report))
    check = flipped["checks"][2]
    check.update(residual=1.0, passed=False)
    a, b = write(tmp_path, "a.json", report), write(tmp_path, "b.json", flipped)
    assert compare_reports.main([a, b]) == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [r[:2] for r in rows if r[-3:] == ["True", "->", "False"]] == [["meixner", check["name"]]]


def test_lost_check_exits_nonzero_and_new_check_does_not(report, tmp_path, capsys):
    shorter = dict(report, checks=report["checks"][:-1])
    a, b = write(tmp_path, "a.json", report), write(tmp_path, "b.json", shorter)
    assert compare_reports.main([a, b]) == 1
    assert capsys.readouterr().out.splitlines()[-2].split()[-1] == "gone"
    assert compare_reports.main([b, a]) == 0
    assert capsys.readouterr().out.splitlines()[-2].split()[-1] == "new"


def test_drift_is_reported_not_failed(report, tmp_path, capsys):
    drifted = json.loads(json.dumps(report))
    drifted["checks"][0]["residual"] = 2 * report["checks"][0]["residual"]
    a, b = write(tmp_path, "a.json", report), write(tmp_path, "b.json", drifted)
    assert compare_reports.main([a, b]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[4] == "2"


def test_drift_that_rounds_to_1_is_noted_and_counted(report, tmp_path, capsys):
    # a residual moved by 1e-7 relative prints a ratio of 1, like an identical one
    drifted = json.loads(json.dumps(report))
    check = drifted["checks"][1]
    check["residual"] = report["checks"][1]["residual"] * (1 + 1e-7)
    a, b = write(tmp_path, "a.json", report), write(tmp_path, "b.json", drifted)
    assert compare_reports.main([a, b]) == 0
    lines = capsys.readouterr().out.splitlines()
    notes = {row.split()[1]: row.split()[4:] for row in lines[1:-1]}
    assert notes[check["name"]] == ["1", "drift"]
    assert [name for name, cells in notes.items() if cells != ["1"]] == [check["name"]]
    n = len(report["checks"])
    assert lines[-1] == f"{n} checks, 0 flipped or gone, {n - 1} identical"


def test_reads_the_bare_nan_of_older_reports(tmp_path, capsys):
    check = {"suite": "wick", "name": "wick_rule_n1", "tol": 1e-10, "passed": False}
    old = write(tmp_path, "old.json", None, '{"checks": [%s]}' % json.dumps(
        dict(check, residual=float("nan"))))
    assert "NaN" in Path(old).read_text()
    new = write(tmp_path, "new.json", {"checks": [dict(check, residual=None)]})
    assert compare_reports.main([old, new]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[2:] == ["nan", "nan", "nan"]
