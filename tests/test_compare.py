"""The file and stream comparisons of tools/compare.py, the golden-output gate, on
planted directories and printed text. The gate itself runs every CLI call on two
trees and stays out of the test suite."""

import importlib.util
import os
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare.py"


def load_tool(monkeypatch):
    # The tools set the BLAS thread variables and extend sys.path on import: keep
    # both to this test.
    monkeypatch.setattr(os, "environ", os.environ.copy())
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("compare_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_dirs_reports_moved_numbers_and_reads_negative_zero_as_zero(tmp_path,
                                                                           monkeypatch):
    compare = load_tool(monkeypatch)
    rev, checkout = tmp_path / "rev", tmp_path / "checkout"
    for d in (rev, checkout):
        d.mkdir()
    plant = {
        "same.csv": ("t,lambda_0\n0,1.5\n", "t,lambda_0\n0,1.5\n"),
        "moved.csv": ("t,x\n0,2\n1,10\n", "t,x\n0,2.000000001\n1,10\n"),
        "zero.json": ('{"real": [["-0", "1"]]}\n', '{"real": [["0", "1"]]}\n'),
        "renamed.csv": ("t,x\n0,1\n", "t,y\n0,1\n"),
        "infidelity.csv": ("t,infidelity\n0,inf\n", "t,infidelity\n0,nan\n"),
        "rev_only.csv": ("1\n", None),
    }
    for name, (a, b) in plant.items():
        (rev / name).write_text(a)
        if b is not None:
            (checkout / name).write_text(b)
    rows = {name: (report, ok) for name, report, ok in compare.compare_dirs(rev, checkout)}
    assert rows["same.csv"] == ("identical", True)
    # 1e-9 moved over the file's largest entry, 10: a relative 1e-10.
    report, ok = rows["moved.csv"]
    assert report == "max|a - b| / max|a| = 1e-10" and not ok
    assert rows["zero.json"] == ("identical (as numbers)", True)
    assert rows["renamed.csv"] == ("the text around the numbers differs", False)
    assert rows["infidelity.csv"] == ("max|a - b| / max|a| = inf", False)
    assert rows["rev_only.csv"] == ("only in REV", False)


def verify_table(solutions: str, status: str = "pass") -> str:
    """verify's printed table, with the solutions residual and verdict given."""
    return ("check         max residual     tolerance  status\n"
            f"solutions     {solutions}     1.000e-05  {status}\n"
            "intertwining  7.071068e-01     1.000e-01  pass\n")


def test_printed_residual_may_move_within_the_bound(monkeypatch):
    # A rounding move in a printed residual, as on spin_default with theta = "0",
    # is bounded by the largest printed number, 0.7071: 1.06e-16 / 0.7071.
    compare = load_tool(monkeypatch)
    rows = compare.compare_streams((0, verify_table("3.376612e-16"), ""),
                                   (0, verify_table("4.440892e-16"), ""))
    assert rows == [("stdout", "max|a - b| / max|a| = 1.51e-16", True)]
    assert compare.compare_streams((0, verify_table("3.376612e-16"), ""),
                                   (0, verify_table("3.376612e-16"), "")) == []


def test_printed_verdict_exit_code_and_stderr_must_not_move(monkeypatch):
    compare = load_tool(monkeypatch)
    rev = (0, verify_table("3.376612e-16"), "")
    for checkout, row in [
            ((1, verify_table("3.376612e-16", "FAIL"), ""),
             ("stdout", "the text around the numbers differs", False)),
            ((0, verify_table("3.376612e-10"), ""),
             ("stdout", "max|a - b| / max|a| = 4.78e-10", False)),
            ((0, verify_table("3.376612e-16"), "warning\n"), ("stderr", "differs", False))]:
        rows = compare.compare_streams(rev, checkout)
        assert row in rows and not all(ok for _, _, ok in rows)
    assert compare.compare_streams(rev, (1, rev[1], "")) == [("exit code", "differs", False)]
