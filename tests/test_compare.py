"""The file comparison of tools/compare.py, the golden-output gate, on planted
directories. The gate itself runs every CLI call on two trees and stays out of
the test suite."""

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
