"""Golden outputs of the shipped configs.

Refactors of the evaluation core may change the rounding order, never the
numbers. Every CLI command is run on each shipped config and its output files
are compared with `golden/golden.json`: subsampled rows of the CSV files, a
few `U_minus.json` samples and the holonomy gammas at 1e-12 relative (as
`perfbench/check.py` does), and the verify and sweep verdicts exactly.
Residual and defect columns sit at rounding level and are checked against
their suite tolerances only.

Re-record the fixture from the code in this checkout with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from susyinv.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden" / "golden.json"
REL_BOUND = 1e-12
ROWS = 11                  # rows kept from each CSV, evenly spaced
U_SAMPLES = (50, 100)      # of the 101 samples in U_minus.json
HERMITICITY_TOL = 1e-9     # construction.HERMITICITY_TOL of the closed-form gauges
SOLUTIONS_TOL = 1e-5       # suites.SPIN_TOLS["solutions"] and OSC_TOLS["solutions"]
HOLONOMY_UNITARITY_TOL = 1e-9

RUNS = (
    ("spin_default", "build"), ("spin_default", "propagate"), ("spin_default", "verify"),
    ("oscillator_default", "build"), ("oscillator_default", "propagate"),
    ("oscillator_default", "verify"),
    ("quadrupole", "build"), ("quadrupole", "propagate"), ("quadrupole", "verify"),
    ("spin_negative_control", "verify"),
    ("phase_loop", "phase"),
    ("sweep_example", "sweep"),
)


def _read_csv(path: Path) -> np.ndarray:
    with path.open() as fh:
        return np.array(list(csv.reader(fh))[1:], dtype=float)


def _rows(table: np.ndarray) -> np.ndarray:
    return table[np.linspace(0, len(table) - 1, ROWS).round().astype(int)]


def _complex(payload: dict) -> list:
    return [[[float(v) for v in row] for row in payload[part]] for part in ("real", "imag")]


def run_command(config: str, command: str, out: Path) -> int:
    return main([command, "--config", str(CONFIGS / f"{config}.ini"), "--out", str(out)])


def record(command: str, out: Path) -> tuple[dict, dict, list[str]]:
    """Numbers compared at 1e-12, exact verdicts, and tolerance problems of one run."""
    numbers: dict[str, list] = {}
    verdicts: dict[str, object] = {}
    problems: list[str] = []
    if command == "build":
        h = _read_csv(out / "H_minus.csv")
        numbers["H_minus.csv"] = _rows(h)[:, :4].tolist()
        if not np.max(h[:, 4]) <= HERMITICITY_TOL:
            problems.append(f"hermiticity defect {np.max(h[:, 4]):.3e}")
        numbers["invariant_spectrum.csv"] = _rows(
            _read_csv(out / "invariant_spectrum.csv")).tolist()
        samples = json.loads((out / "U_minus.json").read_text())["samples"]
        for k in U_SAMPLES:
            numbers[f"U_minus.json[{k}]"] = [float(samples[k]["t"])] + \
                np.ravel(_complex(samples[k]["U"])).tolist()
        verdicts["rows"] = [len(h), len(samples)]
    elif command == "propagate":
        sol = _read_csv(out / "solution.csv")
        header = (out / "solution.csv").read_text().split("\n", 1)[0].split(",")
        closed_form = header[-1] == "infidelity"
        numbers["solution.csv"] = _rows(sol)[:, :-1 if closed_form else None].tolist()
        if closed_form and not np.max(sol[:, -1]) <= SOLUTIONS_TOL:
            problems.append(f"max infidelity {np.max(sol[:, -1]):.3e}")
        verdicts["rows"] = [len(sol)]
        verdicts["header"] = header
    elif command == "verify":
        payload = json.loads((out / "verify.json").read_text())
        verdicts["checks"] = [[c["name"], c["pass"], c["tolerance"]]
                              for c in payload["checks"]]
        verdicts["all_pass"] = payload["all_pass"]
    elif command == "phase":
        for lv in json.loads((out / "holonomy.json").read_text())["levels"]:
            numbers[f"holonomy.json[{lv['level']}]"] = _complex(lv["gamma"])
            if not float(lv["unitarity_defect"]) <= HOLONOMY_UNITARITY_TOL:
                problems.append(f"holonomy unitarity defect {lv['unitarity_defect']}")
    elif command == "sweep":
        cells = _read_csv(out / "sweep.csv")
        verdicts["cells"] = cells[:, [0, 2]].tolist()
    return numbers, verdicts, problems


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("config,command", RUNS, ids=[f"{c}-{m}" for c, m in RUNS])
def test_matches_golden(golden, tmp_path, config, command):
    expected = golden[f"{config}/{command}"]
    code = run_command(config, command, tmp_path)
    assert code == expected["exit"]
    numbers, verdicts, problems = record(command, tmp_path)
    assert problems == []
    assert verdicts == expected["verdicts"]
    assert sorted(numbers) == sorted(expected["numbers"])
    for name, ref in expected["numbers"].items():
        ref, new = np.asarray(ref, dtype=float), np.asarray(numbers[name], dtype=float)
        assert new.shape == ref.shape, name
        bound = REL_BOUND * max(1.0, float(np.max(np.abs(ref))))
        worst = float(np.max(np.abs(new - ref)))
        assert worst <= bound, f"{name} moved by {worst:.3e} > {bound:.3e}"


def write_golden() -> None:
    payload = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config, command in RUNS:
            out = Path(tmp) / f"{config}-{command}"
            code = run_command(config, command, out)
            numbers, verdicts, problems = record(command, out)
            if problems:
                raise SystemExit(f"{config} {command}: {problems}")
            payload[f"{config}/{command}"] = {"exit": code, "verdicts": verdicts,
                                              "numbers": numbers}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    write_golden()
