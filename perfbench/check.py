"""Correctness check of the CLI outputs a benchmark pass produces.

Every seed: exit codes, verify verdicts, propagate's max infidelity, the
build Hermiticity defects, holonomy unitarity and sweep verdicts.

Default seed only: a fingerprint of the numbers themselves, recorded from the
code the benchmark was defined on (``reference.json``), compared at a 1e-12
relative bound per array. Residual and defect columns are left out of the
fingerprint: they sit at rounding level and may move when the rounding order
changes, so they are checked only against their suite tolerances.

    python3 perfbench/check.py --write-reference   # re-record reference.json
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, Call, Workload

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REL_BOUND = 1e-12
HERMITICITY_TOL = 1e-9        # construction.HERMITICITY_TOL of the gauge kinds
SOLUTIONS_TOL = 1e-5          # suites.SPIN_TOLS["solutions"]
HOLONOMY_UNITARITY_TOL = 1e-9
FINGERPRINT_ROWS = 11         # rows kept from each CSV, evenly spaced
FINGERPRINT_U_SAMPLES = (50, 100)   # of the 101 samples in U_minus.json


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open() as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def call_problems(call: Call, exit_code: int | None, out_dir: Path,
                  grid_points: int | None) -> list[str]:
    """What is wrong with one CLI call's exit code and output files."""
    problems = []
    if exit_code != call.exit_code:
        problems.append(f"{call.command}: exit code {exit_code}, expected {call.exit_code}")
    try:
        problems += _output_problems(call, out_dir, grid_points)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"{call.command}: unreadable output: {exc!r}")
    return problems


def _output_problems(call: Call, out: Path, grid_points: int | None) -> list[str]:
    cmd = call.command
    if cmd == "build":
        _, h = _read_csv(out / "H_minus.csv")
        _, spec = _read_csv(out / "invariant_spectrum.csv")
        json.loads((out / "U_minus.json").read_text())
        problems = [f"build: {name} has {len(rows)} rows, expected {grid_points}"
                    for name, rows in (("H_minus.csv", h), ("invariant_spectrum.csv", spec))
                    if len(rows) != grid_points]
        worst = float(np.max(h[:, 4]))
        if not worst <= HERMITICITY_TOL:
            problems.append(f"build: hermiticity defect {worst:.3e} > {HERMITICITY_TOL}")
        return problems
    if cmd == "propagate":
        header, sol = _read_csv(out / "solution.csv")
        if header[-1] != "infidelity" or len(sol) != grid_points:
            return ["propagate: solution.csv lacks the infidelity column or rows"]
        worst = float(np.max(sol[:, -1]))
        return [] if worst <= SOLUTIONS_TOL else \
            [f"propagate: max infidelity {worst:.3e} > {SOLUTIONS_TOL}"]
    if cmd == "verify":
        payload = json.loads((out / "verify.json").read_text())
        failing = {c["name"] for c in payload["checks"] if not c["pass"]}
        return [] if failing == set(call.failing) else \
            [f"verify: failing checks {sorted(failing)}, expected {sorted(call.failing)}"]
    if cmd == "phase":
        levels = json.loads((out / "holonomy.json").read_text())["levels"]
        worst = max(float(lv["unitarity_defect"]) for lv in levels)
        return [] if worst <= HOLONOMY_UNITARITY_TOL else \
            [f"phase: holonomy unitarity defect {worst:.3e} > {HOLONOMY_UNITARITY_TOL}"]
    if cmd == "sweep":
        _, cells = _read_csv(out / "sweep.csv")
        return [] if len(cells) and np.all(cells[:, 2] == 1.0) else \
            ["sweep: a cell failed its checks"]
    return [f"no output check for command {cmd!r}"]


def _complex(payload: dict) -> list:
    """A {"real", "imag"} matrix as [real rows, imag rows] of floats."""
    return [[[float(v) for v in row] for row in payload[part]] for part in ("real", "imag")]


def fingerprint(call: Call, out: Path) -> dict[str, list]:
    """The numbers of one call's outputs that the default-seed reference keeps."""
    fp: dict[str, list] = {}
    if call.command == "build":
        _, h = _read_csv(out / "H_minus.csv")
        rows = np.linspace(0, len(h) - 1, FINGERPRINT_ROWS).round().astype(int)
        fp["H_minus.csv"] = h[rows, :4].tolist()
        fp["invariant_spectrum.csv"] = _read_csv(
            out / "invariant_spectrum.csv")[1][rows].tolist()
        samples = json.loads((out / "U_minus.json").read_text())["samples"]
        for k in FINGERPRINT_U_SAMPLES:
            fp[f"U_minus.json[{k}]"] = _complex(samples[k]["U"])
    elif call.command == "propagate":
        _, sol = _read_csv(out / "solution.csv")
        rows = np.linspace(0, len(sol) - 1, FINGERPRINT_ROWS).round().astype(int)
        fp["solution.csv"] = sol[rows, :-1].tolist()
    elif call.command == "phase":
        for lv in json.loads((out / "holonomy.json").read_text())["levels"]:
            fp[f"holonomy.json[{lv['level']}]"] = _complex(lv["gamma"])
    return fp


def fingerprint_problems(workload: Workload, call: Call, out: Path) -> list[str]:
    """Differences of one call's outputs from the reference, for the default seed."""
    if workload.seed != DEFAULT_SEED:
        return []
    reference = json.loads(REFERENCE.read_text()).get(workload.name, {}).get(call.command, {})
    try:
        got = fingerprint(call, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{call.command}: fingerprint unreadable: {exc!r}"]
    problems = []
    for name in sorted(set(reference) | set(got)):
        if name not in got or name not in reference:
            problems.append(f"{call.command}: fingerprint {name} missing")
            continue
        ref, new = np.asarray(reference[name]).ravel(), np.asarray(got[name]).ravel()
        if ref.shape != new.shape:
            problems.append(f"{call.command}: fingerprint {name} has {new.size} values, "
                            f"expected {ref.size}")
            continue
        bound = REL_BOUND * max(1.0, float(np.max(np.abs(ref))))
        worst = float(np.max(np.abs(new - ref)))
        if not worst <= bound:
            problems.append(f"{call.command}: {name} moved by {worst:.3e} > {bound:.3e}")
    return problems


def write_reference() -> None:
    """Record reference.json from the code in this checkout."""
    import tempfile

    import worker
    import workloads

    payload: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for name in workloads.WORKLOADS:
            w = workloads.make(name, DEFAULT_SEED)
            runner = worker.Runner(w, Path(tmp) / name)
            runner.reference_check = False
            result = runner.one_pass()
            if result.problems:
                raise SystemExit(f"{name}: outputs fail their checks: {result.problems}")
            for call in w.calls:
                fp = fingerprint(call, runner.out_dirs[call.command])
                if fp:
                    payload.setdefault(name, {})[call.command] = fp
    REFERENCE.write_text(json.dumps(payload, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-reference"]:
        raise SystemExit(__doc__)
    write_reference()
