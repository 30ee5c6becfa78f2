"""The size ladder: in-process wall times of every CLI command on the shipped
configs at a ladder of sizes, plus one perfbench run, written as one JSON file.

    python3 tools/ladder.py --out BENCH_<n>.json

Run from the root of a source checkout. The rungs edit the shipped configs:

- spin j = 1/2, 5, 20: ``spin_default.ini`` with ``j`` edited and
  ``[propagate] level = auto`` (5 001 grid points) for ``build``,
  ``propagate`` and ``verify``; ``phase_loop.ini`` with ``j`` edited
  (2 000 steps) for ``phase``;
- oscillator N = 32, 128: ``oscillator_default.ini`` with ``n`` edited, and
  ``buffer = 16`` at N = 128 (1 501 grid points), for ``build``,
  ``propagate`` and ``verify``; at N = 128 also ``propagate`` with
  ``[propagate] level = kernel``, whose state lives in the even parity
  sector, and ``phase`` over a closed loop (``theta = "0.01"``, ``phi = "2*pi*t"``,
  ``t_final = 1.0``, ``[phase] steps = 200``): 128 levels of size 1.

Each command is timed once around ``susyinv.cli.main`` in this process, with
OpenBLAS on one thread as in perfbench. Then
``perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0`` runs, and
its metrics are kept. The ladder's times are unbounded metrics:
``BENCHMARK.json``'s gates stay with perfbench.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})   # before numpy loads
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from susyinv.cli import main  # noqa: E402

SPINS = ("1/2", "5", "20")
OSCILLATORS = (32, 128)
PERFBENCH_SECONDS = 10


def _edited(name: str, edits: dict[str, str]) -> str:
    text = (ROOT / "configs" / name).read_text()
    for old, new in edits.items():
        if old not in text:
            raise ValueError(f"{name} has no line {old!r}")
        text = text.replace(old, new)
    return text


def rungs() -> list[tuple[str, str, str]]:
    """(rung, command, config text) for every timed call."""
    calls = []
    for j in SPINS:
        spin = _edited("spin_default.ini", {"j = 1/2": f"j = {j}",
                                            "level = -1/2": "level = auto"})
        calls += [(f"spin j = {j}", c, spin) for c in ("build", "propagate", "verify")]
        loop = _edited("phase_loop.ini", {"j = 1/2": f"j = {j}"})
        calls.append((f"spin j = {j}", "phase", loop))
    for n in OSCILLATORS:
        edits = {"n = 32": f"n = {n}"} | ({"buffer = 8": "buffer = 16"} if n == 128 else {})
        osc = _edited("oscillator_default.ini", edits)
        calls += [(f"oscillator N = {n}", c, osc) for c in ("build", "propagate", "verify")]
    kernel = _edited("oscillator_default.ini", {"n = 32": "n = 128", "buffer = 8": "buffer = 16",
                                                "level = 0": "level = kernel"})
    calls.append(("oscillator N = 128, level = kernel", "propagate", kernel))
    calls.append(("oscillator N = 128", "phase", closed_loop(128, 16)))
    return calls


def closed_loop(n: int, buffer: int) -> str:
    """``oscillator_default.ini`` at N = n as a closed loop of 200 phase steps."""
    text = _edited("oscillator_default.ini", {
        "n = 32": f"n = {n}", "buffer = 8": f"buffer = {buffer}",
        'theta = "0.01*sin(t)"': 'theta = "0.01"', 'phi = "0.4*t"': 'phi = "2*pi*t"',
        "t_final = 3.0": "t_final = 1.0"})
    return text + "\n[phase]\nsteps = 200\n"


def ladder() -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, (rung, command, text) in enumerate(rungs()):
            config = Path(tmp) / f"rung{k}.ini"
            config.write_text(text)
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(config), "--out", str(Path(tmp) / "out")])
            wall = time.perf_counter() - start
            rows.append({"rung": rung, "command": command, "wall_s": wall, "exit": code})
            print(f"{rung:34s} {command:10s} {wall:8.3f} s  exit {code}", flush=True)
    return rows


def perfbench() -> dict:
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all", "--seed",
                           "0", "--seconds", str(PERFBENCH_SECONDS), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def environment() -> dict:
    """The machine, the versions, and the commit measured, with whether its src differs."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "blas_threads": 1,
            "commit": _git("rev-parse", "HEAD") or None,
            "src_modified": bool(_git("status", "--porcelain", "--", "src"))}


def run() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args()
    report = {"env": environment(), "ladder": ladder(), "perfbench": perfbench()}
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
