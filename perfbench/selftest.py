"""Self-test of the benchmark itself, not of susyinv.

    python3 perfbench/selftest.py

For several seeds it checks that the generator is deterministic, that a seed
changes only coefficients, that ||H|| * dt stays far below the propagator's
step limit, and that one pass of every workload ends with the expected exit
codes and verify verdicts. It then runs one traced pass of every workload at
the default seed and checks that every count metric is non-zero on at least
one workload and repeats exactly on a second traced pass.
Exits 0 when everything holds.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
import tracing
import worker
import workloads

SEEDS = (0, 1, 2, 3, 4)
STEP_MARGIN = 0.25   # ||H|| * dt must stay below half the 0.5 step limit


def _shape(text: str) -> str:
    return re.sub(r"-?\d+\.\d+", "#", text)


def check_generator() -> list[str]:
    from susyinv.config import load_config

    problems = []
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for name in workloads.WORKLOADS:
            shapes = set()
            for seed in SEEDS:
                w = workloads.make(name, seed)
                if w != workloads.make(name, seed):
                    problems.append(f"{name} seed {seed}: generator is not deterministic")
                shapes.add(tuple(_shape(t) for t in w.configs.values()))
                for key, path in workloads.write_configs(w, Path(tmp)).items():
                    cfg = load_config(path)
                    out = worker.partner_output(cfg)
                    times = np.linspace(0.0, cfg.t_final, 51)
                    worst = max(float(np.linalg.norm(out.h_minus(t).entries))
                                for t in times) * cfg.dt
                    if not worst < STEP_MARGIN:
                        problems.append(f"{name} seed {seed} {key}: ||H|| dt = {worst:.3g}")
            if len(shapes) != 1:
                problems.append(f"{name}: seeds change more than coefficients")
    return problems


def check_passes() -> list[str]:
    problems = []
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                result = worker.Runner(workloads.make(name, seed),
                                       Path(tmp) / f"{name}-{seed}").one_pass()
                problems += [f"{name} seed {seed}: {p}" for p in result.problems]
                print(f"{name} seed {seed}: {'ok' if not result.problems else 'FAILED'}",
                      flush=True)
    return problems


def check_trace() -> list[str]:
    names = [*tracing.Tracer().metrics(), "cli.bytes_written"]
    counts = [m for m in names if run.layer_unit(m) in ("count", "bytes")]
    problems, nonzero = [], set()
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for name in workloads.WORKLOADS:
            runner = worker.Runner(workloads.make(name, workloads.DEFAULT_SEED),
                                   Path(tmp) / name)
            seen = []
            for _ in range(2):
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    result = runner.one_pass(sample=False)
                finally:
                    tracer.uninstall()
                metrics = tracer.metrics()
                metrics["cli.bytes_written"] = result.bytes_written
                seen.append({c: metrics[c] for c in counts})
            if seen[0] != seen[1]:
                problems.append(f"{name}: counts differ between traced passes")
            nonzero |= {c for c in counts if seen[0][c]}
            missing = [c for c in tracing.REQUIRED_COUNTS[name] if not seen[0][c]]
            if missing:
                problems.append(f"{name}: required counts are zero: {missing}")
    problems += [f"count {c} is zero on every workload" for c in counts if c not in nonzero]
    return problems


def main() -> int:
    problems = check_generator() + check_passes() + check_trace()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
