"""susyinv benchmark: seeded CLI workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload spin_grid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout. Every workload is measured in fresh
worker processes with OpenBLAS pinned to one thread: a set-up probe several
times over, then one worker that runs the workload's CLI calls as a closed
loop (one call at a time) for --seconds. Every probe and every call is
bracketed by readings of the reference kernel in speed.py, and the bounded
times are reported at reference speed. Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(WORKER_ENV)   # before numpy loads: this process reads the kernel too

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9          # timed set-up probes per run, after one warm-up probe
WORKER_TIMEOUT_S = 170
COMMANDS = ("build", "propagate", "verify", "phase", "sweep")

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
LAYER_UNIT_SUFFIXES = (("_us_per_call", "us"), ("bytes_written", "bytes"),
                       ("stored_bytes", "bytes"), ("_over_serial", "ratio"), (".s", "s"),
                       ("_s", "s"))


def _worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("SUSYINV_THREADS", "PYTHONPATH")}
    env.update(WORKER_ENV)
    return env


def _worker(args: list[str]) -> dict:
    """Run perfbench/worker.py in a fresh process and return its JSON line."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> str:
    return f"median of {len(values)}, min {min(values):.4f}, max {max(values):.4f}"


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; prints its human-readable lines."""
    workload = workloads.make(name, seed)
    run_dir = ROOT / ".perfbench_run" / f"{name}-{seed}-{os.getpid()}"
    try:
        paths = workloads.write_configs(workload, run_dir)
        primary = str(paths[workload.primary])
        _worker(["setup", primary])                     # warm-up: fills __pycache__
        probes = []
        before = speed.reading_s()
        for _ in range(SETUP_PROBES):
            probe = _worker(["setup", primary])
            after = speed.reading_s()
            probe["scaled_s"] = speed.scaled(probe["setup_s"], before, after)
            probes.append(probe)
            before = after
        report = _worker(["run", name, str(seed), str(run_dir), str(seconds),
                          "1" if trace else "0"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if run_dir.parent.is_dir() and not any(run_dir.parent.iterdir()):
            run_dir.parent.rmdir()

    print(f"env {json.dumps(report['env'], sort_keys=True)}")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    setup = [p["scaled_s"] for p in probes]
    setup_wall = [p["setup_s"] for p in probes]
    passes = [sum(w.values()) for w in report["scaled"]]
    passes_wall = [sum(w.values()) for w in report["walls"]]
    print(f"workload {name}: seed {seed}, {len(passes)} measured passes, "
          f"{report['attempted']} operations, {report['failed']} failed")
    # Times are at reference speed (speed.py); the *_wall_s lines are as measured.
    print(f"metric setup_s {statistics.median(setup):.6f} s ({_spread(setup)})")
    print(f"metric pass_s {statistics.median(passes):.6f} s ({_spread(passes)})")
    for command in COMMANDS:
        walls = [w[command] for w in report["scaled"] if command in w]
        if walls:
            print(f"metric {command}_s {statistics.median(walls):.6f} s ({_spread(walls)})")
    print(f"metric setup_wall_s {statistics.median(setup_wall):.6f} s ({_spread(setup_wall)})")
    print(f"metric pass_wall_s {statistics.median(passes_wall):.6f} s ({_spread(passes_wall)})")
    print(f"metric peak_rss_mb {report['peak_rss_kb'] / 1024:.3f} MB")
    print(f"metric failed_share {report['failed'] / report['attempted']:.6f} ratio")

    if trace:
        layers = dict(report["layers"])
        layers["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        if "sweep_serial_s" in report:
            print(f"sweep.threads2_over_serial base: serial sweep_s "
                  f"{report['sweep_serial_s']:.6f} s from the same run")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
        for key, metric in metrics.items():
            print(f"layer {key} {metric['value']} {metric['unit']}")
    else:
        values = {"setup_s": statistics.median(setup),
                  "pass_s": statistics.median(passes),
                  "peak_rss_mb": report["peak_rss_kb"] / 1024}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {"correct": report["failed"] == 0 and not report["problems"],
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": metrics}


def layer_unit(name: str) -> str:
    return next((unit for suffix, unit in LAYER_UNIT_SUFFIXES if name.endswith(suffix)),
                "count")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "susyinv" / "cli.py").is_file():
        print(f"error: no susyinv source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: measure(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": m for n, r in results.items()
                              for k, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
