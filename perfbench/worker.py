"""Benchmark worker. Each invocation is a fresh process that runs one workload.

    python3 perfbench/worker.py setup CONFIG
        Time import, load_config, make_rep/d0_for, *_supersystem and
        run_prescription for CONFIG, from before ``import susyinv``.

    python3 perfbench/worker.py run WORKLOAD SEED DIR SECONDS TRACE
        Passes through the workload's CLI calls, one call at a time, for
        SECONDS (at least MIN_PASSES passes), each call timed by speed.Timer
        as wall time and at reference speed. With TRACE = 1 every
        untraced pass is followed by a traced one, and the per-layer extras
        (single-suite runs, the two-thread sweep) run after the loop.

Both print one JSON object as their last line. Only the standard library is
imported before the set-up timer starts.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_PASSES = 3
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def _check_origin(module) -> None:
    """Refuse to measure a susyinv that is not this checkout's source."""
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"susyinv imported from {origin}, not from {SRC}")


def partner_output(cfg):
    """What every CLI call builds first: the prescription for one config."""
    from susyinv.construction import (oscillator_supersystem, run_prescription,
                                      spin_supersystem)

    rep = cfg.make_rep()
    d0 = cfg.d0_for(rep)
    if cfg.family == "spin":
        system = spin_supersystem(rep, cfg.theta, cfg.phi, cfg.f, cfg.g, b=cfg.b, d0=d0)
    else:
        system = oscillator_supersystem(rep, cfg.theta, cfg.phi, cfg.f, d0=d0)
    return run_prescription(system)


def setup_probe(config: str) -> dict:
    import susyinv.cli  # every module a CLI call loads
    import_s = time.perf_counter() - T0
    _check_origin(susyinv.cli)
    from susyinv.config import load_config

    out = partner_output(load_config(config))
    setup_s = time.perf_counter() - T0
    return {"setup_s": setup_s, "import_s": import_s, "levels": len(out.levels)}


@dataclass
class PassResult:
    walls: dict[str, float] = field(default_factory=dict)   # command -> seconds
    scaled: dict[str, float] = field(default_factory=dict)  # the same at reference speed
    failed_calls: int = 0
    problems: list[str] = field(default_factory=list)
    bytes_written: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.walls.values())


class Runner:
    """Runs a workload's CLI calls in this process and checks their outputs."""

    def __init__(self, workload, run_dir: Path):
        import susyinv.cli
        _check_origin(susyinv.cli)
        import check
        import speed
        import workloads

        self.cli, self.check, self.speed, self.workload = susyinv.cli, check, speed, workload
        self.speed.reading_s()   # warm-up: the first eigh pays for its workspace
        self.run_dir = run_dir
        self.configs = workloads.write_configs(workload, run_dir)
        self.out_dirs = {c.command: run_dir / f"out_{c.command}" for c in workload.calls}
        self.reference_check = True

    def call(self, call, env: dict[str, str] | None = None, sample: bool = True):
        """One CLI call, its printed lines discarded; returns its speed.Timer
        and exit code. With sample=False the kernel is not sampled."""
        out = self.out_dirs[call.command]
        shutil.rmtree(out, ignore_errors=True)
        argv = [call.command, "--config", str(self.configs[call.config]),
                "--out", str(out), *call.flags]
        with _environ(env or {}), contextlib.redirect_stdout(io.StringIO()):
            with self.speed.Timer(sample) as timer:
                try:
                    code = self.cli.main(argv)
                except Exception as exc:  # a crash is a failed operation, not a dead run
                    code = None
                    print(f"{call.command} raised {exc!r}", file=sys.stderr)
        return timer, code

    def call_problems(self, call, code: int | None) -> list[str]:
        out = self.out_dirs[call.command]
        problems = self.check.call_problems(call, code, out,
                                            self.workload.sizes.get("grid_points"))
        if self.reference_check:
            problems += self.check.fingerprint_problems(self.workload, call, out)
        return problems

    def one_pass(self, sample: bool = True) -> PassResult:
        """One pass through the workload's calls. Traced passes are not
        sampled, so that the handler's time stays out of the layer spans."""
        result = PassResult()
        for call in self.workload.calls:
            timer, code = self.call(call, sample=sample)
            result.walls[call.command] = timer.wall_s
            if sample:
                result.scaled[call.command] = timer.scaled_s
            out = self.out_dirs[call.command]
            result.bytes_written += sum(p.stat().st_size for p in out.iterdir()
                                        if p.is_file())
            problems = self.call_problems(call, code)
            result.failed_calls += bool(problems)
            result.problems += problems
        return result


@contextlib.contextmanager
def _environ(values: dict[str, str]):
    saved = {k: os.environ.get(k) for k in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def environment(workload) -> dict:
    """What two results must share to be comparable."""
    import ctypes
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        so = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(so, symbol):
                threads = int(getattr(so, symbol)())
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version', '')}",
            "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "workload": workload.name,
            "seed": workload.seed, "sizes": workload.sizes}


def _single_suite_times(runner: Runner) -> tuple[dict[str, float], int, list[str]]:
    """Wall time of the public run_suites on a one-suite copy of each checked config.

    Returns the times by suite, the number of run_suites calls and their problems.
    """
    from susyinv.config import load_config
    from susyinv.suites import run_suites
    import workloads

    times = dict.fromkeys(workloads.SUITE_NAMES, 0.0)
    calls = 0
    problems: list[str] = []
    checked = {c.config for c in runner.workload.calls if c.command in ("verify", "sweep")}
    for key in sorted(checked):
        text = runner.workload.configs[key]
        for name in workloads.SUITE_NAMES:
            path = runner.run_dir / f"{key}_{name}.ini"
            path.write_text(workloads.with_suites(text, name))
            cfg = load_config(path)
            start = time.perf_counter()
            results = run_suites(cfg)
            times[name] += time.perf_counter() - start
            calls += 1
            problems += [f"run_suites {name}: {r.name} failed" for r in results
                         if not r.passed]
    return times, calls, problems


def run(workload_name: str, seed: int, run_dir: Path, seconds: float, trace: bool) -> dict:
    import resource

    import workloads

    workload = workloads.make(workload_name, seed)
    runner = Runner(workload, run_dir)
    report: dict = {"env": environment(workload)}
    passes, traced = [], []
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        passes.append(runner.one_pass())
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                result = runner.one_pass(sample=False)
            finally:
                tracer.uninstall()
            traced.append((result, tracer.metrics()))
        now = time.perf_counter()
        # Start another pass only if it should end within the time asked for.
        if len(passes) >= MIN_PASSES and now + (now - begun) > start + seconds:
            break
    everything = passes + [r for r, _ in traced]
    report["attempted"] = len(everything) * len(workload.calls)
    report["failed"] = sum(r.failed_calls for r in everything)
    report["problems"] = sorted({p for r in everything for p in r.problems})
    report["walls"] = [r.walls for r in passes]
    report["scaled"] = [r.scaled for r in passes]
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["layers"] = _layers(runner, workload, passes, traced, report)
    return report


def _layers(runner: Runner, workload, passes, traced, report) -> dict:
    """Per-layer metrics: medians over traced passes; counts must repeat exactly."""
    import tracing

    layers = {}
    for name in traced[0][1]:
        values = [m[name] for _, m in traced]
        is_count = isinstance(values[0], int)
        if is_count and len(set(values)) != 1:
            report["problems"].append(f"count {name} differs between traced passes: {values}")
            report["failed"] += 1
        layers[name] = values[0] if is_count else statistics.median(values)
    layers["cli.bytes_written"] = traced[0][0].bytes_written
    zero = [n for n in tracing.REQUIRED_COUNTS[workload.name] if not layers[n]]
    if zero:
        raise SystemExit(f"traced counts are zero, a wrapper is not installed: {zero}")
    # Each traced pass directly follows an untraced one, so their difference
    # sees the same machine state.
    layers["trace.overhead_s"] = statistics.median(
        t.wall_s - u.wall_s for u, (t, _) in zip(passes, traced))

    suite_times, calls, problems = _single_suite_times(runner)
    report["attempted"] += calls
    report["failed"] += len(problems)
    report["problems"] += problems
    for name in suite_times:
        layers[f"suites.{name}_s"] = suite_times[name]

    sweep = [c for c in workload.calls if c.command == "sweep"]
    layers["sweep.threads2_over_serial"] = 0.0
    if sweep:
        walls = []
        for _ in range(3):
            timer, code = runner.call(sweep[0], {"SUSYINV_THREADS": "2"}, sample=False)
            problems = runner.call_problems(sweep[0], code)
            report["attempted"] += 1
            report["failed"] += bool(problems)
            report["problems"] += problems
            walls.append(timer.wall_s)
        serial = statistics.median(p.walls["sweep"] for p in passes)
        layers["sweep.threads2_over_serial"] = statistics.median(walls) / serial
        report["sweep_serial_s"] = serial
    return layers


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        print(json.dumps(setup_probe(argv[1])))
        return 0
    if argv[:1] == ["run"] and len(argv) == 6:
        _, name, seed, run_dir, seconds, trace = argv
        print(json.dumps(run(name, int(seed), Path(run_dir), float(seconds),
                             trace == "1")))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
