"""The golden-output gate: the outputs of a fixed list of CLI calls on the tree of
a git revision and on this checkout, compared file by file, and optionally
alternating perfbench pairs of the two.

    python3 tools/compare.py REV                # the outputs only
    python3 tools/compare.py REV --pairs 10     # and 10 perfbench pairs per workload

Run from the root of a source checkout. REV's tree is unpacked from the local
git objects (``git archive``) into a temporary directory, and this checkout's
tracked and untracked files are copied beside it; both copies are
byte-compiled (``compileall``), so both run from the same bytecode state. Every
call runs as ``python -m susyinv`` in a fresh process per tree, with OpenBLAS on
one thread, on the same config text: this checkout's. The calls:

- each of the six shipped configs with ``build``, ``verify``, ``propagate``,
  ``phase``, ``sweep`` and ``verify --cross-check-wrong-H``, and
  ``phase_loop.ini`` with ``phase --reverse``;
- ``oscillator_default.ini`` (N = 32) with ``[propagate] level = kernel``, and
  as a closed loop (``theta = "0.01"``, ``phi = "2*pi*t"``, ``t_final = 1.0``,
  ``[phase] steps = 200``) with ``phase`` and ``phase --reverse``;
- ``phase_loop.ini`` edited to ``j = 20`` (the ladder's top ``phase`` rung) with
  ``phase`` and ``phase --reverse``: its one level of size 2 among levels of
  size 1 takes the 2 x 2 holonomy path that no shipped loop reaches;
- ``spin_default.ini`` with ``theta = "0"`` with ``build``, ``verify`` and
  ``propagate``: W is the identity and ``H_-`` diagonal, so the step
  exponential runs on diagonal stacks;
- ``spin_default.ini`` and ``oscillator_default.ini`` (N = 32, the two parity
  sectors) with their named d0 replaced by a ``[d0] file`` that holds the same
  matrix, J+ of j = 1/2 and a^dag, with ``build``, ``verify`` and ``propagate``:
  the file is written as JSON beside the call's config;
- every call of every perfbench workload at seeds 0, 1 and 2
  (``perfbench/workloads.py``).

A call whose exit code or stderr differs (the output directory's path reads
``OUT`` on both sides) is reported. Its stdout and each output file read
"identical" (byte for byte), "identical (as numbers)" (``-0`` equals ``0``), or
the largest |a - b| of their numbers over their largest |a|, when the text
around the numbers is the same; stdout is reported only when it is not
identical. So a residual that ``verify`` prints may move within the bound, but
not a verdict word. The script exits 1 on a stdout or file above ``REL_BOUND``
relative or on any other difference, and 0 otherwise.

With ``--pairs K`` it then runs K pairs of
``perfbench/run.py --workload W --seed 0 --trace 0`` per workload, at the
benchmark's own run length, REV's tree first in the even pairs and this
checkout's in the odd ones. Per end-to-end metric it prints both medians, the
quartiles of REV's runs and how many pairs read lower for this checkout. These
readings are reported, not gated.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tools")]

import workloads  # noqa: E402
from ladder import _edited, closed_loop  # noqa: E402

REL_BOUND = 1e-12
SEEDS = (0, 1, 2)
SHIPPED = ("spin_default", "oscillator_default", "quadrupole", "spin_negative_control",
           "phase_loop", "sweep_example")
COMMANDS = (("build",), ("verify",), ("propagate",), ("phase",), ("sweep",),
            ("verify", "--cross-check-wrong-H"))
D0_FILE = "{d0}"  # stands for the path of the call's [d0] file in its config text
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A number standing alone: not part of a word such as lambda_0 or infidelity.
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)(?![\w.])")


def file_difference(a: str, b: str) -> float | None:
    """The largest |a - b| over the numbers of two texts, over their largest |a|; None
    when the text around the numbers differs. NaN matches NaN, and a change in a
    non-finite number reads inf."""
    if a == b:
        return 0.0
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    x, y = (np.array([float(m) for m in NUMBER.findall(text)]) for text in (a, b))
    moved = ~((x == y) | (np.isnan(x) & np.isnan(y)))
    if not moved.any():
        return 0.0
    if not np.isfinite(x[moved]).all() or not np.isfinite(y[moved]).all():
        return float("inf")
    scale = np.max(np.abs(x[np.isfinite(x)]), initial=0.0)
    diff = float(np.max(np.abs(x[moved] - y[moved])))
    return diff / scale if scale else float("inf")


def compare_texts(a: str, b: str) -> tuple[str, bool]:
    """The report on two texts, and whether they are within the bound."""
    rel = file_difference(a, b)
    if rel is None:
        return "the text around the numbers differs", False
    if rel == 0.0:  # a -0 for a 0 leaves the numbers identical, not the bytes
        return "identical" if a == b else "identical (as numbers)", True
    return f"max|a - b| / max|a| = {rel:.3g}", rel <= REL_BOUND


def compare_dirs(base: Path, change: Path) -> list[tuple[str, str, bool]]:
    """(file name, report, within the bound) for every file of either directory."""
    rows = []
    names = {p.name for d in (base, change) if d.is_dir() for p in d.iterdir()}
    for name in sorted(names):
        a, b = base / name, change / name
        if not (a.is_file() and b.is_file()):
            rows.append((name, f"only in {'REV' if a.is_file() else 'this checkout'}", False))
            continue
        rows.append((name, *compare_texts(a.read_text(), b.read_text())))
    return rows


def compare_streams(rev: tuple, checkout: tuple) -> list[tuple[str, str, bool]]:
    """(stream, report, within the bound) for each of two calls' exit code, stdout
    and stderr that is not byte-identical: stdout's numbers may move within the
    bound, as a file's may."""
    rows = []
    for part, a, b in zip(("exit code", "stdout", "stderr"), rev, checkout):
        if a != b:
            rows.append((part, *compare_texts(a, b)) if part == "stdout" else
                        (part, "differs", False))
    return rows


def calls() -> list[tuple[str, str, tuple[str, ...], str | None]]:
    """(config label, config text, command and flags, the JSON text of the call's
    [d0] file or None) for every call."""
    out = []
    for config in SHIPPED:
        out += [(config, _edited(f"{config}.ini", {}), c) for c in COMMANDS]
    out.append(("phase_loop", _edited("phase_loop.ini", {}), ("phase", "--reverse")))
    out.append(("oscillator_default, level = kernel",
                _edited("oscillator_default.ini", {"level = 0": "level = kernel"}),
                ("propagate",)))
    out += [("oscillator_default, closed loop", closed_loop(32, 8), c)
            for c in (("phase",), ("phase", "--reverse"))]
    out += [("phase_loop, j = 20", _edited("phase_loop.ini", {"j = 1/2": "j = 20"}), c)
            for c in (("phase",), ("phase", "--reverse"))]
    out += [("spin_default, theta = 0",
             _edited("spin_default.ini", {'theta = "0.7853981633974483"': 'theta = "0"'}), c)
            for c in (("build",), ("verify",), ("propagate",))]
    out = [(*call, None) for call in out]
    for config, named, d0 in (("spin_default", "Jplus", np.diag([1.0], 1)),
                              ("oscillator_default", "adag", np.diag(np.sqrt(range(1, 32)), -1))):
        text = _edited(f"{config}.ini", {f"named = {named}": f"file = {D0_FILE}"})
        out += [(f"{config}, [d0] file", text, c, json.dumps({"real": d0.tolist()}))
                for c in (("build",), ("verify",), ("propagate",))]
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            workload = workloads.make(name, seed)
            out += [(f"perfbench {name}, seed {seed}, {call.config}",
                     workload.configs[call.config], (call.command, *call.flags), None)
                    for call in workload.calls]
    return out


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True)


def make_trees(rev: str, tmp: Path) -> tuple[Path, Path]:
    """REV's tree and a copy of this checkout, both byte-compiled."""
    base, change = tmp / "rev", tmp / "checkout"
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev).stdout)) as tar:
        tar.extractall(base, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    for name in _git("ls-files", "-z", "-co", "--exclude-standard").stdout.decode().split("\0"):
        if name and (ROOT / name).is_file():
            (change / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, change / name)
    for tree in (base, change):
        dirs = [d for d in ("src", "perfbench", "tools") if (tree / d).is_dir()]
        subprocess.run([sys.executable, "-m", "compileall", "-q", *dirs],
                       cwd=tree, check=True, capture_output=True)
    return base, change


def _env(tree: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | ENV
    return env | {"PYTHONPATH": str(tree / "src")}


def run_call(tree: Path, config: Path, out: Path, argv: tuple[str, ...]) -> tuple:
    """(exit code, stdout, stderr) of one CLI call, the output path read as OUT."""
    done = subprocess.run([sys.executable, "-m", "susyinv", argv[0], "--config", str(config),
                           "--out", str(out), *argv[1:]],
                          cwd=tree, env=_env(tree), capture_output=True, text=True)
    return done.returncode, done.stdout.replace(str(out), "OUT"), \
        done.stderr.replace(str(out), "OUT")


def compare_outputs(base: Path, change: Path, tmp: Path) -> bool:
    """Run every call on both trees and print what differs; True when nothing does
    beyond the bound."""
    ok = True
    for k, (name, text, argv, d0) in enumerate(calls()):
        config = tmp / "configs" / f"call{k:03d}.ini"
        config.parent.mkdir(exist_ok=True)
        if d0 is not None:
            config.with_suffix(".json").write_text(d0)
            text = text.replace(D0_FILE, str(config.with_suffix(".json")))
        config.write_text(text)
        outs = [tmp / "out" / side / f"call{k:03d}" for side in ("rev", "checkout")]
        results = [run_call(tree, config, out, argv) for tree, out in zip((base, change), outs)]
        rows = compare_streams(*results) + compare_dirs(*outs)
        call_ok = all(good for _, _, good in rows)
        ok &= call_ok
        print(f"{'ok  ' if call_ok else 'FAIL'} {name}: {' '.join(argv)} (exit {results[1][0]})")
        for part, report, _ in rows:
            print(f"       {part}: {report}")
    return ok


def _quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q[0], q[2]


def perfbench_pairs(base: Path, change: Path, pairs: int) -> None:
    """Print per workload and end-to-end metric the medians of both trees, REV's
    quartiles and how many of the alternating pairs read lower for this checkout."""
    for name in workloads.WORKLOADS:
        readings = {"rev": [], "checkout": []}
        for k in range(pairs):
            sides = [("rev", base), ("checkout", change)]
            for side, tree in sides if k % 2 == 0 else sides[::-1]:
                done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name,
                                       "--seed", "0", "--trace", "0"], cwd=tree,
                                      env=_env(tree), capture_output=True, text=True,
                                      check=True)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                if not result["correct"]:
                    print(f"{name}: a {side} run is not correct ({result['failed']} failed)")
                readings[side].append({key: m["value"] for key, m in result["metrics"].items()})
        for metric in readings["rev"][0]:
            rev, new = ([r[metric] for r in readings[side]] for side in ("rev", "checkout"))
            q1, q3 = _quartiles(rev)
            lower = sum(b < a for a, b in zip(rev, new))
            print(f"{name} {metric}: REV median {statistics.median(rev):.6g} "
                  f"(quartiles {q1:.6g} to {q3:.6g}, IQR {q3 - q1:.3g}), checkout median "
                  f"{statistics.median(new):.6g}, lower in {lower} of {pairs} pairs")
            for side, values in (("REV", rev), ("checkout", new)):
                print(f"    {side} runs: {' '.join(f'{v:.6g}' for v in values)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare this checkout with")
    parser.add_argument("--pairs", type=int, default=0,
                        help="alternating perfbench pairs per workload (default 0: none)")
    args = parser.parse_args()
    try:
        _git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"error: {args.rev!r} is not a commit of this repository", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="susyinv-compare-") as name:
        tmp = Path(name)
        base, change = make_trees(args.rev, tmp)
        ok = compare_outputs(base, change, tmp)
        print("outputs: all within the bound" if ok else "outputs: DIFFER")
        if args.pairs:
            perfbench_pairs(base, change, args.pairs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
