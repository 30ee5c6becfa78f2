"""Config-driven command line front end.

Subcommands: build, verify, propagate, phase, sweep. All numeric output uses
17 significant digits so files round-trip doubles and runs are byte-identical
for identical configs. Exit codes: 0 success, 1 failed checks, 2 bad config,
bad loop geometry or an output directory that cannot be made.

Time-function strings in config files follow the grammar of :mod:`susyinv.timefunc`.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import json
import sys
from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config, parse_level
from .construction import (GeneratorSplitError, NonFiniteHamiltonianError, closed_form_osc_R,
                           closed_form_spin_R, evolution_from_gauge)
from .dynamics import NonClosedLoopError, StepSizeError, berry_holonomy
from .operators import (NonHermitianError, SingularMatrixError, chunks, eigh, eigvalsh,
                        hermiticity_defect, over_chunks, unitarity_defect)
from .suites import build_system, run_suites, stepped_states
from .susy import PairingAmbiguityError


# Numbers of a CSV file formatted per write. The bytes are the same at any size;
# with freed pages kept (keep_freed_pages) spin_grid's build and propagate read
# 0-2 minor faults a call at 16 Ki to 128 Ki, at wall times the sizes do not
# separate.
CSV_CHUNK = 64 * 1024


# glibc's malloc unmaps a freed block above its mmap threshold and gives back
# the freed top of its heap above its trim threshold, both 128 KiB until a large
# block is freed, so a loop whose chunks allocate and free (k, d, d) stacks
# pages them in again at every chunk: warm N = 128 build, verify and propagate
# calls read about 2 040, 2 240 and 680 minor faults. The CLI takes blocks up to
# MMAP_THRESHOLD (the top of the dynamic threshold on 64-bit) from the heap and
# keeps up to TRIM_THRESHOLD of freed top, so each chunk reuses the pages of the
# one before.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt's parameters, as in malloc.h
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 512 * 1024 * 1024


def keep_freed_pages() -> None:
    """Set malloc to keep freed pages in the process (see MMAP_THRESHOLD); a C
    library with no mallopt is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library to open, or not glibc
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list[str], columns) -> None:
    """One row per line of the table whose columns are the (n,) and (n, k) arrays
    ``columns``, every number as %.17g, written CSV_CHUNK numbers at a time."""
    row = ",".join(["%.17g"] * len(header)) + "\n"
    step = max(1, CSV_CHUNK // len(header))
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), step):
            table = np.column_stack([c[start:start + step] for c in columns])
            fh.write("".join([row % tuple(r.tolist()) for r in table]))


def _write_json(path: Path, payload) -> None:
    """Compact, key-sorted JSON: without ``indent`` json uses its C encoder."""
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


def _json_complex(m: np.ndarray) -> str:
    """The sorted-key JSON object of the real and imaginary parts of a matrix, as
    rows of %.17g strings, with one % per matrix."""
    def rows(part: np.ndarray) -> str:
        row = "[" + ", ".join(['"%.17g"'] * part.shape[1]) + "]"
        return ("[" + ", ".join([row] * part.shape[0]) + "]") % tuple(part.ravel().tolist())
    return '{"imag": %s, "real": %s}' % (rows(m.imag), rows(m.real))


def _out_dir(cfg: RunConfig, out_override: str | None) -> Path:
    out_dir = Path(out_override or cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use the output directory {str(out_dir)!r}: "
                          f"{exc.strerror}") from None
    return out_dir


def cmd_build(cfg: RunConfig, out_override: str | None) -> int:
    """Write H_minus.csv, U_minus.json, invariant_spectrum.csv."""
    out_dir = _out_dir(cfg, out_override)
    rep, out = build_system(cfg)
    closed_form = closed_form_spin_R if cfg.family == "spin" else closed_form_osc_R

    grid = cfg.grid()
    if "csv" in cfg.formats:
        # One W per chunk and sector gives both H_- and I_- there; a chunk is sized by
        # the largest sector, and each sector's sample is dropped before the next's.
        def sector_checks(at):
            return hermiticity_defect(at.h_minus), eigvalsh(at.i_minus)

        def per_chunk(ts):
            defects, spectra = zip(*[sector_checks(s.sample(ts)) for s in out.sectors])
            spectrum = np.concatenate(spectra, axis=1)
            return np.column_stack([reduce(np.hypot, defects), np.sort(spectrum, axis=1)])

        checks = over_chunks(grid, max(s.dim for s in out.sectors), per_chunk)
        r = closed_form(cfg.f, cfg.theta, cfg.phi, grid)
        _write_csv(out_dir / "H_minus.csv", ["t", "R1", "R2", "R3", "hermiticity_defect"],
                   [grid, *r, checks[:, 0]])
        _write_csv(out_dir / "invariant_spectrum.csv",
                   ["t"] + [f"lambda_{i}" for i in range(rep.dim)], [grid, checks[:, 1:]])

    if "json" in cfg.formats:
        # The bytes json.dumps(..., sort_keys=True) gives {"family": ..., "samples":
        # [{"t": "%.17g", "U": _json_complex(u)}, ...]}, with no call per number,
        # written a chunk of samples at a time; U_- is the direct sum of the sectors'.
        times = grid[::max(1, (grid.size - 1) // 100)]
        with (out_dir / "U_minus.json").open("w") as fh:
            fh.write('{"family": %s, "samples": [' % json.dumps(cfg.family))
            for sl in chunks(times.size, rep.dim):
                us = out.assemble([evolution_from_gauge(s.gauge, s.y, times[sl])
                                   for s in out.sectors])
                fh.write((", " if sl.start else "") + ", ".join(
                    '{"U": %s, "t": "%.17g"}' % (_json_complex(u), t)
                    for t, u in zip(times[sl], us)))
            fh.write("]}\n")
    print(f"wrote build outputs to {out_dir}")
    return 0


def cmd_verify(cfg: RunConfig, out_override: str | None,
               tolerance_scale: float, wrong_h_flag: bool) -> int:
    """Run the configured residual suites; exit 0 iff all pass."""
    if wrong_h_flag:
        cfg = replace(cfg, cross_check_wrong_h=True)
    out_dir = _out_dir(cfg, out_override)
    results = run_suites(cfg, tolerance_scale)
    width = max(len(r.name) for r in results)
    print(f"{'check'.ljust(width)}  {'max residual':>14}  {'tolerance':>12}  status")
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name.ljust(width)}  {r.max_residual:14.6e}  {r.tolerance:12.3e}  {status}")
        if r.note:
            print(f"  warning: {r.note}")
    payload = {"checks": [{"name": r.name, "max_residual": _fmt(r.max_residual),
                           "note": r.note, "tolerance": _fmt(r.tolerance),
                           "pass": r.passed}
                          for r in results],
               "all_pass": all(r.passed for r in results)}
    _write_json(out_dir / "verify.json", payload)
    return 0 if payload["all_pass"] else 1


def _resolve_level(cfg: RunConfig, out) -> tuple[int | None, str]:
    """The configured level's prescription index, by its generator eigenvalue, and label."""
    value = parse_level(cfg.propagate_level)
    if isinstance(value, str):  # kernel or auto
        return (None if value == "kernel" else 0), value
    if cfg.family == "spin":
        if abs(value - cfg.j) < 1e-9:
            return None, f"m={value} (zero mode)"
        mu = value + 1.0
    else:
        mu = (2 * value + 3) / 4
    try:
        return out.level_for_label(mu), f"level {cfg.propagate_level.lower()}"
    except KeyError as exc:  # its message, as str() would quote it
        raise ConfigError(f"[propagate] level = {cfg.propagate_level!r}: {exc.args[0]}") from None


def _state_columns(grid: np.ndarray, states: dict) -> tuple[list[str], list]:
    """The header and columns of solution.csv: t, then the real and the imaginary
    parts of each named (n, dim) array of states."""
    header, columns = ["t"], [grid]
    for name, psi in states.items():
        header += [f"{part}_{name}_{i}" for part in ("re", "im") for i in range(psi.shape[1])]
        columns += [psi.real, psi.imag]
    return header, columns


def cmd_propagate(cfg: RunConfig, out_override: str | None) -> int:
    """Compare numerical propagation with the closed-form solution."""
    out_dir = _out_dir(cfg, out_override)
    rep, out = build_system(cfg)
    grid = cfg.grid()
    level, label = _resolve_level(cfg, out)
    if level is None:
        print(f"warning: {label} has no superpartner; writing numeric-only columns")
        # I_-(0)'s lowest eigenvector in the first sector that holds its smallest eigenvalue.
        sector, es = min(((s, eigh(s.sample(np.zeros(1)).i_minus[0])) for s in out.sectors),
                         key=lambda pair: pair[1].values[0])
        psi0 = np.zeros(rep.dim, dtype=complex)
        psi0[... if sector.rows is None else sector.rows] = es.vectors[:, 0]
        numeric = stepped_states(out, cfg.dt, psi0, grid)
        _write_csv(out_dir / "solution.csv", *_state_columns(grid, {"num": numeric}))
        return 0

    numeric = stepped_states(out, cfg.dt, out.mapped_solution(level, 0.0), grid)
    closed = over_chunks(grid, max(s.dim for s in out.sectors),
                         lambda ts: out.mapped_solution(level, ts))
    infid = 1.0 - np.abs(np.sum(closed.conj() * numeric, axis=1))
    header, columns = _state_columns(grid, {"num": numeric, "closed": closed})
    _write_csv(out_dir / "solution.csv", header + ["infidelity"], columns + [infid])
    print(f"propagated {label}: max infidelity {np.max(infid):.3e}")
    return 0


def cmd_phase(cfg: RunConfig, out_override: str | None, reverse_flag: bool) -> int:
    """Holonomies of the transported invariant eigenframes over the closed loop, taken
    per sector. The levels of all sectors are listed by invariant eigenvalue, equal ones
    in sector order: an eigenvalue that two sectors share is two levels."""
    out_dir = _out_dir(cfg, out_override)
    rep, out = build_system(cfg)
    T = cfg.t_final
    d_theta = abs(cfg.theta(T) - cfg.theta(0.0))
    d_phi = cfg.phi(T) - cfg.phi(0.0)
    winding = d_phi / (2 * np.pi)
    if d_theta > 1e-9 or abs(winding - round(winding)) > 1e-9:
        print(f"error: loop is not closed: theta(T)-theta(0) = {d_theta:.3e}, "
              f"phi(T)-phi(0) = {d_phi:.6g} (needs multiples of 2*pi)", file=sys.stderr)
        return 2
    reverse = reverse_flag or cfg.phase_reverse
    steps = cfg.phase_steps

    found = []  # per level of each sector: its eigenvalue, its gammas at steps and 2 * steps
    for sector in out.sectors:
        es0 = eigh(sector.i_ref)

        def frame(s, gauge=sector.gauge, vectors=es0.vectors):
            # The W stack times the eigenvectors as one (n d, d) x (d, d) product:
            # one GEMM call in place of n, with the same numbers.
            w = np.asarray(gauge.value(T - s if reverse else s))
            return (w.reshape(-1, w.shape[-1]) @ vectors).reshape(w.shape)
        found += zip([es0.values[list(g)].mean() for g in es0.degeneracy_groups],
                     *berry_holonomy(frame, (steps, 2 * steps), period=T,
                                     groups=es0.degeneracy_groups))
    levels = [{"degeneracy": len(g), "gamma": json.loads(_json_complex(g)),
               "invariant_eigenvalue": _fmt(value), "level": gi,
               "resolution_doubling_delta": _fmt(np.linalg.norm(g - g2)), "steps": steps,
               "unitarity_defect": _fmt(unitarity_defect(g))}
              for gi, (value, g, g2) in enumerate(sorted(found, key=lambda lv: lv[0]))]
    _write_json(out_dir / "holonomy.json", {"levels": levels, "reverse": reverse})
    print(f"wrote holonomy.json with {len(levels)} levels")
    return 0


def _sweep_cell(index: int, cfg_text: str, key: str, value: str, out_dir: Path,
                tolerance_scale: float) -> list:
    """Write and verify one cell config; return its suite results."""
    section, option = key.split(".", 1)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    cp.read_string(cfg_text)
    if not cp.has_section(section):
        cp.add_section(section)
    cp.set(section, option, value)
    cell_path = out_dir / f"sweep_cell_{index:03d}.ini"
    with cell_path.open("w") as fh:
        cp.write(fh)
    cell_cfg = load_config(cell_path)
    results = run_suites(cell_cfg, tolerance_scale)
    payload = {"cell": index, "value": value,
               "checks": [{"name": r.name, "max_residual": _fmt(r.max_residual),
                           "tolerance": _fmt(r.tolerance), "pass": r.passed}
                          for r in results],
               "all_pass": all(r.passed for r in results)}
    _write_json(out_dir / f"sweep_cell_{index:03d}.json", payload)
    return results


def cmd_sweep(cfg: RunConfig, config_path: str, out_override: str | None,
              tolerance_scale: float) -> int:
    """Re-run the verify suites over a one-parameter family of configs, cell by cell."""
    if cfg.sweep_key is None or not cfg.sweep_values:
        print("error: sweep requires [sweep] key and values", file=sys.stderr)
        return 2
    out_dir = _out_dir(cfg, out_override)
    cfg_text = Path(config_path).read_text()
    rows = []
    all_pass = True
    for index, value in enumerate(cfg.sweep_values):
        results = _sweep_cell(index, cfg_text, cfg.sweep_key, value, out_dir,
                              tolerance_scale)
        cell_pass = all(r.passed for r in results)
        all_pass &= cell_pass
        worst = max(r.max_residual for r in results)
        rows.append((index, worst, 1.0 if cell_pass else 0.0))
        print(f"cell {index:3d}  {cfg.sweep_key} = {value:20s}  "
              f"worst residual {worst:.6e}  {'pass' if cell_pass else 'FAIL'}")
    _write_csv(out_dir / "sweep.csv", ["cell", "worst_residual", "pass"], [np.array(rows)])
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="susyinv",
        description="Supersymmetric dynamical invariants: build, verify, propagate, "
                    "phase, sweep.")
    parser.add_argument("command",
                        choices=["build", "verify", "propagate", "phase", "sweep"])
    parser.add_argument("--config", required=True, help="path to an INI run config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--tolerance-scale", type=float, default=1.0,
                        help="multiply all suite tolerances")
    parser.add_argument("--cross-check-wrong-H", action="store_true",
                        dest="wrong_h",
                        help="verify against the mismatched plus-sector Hamiltonian")
    parser.add_argument("--reverse", action="store_true",
                        help="traverse the phase loop backwards")
    return parser


def main(argv: list[str] | None = None) -> int:
    keep_freed_pages()
    args = build_parser().parse_args(argv)
    scale = args.tolerance_scale
    if args.command in ("verify", "sweep") and not (np.isfinite(scale) and scale > 0):
        print(f"error: --tolerance-scale must be finite and positive, got {scale!r}",
              file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "build":
            return cmd_build(cfg, args.out)
        if args.command == "verify":
            return cmd_verify(cfg, args.out, args.tolerance_scale, args.wrong_h)
        if args.command == "propagate":
            return cmd_propagate(cfg, args.out)
        if args.command == "phase":
            return cmd_phase(cfg, args.out, args.reverse)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.config, args.out, args.tolerance_scale)
    except (ConfigError, StepSizeError, PairingAmbiguityError, GeneratorSplitError,
            NonClosedLoopError, NonHermitianError, NonFiniteHamiltonianError,
            SingularMatrixError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
