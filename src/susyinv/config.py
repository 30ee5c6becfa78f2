"""Run configuration: flat INI-style text with quoted time-function strings.

Sections and keys::

    [system]   family = spin | oscillator ; j = 1/2-integer | n = int, buffer = int ; b = float
    [gauge]    theta = "timefunc" ; phi = "timefunc"
    [y]        f = "timefunc" ; g = "timefunc"   (g optional)
    [d0]       named = Jplus | adag   or   file = path to a matrix .json
    [grid]     t_final = float ; dt = float
    [checks]   suites = comma list ; cross_check_wrong_h = bool (optional)
    [output]   dir = path ; formats = csv, json
    [phase]    steps = int ; reverse = bool (optional)
    [propagate] level = half-integer | kernel
    [sweep]    key = section.option ; values = semicolon list of expressions
"""

from __future__ import annotations

import configparser
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import timefunc
from .operators import Operator, first_true, over_chunks
from .representations import (OscillatorRep, SpinRep, check_half_integer, check_truncation,
                              default_buffer, make_oscillator, make_spin)

KNOWN_SUITES = ("superalgebra", "pairing", "gauge", "lvn", "unitarity",
                "intertwining", "solutions")
DEFAULT_SUITES = KNOWN_SUITES
MAX_STEPS = 10 ** 7
# Complex (d, d) matrices that a command holds at its peak, from traced peaks on
# a d = 128 oscillator with a 201-point grid: `verify` held 33.7 of them when the
# bound was set; in the parity sectors `verify` holds 28.7, `build` 27.1 and
# `propagate` 26.4, as both write their files a chunk at a time (make_oscillator
# alone builds about ten). propagate's states grow with the grid, as (nt, d).
HELD_MATRICES = 34


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    family: str
    j: float | None
    n: int | None
    buffer: int | None
    b: float
    theta: timefunc.TimeFunction
    phi: timefunc.TimeFunction
    f: timefunc.TimeFunction
    g: timefunc.TimeFunction | None
    d0_named: str | None
    d0_file: str | None
    t_final: float
    dt: float
    suites: tuple[str, ...]
    cross_check_wrong_h: bool
    out_dir: str
    formats: tuple[str, ...]
    phase_steps: int
    phase_reverse: bool
    propagate_level: str
    sweep_key: str | None
    sweep_values: tuple[str, ...]

    def make_rep(self) -> SpinRep | OscillatorRep:
        if self.family == "spin":
            return make_spin(self.j)
        return make_oscillator(self.n, self.buffer)

    def d0_for(self, rep: SpinRep | OscillatorRep) -> Operator:
        if self.d0_file is not None:
            return Operator(_read_d0_file(self.d0_file))
        name = self.d0_named or ("Jplus" if self.family == "spin" else "adag")
        if self.family == "spin" and name == "Jplus":
            return rep.Jplus
        if self.family == "oscillator" and name == "adag":
            return rep.adag
        raise ConfigError(f"d0 named {name!r} is not available for family {self.family!r}")

    def grid(self) -> np.ndarray:
        return _grid(self.t_final, self.dt)


def _grid(t_final: float, dt: float) -> np.ndarray:
    steps = int(round(t_final / dt))
    return np.linspace(0.0, steps * dt, steps + 1)


def _read_d0_file(path: str) -> np.ndarray:
    """The complex matrix of a ``[d0] file``: JSON ``{"real": rows, "imag": rows}``."""
    if not Path(path).is_file():
        raise ConfigError(f"[d0] file = {path!r}: file not found")
    try:
        payload = json.loads(Path(path).read_text())
        real = np.array(payload["real"], dtype=float)
        imag = np.array(payload.get("imag", np.zeros_like(real)), dtype=float)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"[d0] file = {path!r}: not a JSON matrix: {exc}") from exc
    if imag.shape != real.shape or not np.all(np.isfinite(real) & np.isfinite(imag)):
        raise ConfigError(f"[d0] file = {path!r}: real and imag must be finite arrays "
                          f"of one shape, got {real.shape} and {imag.shape}")
    return real + 1j * imag


def _parse_timefunc(section: str, key: str, text: str, grid: np.ndarray,
                    antiderivative: bool = False) -> timefunc.TimeFunction:
    """Parse one time function, with the calculus the program takes of it.

    Every function is differentiated; ``antiderivative`` also integrates it
    (f and g enter the solution phase through their antiderivatives). Each
    must be finite at every time of the config grid, t = 0 included; a
    non-finite number fails at t = 0.
    """
    with np.errstate(all="ignore"):
        try:
            fn = timefunc.parse(text)
            taken = [fn, fn.derivative()] + ([fn.antiderivative()] if antiderivative else [])
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"[{section}] {key} = {text!r}: {exc}") from exc
        bad = over_chunks(grid, 1, lambda ts: ~np.all([np.isfinite(g(ts)) for g in taken],
                                                       axis=0))
    k = first_true(bad)
    if k is not None:
        raise ConfigError(f"[{section}] {key} = {text!r}: not finite at t = {grid[k]:g}")
    return fn


def _int(section: str, key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {text!r} is not an integer") from exc


def _get(cp: configparser.ConfigParser, section: str, key: str,
         default=None, required: bool = False) -> str | None:
    if cp.has_option(section, key):
        return cp.get(section, key).strip()
    if required:
        raise ConfigError(f"missing required option [{section}] {key}")
    return default


def _bool(cp: configparser.ConfigParser, section: str, key: str) -> bool:
    """An optional boolean, false when absent; configparser's spellings, any other
    text is a ConfigError."""
    text = _get(cp, section, key, default="false")
    try:
        return cp.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ConfigError(f"[{section}] {key} = {text!r} is not a boolean; "
                          f"use one of {', '.join(cp.BOOLEAN_STATES)}") from None


def _check_memory(option: str, dim: int) -> None:
    """Raise ConfigError, before any array is built, when the HELD_MATRICES complex
    (dim, dim) matrices of a command need more bytes than the machine's physical memory."""
    need = HELD_MATRICES * 16 * dim * dim
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: no bound to hold to
        return
    if need > have:
        raise ConfigError(f"{option}: a command holds {HELD_MATRICES} complex ({dim}, {dim}) "
                          f"matrices, {need:.3g} bytes, more than the {have:.3g} bytes "
                          "of memory")


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(path.read_text())
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    family = (_get(cp, "system", "family", required=True) or "").lower()
    if family not in ("spin", "oscillator"):
        raise ConfigError(f"[system] family must be spin or oscillator, got {family!r}")

    j = n = buffer = None
    if family == "spin":
        j_text = _get(cp, "system", "j", required=True)
        try:
            if "/" in j_text:
                num, den = j_text.split("/")
                j = float(num) / float(den)
            else:
                j = float(j_text)
        except Exception as exc:
            raise ConfigError(f"[system] j = {j_text!r} is not a number") from exc
        try:
            dim = check_half_integer(j) + 1
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"[system] j = {j_text!r}: {exc}") from exc
        _check_memory(f"[system] j = {j_text!r}", dim)
    else:
        n = _int("system", "n", _get(cp, "system", "n", required=True))
        buf_text = _get(cp, "system", "buffer")
        buffer = _int("system", "buffer", buf_text) if buf_text else default_buffer(n)
        try:
            check_truncation(n, buffer)
        except ValueError as exc:
            raise ConfigError(f"[system] n = {n}, buffer = {buffer}: {exc}") from exc
        dim = n
        _check_memory(f"[system] n = {n}", dim)

    try:
        b = float(_get(cp, "system", "b", default="1.0"))
    except ValueError as exc:
        raise ConfigError("[system] b must be a number") from exc
    if not np.isfinite(b):
        raise ConfigError(f"[system] b = {b} must be finite")

    try:
        t_final = float(_get(cp, "grid", "t_final", required=True))
        dt = float(_get(cp, "grid", "dt", required=True))
    except ValueError as exc:
        raise ConfigError("[grid] t_final and dt must be numbers") from exc
    if not np.isfinite([t_final, dt]).all():
        raise ConfigError(f"[grid] t_final = {t_final}, dt = {dt}: both must be finite")
    if dt <= 0 or t_final <= 0:
        raise ConfigError("[grid] t_final and dt must be positive")
    if t_final / dt > MAX_STEPS:
        raise ConfigError(f"[grid] t_final/dt exceeds {MAX_STEPS}")
    if round(t_final / dt) < 1:
        raise ConfigError(f"[grid] t_final = {t_final:g} is below dt/2 = {dt / 2:g}: "
                          "the grid has no step")

    grid = _grid(t_final, dt)
    # U+ takes the phases (b m) t, |m| <= j, up to the last time any command samples.
    t_end = max(t_final, float(grid[-1]))
    if family == "spin" and not math.isfinite(b * j * t_end):
        raise ConfigError(f"[system] b = {b:g}: the plus-sector phase b*j*t must be "
                          f"finite up to t = {t_end:g}")
    theta = _parse_timefunc("gauge", "theta", _get(cp, "gauge", "theta", required=True),
                            grid)
    phi = _parse_timefunc("gauge", "phi", _get(cp, "gauge", "phi", required=True), grid)
    f = _parse_timefunc("y", "f", _get(cp, "y", "f", required=True), grid,
                        antiderivative=True)
    g_text = _get(cp, "y", "g", default="")
    g = _parse_timefunc("y", "g", g_text, grid, antiderivative=True) \
        if g_text.strip("\"'") else None
    g = None if g == timefunc.const(0.0) else g   # a zero g, however spelt, is no g
    if g is not None and family == "oscillator":
        raise ConfigError(
            "[y] g: the quadratic term is only wired for the spin family "
            "(no closed-form oscillator oracle to verify against)")

    d0_named = _get(cp, "d0", "named")
    d0_file = _get(cp, "d0", "file")
    if d0_file is not None:
        shape = _read_d0_file(d0_file).shape
        if shape != (dim, dim):
            raise ConfigError(f"[d0] file = {d0_file!r}: expected a {dim}x{dim} matrix "
                              f"for this representation, got shape {shape}")

    suites_text = _get(cp, "checks", "suites", default="")
    suites = tuple(s.strip() for s in suites_text.split(",") if s.strip()) or DEFAULT_SUITES
    unknown = [s for s in suites if s not in KNOWN_SUITES]
    if unknown:
        raise ConfigError(f"unknown check suites {unknown}; known: {list(KNOWN_SUITES)}")
    cross = _bool(cp, "checks", "cross_check_wrong_h")

    out_dir = _get(cp, "output", "dir", default="out")
    formats_text = _get(cp, "output", "formats", default="csv, json")
    formats = tuple(s.strip().lower() for s in formats_text.split(",") if s.strip())
    bad = [x for x in formats if x not in ("csv", "json")]
    if bad:
        raise ConfigError(f"[output] formats must be within csv, json; got {bad}")

    phase_steps = _int("phase", "steps", _get(cp, "phase", "steps", default="2000"))
    if phase_steps < 2:
        raise ConfigError(f"[phase] steps must be at least 2, got {phase_steps}")
    phase_reverse = _bool(cp, "phase", "reverse")
    propagate_level = _get(cp, "propagate", "level", default="auto")

    sweep_key = _get(cp, "sweep", "key")
    sweep_values_text = _get(cp, "sweep", "values", default="")
    sweep_values = tuple(s.strip() for s in sweep_values_text.split(";") if s.strip())
    if sweep_key is not None and "." not in sweep_key:
        raise ConfigError("[sweep] key must look like section.option, e.g. y.f")

    return RunConfig(family, j, n, buffer, b, theta, phi, f, g, d0_named, d0_file,
                     t_final, dt, suites, cross, out_dir, formats, phase_steps,
                     phase_reverse, propagate_level, sweep_key, sweep_values)
