"""Seeded workload generator.

A seed picks only the coefficients of theta(t), phi(t) and f(t), never the
sizes, so every seed of one workload costs the same work. The coefficient
ranges keep every suite passing:

- |f(1)| stays at 0.4 or more, far above the intertwining floor of 0.1
  (f = 0.1*t gives a residual of 0.05 and fails);
- the oscillator squeeze amplitude stays at 0.01 or below (0.3 fails `gauge`);
- ||H|| * dt stays far below the propagator's 0.5 step limit.

Each workload is a list of CLI calls, run one at a time as a closed loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0
ALL_SUITES = "superalgebra, pairing, gauge, lvn, unitarity, intertwining, solutions"
SUITE_NAMES = tuple(s.strip() for s in ALL_SUITES.split(","))


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the outcome that counts as success."""

    command: str
    config: str                    # key into Workload.configs
    flags: tuple[str, ...] = ()
    exit_code: int = 0
    failing: frozenset[str] = frozenset()   # verify checks expected to fail


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    configs: dict[str, str]
    calls: tuple[Call, ...]
    primary: str                   # config whose set-up `setup_s` times
    sizes: dict[str, object] = field(default_factory=dict)


def _num(x: float) -> str:
    return f"{x:.4f}"


def _config(*, system: str, theta: str, phi: str, f: str, t_final: float,
            dt: float, extra: str = "") -> str:
    return (f"[system]\n{system}\n\n"
            f"[gauge]\ntheta = \"{theta}\"\nphi = \"{phi}\"\n\n"
            f"[y]\nf = \"{f}\"\n\n"
            f"[grid]\nt_final = {t_final!r}\ndt = {dt!r}\n\n"
            f"[checks]\nsuites = {ALL_SUITES}\n\n"
            f"[output]\ndir = out\nformats = csv, json\n{extra}")


def spin_grid(seed: int) -> Workload:
    """Spin j = 5 (dim 11) on a 2 001-point grid: build, propagate, verify."""
    rng = random.Random(f"spin_grid:{seed}")
    u = rng.uniform
    theta = f"{_num(u(0.5, 1.0))} + {_num(u(0.1, 0.3))}*sin({_num(u(0.8, 1.5))}*t)"
    phi = f"{_num(u(1.0, 2.0))}*t"
    f = f"{_num(u(0.55, 0.9))} + {_num(u(-0.1, 0.1))}*cos(t)"
    t_final, dt = 2.0, 0.001
    cfg = _config(system="family = spin\nj = 5\nb = 1.0", theta=theta, phi=phi,
                  f=f, t_final=t_final, dt=dt, extra="\n[propagate]\nlevel = auto\n")
    calls = (Call("build", "grid"), Call("propagate", "grid"),
             Call("verify", "grid", ("--cross-check-wrong-H",), 1,
                  frozenset({"lvn_wrong_h"})))
    return Workload("spin_grid", seed, {"grid": cfg}, calls, "grid",
                    {"j": 5, "dim": 11, "grid_points": round(t_final / dt) + 1})


def osc_verify(seed: int) -> Workload:
    """Oscillator N = 128, buffer 16, 200 midpoint steps: verify only."""
    rng = random.Random(f"osc_verify:{seed}")
    u = rng.uniform
    theta = f"{_num(u(0.004, 0.01))}*sin({_num(u(0.8, 1.5))}*t)"
    phi = f"{_num(u(0.2, 0.6))}*t"
    f = _num(u(0.4, 0.7))
    t_final, dt = 0.1, 0.0005
    cfg = _config(system="family = oscillator\nn = 128\nbuffer = 16", theta=theta,
                  phi=phi, f=f, t_final=t_final, dt=dt)
    return Workload("osc_verify", seed, {"osc": cfg}, (Call("verify", "osc"),), "osc",
                    {"N": 128, "buffer": 16, "grid_points": round(t_final / dt) + 1})


SWEEP_CELLS = 6


def loop_sweep(seed: int) -> Workload:
    """Holonomies over a closed loop at j = 2, then a spin-1/2 sweep of y.f."""
    rng = random.Random(f"loop_sweep:{seed}")
    u = rng.uniform
    # theta and phi return to their start values (mod 2 pi) at T = 1.
    loop = _config(
        system="family = spin\nj = 2\nb = 1.0",
        theta=f"{_num(u(0.6, 1.2))} + {_num(u(0.05, 0.2))}*sin(2*pi*t)",
        phi=f"2*pi*t + {_num(u(0.0, 0.3))}*sin(2*pi*t)",
        f=_num(u(0.4, 0.8)), t_final=1.0, dt=0.001,
        extra="\n[phase]\nsteps = 2000\n")
    values = []
    for _ in range(SWEEP_CELLS):
        values.append(f"\"{_num(u(0.5, 1.0))} + {_num(u(-0.1, 0.1))}*sin(t)\"")
    sweep = _config(
        system="family = spin\nj = 1/2\nb = 1.0",
        theta=f"{_num(u(0.5, 1.0))} + {_num(u(0.05, 0.2))}*sin({_num(u(0.8, 1.5))}*t)",
        phi=f"{_num(u(1.0, 2.0))}*t", f="0.5", t_final=2.0, dt=0.002,
        extra=f"\n[sweep]\nkey = y.f\nvalues = {'; '.join(values)}\n")
    calls = (Call("phase", "loop"), Call("sweep", "sweep"))
    return Workload("loop_sweep", seed, {"loop": loop, "sweep": sweep}, calls, "loop",
                    {"loop_j": 2, "phase_steps": 2000, "sweep_j": 0.5,
                     "sweep_cells": SWEEP_CELLS, "sweep_grid_points": 1001})


WORKLOADS = {"spin_grid": spin_grid, "osc_verify": osc_verify, "loop_sweep": loop_sweep}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)



def write_configs(workload: Workload, directory: Path) -> dict[str, Path]:
    """Write the workload's config files; returns their paths by key."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, text in workload.configs.items():
        paths[key] = directory / f"{key}.ini"
        paths[key].write_text(text)
    return paths


def with_suites(config_text: str, suites: str) -> str:
    """A copy of a generated config that runs only the named suites."""
    line = f"suites = {ALL_SUITES}\n"
    if line not in config_text:
        raise ValueError("config does not list the suites in the generated form")
    return config_text.replace(line, f"suites = {suites}\n")
