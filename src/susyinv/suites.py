"""Named verification suites driven by the CLI `verify` and `sweep` commands.

Each suite returns CheckResult(name, max_residual, tolerance, passed); a suite
passes when its worst residual stays below tolerance. The intertwining suite is
inverted by nature: it passes when the residual is large while the invariance
residual is small, which is the whole point of the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import RunConfig
from .construction import (PartnerOutput, closed_form_operator, closed_form_osc_R,
                           closed_form_spin_R, hamiltonian_from_gauge,
                           oscillator_supersystem, quadrupole_partner, run_prescription,
                           spin_supersystem)
from .dynamics import (GAUSS_NODES, STEP_NORM_LIMIT, check_step, intertwining_residual,
                       lvn_residual, propagate)
from .operators import dagger, frobenius, one_norm, over_chunks, project, unitarity_defect
from .representations import OscillatorRep, SpinRep
from .susy import build_invariant, build_supercharge, check_superalgebra, pair_spectra

SPIN_TOLS = {"superalgebra": 1e-12, "pairing": 1e-10, "gauge": 1e-9,
             "lvn": 1e-6, "unitarity": 1e-9, "solutions": 1e-5}
OSC_TOLS = {"superalgebra": 1e-12, "pairing": 1e-10, "gauge": 1e-6,
            "lvn": 1e-4, "unitarity": 1e-6, "solutions": 1e-5}
INTERTWINING_FLOOR = 0.1
NEGATIVE_CONTROL_FLOOR = 0.05
# Largest weight a checked oscillator level's minus state may put on the edge
# buffer: an amplitude of 1e-6 there, an order below the solutions tolerance.
EDGE_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    note: str = ""


def _sample_times(cfg: RunConfig, count: int = 9) -> np.ndarray:
    return np.linspace(0.0, cfg.t_final, count + 1)[1:]


def build_system(cfg: RunConfig) -> tuple[SpinRep | OscillatorRep, PartnerOutput]:
    """The configured representation and the prescription's output on it."""
    rep = cfg.make_rep()
    d0 = cfg.d0_for(rep)
    if cfg.family == "spin":
        system = spin_supersystem(rep, cfg.theta, cfg.phi, cfg.f, cfg.g, b=cfg.b, d0=d0)
    else:
        system = oscillator_supersystem(rep, cfg.theta, cfg.phi, cfg.f, d0=d0)
    return rep, run_prescription(system)


def _worst(times: np.ndarray, dim: int, residuals) -> float:
    """Largest of ``residuals`` evaluated over the chunks of ``times``."""
    return float(np.max(over_chunks(times, dim, residuals)))


def _tols(cfg: RunConfig, scale: float) -> dict[str, float]:
    base = SPIN_TOLS if cfg.family == "spin" else OSC_TOLS
    return {k: v * scale for k, v in base.items()}


def _projector(rep) -> np.ndarray | None:
    if isinstance(rep, OscillatorRep):
        return rep.projector_interior.entries
    return None


@dataclass
class _Run:
    """What the suites of one run_suites call share: the configured system,
    and the LvN residual sweep of H_-, computed by whichever suite needs it first."""

    cfg: RunConfig
    rep: SpinRep | OscillatorRep
    out: PartnerOutput

    def worst_lvn(self, h_map) -> float:
        """Largest LvN residual of I_- under ``h_map`` over the sample times."""
        proj = _projector(self.rep)
        return _worst(_sample_times(self.cfg), self.rep.dim,
                      lambda ts: lvn_residual(self.out.i_minus, h_map, ts, projector=proj))

    @cached_property
    def lvn(self) -> float:
        return self.worst_lvn(self.out.h_minus)


def _suite_superalgebra(run: _Run, tol) -> CheckResult:
    q = build_supercharge(run.out.system.d0)
    inv = build_invariant(q)
    report = check_superalgebra(q, inv)
    worst = report.max_residual()
    return CheckResult("superalgebra", worst, tol, worst < tol)


def _suite_pairing(run: _Run, tol) -> CheckResult:
    cfg, rep = run.cfg, run.rep
    inv = build_invariant(build_supercharge(run.out.system.d0))
    pairing = pair_spectra(inv)
    worst = 0.0
    d = inv.d.entries
    for lam, vp, vm, v in zip(pairing.shared_positive_values, pairing.plus_vectors,
                              pairing.minus_vectors, pairing.v):
        worst = max(worst, float(np.linalg.norm(
            d @ vp - np.sqrt(2 * lam) * vm @ v)))
        worst = max(worst, float(np.linalg.norm(
            v.conj().T @ v - np.eye(v.shape[0]))))
    if isinstance(rep, SpinRep) and cfg.d0_named in (None, "Jplus") \
            and cfg.d0_file is None:
        # Spectrum of 2 I+ = J- J+ is j(j+1) - m(m+1).
        expected = np.sort([rep.j * (rep.j + 1) - m * (m + 1)
                            for m in rep.m_values() if m < rep.j]) / 2
        got = np.sort(np.repeat(pairing.shared_positive_values, pairing.degeneracies))
        worst = max(worst, float(np.max(np.abs(got - expected), initial=0.0)))
    note = "" if pairing.shared_positive_values else \
        "no positive levels: every mode is a zero mode"
    return CheckResult("pairing", worst, tol, worst < tol, note)


def _suite_gauge(run: _Run, tol) -> CheckResult:
    """Closed-form coefficients against the independent matrix gauge route."""
    cfg, rep, out = run.cfg, run.rep, run.out
    proj = _projector(rep)

    def residuals(ts):
        h_gauge = hamiltonian_from_gauge(out.system.w_minus, out.system.y_minus, ts)
        if isinstance(rep, SpinRep):
            if cfg.g is not None:
                h_closed = quadrupole_partner(rep, cfg.f, cfg.g, cfg.theta, cfg.phi, ts)
            else:
                h_closed = closed_form_operator(
                    closed_form_spin_R(cfg.f, cfg.theta, cfg.phi, ts),
                    (rep.J1, rep.J2, rep.J3))
        else:
            h_closed = closed_form_operator(
                closed_form_osc_R(cfg.f, cfg.theta, cfg.phi, ts), (rep.K1, rep.K2, rep.K3))
        return frobenius(project(h_gauge - h_closed, proj))

    worst = _worst(_sample_times(cfg), rep.dim, residuals)
    return CheckResult("gauge", worst, tol, worst < tol)


def _suite_lvn(run: _Run, tol) -> CheckResult:
    return CheckResult("lvn", run.lvn, tol, run.lvn < tol)


def _suite_lvn_wrong_h(run: _Run, tol) -> CheckResult:
    worst = run.worst_lvn(run.out.system.h_plus)
    return CheckResult("lvn_wrong_h", worst, tol, worst < tol)


def _suite_unitarity(run: _Run, tol) -> CheckResult:
    """U_-(t) unitarity and the invariant transport U I(0) U^dag = I(t)."""
    cfg, rep, out = run.cfg, run.rep, run.out
    proj = _projector(rep)
    i0 = out.i_minus(0.0).entries

    def residuals(ts):
        u = out.propagator_minus(ts)
        transport = frobenius(project(u @ i0 @ dagger(u) - out.i_minus(ts), proj))
        return np.maximum(unitarity_defect(out.u_minus(ts)), transport)

    worst = _worst(_sample_times(cfg), rep.dim, residuals)
    return CheckResult("unitarity", worst, tol, worst < tol)


def _suite_intertwining(run: _Run, lvn_tol) -> CheckResult:
    """Invariance holds while the intertwining relation fails: the generality gap.

    Passes when lvn < tol and the intertwining residual at t = 1 exceeds 0.1
    (the prescription uses Y+ = 0, so d0 Y+ = Y- d0 forces Y- d0 = 0; any
    nonzero f J3 d0 breaks it). For identically zero Y- the suite instead
    requires the intertwining residual to vanish.
    """
    out = run.out
    res_inter = intertwining_residual(out.d, out.system.h_plus, out.h_minus, 1.0,
                                      projector=_projector(run.rep))
    res_lvn = run.lvn
    y_d0 = float(np.linalg.norm(out.system.y_minus.value(1.0).entries
                                @ out.system.d0.entries))
    if y_d0 < 1e-12:
        passed = res_inter < 1e-6 and res_lvn < lvn_tol
        return CheckResult("intertwining", res_inter, 1e-6, passed)
    passed = res_inter > INTERTWINING_FLOOR and res_lvn < lvn_tol
    return CheckResult("intertwining", res_inter, INTERTWINING_FLOOR, passed)


def _checkable_levels(rep, out: PartnerOutput) -> list[int]:
    """Indices of the levels whose minus state keeps off the oscillator's edge.

    An oscillator level is checkable when its ``v_minus`` puts a weight below
    ``EDGE_WEIGHT_TOL`` on the top ``buffer`` Fock states; every spin level is.
    """
    if not isinstance(rep, OscillatorRep):
        return list(range(len(out.levels)))
    return [k for k, lv in enumerate(out.levels)
            if np.sum(np.abs(lv.v_minus[rep.N - rep.buffer:]) ** 2) < EDGE_WEIGHT_TOL]


def _internal_grid(bounds: np.ndarray, n: int) -> np.ndarray:
    """n equal steps on each segment between consecutive ``bounds``."""
    starts = bounds[:-1, None] + np.diff(bounds)[:, None] * (np.arange(n) / n)
    return np.append(starts.ravel(), bounds[-1])


def _suite_solutions(run: _Run, tol) -> CheckResult:
    """Mapped solutions satisfy the minus-sector Schrodinger equation and match
    numerical propagation from the same initial states.

    Each check time is evaluated once for all levels, as one (dim, levels)
    matrix, and the checkable levels are propagated together as that block by
    CF4:2 on an internal grid: n equal steps on [0, t_mid] and on
    [t_mid, t_final], the config grid's check times. n starts as the fewest
    steps with ||H||_1 dt < STEP_NORM_LIMIT at the Gauss nodes of one step per
    segment, and doubles until the n-vs-2n state difference (the error bar)
    is below ``tol`` or the next internal grid would take more steps than the
    config grid. Every H evaluated is held to the config grid's step guard,
    ||H||_F dt < STEP_NORM_LIMIT. The residual is the largest of the
    Schrodinger residual, the infidelity, the state error of the 2n run and
    the error bar. A config with no checkable level propagates nothing.
    """
    cfg, rep, out = run.cfg, run.rep, run.out
    levels = _checkable_levels(rep, out)
    if not levels:
        return CheckResult("solutions", 0.0, tol, True)
    proj = _projector(rep)
    h_fd = 1e-6

    def schrodinger_residuals(ts):
        # Finite-difference Schrodinger residual of the closed form, per level.
        dpsi = (out.mapped_solution(levels, ts + h_fd)
                - out.mapped_solution(levels, ts - h_fd)) / (2 * h_fd)
        res = 1j * dpsi - out.h_minus(ts) @ out.mapped_solution(levels, ts)
        return np.linalg.norm(res if proj is None else proj @ res, axis=-2)

    worst = _worst(_sample_times(cfg, count=5), rep.dim, schrodinger_residuals)

    def h(ts):
        # H_- at internal nodes, held to the step guard of the config grid.
        hs = out.h_minus(ts)
        check_step(hs, cfg.dt)
        return hs

    grid = cfg.grid()
    checks = grid[[grid.size // 2, grid.size - 1]]
    # 0 < t_mid <= t_final: the check times coincide on a one-step grid.
    bounds = np.append(0.0, checks if checks[0] < checks[1] else checks[1:])
    segments = bounds.size - 1
    probe = bounds[:-1, None] + np.diff(bounds)[:, None] * GAUSS_NODES
    norm = _worst(probe.ravel(), rep.dim, lambda ts: one_norm(h(ts)))
    n = int(norm * np.max(np.diff(bounds)) // STEP_NORM_LIMIT) + 1
    psi0 = out.mapped_solution(levels, 0.0)

    def numeric(steps):
        keep = steps * np.searchsorted(bounds, checks)
        return propagate(h, psi0, _internal_grid(bounds, steps), keep=keep, order=4).states

    coarse = numeric(n)
    while True:
        fine = numeric(2 * n)
        bar = float(np.max(np.linalg.norm(fine - coarse, axis=1)))
        if bar < tol or segments * 4 * n > grid.size - 1:
            break
        n, coarse = 2 * n, fine
    closed = out.mapped_solution(levels, checks)
    error = float(np.max(np.linalg.norm(fine - closed, axis=1)))
    infidelity = float(np.max(1.0 - np.abs(np.sum(closed.conj() * fine, axis=1))))
    worst = max(worst, infidelity, error, bar)
    note = "" if bar < tol else \
        f"error bar {bar:.3e} at n = {n} steps per segment: the internal grid is capped " \
        f"at the config grid's {grid.size - 1} steps"
    return CheckResult("solutions", worst, tol, worst < tol, note)


# Suite name -> (suite, key of its tolerance).
SUITES = {
    "superalgebra": (_suite_superalgebra, "superalgebra"),
    "pairing": (_suite_pairing, "pairing"),
    "gauge": (_suite_gauge, "gauge"),
    "lvn": (_suite_lvn, "lvn"),
    "unitarity": (_suite_unitarity, "unitarity"),
    "intertwining": (_suite_intertwining, "lvn"),
    "solutions": (_suite_solutions, "solutions"),
}


def run_suites(cfg: RunConfig, tolerance_scale: float = 1.0) -> list[CheckResult]:
    run = _Run(cfg, *build_system(cfg))
    tols = _tols(cfg, tolerance_scale)
    results = [suite(run, tols[key]) for suite, key in (SUITES[name] for name in cfg.suites)]
    if cfg.cross_check_wrong_h:
        results.append(_suite_lvn_wrong_h(run, tols["lvn"]))
    return results
