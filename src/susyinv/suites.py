"""Named verification suites driven by the CLI `verify` and `sweep` commands.

Each suite returns CheckResult(name, max_residual, tolerance, passed); a suite
passes when its worst residual stays below tolerance. The intertwining suite is
inverted by nature: it passes when the residual is large while the invariance
residual is small, which is the whole point of the comparison.

The gauge, lvn and unitarity residuals and the wrong-H cross-check
(``SAMPLED``) come from one pass over the sample times: one W per chunk gives
H_-, I_- and U_- to every selected one. The derivatives in the LvN,
intertwining and Schrodinger residuals are exact: dW/dt by the chain rule from
the W already built (``_Sample.w_dot``), and from it dI_-/dt, W' d0 U+^dag and
the rate of each mapped solution. The central difference stays only as a second
bound on dW/dt itself, relative to max(1, ||dW/dt||_F), under the lvn verdict.
The parts of one verdict are folded with np.max, which propagates a NaN, so
a NaN fails; Python's max drops a NaN that is not its first argument.

Every suite takes the output's sectors (:attr:`PartnerOutput.sectors`): the
oscillator's even and odd Fock states, as su(1,1) conserves Fock parity, and
one sector, the whole space, for spin or a d0 that couples the parities. Each
sector's :class:`Block` holds the projector and the closed-form generators cut
to it; the checkable levels are split among the sectors once
(:attr:`_Run.checkable`). The Frobenius norms of all sectors at one time combine
by hypot, before the max over times, as the squared norm of a block-diagonal
matrix is the sum of its blocks'. The solutions suite and the propagate
command step whole-space states in the sectors, with the step guard on the
whole H at every node (:func:`stepped_states`). d0 maps between the sectors, so
the superalgebra and intertwining suites take W, W' and H_- as the direct sum
of the sectors' blocks, permuted back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .config import RunConfig
from .construction import (Block, PartnerOutput, closed_form_operator, closed_form_osc_R,
                           closed_form_spin_R, hamiltonian_from_gauge, oscillator_supersystem,
                           quadrupole_partner, run_prescription, spin_supersystem)
from .dynamics import central_difference, check_step, lvn_residual, propagate
from .operators import Buffers, dagger, frobenius, over_chunks, project, unitarity_defect
from .representations import OscillatorRep, SpinRep
from .susy import SuperCharge, check_superalgebra, pairing_residuals

SPIN_TOLS = {"superalgebra": 1e-12, "pairing": 1e-10, "gauge": 1e-9,
             "lvn": 1e-6, "unitarity": 1e-9, "solutions": 1e-5}
OSC_TOLS = {"superalgebra": 1e-12, "pairing": 1e-10, "gauge": 1e-6,
            "lvn": 1e-4, "unitarity": 1e-6, "solutions": 1e-5}
INTERTWINING_FLOOR = 0.1
# Largest weight a checked oscillator level's minus state may put on the edge
# buffer: an amplitude of 1e-6 there, an order below the solutions tolerance.
EDGE_WEIGHT_TOL = 1e-12
# The solutions suite doubles its steps until the n-vs-2n error bar is below
# this share of its tolerance: the 2n run's own error is then about a
# fifteenth of the bar, and the bar itself sits well inside the verdict.
ERROR_BAR_MARGIN = 0.1


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


def _tols(cfg: RunConfig, scale: float) -> dict[str, float]:
    base = SPIN_TOLS if cfg.family == "spin" else OSC_TOLS
    return {k: v * scale for k, v in base.items()}


def stepped_states(out: PartnerOutput, dt: float, psi0: np.ndarray, times: np.ndarray,
                   **options) -> np.ndarray:
    """The states from ``psi0`` on ``times`` under H_-, stepped in the sectors of ``out``
    by :func:`susyinv.dynamics.propagate` with ``options``, every H held to the step
    guard at ``dt`` by the whole H: the hypot of every sector's norm."""
    def h(ts):
        hs = [hamiltonian_from_gauge(s.gauge, s.y, ts) for s in out.sectors]
        check_step(hs, dt)
        return hs
    return propagate(h, psi0, times, sectors=[s.rows for s in out.sectors], **options).states


def _gauge_residuals(run: _Run, sector: Block, at, origin) -> tuple:
    """Closed-form coefficients against the independent matrix gauge route."""
    cfg, ts, h, take = run.cfg, at.ts, at.h_minus, at.take
    if cfg.g is not None:  # only spin takes g, as one sector
        h_closed = quadrupole_partner(run.rep, cfg.f, cfg.g, cfg.theta, cfg.phi, ts)
    else:
        closed_form = closed_form_spin_R if cfg.family == "spin" else closed_form_osc_R
        h_closed = closed_form_operator(closed_form(cfg.f, cfg.theta, cfg.phi, ts),
                                        sector.generators, take)
    error = np.subtract(h, h_closed, out=take("scratch", h.shape))
    return (frobenius(project(error, sector.projector, in_place=True), take),)


def _lvn_residuals(run: _Run, sector: Block, at, origin) -> tuple:
    return (lvn_residual(at.i_minus, at.h_minus, at.i_dot, sector.projector, at.take),)


def _lvn_wrong_h_residuals(run: _Run, sector: Block, at, origin) -> tuple:
    """The cross-check: the LvN residual of I_- against H+ in place of H_-."""
    h_plus = np.diag(sector.plus_energies).astype(complex)
    return (lvn_residual(at.i_minus, h_plus, at.i_dot, sector.projector, at.take),)


def _w_dot_residuals(run: _Run, sector: Block, at, origin) -> tuple:
    """The exact dW/dt's distance from its central difference, and its norm: the
    bound under lvn is their ratio, relative to max(1, ||dW/dt||_F) as the
    difference's own error grows with W's derivatives."""
    w_dot, take = at.w_dot, at.take
    # The difference holds W at t + FD_STEP while it takes W at t - FD_STEP.
    names = iter(("scratch", "scratch_b"))
    error = central_difference(lambda t: sector.gauge.value(t, take, next(names)), at.ts)
    return (frobenius(np.subtract(w_dot, error, out=error), take), frobenius(w_dot, take))


def _unitarity_residuals(run: _Run, sector: Block, at, origin) -> tuple:
    """U_-(t) unitarity and the invariant transport U I(0) U^dag = I(t), where
    U = U_-(t) U_-(0)^dag: for offset starts (theta(0) != 0) U_-(t) alone does not."""
    u0, i0 = origin
    u_minus, i_minus, take = at.u_minus, at.i_minus, at.take
    defect = unitarity_defect(u_minus, take)
    u = np.matmul(u_minus, u0.conj().T, out=take("scratch", u_minus.shape))
    u_i = np.matmul(u, i0, out=take("scratch_b", u.shape))
    moved = np.matmul(u_i, dagger(u, take("dagger", u.shape)), out=u)
    moved -= i_minus
    return defect, frobenius(project(moved, sector.projector, in_place=True), take)


def _origin(sector: Block) -> tuple[np.ndarray, np.ndarray]:
    at = sector.sample(np.zeros(1))
    return at.u_minus[0], at.i_minus[0]


# Residual -> its Frobenius norms at one chunk of one sector, f(run, sector, sample
# there, the sector's (U_-(0), I_-(0)) or None): one part, or two that FOLDS joins.
SAMPLED = {"gauge": _gauge_residuals, "lvn": _lvn_residuals, "w_dot": _w_dot_residuals,
           "unitarity": _unitarity_residuals, "lvn_wrong_h": _lvn_wrong_h_residuals}
# Residual of two parts -> its values from them, each part combined over the sectors.
FOLDS = {"w_dot": lambda error, norm: error / np.maximum(1.0, norm),
         "unitarity": np.maximum}
# Suite -> the SAMPLED residuals its verdict reads.
READS = {"gauge": ("gauge",), "lvn": ("lvn", "w_dot"), "unitarity": ("unitarity",),
         "intertwining": ("lvn", "w_dot"), "lvn_wrong_h": ("lvn_wrong_h",)}


@dataclass
class _Run:
    """What the suites of one run_suites call share, each computed when a suite first
    needs it: the configured system, the checkable levels of each of its sectors, and
    the worst of each SAMPLED residual that a selected suite reads."""

    cfg: RunConfig
    rep: SpinRep | OscillatorRep
    out: PartnerOutput

    @property
    def selected(self) -> tuple[str, ...]:
        """The configured suites, then the wrong-H cross-check when it is on."""
        return self.cfg.suites + (("lvn_wrong_h",) if self.cfg.cross_check_wrong_h else ())

    @cached_property
    def checkable(self) -> list[np.ndarray]:
        """The checkable levels (:func:`_checkable_levels`) that live in each sector."""
        levels = np.asarray(_checkable_levels(self.out), dtype=int)
        return [levels[s.holds(levels)] for s in self.out.sectors]

    @cached_property
    def sampled(self) -> dict[str, float]:
        names = [n for n in SAMPLED if any(n in READS.get(s, ()) for s in self.selected)]
        times = _sample_times(self.cfg)
        take = Buffers()

        def parts(sector: Block) -> np.ndarray:
            origin = _origin(sector) if "unitarity" in names else None

            def per_chunk(ts):  # one W for every residual, one chunk at a time
                at = sector.sample(ts, take)
                return np.stack([p for n in names for p in SAMPLED[n](self, sector, at, origin)],
                                axis=1)

            return over_chunks(times, sector.dim, per_chunk)

        # The parts of all sectors at one time combine by hypot, before the max over times.
        whole = iter(reduce(np.hypot, map(parts, self.out.sectors)).T)
        values = [next(whole) if n not in FOLDS else FOLDS[n](next(whole), next(whole))
                  for n in names]
        return dict(zip(names, map(float, np.max(values, axis=1))))


def _suite_superalgebra(run: _Run, tol) -> CheckResult:
    """The superalgebra of Q(0) and I(0), and I+(t) = d^dag d / 2, I-(t) = d d^dag / 2
    at two sample times, relative to max(1, ||I(0)||_F)."""
    inv = run.out.invariant
    report = check_superalgebra(SuperCharge(inv.d), inv)
    defects = run.out.identity_defects(_sample_times(run.cfg, count=2))
    worst = float(np.max([report.max_residual(), *defects.values()])) / max(1.0, inv.norm())
    return CheckResult("superalgebra", worst, tol, worst < tol)


def _suite_pairing(run: _Run, tol) -> CheckResult:
    """The pairing relation, unitaries and spin spectrum of the prescription's pairing."""
    cfg, rep, pairing = run.cfg, run.rep, run.out.pairing
    parts = [0.0]
    for levels in pairing.by_size:
        v = levels.v
        parts += [np.max(pairing_residuals(run.out.invariant.d.entries, levels)),
                  np.max(frobenius(dagger(v) @ v - np.eye(v.shape[-1])))]
    if isinstance(rep, SpinRep) and cfg.d0_named in (None, "Jplus") \
            and cfg.d0_file is None:
        # Spectrum of 2 I+ = J- J+ is j(j+1) - m(m+1).
        expected = np.sort([rep.j * (rep.j + 1) - m * (m + 1)
                            for m in rep.m_values() if m < rep.j]) / 2
        got = np.sort(np.repeat(pairing.shared_positive_values, pairing.degeneracies))
        parts.append(np.max(np.abs(got - expected), initial=0.0))
    worst = float(np.max(parts))
    note = "" if pairing.shared_positive_values else \
        "no positive levels: every mode is a zero mode"
    return CheckResult("pairing", worst, tol, worst < tol, note)


def _sampled_suite(name: str):
    """The suite that checks the worst of ``name``'s SAMPLED residuals against tol."""
    def suite(run: _Run, tol) -> CheckResult:
        worst = run.sampled[name]
        return CheckResult(name, worst, tol, worst < tol)
    return suite


def _suite_lvn(run: _Run, tol) -> CheckResult:
    """The exact LvN residual, which passes only while dW/dt, its source, stays
    within tol of its central difference, relative to max(1, ||dW/dt||_F)."""
    worst, w_dot = run.sampled["lvn"], run.sampled["w_dot"]
    if w_dot < tol:
        return CheckResult("lvn", worst, tol, worst < tol)
    return CheckResult("lvn", worst, tol, False,
                       f"dW/dt differs from its central difference by {w_dot:.3e} "
                       "relative to max(1, ||dW/dt||): the exact residual is not trusted")


def _suite_intertwining(run: _Run, lvn_tol) -> CheckResult:
    """Invariance holds while the intertwining relation fails: the generality gap.

    Passes when lvn < tol and the intertwining residual at t = 1 exceeds 0.1
    (the prescription uses Y+ = 0, so d0 Y+ = Y- d0 forces Y- d0 = 0; any
    nonzero f J3 d0 breaks it). For identically zero Y- the suite instead
    requires the intertwining residual to vanish. The residual is taken as
    ||i W' d0 U+^dag - H_- d||: the i d H+ of dd/dt and the + d H+ cancel
    exactly, and at large H+ their rounding would drown the rest.
    """
    out, ts = run.out, np.ones(1)
    samples = [s.sample(ts) for s in out.sectors]
    w, w_dot, h = (out.assemble([getattr(at, name) for at in samples])
                   for name in ("w", "w_dot", "h_minus"))
    res_inter = float(frobenius(project(1j * out.d_stack(ts, w_dot) - h @ out.d_stack(ts, w),
                                        out.whole.projector))[0])
    invariant = _suite_lvn(run, lvn_tol).passed
    y_d0 = float(np.linalg.norm(out.system.y_minus.diagonal(1.0)[:, None]
                                * out.system.d0.entries))
    if y_d0 < 1e-12:
        return CheckResult("intertwining", res_inter, 1e-6, res_inter < 1e-6 and invariant)
    passed = res_inter > INTERTWINING_FLOOR and invariant
    return CheckResult("intertwining", res_inter, INTERTWINING_FLOOR, passed)


def _checkable_levels(out: PartnerOutput) -> list[int]:
    """Indices of the levels whose minus state keeps off the oscillator's edge.

    An oscillator level is checkable when its ``v_minus`` puts a weight below
    ``EDGE_WEIGHT_TOL`` on the edge: the top ``buffer`` Fock states, the zero
    diagonal of the interior projector. Every spin level is, as spin has no projector.
    """
    projector = out.whole.projector
    if projector is None:
        return list(range(len(out.levels)))
    edge = np.diagonal(projector) == 0
    edge_weight = np.sum(np.abs(out.levels.v_minus[edge]) ** 2, axis=0)
    return np.flatnonzero(edge_weight < EDGE_WEIGHT_TOL).tolist()


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
    [t_mid, t_final], the config grid's check times. n starts at 1 and
    doubles until the n-vs-2n state difference (the error bar) is below
    ``ERROR_BAR_MARGIN * tol``, or until the next internal grid would take
    more steps than the config grid. Every H evaluated is held to the config
    grid's step guard, ||H||_F dt < STEP_NORM_LIMIT. The Schrodinger
    residual takes dpsi/dt exactly, W' V phi - i (y mu) psi, with W, W' and H_-
    from one sample of W. The residual is the largest of the Schrodinger
    residual, the infidelity, the state error of the 2n run and the error
    bar. A config with no checkable level propagates nothing. Each level lives
    in one sector, where its residual is taken and its state stepped.
    """
    cfg = run.cfg
    active = [(s, levels) for s, levels in zip(run.out.sectors, run.checkable) if levels.size]
    if not active:
        return CheckResult("solutions", 0.0, tol, True)

    def schrodinger_residuals(sector: Block, levels: np.ndarray) -> np.ndarray:
        # Schrodinger residual of the closed form, per level, with its exact rate.
        def per_chunk(ts):
            at = sector.sample(ts)
            psi, dpsi = sector.mapped_with_rate(levels, at)
            res = 1j * dpsi - at.h_minus @ psi
            return np.linalg.norm(res if sector.projector is None else sector.projector @ res,
                                  axis=-2)
        return np.max(over_chunks(_sample_times(cfg, count=5), sector.dim, per_chunk))

    worst = float(np.max([schrodinger_residuals(*a) for a in active]))
    grid = cfg.grid()
    checks = grid[[grid.size // 2, grid.size - 1]]
    # 0 < t_mid <= t_final: the check times coincide on a one-step grid.
    bounds = np.append(0.0, checks if checks[0] < checks[1] else checks[1:])
    segments = bounds.size - 1
    levels = np.concatenate([levels for _, levels in active])
    psi0 = run.out.mapped_solution(levels, 0.0)

    def numeric(steps):
        keep = steps * np.searchsorted(bounds, checks)
        return stepped_states(run.out, cfg.dt, psi0, _internal_grid(bounds, steps),
                              keep=keep, order=4)

    n, coarse = 1, numeric(1)
    while True:
        fine = numeric(2 * n)
        bar = float(np.max(np.linalg.norm(fine - coarse, axis=1)))
        if bar < ERROR_BAR_MARGIN * tol or segments * 4 * n > grid.size - 1:
            break
        n, coarse = 2 * n, fine
    closed = run.out.mapped_solution(levels, checks)
    error = float(np.max(np.linalg.norm(fine - closed, axis=1)))
    infidelity = float(np.max(1.0 - np.abs(np.sum(closed.conj() * fine, axis=1))))
    worst = float(np.max([worst, infidelity, error, bar]))
    note = "" if bar < ERROR_BAR_MARGIN * tol else \
        f"error bar {bar:.3e} at n = {n} steps per segment: the internal grid is capped " \
        f"at the config grid's {grid.size - 1} steps"
    return CheckResult("solutions", worst, tol, worst < tol, note)


# Suite name -> (suite, key of its tolerance). lvn_wrong_h is not a config
# suite: cross_check_wrong_h selects it.
SUITES = {
    "superalgebra": (_suite_superalgebra, "superalgebra"),
    "pairing": (_suite_pairing, "pairing"),
    "gauge": (_sampled_suite("gauge"), "gauge"),
    "lvn": (_suite_lvn, "lvn"),
    "unitarity": (_sampled_suite("unitarity"), "unitarity"),
    "intertwining": (_suite_intertwining, "lvn"),
    "solutions": (_suite_solutions, "solutions"),
    "lvn_wrong_h": (_sampled_suite("lvn_wrong_h"), "lvn"),
}


def run_suites(cfg: RunConfig, tolerance_scale: float = 1.0) -> list[CheckResult]:
    run = _Run(cfg, *build_system(cfg))
    tols = _tols(cfg, tolerance_scale)
    results = []
    for name in run.selected:
        suite, key = SUITES[name]
        results.append(suite(run, tols[key]))
    return results
