"""Dense references for the commands that take the oscillator in sectors.

Every command takes the oscillator sector by sector. These helpers take the
same quantities on the whole N x N matrices of the prescription's output: the
sampled residuals from the formulas themselves, and the solutions suite, or
any command, with the whole space as its one sector (:func:`one_sector`).
"""

from unittest import mock

import numpy as np

from susyinv import sectors, suites
from susyinv.construction import closed_form_operator, closed_form_osc_R, closed_form_spin_R
from susyinv.dynamics import central_difference, lvn_residual
from susyinv.operators import dagger, frobenius, project, unitarity_defect
from susyinv.representations import SpinRep


def sampled_residuals(cfg) -> dict[str, float]:
    """The worst of each sampled residual over the sample times, on dense matrices."""
    rep, out = suites.build_system(cfg)
    spin = isinstance(rep, SpinRep)
    proj = None if spin else rep.projector_interior.entries
    ts = suites._sample_times(cfg)
    at = out.whole.sample(ts)
    closed_form = closed_form_spin_R if spin else closed_form_osc_R
    generators = (rep.J1, rep.J2, rep.J3) if spin else (rep.K1, rep.K2, rep.K3)
    h_closed = closed_form_operator(closed_form(cfg.f, cfg.theta, cfg.phi, ts), generators)
    origin = out.whole.sample(np.zeros(1))
    u = at.u_minus @ dagger(origin.u_minus[0])
    transport = u @ origin.i_minus[0] @ dagger(u) - at.i_minus
    w_dot_error = frobenius(at.w_dot - central_difference(out.system.w_minus.value, ts))
    residuals = {
        "gauge": frobenius(project(at.h_minus - h_closed, proj)),
        "lvn": lvn_residual(at.i_minus, at.h_minus, at.i_dot, proj),
        "w_dot": w_dot_error / np.maximum(1.0, frobenius(at.w_dot)),
        "unitarity": np.maximum(unitarity_defect(at.u_minus),
                                frobenius(project(transport, proj))),
        "lvn_wrong_h": lvn_residual(at.i_minus, out.system.h_plus, at.i_dot, proj),
    }
    return {name: float(np.max(values)) for name, values in residuals.items()}


def one_sector():
    """Within it, the sector search finds the whole space: every command takes the
    dense route, as its one sector."""
    return mock.patch.object(sectors, "find_sectors",
                             lambda matrices, vectors: [np.arange(len(vectors))])


def solutions_result(cfg, tol: float):
    """The solutions suite with the whole space as its one sector."""
    run = suites._Run(cfg, *suites.build_system(cfg))
    with one_sector():
        return suites._suite_solutions(run, tol)
