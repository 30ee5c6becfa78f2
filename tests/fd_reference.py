"""Residuals of maps of t with their derivatives by central difference.

The suites take dI_-/dt and dd/dt exactly, from one sample of W; these helpers
take them by central difference of the maps, an independent reference.
"""

import numpy as np

from susyinv.dynamics import central_difference, intertwining_residual, lvn_residual


def fd_lvn_residual(i_map, h_map, t, projector=None):
    """lvn_residual at t, with dI/dt the central difference of i_map."""
    return lvn_residual(np.asarray(i_map(t)), np.asarray(h_map(t)),
                        central_difference(i_map, t), projector)


def fd_intertwining_residual(d_map, h_minus_map, h_plus, t):
    """intertwining_residual at t for a constant H+, with dd/dt the central
    difference of d_map."""
    return intertwining_residual(np.asarray(d_map(t)), central_difference(d_map, t),
                                 np.asarray(h_minus_map(t)), h_plus)


def d_map(out):
    """t -> d(t) = W(t) d0 U+(t)^dag, with U+(t) = exp(-i H+ t) from the plus energies,
    for a scalar t or an array of times."""
    system = out.system

    def d(t):
        phases = np.exp(-1j * np.multiply.outer(t, system.plus_energies))
        return (np.asarray(system.w_minus.value(t)) @ system.d0) \
            * phases.conj()[..., None, :]
    return d


def i_minus_map(out):
    """t -> I_-(t) = W(t) I_-(0) W(t)^dag on the whole space (``Block.sample``), for a
    scalar t or an array of times."""
    def i_minus(t):
        ts = np.asarray(t, dtype=float)
        stack = out.whole.sample(np.atleast_1d(ts)).i_minus
        return stack if ts.ndim else stack[0]
    return i_minus
