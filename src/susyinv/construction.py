"""Generative core: gauge curves W(t), partner Hamiltonians H = W Y W^dag - i W dW^dag/dt,
closed-form evolution operators, and the four-step pairing prescription.

The gauge is W = e^{-i phi D3} e^{-i theta D2} e^{i phi D3}, with D2 diagonalized
once. Each outer factor commutes with its generator, so the product rule gives
H = W diag(y - phi' d3) W^dag + theta' E D2 E^dag + phi' D3 with E = e^{-i phi D3}:
one matmul builds W and one the sandwich, and no finite difference enters.
``GaugeCurve.derivative`` keeps the chain-rule dW/dt as an independent route.

Every map of t takes a scalar or an array of times. An array gives an
(n, d, d) stack built with broadcasting and stacked matmul from one evaluation
of theta, phi, f, g and their derivatives and antiderivatives; a scalar gives
the same numbers as an Operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .operators import (Operator, NonHermitianError, dagger, diag_stack, eigh, first_true,
                        frobenius, hermiticity_defect, per_time, unitarity_defect)
from .representations import OscillatorRep, SpinRep
from .susy import ZERO_MODE_SCALE
from .timefunc import TimeFunction

GAUGE_UNITARITY_TOL = 1e-10
HERMITICITY_TOL = 1e-9


class GeneratorSplitError(ValueError):
    """A level of I+(0) whose mapped vectors are not eigenvectors of the generator."""


def _diag_or_none(m: np.ndarray) -> np.ndarray | None:
    off = m[~np.eye(m.shape[0], dtype=bool)]
    if np.any(off != 0):
        return None
    return np.real(np.diag(m)).copy()


def _sandwich(e: np.ndarray, m) -> np.ndarray:
    """diag(e) M diag(e)^* for (n, d) diagonals and a (d, d) matrix or (n, d, d) stack."""
    out = e[:, :, None] * m
    out *= np.conj(e)[:, None, :]
    return out


@dataclass(frozen=True)
class GaugeCurve:
    """Unitary curve W(t) = e^{-i phi D3} e^{-i theta D2} e^{i phi D3}, D3 diagonal."""

    d3: Operator
    d2: Operator
    theta: TimeFunction
    phi: TimeFunction

    @classmethod
    def spin(cls, rep: SpinRep, theta: TimeFunction, phi: TimeFunction) -> "GaugeCurve":
        return cls(rep.J3, rep.J2, theta, phi)

    @classmethod
    def oscillator(cls, rep: OscillatorRep, theta: TimeFunction,
                   phi: TimeFunction) -> "GaugeCurve":
        return cls(rep.K3, rep.K2, theta, phi)

    @cached_property
    def _d3_diag(self) -> np.ndarray:
        diag = _diag_or_none(self.d3.entries)
        if diag is None:
            raise ValueError("the commuting generator D3 must be diagonal in this basis")
        return diag

    @cached_property
    def _d2_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors V2 of D2, V2 checked unitary once.

        W = E V2 Phi V2^dag E^dag with unit-modulus phase diagonals E and Phi,
        so W is unitary at every finite angle wherever V2 is.
        """
        es = eigh(self.d2)
        v2 = np.ascontiguousarray(es.vectors)
        defect = unitarity_defect(v2)
        if not defect <= GAUGE_UNITARITY_TOL * max(1.0, frobenius(v2)):
            raise ValueError(f"gauge curve is not unitary: the eigenbasis of D2 has "
                             f"defect {defect:.3e}")
        return es.values, v2

    @cached_property
    def _theta_dot(self) -> TimeFunction:
        return self.theta.derivative()

    @cached_property
    def _phi_dot(self) -> TimeFunction:
        return self.phi.derivative()

    @property
    def dim(self) -> int:
        return self.d3.dim

    def _factors(self, t: np.ndarray):
        """e^{-i phi D3} diagonals and e^{-i theta D2} eigenphases, each (n, d), and W."""
        e1 = np.exp(-1j * self.phi(t)[:, None] * self._d3_diag)
        e2_phases = np.exp(-1j * self.theta(t)[:, None] * self._d2_eig[0])
        return e1, e2_phases, _sandwich(e1, self._in_d2_basis(e2_phases))

    def _in_d2_basis(self, diagonals: np.ndarray) -> np.ndarray:
        """V2 diag(x) V2^dag for each row x of an (n, d) array."""
        v2 = self._d2_eig[1]
        return (v2 * diagonals[:, None, :]) @ v2.conj().T

    def value(self, t):
        """W(t): an Operator for a scalar t, an (n, d, d) stack for an array."""
        return per_time(t, lambda ts: self._factors(ts)[2])

    def derivative(self, t):
        """dW/dt by the chain rule on the three exponentials."""
        def stack(ts):
            e1, e2_phases, w = self._factors(ts)
            d3 = self._d3_diag
            # d/dt of each factor, assembled by the product rule.
            d2e2 = self._in_d2_basis(self._d2_eig[0] * e2_phases)
            term_phi = -1j * self._phi_dot(ts)[:, None, None] * (d3[:, None] * w
                                                                 - w * d3[None, :])
            term_theta = -1j * self._theta_dot(ts)[:, None, None] * _sandwich(e1, d2e2)
            return term_phi + term_theta
        return per_time(t, stack)

    def partner(self, y_diagonal: np.ndarray, t: np.ndarray) -> np.ndarray:
        """W diag(y) W^dag - i W dW^dag/dt for (n, d) diagonals y at (n,) times.

        E = e^{-i phi D3} commutes with D3 and e^{-i theta D2} with D2, so
        -i W dW^dag/dt = theta' E D2 E^dag + phi' (D3 - W D3 W^dag).
        """
        e1, _, w = self._factors(t)
        phi_dot = self._phi_dot(t)[:, None]
        h = (w * (y_diagonal - phi_dot * self._d3_diag)[:, None, :]) @ dagger(w)
        h += self._theta_dot(t)[:, None, None] * _sandwich(e1, self.d2.entries)
        idx = np.arange(self.dim)
        h[:, idx, idx] += phi_dot * self._d3_diag
        return h

    def identity_start_defect(self) -> float:
        """||W(0) - 1||; zero is required by the pairing prescription but the
        closed-form solution family stays exact for offset starts."""
        w0 = self.value(0.0).entries
        return float(np.linalg.norm(w0 - np.eye(w0.shape[0])))


@dataclass(frozen=True)
class YSpec:
    """Hermitian Y(t) = f(t) D + g(t) D^2 over a diagonal generator D.

    Y(t) at different times commute by construction, so the evolution factor
    is a plain exponential of the antiderivative.
    """

    D: Operator
    f: TimeFunction
    g: TimeFunction | None = None

    def __post_init__(self):
        if _diag_or_none(self.D.entries) is None:
            raise ValueError("YSpec requires the commuting generator to be diagonal")

    @cached_property
    def _d_diag(self) -> np.ndarray:
        return _diag_or_none(self.D.entries)

    @cached_property
    def _f_anti(self) -> TimeFunction:
        return self.f.antiderivative()

    @cached_property
    def _g_anti(self) -> TimeFunction | None:
        return None if self.g is None else self.g.antiderivative()

    @property
    def dim(self) -> int:
        return self.D.dim

    def diagonal(self, t) -> np.ndarray:
        """Diagonal of Y(t): shape (d,) for a scalar t, (n, d) for an array."""
        return self._combine(self.f(t), None if self.g is None else self.g(t))

    def value(self, t):
        return per_time(t, lambda ts: diag_stack(self.diagonal(ts)))

    def integral_diagonal(self, t) -> np.ndarray:
        """Diagonal of int_0^t Y(s) ds, exact through the antiderivatives."""
        return self._combine(self._f_anti(t),
                             None if self._g_anti is None else self._g_anti(t))

    def _combine(self, f_part, g_part) -> np.ndarray:
        d = self._d_diag
        out = np.multiply.outer(f_part, d)
        if g_part is not None:
            out = out + np.multiply.outer(g_part, d) * d
        return out

    def eigen_phase(self, mu, t):
        """int_0^t y(s) ds on a D-eigenvector with eigenvalue mu (broadcast over arrays)."""
        out = self._f_anti(t) * mu
        if self._g_anti is not None:
            out = out + self._g_anti(t) * mu * mu
        return float(out) if np.ndim(out) == 0 else out

    def commutation_defect(self, i0: Operator, ts=(0.0, 0.7, 1.3)) -> float:
        m0 = i0.entries
        y = self.value(np.asarray(ts, dtype=float))
        return float(np.max(frobenius(y @ m0 - m0 @ y)))


def hamiltonian_from_gauge(w: GaugeCurve, y: YSpec, t):
    """H(t) = W Y W^dag - i W dW^dag/dt, from :meth:`GaugeCurve.partner`.

    The Hermiticity guard holds at every time of an array, and a non-finite
    H fails it: the first such time raises.
    """
    def stack(ts: np.ndarray) -> np.ndarray:
        h = w.partner(y.diagonal(ts), ts)
        relative = hermiticity_defect(h) / np.maximum(1.0, frobenius(h))
        k = first_true(~(relative <= HERMITICITY_TOL))
        if k is not None:
            raise NonHermitianError(float(relative[k]), float(ts[k]))
        return h
    return per_time(t, stack)


def evolution_from_gauge(w: GaugeCurve, y: YSpec, t):
    """U(t) = W(t) exp(-i int_0^t Y); valid because Y(t) at different t commute."""
    return per_time(t, lambda ts: w.value(ts)
                    * np.exp(-1j * y.integral_diagonal(ts))[:, None, :])


@dataclass(frozen=True)
class SuperSystem:
    """Inputs to the pairing prescription: solvable plus sector, d0, gauge, Y."""

    rep: SpinRep | OscillatorRep
    d0: Operator
    w_minus: GaugeCurve
    y_minus: YSpec
    h_plus: Callable[[float], Operator]
    u_plus: Callable[[float], Operator]

    def plus_sector_defect(self, ts=(0.3, 1.1), h: float = 1e-5) -> float:
        """Finite-difference residual of i dU+/dt = H+ U+ plus ||U+(0) - 1||."""
        u0 = self.u_plus(0.0).entries
        ts = np.asarray(ts, dtype=float)
        du = (self.u_plus(ts + h) - self.u_plus(ts - h)) / (2 * h)
        res = 1j * du - self.h_plus(ts) @ self.u_plus(ts)
        return max(frobenius(u0 - np.eye(u0.shape[0])), float(np.max(frobenius(res))))


@dataclass(frozen=True)
class SolutionLevel:
    """One positive level after splitting by the commuting generator."""

    lam: float
    mu: float
    v_plus: np.ndarray
    v_minus: np.ndarray


@dataclass(frozen=True)
class PartnerOutput:
    """Everything the prescription produces, as maps of t."""

    system: SuperSystem
    iplus_ref: Operator
    iminus_ref: Operator
    levels: tuple[SolutionLevel, ...]
    kernel_dim_plus: int
    kernel_dim_minus: int

    def h_minus(self, t):
        return hamiltonian_from_gauge(self.system.w_minus, self.system.y_minus, t)

    def u_minus(self, t):
        return evolution_from_gauge(self.system.w_minus, self.system.y_minus, t)

    def propagator_minus(self, t):
        """U(t) U(0)^dag: the evolution operator normalized to 1 at t = 0.

        Identical to u_minus when the gauge starts at the identity; for offset
        starts (theta(0) != 0) only this combination transports I-(0) to I-(t).
        """
        u0 = self.u_minus(0.0).entries
        return per_time(t, lambda ts: self.u_minus(ts) @ u0.conj().T)

    def i_plus(self, t):
        def stack(ts):
            u = self.system.u_plus(ts)
            return u @ self.iplus_ref.entries @ dagger(u)
        return per_time(t, stack)

    def i_minus(self, t):
        def stack(ts):
            w = self.system.w_minus.value(ts)
            return w @ self.iminus_ref.entries @ dagger(w)
        return per_time(t, stack)

    def d(self, t):
        def stack(ts):
            w = self.system.w_minus.value(ts)
            return w @ self.system.d0.entries @ dagger(self.system.u_plus(ts))
        return per_time(t, stack)

    def mapped_solution(self, level, t) -> np.ndarray:
        """Exact minus-sector solution e^{-i int y} W(t) d0 |lam,+;0> / sqrt(2 lam).

        ``level`` is one index or a sequence of them, ``t`` a scalar or a 1-D
        array of times; the result has shape ``t.shape + (dim,) + level.shape``.
        """
        index = np.asarray(level)
        levels = [self.levels[i] for i in np.atleast_1d(index)]
        vm = np.stack([lv.v_minus for lv in levels], axis=1)
        mus = np.array([lv.mu for lv in levels])
        ts = np.asarray(t, dtype=float)
        phases = np.exp(-1j * self.system.y_minus.eigen_phase(mus, ts[..., None]))
        psi = (self.system.w_minus.value(ts) @ vm) * phases[..., None, :]
        return psi if index.ndim else psi[..., 0]

    def level_for_label(self, mu: float) -> int:
        """Locate a level by its commuting-generator eigenvalue mu."""
        for i, lv in enumerate(self.levels):
            if abs(lv.mu - mu) < 1e-6:
                return i
        raise KeyError(f"no positive level with generator eigenvalue {mu}")

    def identity_defects(self, ts=(0.4, 1.7)) -> dict[str, float]:
        """Residuals of I+(t) = d^dag d / 2 and I-(t) = d d^dag / 2 at samples."""
        ts = np.asarray(ts, dtype=float)
        dm = self.d(ts)
        return {"iplus": float(np.max(frobenius(dagger(dm) @ dm / 2 - self.i_plus(ts)))),
                "iminus": float(np.max(frobenius(dm @ dagger(dm) / 2 - self.i_minus(ts))))}


def run_prescription(system: SuperSystem) -> PartnerOutput:
    """Steps 1-4: reference invariants from d0, transported partners, solution levels.

    Positive levels of I+(0) are split inside each degenerate cluster so every
    mapped minus-sector vector is an eigenvector of the commuting generator;
    the scalar solution phase is exact only in that sub-basis.
    """
    d0 = system.d0.entries
    iplus_ref = Operator(d0.conj().T @ d0 / 2)
    iminus_ref = Operator(d0 @ d0.conj().T / 2)
    es = eigh(iplus_ref)
    scale = max(1.0, iplus_ref.norm())
    zero_tol = ZERO_MODE_SCALE * scale
    d_diag = system.y_minus.D

    levels: list[SolutionLevel] = []
    kernel_plus = 0
    for group in es.degeneracy_groups:
        lam = float(es.values[list(group)].mean())
        if lam < zero_tol:
            kernel_plus += len(group)
            continue
        vp = es.vectors[:, list(group)]
        vm = d0 @ vp / np.sqrt(2 * lam)
        # Split the cluster so each minus vector diagonalizes the generator.
        block = vm.conj().T @ d_diag.entries @ vm
        block = (block + block.conj().T) / 2
        mus, s = np.linalg.eigh(block)
        vp = vp @ s
        vm = vm @ s
        for k in range(len(group)):
            residual = np.linalg.norm(d_diag.entries @ vm[:, k] - mus[k] * vm[:, k])
            if residual > 1e-8 * max(1.0, abs(mus[k])):
                raise GeneratorSplitError(
                    f"level {lam:.6g} does not split into generator eigenvectors "
                    f"(residual {residual:.3e}); the scalar-phase solution form "
                    "does not apply")
            levels.append(SolutionLevel(lam, float(mus[k]), vp[:, k], vm[:, k]))
    levels.sort(key=lambda lv: (lv.lam, lv.mu))
    # dim Ker(I-) = dim - rank(d0) = dim - (number of positive levels).
    kernel_minus = iminus_ref.dim - len(levels)
    return PartnerOutput(system, iplus_ref, iminus_ref, tuple(levels),
                         kernel_plus, kernel_minus)


def _phases_map(phases: Callable[[np.ndarray], np.ndarray]):
    """Diagonal evolution t -> diag(phases(t)) from (n,) times -> (n, d) phases."""
    return lambda t: per_time(t, lambda ts: diag_stack(phases(ts)))


def spin_supersystem(rep: SpinRep, theta: TimeFunction, phi: TimeFunction,
                     f: TimeFunction, g: TimeFunction | None = None,
                     b: float = 1.0, d0: Operator | None = None) -> SuperSystem:
    """Constant dipole plus sector H+ = b J3 with d0 = J+ by default."""
    if d0 is None:
        d0 = rep.Jplus
    m = rep.m_values()
    h_plus_mat = Operator(np.diag(b * m).astype(complex))
    gauge = GaugeCurve.spin(rep, theta, phi)
    y = YSpec(rep.J3, f, g)
    return SuperSystem(
        rep, d0, gauge, y,
        h_plus=lambda t: h_plus_mat,
        u_plus=_phases_map(lambda ts: np.exp(-1j * b * ts[:, None] * m)),
    )


def oscillator_supersystem(rep: OscillatorRep, theta: TimeFunction,
                           phi: TimeFunction, f: TimeFunction,
                           d0: Operator | None = None) -> SuperSystem:
    """Unit oscillator plus sector H+ = a^dag a + 1/2 with d0 = a^dag by default."""
    if d0 is None:
        d0 = rep.adag
    energies = np.arange(rep.N) + 0.5
    h_plus_mat = rep.hamiltonian_plus()
    gauge = GaugeCurve.oscillator(rep, theta, phi)
    y = YSpec(rep.K3, f)
    return SuperSystem(
        rep, d0, gauge, y,
        h_plus=lambda t: h_plus_mat,
        u_plus=_phases_map(lambda ts: np.exp(-1j * ts[:, None] * energies)),
    )


def _closed_form_R(sin_th, cos_th, f, theta, phi, t):
    th, ph = theta(t), phi(t)
    th_dot, ph_dot = theta.derivative()(t), phi.derivative()(t)
    ft = f(t)
    r1 = sin_th(th) * np.cos(ph) * (ft - ph_dot) - np.sin(ph) * th_dot
    r2 = sin_th(th) * np.sin(ph) * (ft - ph_dot) + np.cos(ph) * th_dot
    r3 = cos_th(th) * (ft - ph_dot) + ph_dot
    if np.ndim(t) == 0:
        return float(r1), float(r2), float(r3)
    return r1, r2, r3


def closed_form_spin_R(f: TimeFunction, theta: TimeFunction, phi: TimeFunction, t):
    """Coefficients of H_-(t) over (J1, J2, J3) for Y = f J3 and the su(2) gauge.

    Floats for a scalar t, arrays for an array of times.
    """
    return _closed_form_R(np.sin, np.cos, f, theta, phi, t)


def closed_form_osc_R(f: TimeFunction, theta: TimeFunction, phi: TimeFunction, t):
    """Coefficients of H_-(t) over (K1, K2, K3); hyperbolic analog of the spin case."""
    return _closed_form_R(np.sinh, np.cosh, f, theta, phi, t)


def closed_form_operator(r, generators) -> np.ndarray:
    """sum_i R^i G_i: one matrix for scalar coefficients, a stack for arrays."""
    return sum(np.multiply.outer(ri, g.entries) for ri, g in zip(r, generators))


def precessing_special_case(f: TimeFunction, theta: float, omega: float,
                            t: float, b: float = 1.0) -> tuple[float, float, float]:
    """Field magnitude r and direction weights (f1, f2) for theta = const, phi = omega t.

    b * r * (f1 cos(omega t), f1 sin(omega t), f2) equals closed_form_spin_R.
    """
    ft = f(t)
    r1 = np.sin(theta) * (ft - omega)
    r3 = np.cos(theta) * (ft - omega) + omega
    br = float(np.hypot(r1, r3))
    r = br / b
    if br == 0.0:
        return 0.0, 0.0, 0.0
    return r, float(r1 / br), float(r3 / br)


def quadrupole_partner(spin: SpinRep, f: TimeFunction, g: TimeFunction,
                       theta: TimeFunction, phi: TimeFunction, t):
    """H'_-(t) = sum_i R^i J_i + g(t) (sum_i Rtilde^i J_i)^2 for Y = f J3 + g J3^2."""
    def stack(ts):
        generators = (spin.J1, spin.J2, spin.J3)
        linear = closed_form_operator(closed_form_spin_R(f, theta, phi, ts), generators)
        th, ph = theta(ts), phi(ts)
        tilde = closed_form_operator((np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                                      np.cos(th)), generators)
        return linear + g(ts)[:, None, None] * (tilde @ tilde)
    return per_time(t, stack)
