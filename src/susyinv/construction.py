"""Generative core: gauge curves W(t), partner Hamiltonians H = W Y W^dag - i W dW^dag/dt,
closed-form evolution operators, and the four-step pairing prescription.

The gauge is W = E R E^dag with E = e^{-i phi D3} diagonal and R = e^{-i theta D2}.
D2 = iB is purely imaginary in both families, so R = e^{theta B} is real
orthogonal (for spin, Wigner's small-d matrix): one real product
R = (P cos(theta lam~) + P_sw sin(theta lam~)) P^T per time, from the real basis
P of D2 built and checked orthogonal once (``GaugeCurve._d2_basis``). Each
outer factor commutes with its generator, so the product rule gives
H = E (R diag(y - phi' d3) R^T + theta' D2) E^dag + phi' D3: one more real
product, one phase sandwich, and no finite difference. dW/dt is the chain rule
on the three exponentials, theta' E R' E^dag - i phi' [D3, W] with R' = dR/dtheta
another real product (``_Sample.w_dot``): a route independent of that product
rule, which gives the residual checks exact derivatives of I_-, d and the
solutions.

Every map of t takes a scalar or an array of times. An array gives an
(n, d, d) stack built with broadcasting and stacked matmul from one evaluation
of theta, phi, f, g and their derivatives and antiderivatives; a scalar gives
the same numbers as an :class:`~susyinv.operators.Operator`. Stored matrices
(D3, D2, Y's generator, d0 and their sector cuts) are read-only arrays.

A :class:`Block` holds the gauge, Y, I_-(0), the diagonal of H+, the levels,
the representation's closed-form generators and trusted projector on the whole
space, or their blocks on a sector (:mod:`susyinv.sectors`), cut in one place
(:meth:`Block.restricted`). :attr:`PartnerOutput.sectors` finds the sectors on
first use, and the whole space is their one-sector case. Every command takes
the sectors; only the maps of t ``h_minus`` and ``u_minus`` take the whole
space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import sectors
from .operators import (NonHermitianError, dagger, eigh, first_true, frobenius,
                        hermiticity_defect, per_time, read_only, unitarity_defect)
from .representations import OscillatorRep, SpinRep
from .susy import (ZERO_MODE_SCALE, SpectralPairing, SuperInvariant, build_invariant,
                   build_supercharge, pair_spectra)
from .timefunc import TimeFunction

GAUGE_UNITARITY_TOL = 1e-10
HERMITICITY_TOL = 1e-9


class GeneratorSplitError(ValueError):
    """A level of I+(0) whose mapped vectors are not eigenvectors of the generator."""


class NonFiniteHamiltonianError(ValueError):
    """An H_- whose Frobenius norm is not finite: a non-finite entry, or an overflow."""

    def __init__(self, norm: float, t: float):
        super().__init__(f"H_- is not finite at t={t} (Frobenius norm {norm:.3e})")


def _diag_or_none(m: np.ndarray) -> np.ndarray | None:
    off = m[~np.eye(m.shape[0], dtype=bool)]
    if np.any(off != 0):
        return None
    return np.real(np.diag(m)).copy()


def _sandwich(e: np.ndarray, m, out: np.ndarray | None = None) -> np.ndarray:
    """diag(e) M diag(e)^* for (n, d) diagonals and a (d, d) matrix or (n, d, d) stack,
    written to ``out`` when given (which may be M itself)."""
    out = np.multiply(e[:, :, None], m, out=out)
    out *= np.conj(e)[:, None, :]
    return out


def _real_basis(vectors: np.ndarray) -> np.ndarray:
    """A real orthonormal basis of the span of (d, k) orthonormal columns, for a span
    closed under conjugation, such as the null space of a purely imaginary D2.

    The real and imaginary parts of the columns span it; each of k Gram-Schmidt
    steps takes the longest of them left. A phase per column would not do: with
    two zero modes eigh may mix them by a complex rotation.
    """
    m = np.hstack([vectors.real, vectors.imag])
    basis = np.empty(vectors.shape)
    for k in range(vectors.shape[1]):
        col = m[:, np.argmax(np.sum(m * m, axis=0))]
        basis[:, k] = col / np.sqrt(col @ col)
        m -= np.outer(basis[:, k], basis[:, k] @ m)
    return basis


@dataclass(frozen=True)
class GaugeCurve:
    """Unitary curve W(t) = e^{-i phi D3} e^{-i theta D2} e^{i phi D3}, D3 diagonal."""

    d3: np.ndarray
    d2: np.ndarray
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
        diag = _diag_or_none(self.d3)
        if diag is None:
            raise ValueError("the commuting generator D3 must be diagonal in this basis")
        return diag

    @cached_property
    def _d3_differences(self) -> np.ndarray:
        """(d3_j - d3_k), the entries of [D3, M] over those of M."""
        return np.subtract.outer(self._d3_diag, self._d3_diag)

    @cached_property
    def _d2_basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """lam~ and the real bases P = [X Y Z] and P_sw = [Y -X 0] of D2 = iB, P
        checked orthogonal once.

        For each eigenvector v of D2 with eigenvalue lam > 0, x + iy = sqrt(2) v
        gives B x = lam y and B y = -lam x; Z is a real orthonormal basis of the
        null space, and lam~ = [lam, lam, 0]. So R(theta) = e^{-i theta D2} =
        (P cos(theta lam~) + P_sw sin(theta lam~)) P^T, and W = E R E^dag is
        unitary at every finite angle wherever P is orthogonal.
        """
        d2 = self.d2
        if np.any(d2.real != 0):
            raise ValueError("the rotation generator D2 must be purely imaginary in this basis")
        es = eigh(self.d2)
        zero = np.abs(es.values) <= ZERO_MODE_SCALE * max(1.0, frobenius(d2))
        positive = ~zero & (es.values > 0)
        xy = np.sqrt(2.0) * es.vectors[:, positive]
        z = _real_basis(es.vectors[:, zero])
        p = np.hstack([xy.real, xy.imag, z])
        # P P^T - 1 also catches a P that is not square.
        defect = unitarity_defect(p.T)
        if not defect <= GAUGE_UNITARITY_TOL * max(1.0, frobenius(p)):
            raise ValueError(f"gauge curve is not unitary: the eigenbasis of D2 has "
                             f"defect {defect:.3e}")
        lam = es.values[positive]
        return (np.concatenate([lam, lam, np.zeros(z.shape[1])]), p,
                np.hstack([xy.imag, -xy.real, np.zeros_like(z)]))

    @property
    def dim(self) -> int:
        return len(self.d3)

    def _factors(self, t: np.ndarray):
        """E = e^{-i phi D3} diagonals and (cos, sin) of theta lam~, each (n, d), the
        real rotations R = e^{-i theta D2} and W = E R E^dag, each (n, d, d)."""
        e = np.exp(-1j * self.phi(t)[:, None] * self._d3_diag)
        angles = self.theta(t)[:, None] * self._d2_basis[0]
        cos_sin = np.cos(angles), np.sin(angles)
        r = self._rotation(*cos_sin)
        return e, cos_sin, r, _sandwich(e, r)

    def _rotation(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(P diag(x) + P_sw diag(y)) P^T for each row x of a and y of b, (n, d) arrays."""
        _, p, p_sw = self._d2_basis
        m = p * a[:, None, :]
        m += p_sw * b[:, None, :]
        return m @ p.T

    def value(self, t):
        """W(t): an Operator for a scalar t, an (n, d, d) stack for an array."""
        return per_time(t, lambda ts: self._factors(ts)[-1])

    def derivative(self, t):
        """dW/dt by the chain rule on the three exponentials (:attr:`_Sample.w_dot`)."""
        return per_time(t, lambda ts: _Sample(self, None, ts).w_dot)

@dataclass(frozen=True)
class YSpec:
    """Hermitian Y(t) = f(t) D + g(t) D^2 over a diagonal generator D.

    Y(t) at different times commute by construction, so the evolution factor
    is a plain exponential of the antiderivative.
    """

    D: np.ndarray
    f: TimeFunction
    g: TimeFunction | None = None

    def __post_init__(self):
        if _diag_or_none(self.D) is None:
            raise ValueError("YSpec requires the commuting generator to be diagonal")

    @cached_property
    def _d_diag(self) -> np.ndarray:
        return _diag_or_none(self.D)

    def diagonal(self, t) -> np.ndarray:
        """Diagonal of Y(t): shape (d,) for a scalar t, (n, d) for an array."""
        return self.eigen_rate(self._d_diag, np.asarray(t)[..., None])

    def integral_diagonal(self, t) -> np.ndarray:
        """Diagonal of int_0^t Y(s) ds, exact through the antiderivatives."""
        return self.eigen_phase(self._d_diag, np.asarray(t)[..., None])

    def eigen_phase(self, mu, t):
        """int_0^t y(s) ds on a D-eigenvector with eigenvalue mu (broadcast over arrays)."""
        out = self.f.antiderivative()(t) * mu
        if self.g is not None:
            out = out + self.g.antiderivative()(t) * mu * mu
        return float(out) if np.ndim(out) == 0 else out

    def eigen_rate(self, mu, t):
        """y(t) on a D-eigenvector with eigenvalue mu: the t-derivative of eigen_phase."""
        out = self.f(t) * mu
        return out if self.g is None else out + self.g(t) * mu * mu


class _Sample:
    """W at an array of times, built once (:meth:`GaugeCurve._factors`), and H_-,
    dW/dt, I_- = W I_-(0) W^dag, dI_-/dt, U_- and dU_-/dt derived from it on first use
    (``y`` may be None when only W and dW/dt are taken)."""

    def __init__(self, w: GaugeCurve, y: YSpec | None, ts: np.ndarray,
                 i_ref: np.ndarray | None = None):
        self._gauge, self._y, self._i_ref, self.ts = w, y, i_ref, ts
        self._e, self._cos_sin, self._r, self.w = w._factors(ts)

    @cached_property
    def w_dot(self) -> np.ndarray:
        """dW/dt by the chain rule on the three exponentials:
        W' = E (theta' R' - i phi' [D3, R]) E^dag, with R' = (P_sw lam~ cos - P lam~ sin) P^T
        from the middle factor and [D3, R]_jk = (d3_j - d3_k) R_jk from the outer ones."""
        g, ts = self._gauge, self.ts
        rate = g.theta.derivative()(ts)[:, None] * g._d2_basis[0]
        cos, sin = self._cos_sin
        out = np.empty(self.w.shape, complex)
        out.real = g._rotation(-rate * sin, rate * cos)
        np.multiply(g._d3_differences, self._r, out=out.imag)
        out.imag *= -g.phi.derivative()(ts)[:, None, None]
        return _sandwich(self._e, out, out=out)

    @cached_property
    def h_minus(self) -> np.ndarray:
        """W diag(y) W^dag - i W dW^dag/dt, guarded as :func:`hamiltonian_from_gauge` says.

        E = e^{-i phi D3} commutes with D3 and R = e^{-i theta D2} with D2, so
        H = E (R diag(y - phi' d3) R^T + theta' D2) E^dag + phi' D3.
        """
        g, ts, r = self._gauge, self.ts, self._r
        phi_dot = g.phi.derivative()(ts)[:, None]
        h = g.theta.derivative()(ts)[:, None, None] * g.d2
        h += (r * (self._y.diagonal(ts) - phi_dot * g._d3_diag)[:, None, :]) \
            @ np.swapaxes(r, 1, 2)
        _sandwich(self._e, h, out=h)
        idx = np.arange(g.dim)
        h[:, idx, idx] += phi_dot * g._d3_diag
        # An overflowing or non-finite H is caught by its norm; numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            norms = frobenius(h)
            relative = hermiticity_defect(h) / np.maximum(1.0, norms)
        finite = np.isfinite(norms)
        k = first_true(~finite | ~(relative <= HERMITICITY_TOL))
        if k is not None:
            if not finite[k]:
                raise NonFiniteHamiltonianError(float(norms[k]), float(ts[k]))
            raise NonHermitianError(float(relative[k]), float(ts[k]))
        return h

    @cached_property
    def _w_i(self) -> np.ndarray:
        return self.w @ self._i_ref

    @cached_property
    def i_minus(self) -> np.ndarray:
        return self._w_i @ dagger(self.w)

    @cached_property
    def i_dot(self) -> np.ndarray:
        """dI_-/dt = X + X^dag with X = W' (W I_-(0))^dag, I_-(0) Hermitian."""
        x = self.w_dot @ dagger(self._w_i)
        x += dagger(x)
        return x

    @cached_property
    def _phases(self) -> np.ndarray:
        """e^{-i int_0^t y} as (n, 1, d) rows."""
        return np.exp(-1j * self._y.integral_diagonal(self.ts))[:, None, :]

    @cached_property
    def u_minus(self) -> np.ndarray:
        return self.w * self._phases

    @cached_property
    def u_dot(self) -> np.ndarray:
        """dU_-/dt = (W' - i W diag(y)) e^{-i int y}, exact from W'."""
        return (self.w_dot - 1j * self.w * self._y.diagonal(self.ts)[:, None, :]) * self._phases


def hamiltonian_from_gauge(w: GaugeCurve, y: YSpec, t):
    """H(t) = W Y W^dag - i W dW^dag/dt.

    The guards hold at every time of an array, and the first time that fails
    one raises: a non-finite H, or one whose Frobenius norm overflows, with
    NonFiniteHamiltonianError, and a non-Hermitian one with NonHermitianError.
    """
    return per_time(t, lambda ts: _Sample(w, y, ts).h_minus)


def evolution_from_gauge(w: GaugeCurve, y: YSpec, t):
    """U(t) = W(t) exp(-i int_0^t Y); valid because Y(t) at different t commute."""
    return per_time(t, lambda ts: _Sample(w, y, ts).u_minus)


@dataclass(frozen=True)
class SuperSystem:
    """Inputs to the pairing prescription: d0, gauge, Y and the solvable plus sector,
    held as its energies: H+ = diag(plus_energies), so U+(t) = e^{-i H+ t} is diagonal."""

    rep: SpinRep | OscillatorRep
    d0: np.ndarray
    w_minus: GaugeCurve
    y_minus: YSpec
    plus_energies: np.ndarray

    @property
    def h_plus(self) -> np.ndarray:
        """H+ as a complex (dim, dim) matrix."""
        return np.diag(self.plus_energies).astype(complex)

    def u_plus_phases(self, ts: np.ndarray) -> np.ndarray:
        """The diagonals of U+ at (n,) times: (n, dim)."""
        return np.exp(-1j * ts[:, None] * self.plus_energies)


@dataclass(frozen=True)
class Levels:
    """The positive levels, split by the commuting generator and ascending in
    (lam, mu): the (n,) eigenvalues lam of I+(0) and mu of the generator, and
    the (dim, n) minus vectors d0 |lam,+> / sqrt(2 lam), one column per level."""

    lam: np.ndarray
    mu: np.ndarray
    v_minus: np.ndarray

    def __len__(self) -> int:
        return self.lam.size


@dataclass(frozen=True)
class Block:
    """The minus side on the indices ``rows`` of a sector, or on the whole space
    (``rows`` None): the gauge, Y, I_-(0), the diagonal of H+ and the levels, their
    minus vectors restricted to ``rows``, with the closed-form generators and the
    trusted projector (None where every state is trusted) of the representation.
    Every level lives in one sector, where its minus vector is nonzero (:meth:`holds`)."""

    rows: np.ndarray | None
    gauge: GaugeCurve
    y: YSpec
    i_ref: np.ndarray
    plus_energies: np.ndarray
    levels: Levels
    generators: tuple[np.ndarray, ...]
    projector: np.ndarray | None

    @property
    def dim(self) -> int:
        return self.gauge.dim

    def restricted(self, rows: np.ndarray) -> Block:
        """The blocks of this whole-space block on ``rows``, indices that D2, D3, Y's
        generator, I_-(0) and the closed-form generators do not couple to the rest."""
        def cut(m):
            return read_only(m[np.ix_(rows, rows)])
        return Block(rows, replace(self.gauge, d3=cut(self.gauge.d3), d2=cut(self.gauge.d2)),
                     replace(self.y, D=cut(self.y.D)), cut(self.i_ref),
                     self.plus_energies[rows],
                     replace(self.levels, v_minus=self.levels.v_minus[rows]),
                     tuple(map(cut, self.generators)),
                     None if self.projector is None else cut(self.projector))

    def holds(self, index: np.ndarray) -> np.ndarray:
        """Which of the levels ``index`` live here."""
        return np.any(self.levels.v_minus[:, index] != 0, axis=0)

    def sample(self, ts: np.ndarray) -> _Sample:
        """H_-, I_- and U_- at an array of times, from one build of W there."""
        return _Sample(self.gauge, self.y, ts, self.i_ref)

    def mapped(self, index: np.ndarray, ts, w=None) -> np.ndarray:
        """W(ts), or ``w`` when given, times the minus vectors of the levels ``index``,
        each with its phase e^{-i int_0^t y}: the mapped solutions at the times ``ts``."""
        phases = np.exp(-1j * self.y.eigen_phase(self.levels.mu[index], ts[..., None]))
        w = self.gauge.value(ts) if w is None else w
        return (w @ self.levels.v_minus[:, index]) * phases[..., None, :]

    def mapped_with_rate(self, index: np.ndarray, at: _Sample) -> tuple[np.ndarray, np.ndarray]:
        """The mapped solutions psi of the levels ``index`` at a sample's times, and
        dpsi/dt = W' V phi - i (y mu) psi from its W and W': each (n, dim, len(index))."""
        psi = self.mapped(index, at.ts, at.w)
        rate = self.y.eigen_rate(self.levels.mu[index], at.ts[:, None])
        return psi, self.mapped(index, at.ts, at.w_dot) - 1j * rate[:, None, :] * psi


@dataclass(frozen=True)
class PartnerOutput:
    """Everything the prescription produces: the invariant I(0) of d0, its spectral
    pairing, the minus side on the whole space (``whole``) with the levels taken
    from the pairing, and its sectors, found on first use (:attr:`sectors`)."""

    system: SuperSystem
    invariant: SuperInvariant
    pairing: SpectralPairing
    whole: Block

    @property
    def levels(self) -> Levels:
        return self.whole.levels

    @cached_property
    def sectors(self) -> tuple[Block, ...]:
        """The sectors of D2, I_-(0), the closed-form generators and the minus vectors
        (:func:`susyinv.sectors.find_sectors`), each holding the blocks of the whole's
        on its indices: ``whole`` itself where there is one."""
        w = self.whole
        parts = sectors.find_sectors([w.gauge.d2, w.i_ref, *w.generators],
                                     w.levels.v_minus)
        return (w,) if len(parts) == 1 else tuple(map(w.restricted, parts))

    def assemble(self, blocks: list[np.ndarray]) -> np.ndarray:
        """The whole space's (n, d, d) stack from one (n, d_s, d_s) block per sector:
        their direct sum, permuted back."""
        if len(blocks) == 1:
            return blocks[0]
        whole = np.zeros(blocks[0].shape[:-2] + (self.whole.dim,) * 2, dtype=complex)
        for s, b in zip(self.sectors, blocks):
            whole[..., s.rows[:, None], s.rows] = b
        return whole

    def h_minus(self, t):
        return hamiltonian_from_gauge(self.whole.gauge, self.whole.y, t)

    def u_minus(self, t):
        return evolution_from_gauge(self.whole.gauge, self.whole.y, t)

    def d_stack(self, ts: np.ndarray, w: np.ndarray) -> np.ndarray:
        """d = W d0 U+^dag at the times ``ts`` from W there, or with W' in place of W its
        gauge rate; dd/dt adds i d H+, as U+^dag solves dU+^dag/dt = i U+^dag H+."""
        # U+ is diagonal, so U+^dag scales the columns of W d0.
        return (w @ self.system.d0) * self.system.u_plus_phases(ts).conj()[:, None, :]

    def mapped_solution(self, level, t) -> np.ndarray:
        """Exact minus-sector solution e^{-i int y} W(t) d0 |lam,+;0> / sqrt(2 lam),
        taken in the sector of each level.

        ``level`` is one index or a sequence of them, ``t`` a scalar or a 1-D
        array of times; the result has shape ``t.shape + (dim,) + level.shape``.
        """
        index = np.asarray(level)
        ts = np.asarray(t, dtype=float)
        flat = np.atleast_1d(index)
        if len(self.sectors) == 1:
            psi = self.whole.mapped(flat, ts)
        else:  # each level lives in one sector, zero off its rows
            # The sectors' blocks side by side on their rows, then one gather puts the
            # columns back in the requested order.
            owned = [np.flatnonzero(s.holds(flat)) for s in self.sectors]
            psi = np.zeros(ts.shape + (self.whole.dim, flat.size), dtype=complex)
            start = 0
            for s, mine in zip(self.sectors, owned):
                psi[..., s.rows, start:start + mine.size] = s.mapped(flat[mine], ts)
                start += mine.size
            psi = psi[..., np.argsort(np.concatenate(owned))]
        return psi if index.ndim else psi[..., 0]

    def level_for_label(self, mu: float) -> int:
        """Locate a level by its commuting-generator eigenvalue mu."""
        hits = np.flatnonzero(np.abs(self.levels.mu - mu) < 1e-6)
        if not hits.size:
            raise KeyError(f"no positive level with generator eigenvalue {mu}")
        return int(hits[0])

    def identity_defects(self, ts) -> dict[str, float]:
        """Largest residuals of I+(t) = d^dag d / 2 and I-(t) = d d^dag / 2 over times ts."""
        ts = np.asarray(ts, dtype=float)
        samples = [s.sample(ts) for s in self.sectors]
        dm = self.d_stack(ts, self.assemble([at.w for at in samples]))
        # I+(t) = U+ I+(0) U+^dag, with U+ diagonal.
        i_plus = _sandwich(self.system.u_plus_phases(ts), self.invariant.Iplus)
        return {"iplus": float(np.max(frobenius(dagger(dm) @ dm / 2 - i_plus))),
                "iminus": float(np.max(frobenius(
                    dm @ dagger(dm) / 2 - self.assemble([at.i_minus for at in samples]))))}


def run_prescription(system: SuperSystem) -> PartnerOutput:
    """Steps 1-4: reference invariants from d0, transported partners, solution levels.

    The positive levels of I+(0) come from the one spectral pairing,
    :func:`susyinv.susy.pair_spectra`. Each is split so every mapped
    minus-sector vector is an eigenvector of the commuting generator; the
    scalar solution phase is exact only in that sub-basis. The levels of one
    size are mapped, split and checked as one stack.
    """
    d0 = system.d0
    invariant = build_invariant(build_supercharge(d0))
    pairing = pair_spectra(invariant)
    generator = system.y_minus.D

    lams, mus, vms = [], [], []
    for paired in pairing.by_size:
        lam = paired.lam
        vm = d0 @ paired.plus / np.sqrt(2 * lam)[:, None, None]
        # Split each cluster so each minus vector diagonalizes the generator.
        block = dagger(vm) @ generator @ vm
        block = (block + dagger(block)) / 2
        mu, s = np.linalg.eigh(block)
        vm = vm @ s
        residual = np.linalg.norm(generator @ vm - mu[:, None, :] * vm, axis=1)
        bad = np.argwhere(residual > 1e-8 * np.maximum(1.0, np.abs(mu)))
        if bad.size:
            n, k = bad[0]
            raise GeneratorSplitError(
                f"level {lam[n]:.6g} does not split into generator eigenvectors "
                f"(residual {residual[n, k]:.3e}); the scalar-phase solution form "
                "does not apply")
        lams.append(np.repeat(lam, vm.shape[-1]))
        mus.append(mu.ravel())
        vms.append(vm.transpose(1, 0, 2).reshape(d0.shape[0], -1))
    lam, mu = np.concatenate([np.empty(0), *lams]), np.concatenate([np.empty(0), *mus])
    order = np.lexsort((mu, lam))
    v_minus = np.concatenate([np.empty((d0.shape[0], 0)), *vms], axis=1)[:, order]
    levels = Levels(lam[order], mu[order], v_minus)
    rep = system.rep
    return PartnerOutput(system, invariant, pairing,
                         Block(None, system.w_minus, system.y_minus, invariant.Iminus,
                               system.plus_energies, levels, rep.generators,
                               rep.projector_interior))


def spin_supersystem(rep: SpinRep, theta: TimeFunction, phi: TimeFunction,
                     f: TimeFunction, g: TimeFunction | None = None,
                     b: float = 1.0, d0: np.ndarray | None = None) -> SuperSystem:
    """Constant dipole plus sector H+ = b J3 with d0 = J+ by default."""
    if d0 is None:
        d0 = rep.Jplus
    return SuperSystem(rep, read_only(d0), GaugeCurve.spin(rep, theta, phi), YSpec(rep.J3, f, g),
                       plus_energies=b * rep.m_values())


def oscillator_supersystem(rep: OscillatorRep, theta: TimeFunction,
                           phi: TimeFunction, f: TimeFunction,
                           d0: np.ndarray | None = None) -> SuperSystem:
    """Unit oscillator plus sector H+ = a^dag a + 1/2 with d0 = a^dag by default."""
    if d0 is None:
        d0 = rep.adag
    return SuperSystem(rep, read_only(d0), GaugeCurve.oscillator(rep, theta, phi), YSpec(rep.K3, f),
                       plus_energies=np.arange(rep.N) + 0.5)


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
    out = np.multiply.outer(r[0], generators[0])
    for ri, g in zip(r[1:], generators[1:]):
        out += np.multiply.outer(ri, g)
    return out


def quadrupole_partner(spin: SpinRep, f: TimeFunction, g: TimeFunction,
                       theta: TimeFunction, phi: TimeFunction, t):
    """H'_-(t) = sum_i R^i J_i + g(t) (sum_i Rtilde^i J_i)^2 for Y = f J3 + g J3^2."""
    def stack(ts):
        linear = closed_form_operator(closed_form_spin_R(f, theta, phi, ts), spin.generators)
        th, ph = theta(ts), phi(ts)
        tilde = closed_form_operator((np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                                      np.cos(th)), spin.generators)
        return linear + g(ts)[:, None, None] * (tilde @ tilde)
    return per_time(t, stack)
