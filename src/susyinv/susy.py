"""Supercharges, even invariants on the doubled space, and spectral pairing.

The supercharge Q = ((0, 0), (d, 0)) and the even invariant I = blockdiag(I+, I-),
with I+ = d^dag d / 2 and I- = d d^dag / 2, are held as their N x N blocks; no
2N x 2N matrix is formed. The positive spectra of I+ and I- agree, and their
eigenvectors map into each other through d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import Operator, SingularMatrixError, cluster_indices, eigh, polar_unitary

ZERO_MODE_SCALE = 1e-9
PAIRING_TOL = 1e-10


class PairingAmbiguityError(ValueError):
    pass


@dataclass(frozen=True)
class SuperCharge:
    """Odd nilpotent block operator ((0, 0), (d, 0)) on the doubled space, held as d."""

    d: Operator


@dataclass(frozen=True)
class SuperInvariant:
    """Even invariant blockdiag(I+, I-) on the doubled space, held as its blocks."""

    Iplus: Operator
    Iminus: Operator
    d: Operator

    def norm(self) -> float:
        """Frobenius norm of blockdiag(I+, I-)."""
        return float(np.hypot(self.Iplus.norm(), self.Iminus.norm()))


@dataclass(frozen=True)
class SpectralPairing:
    """Matched positive levels of I+ and I- with per-level pairing unitaries."""

    shared_positive_values: tuple[float, ...]
    degeneracies: tuple[int, ...]
    plus_vectors: tuple[np.ndarray, ...]
    minus_vectors: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]
    kernel_dim_plus: int
    kernel_dim_minus: int


def build_supercharge(d: Operator) -> SuperCharge:
    """The supercharge with lower-left block d; Q^2 = 0 holds exactly by its shape."""
    return SuperCharge(d)


def build_invariant(q: SuperCharge) -> SuperInvariant:
    d = q.d.entries
    return SuperInvariant(Operator(d.conj().T @ d / 2), Operator(d @ d.conj().T / 2), q.d)


@dataclass(frozen=True)
class SuperalgebraReport:
    invariance: float
    closure: float

    def max_residual(self) -> float:
        return max(self.invariance, self.closure)


def check_superalgebra(q: SuperCharge, inv: SuperInvariant) -> SuperalgebraReport:
    """Residual norms of [Q, I] = 0 and {Q, Q^dag} = 2I, taken on the blocks.

    [Q, I] has the one block d I+ - I- d; {Q, Q^dag} - 2I has the blocks
    d^dag d - 2 I+ and d d^dag - 2 I-. Q^2 = 0 holds by the block shape.
    """
    d, dh = q.d.entries, q.d.entries.conj().T
    iplus, iminus = inv.Iplus.entries, inv.Iminus.entries
    invariance = float(np.linalg.norm(d @ iplus - iminus @ d))
    closure = float(np.hypot(np.linalg.norm(dh @ d - 2 * iplus),
                             np.linalg.norm(d @ dh - 2 * iminus)))
    return SuperalgebraReport(invariance, closure)


def _split_kernel(es, zero_tol: float):
    """Indices of kernel and positive eigenvalues, with ambiguity guard."""
    values = es.values
    kernel = np.flatnonzero(values < zero_tol)
    positive = np.flatnonzero(values >= zero_tol)
    if positive.size:
        smallest = values[positive[0]]
        if smallest < 10 * zero_tol:
            raise PairingAmbiguityError(
                f"eigenvalue {smallest:.3e} is too close to the zero-mode threshold "
                f"{zero_tol:.3e}: candidate kernel dims {kernel.size} or {kernel.size + 1}")
    return kernel, positive


def pair_spectra(inv: SuperInvariant) -> SpectralPairing:
    """Match positive levels of I+ and I- and compute pairing unitaries.

    Each v is the unitary polar factor of the overlap matrix
    <minus| d |plus> / sqrt(2 lam), which is unitary up to rounding whenever
    the two frames span matching eigenspaces.
    """
    es_plus = eigh(inv.Iplus)
    es_minus = eigh(inv.Iminus)
    scale = max(1.0, inv.norm())
    zero_tol = ZERO_MODE_SCALE * scale
    kernel_p, pos_p = _split_kernel(es_plus, zero_tol)
    kernel_m, pos_m = _split_kernel(es_minus, zero_tol)
    if pos_p.size != pos_m.size:
        raise ValueError(
            f"positive spectra differ in size: {pos_p.size} (I+) vs {pos_m.size} (I-)")

    vals_p = es_plus.values[pos_p]
    vals_m = es_minus.values[pos_m]
    gap = max(np.abs(np.concatenate([vals_p, vals_m, [0.0]]))).item()
    groups = cluster_indices(vals_p, 1e-8 * max(1.0, gap))

    d = inv.d.entries
    levels, plus_vecs, minus_vecs, overlaps = [], [], [], []
    cursor = 0
    for group in groups:
        idx_p = pos_p[list(group)]
        idx_m = pos_m[cursor:cursor + len(group)]
        cursor += len(group)
        lam_p = float(es_plus.values[idx_p].mean())
        lam_m = float(es_minus.values[idx_m].mean())
        if abs(lam_p - lam_m) > 1e-8 * max(1.0, lam_p):
            raise ValueError(
                f"positive level {lam_p:.12g} of I+ has no partner in I- "
                f"(nearest {lam_m:.12g})")
        vp = es_plus.vectors[:, idx_p]
        vm = es_minus.vectors[:, idx_m]
        levels.append(lam_p)
        plus_vecs.append(vp)
        minus_vecs.append(vm)
        overlaps.append(vm.conj().T @ d @ vp / np.sqrt(2 * lam_p))

    # One polar_unitary call per level size, on the stack of that size's overlaps.
    degs = [len(group) for group in groups]
    pairings = [None] * len(groups)
    for size in sorted(set(degs)):
        at = [k for k, deg in enumerate(degs) if deg == size]
        try:
            factors = polar_unitary(np.stack([overlaps[k] for k in at]))
        except SingularMatrixError as exc:
            # The stack index counts only this size's levels; name the level instead.
            level = levels[at[exc.index or 0]]
            raise SingularMatrixError(exc.s_min, exc.limit,
                                      where=f"level {level:.12g}") from None
        for k, v in zip(at, factors):
            pairings[k] = v
    for lam_p, vp, vm, v in zip(levels, plus_vecs, minus_vecs, pairings):
        residual = float(np.linalg.norm(d @ vp - np.sqrt(2 * lam_p) * vm @ v))
        if residual > PAIRING_TOL * max(1.0, np.sqrt(2 * lam_p)):
            raise ValueError(
                f"pairing relation failed at level {lam_p:.12g}: residual {residual:.3e}")

    return SpectralPairing(tuple(levels), tuple(degs), tuple(plus_vecs),
                           tuple(minus_vecs), tuple(pairings),
                           int(kernel_p.size), int(kernel_m.size))

