"""Supercharges, even invariants on the doubled space, and spectral pairing.

The supercharge Q = ((0, 0), (d, 0)) and the even invariant I = blockdiag(I+, I-),
with I+ = d^dag d / 2 and I- = d d^dag / 2, are held as their N x N blocks; no
2N x 2N matrix is formed. The positive spectra of I+ and I- agree, and their
eigenvectors map into each other through d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (SingularMatrixError, cluster_indices, dagger, eigh, first_true, frobenius,
                        groups_by_size, polar_unitary, read_only, stacked_columns)

ZERO_MODE_SCALE = 1e-9


class PairingAmbiguityError(ValueError):
    """Spectra of I+ and I- that do not pair (see :func:`pair_spectra`)."""


@dataclass(frozen=True)
class SuperCharge:
    """Odd nilpotent block operator ((0, 0), (d, 0)) on the doubled space, held as d."""

    d: np.ndarray


@dataclass(frozen=True)
class SuperInvariant:
    """Even invariant blockdiag(I+, I-) on the doubled space, held as its blocks."""

    Iplus: np.ndarray
    Iminus: np.ndarray
    d: np.ndarray

    def norm(self) -> float:
        """Frobenius norm of blockdiag(I+, I-)."""
        return float(np.hypot(np.linalg.norm(self.Iplus), np.linalg.norm(self.Iminus)))


@dataclass(frozen=True)
class PairedLevels:
    """The matched positive levels of one size k, ascending: their (n,) values,
    the (n, dim, k) frames of I+ and of I-, and the (n, k, k) pairing unitaries v."""

    lam: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class SpectralPairing:
    """Matched positive levels of I+ and I-: values and sizes in ascending order, and
    the levels stacked by size (``by_size``, sizes ascending)."""

    shared_positive_values: tuple[float, ...]
    degeneracies: tuple[int, ...]
    by_size: tuple[PairedLevels, ...]
    kernel_dim_plus: int
    kernel_dim_minus: int


def pairing_residuals(d: np.ndarray, levels: PairedLevels) -> np.ndarray:
    """||d |lam,a,+> - sqrt(2 lam) sum_b v_ba |lam,b,->||_F, per level of one size."""
    return frobenius(d @ levels.plus
                     - np.sqrt(2 * levels.lam)[:, None, None] * levels.minus @ levels.v)


def build_supercharge(d) -> SuperCharge:
    """The supercharge with lower-left block d, a square matrix, held read-only; Q^2 = 0
    holds exactly by its shape."""
    d = read_only(d)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {d.shape}")
    return SuperCharge(d)


def build_invariant(q: SuperCharge) -> SuperInvariant:
    d = q.d
    return SuperInvariant(read_only(d.conj().T @ d / 2), read_only(d @ d.conj().T / 2), d)


@dataclass(frozen=True)
class SuperalgebraReport:
    invariance: float
    closure: float

    def max_residual(self) -> float:
        """The larger residual, or NaN if either is NaN."""
        return float(np.maximum(self.invariance, self.closure))


def check_superalgebra(q: SuperCharge, inv: SuperInvariant) -> SuperalgebraReport:
    """Residual norms of [Q, I] = 0 and {Q, Q^dag} = 2I, taken on the blocks.

    [Q, I] has the one block d I+ - I- d; {Q, Q^dag} - 2I has the blocks
    d^dag d - 2 I+ and d d^dag - 2 I-. Q^2 = 0 holds by the block shape.
    """
    d, dh = q.d, q.d.conj().T
    iplus, iminus = inv.Iplus, inv.Iminus
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

    The kernels, eigenvalues below ZERO_MODE_SCALE * max(1, ||I||_F), go first;
    a positive eigenvalue within 10x of that, positive spectra of different
    sizes or a level with no partner raise PairingAmbiguityError. Each v is the
    unitary polar factor of <minus| d |plus> / sqrt(2 lam), one ``polar_unitary``
    call per level size. The ``pairing`` suite judges the relation itself.
    """
    es_plus = eigh(inv.Iplus)
    es_minus = eigh(inv.Iminus)
    scale = max(1.0, inv.norm())
    zero_tol = ZERO_MODE_SCALE * scale
    kernel_p, pos_p = _split_kernel(es_plus, zero_tol)
    kernel_m, pos_m = _split_kernel(es_minus, zero_tol)
    if pos_p.size != pos_m.size:
        raise PairingAmbiguityError(
            f"positive spectra differ in size: {pos_p.size} (I+) vs {pos_m.size} (I-)")

    vals_p = es_plus.values[pos_p]
    vals_m = es_minus.values[pos_m]
    gap = max(np.abs(np.concatenate([vals_p, vals_m, [0.0]]))).item()
    groups = cluster_indices(vals_p, 1e-8 * max(1.0, gap))

    # The groups run over the positive levels in order, so a group's positions
    # in pos_p are its positions in pos_m.
    d = inv.d
    by_size = []
    for at in groups_by_size(groups).values():
        idx_p, idx_m = pos_p[at], pos_m[at]
        lam_p = es_plus.values[idx_p].mean(axis=1)
        lam_m = es_minus.values[idx_m].mean(axis=1)
        k = first_true(np.abs(lam_p - lam_m) > 1e-8 * np.maximum(1.0, lam_p))
        if k is not None:
            raise PairingAmbiguityError(
                f"positive level {lam_p[k]:.12g} of I+ has no partner in I- "
                f"(nearest {lam_m[k]:.12g})")
        vp = stacked_columns(es_plus.vectors, idx_p)
        vm = stacked_columns(es_minus.vectors, idx_m)
        overlaps = dagger(vm) @ d @ vp / np.sqrt(2 * lam_p)[:, None, None]
        try:
            factors = polar_unitary(overlaps)
        except SingularMatrixError as exc:
            # The stack index counts only this size's levels; name the level instead.
            raise SingularMatrixError(exc.s_min, exc.limit,
                                      where=f"level {lam_p[exc.index or 0]:.12g}") from None
        by_size.append(PairedLevels(lam_p, vp, vm, factors))

    lams = np.sort(np.concatenate([np.empty(0), *(lv.lam for lv in by_size)]))
    return SpectralPairing(tuple(lams.tolist()), tuple(len(g) for g in groups),
                           tuple(by_size), int(kernel_p.size), int(kernel_m.size))
