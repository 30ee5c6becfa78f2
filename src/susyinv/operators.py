"""Dense complex operator algebra: the substrate every other module builds on.

Conventions: the unqualified norm is Frobenius everywhere; eigenvalue
degeneracies are clustered with an absolute gap of ``1e-8 * max(1, ||A||)``.

Functions of time evaluate on arrays of times as ``(n, d, d)`` stacks, and
grids are worked through in chunks whose stacks fit in ``CHUNK_BYTES``
(:func:`chunks`). A scalar time still gives an :class:`Operator`
(:func:`per_time`).

There is one matrix exponential, a truncated Taylor series evaluated by
Paterson-Stockmeyer with 1-norm degree selection (:func:`_taylor_expm`): its
backward error stays below the unit roundoff and it needs no linear solve.
Step exponentials exp(-i tau H) of Hermitian stacks (:func:`expm_i_hermitian`)
are therefore unitary to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_RTOL = 1e-10
CLUSTER_GAP_SCALE = 1e-8
CHUNK_BYTES = 256 * 1024   # one complex (n, d, d) stack: 135 points at d = 11, 1 at d = 128


class DimensionMismatchError(ValueError):
    pass


class NonHermitianError(ValueError):
    def __init__(self, defect: float, t: float | None = None):
        where = "" if t is None else f" at t={t}"
        super().__init__(f"matrix is not Hermitian{where} (relative defect {defect:.3e})")
        self.defect = defect


def _square_complex(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class Operator:
    """Immutable dense complex square matrix with optional Z2 block grading.

    ``grading = (n_plus, n_minus)`` splits the space into a bosonic block of
    size ``n_plus`` followed by a fermionic block of size ``n_minus``.
    """

    entries: np.ndarray
    grading: tuple[int, int] | None = None

    def __post_init__(self):
        m = _square_complex(self.entries)
        if self.grading is not None:
            n_plus, n_minus = self.grading
            if n_plus < 0 or n_minus < 0 or n_plus + n_minus != m.shape[0]:
                raise ValueError(
                    f"grading {self.grading} does not split dimension {m.shape[0]}"
                )
            object.__setattr__(self, "grading", (int(n_plus), int(n_minus)))
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def dag(self) -> "Operator":
        return Operator(self.entries.conj().T, self.grading)

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def hermiticity_defect(self) -> float:
        return float(np.linalg.norm(self.entries - self.entries.conj().T))

    def block(self, row: int, col: int) -> np.ndarray:
        """Return one of the four grading blocks (0 = bosonic, 1 = fermionic)."""
        if self.grading is None:
            raise ValueError("operator carries no grading")
        n_plus = self.grading[0]
        sl = (slice(None, n_plus), slice(n_plus, None))
        return self.entries[sl[row], sl[col]]

    def even_defect(self) -> float:
        """Norm of the off-diagonal blocks; ~0 for grading-preserving operators."""
        return float(np.hypot(np.linalg.norm(self.block(0, 1)),
                              np.linalg.norm(self.block(1, 0))))

    def odd_defect(self) -> float:
        """Norm of the diagonal blocks; ~0 for grading-flipping operators."""
        return float(np.hypot(np.linalg.norm(self.block(0, 0)),
                              np.linalg.norm(self.block(1, 1))))

    def _shared_grading(self, other: "Operator") -> tuple[int, int] | None:
        if isinstance(other, Operator) and self.grading == other.grading:
            return self.grading
        return None

    def __matmul__(self, other):
        if isinstance(other, Operator):
            if other.dim != self.dim:
                raise DimensionMismatchError(
                    f"dimension mismatch: {self.dim} vs {other.dim}")
            return Operator(self.entries @ other.entries, self._shared_grading(other))
        return self.entries @ other

    def __rmatmul__(self, other):
        return other @ self.entries

    def __add__(self, other: "Operator") -> "Operator":
        if other.dim != self.dim:
            raise DimensionMismatchError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return Operator(self.entries + other.entries, self._shared_grading(other))

    def __sub__(self, other: "Operator") -> "Operator":
        if other.dim != self.dim:
            raise DimensionMismatchError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return Operator(self.entries - other.entries, self._shared_grading(other))

    def __neg__(self) -> "Operator":
        return Operator(-self.entries, self.grading)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.entries * complex(scalar), self.grading)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Operator":
        return Operator(self.entries / complex(scalar), self.grading)


def identity(dim: int, grading: tuple[int, int] | None = None) -> Operator:
    return Operator(np.eye(dim, dtype=complex), grading)


def chunks(n: int, dim: int) -> list[slice]:
    """Consecutive slices of range(n) whose (k, dim, dim) complex stacks fit CHUNK_BYTES."""
    step = max(1, CHUNK_BYTES // (16 * dim * dim))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def over_chunks(times: np.ndarray, dim: int, per_chunk) -> np.ndarray:
    """Concatenate ``per_chunk(times[chunk])`` over the chunks of ``times``."""
    return np.concatenate([per_chunk(times[sl]) for sl in chunks(times.size, dim)])


def per_time(t, stack):
    """Evaluate ``stack`` (1-D times -> (n, d, d)) at ``t``.

    A scalar ``t`` gives an :class:`Operator`, an array of times the stack.
    """
    ts = np.asarray(t, dtype=float)
    out = stack(np.atleast_1d(ts))
    return Operator(out[0]) if ts.ndim == 0 else out


def first_true(mask: np.ndarray) -> int | None:
    """Index of the first True entry of a 1-D mask, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def diag_stack(diagonals: np.ndarray) -> np.ndarray:
    """(n, d) diagonals -> (n, d, d) complex diagonal matrices."""
    n, d = diagonals.shape
    out = np.zeros((n, d, d), dtype=complex)
    idx = np.arange(d)
    out[:, idx, idx] = diagonals
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def frobenius(m: np.ndarray):
    """Frobenius norm of a matrix (a float) or of every matrix in a stack."""
    norms = np.linalg.norm(m, axis=(-2, -1))
    return float(norms) if np.ndim(norms) == 0 else norms


def one_norm(m: np.ndarray):
    """Largest column sum of absolute values, per matrix for a stack."""
    norms = np.abs(m).sum(axis=-2).max(axis=-1)
    return float(norms) if np.ndim(norms) == 0 else norms


def _mat(a) -> np.ndarray:
    """Accept an Operator or a raw array; return the ndarray."""
    return a.entries if isinstance(a, Operator) else np.asarray(a, dtype=complex)


def commutator(a: Operator, b: Operator) -> Operator:
    """AB - BA."""
    ma, mb = _mat(a), _mat(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return Operator(ma @ mb - mb @ ma)


def anticommutator(a: Operator, b: Operator) -> Operator:
    """AB + BA."""
    ma, mb = _mat(a), _mat(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return Operator(ma @ mb + mb @ ma)


def expm(a: Operator) -> Operator:
    """Matrix exponential: the truncated Taylor series of :func:`_taylor_expm`."""
    m = _mat(a)
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix exponential of non-finite entries")
    return Operator(_taylor_expm(m[None])[0],
                    a.grading if isinstance(a, Operator) else None)


def unitarity_defect(u: Operator):
    """Frobenius norm of U^dag U - 1, per matrix for a stack."""
    m = _mat(u)
    return frobenius(dagger(m) @ m - np.eye(m.shape[-1]))


def project(m: np.ndarray, projector) -> np.ndarray:
    """P M P for a diagonal 0/1 projector (an Operator or an array), or M when it is None.

    The kept entries are masked, not multiplied: P M P adds only exact zeros
    to them, so the result is the same to the bit for finite M.
    """
    if projector is None:
        return m
    keep = np.diagonal(_mat(projector)) != 0
    return np.where(keep[:, None] & keep[None, :], m, 0)


def hermiticity_defect(h: np.ndarray):
    """Frobenius norm of H - H^dag, per matrix for a stack."""
    return frobenius(h - dagger(h))


def cluster_indices(values: np.ndarray, gap: float) -> tuple[tuple[int, ...], ...]:
    """Group indices of ascending real values whose consecutive gaps are < gap."""
    groups: list[list[int]] = []
    for i, v in enumerate(values):
        if groups and v - values[groups[-1][-1]] < gap:
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues, unitary column eigenvectors, degeneracy clusters."""

    values: np.ndarray
    vectors: np.ndarray
    degeneracy_groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.values.shape[-1]


def eigh(a: Operator) -> EigenSystem:
    """Hermitian eigendecomposition with degeneracy clustering.

    Rejects inputs whose relative Hermiticity defect exceeds ``1e-10``. An
    (n, d, d) stack is checked matrix by matrix and gives stacked values and
    vectors with no degeneracy groups.
    """
    m = _mat(a)
    scale = np.maximum(1.0, frobenius(m))
    relative = np.atleast_1d(hermiticity_defect(m) / scale)
    k = first_true(relative > HERMITICITY_RTOL)
    if k is not None:
        raise NonHermitianError(float(relative[k]))
    values, vectors = np.linalg.eigh(m)
    groups = cluster_indices(values, CLUSTER_GAP_SCALE * scale) if m.ndim == 2 else ()
    return EigenSystem(values, vectors, groups)


def polar_unitary(m: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition M = U P (via SVD), per matrix for a stack."""
    u, _, vh = np.linalg.svd(np.asarray(m, dtype=complex))
    return u @ vh


# Truncated Taylor exponential (Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011)
# 488, Table 3.1, u = 2^-53): below TAYLOR_THETA[m] in the 1-norm, the degree-m
# Taylor polynomial of e^A has backward error under the double-precision unit
# roundoff. Each m is the largest degree that Paterson-Stockmeyer evaluates
# with its number of matrix products (1 for m = 2 up to 9 for m = 30).
TAYLOR_THETA = {2: 2.58e-8, 4: 3.40e-4, 6: 9.07e-3, 9: 8.96e-2, 12: 3.00e-1,
                16: 7.81e-1, 20: 1.44, 25: 2.43, 30: 3.54}


def _taylor_expm(a: np.ndarray) -> np.ndarray:
    """e^A for an (n, d, d) stack by one truncated Taylor series for the stack.

    Above theta_30 the stack is scaled by 2^-s and the result squared s times;
    the degree is the lowest m whose theta bounds the (scaled) stack's largest
    1-norm. Paterson-Stockmeyer with p = ceil(sqrt(m)) and q = m / p evaluates
    sum_{k<q} B_k (A^p)^k, B_k = sum_{j<p} A^j / (kp + j)! (the last block
    also takes A^p / m!), in p + q - 2 products and no linear solve.
    """
    norm = float(np.max(one_norm(a)))
    theta_top = TAYLOR_THETA[30]
    s = int(np.ceil(np.log2(norm / theta_top))) if norm > theta_top else 0
    if s:
        a = a / 2.0 ** s
        norm /= 2.0 ** s
    m = next((m for m, theta in TAYLOR_THETA.items() if norm <= theta), 30)
    p = math.isqrt(m - 1) + 1
    q = m // p
    powers = [a]
    for _ in range(p - 1):
        powers.append(powers[-1] @ a)
    c = [1.0 / math.factorial(k) for k in range(m + 1)]
    idx = np.arange(a.shape[-1])

    def block(k: int, top: int) -> np.ndarray:
        # sum_{j=0}^{top} c[kp + j] A^j
        out = c[k * p + 1] * powers[0]
        for j in range(2, top + 1):
            out += c[k * p + j] * powers[j - 1]
        out[:, idx, idx] += c[k * p]
        return out

    r = block(q - 1, p)
    for k in range(q - 2, -1, -1):
        r = powers[-1] @ r
        r += block(k, p - 1)
    for _ in range(s):
        r = r @ r
    return r


def _is_diagonal(stack: np.ndarray) -> np.ndarray:
    """Per matrix of an (n, d, d) stack, whether every off-diagonal entry is zero.

    Past the first entry, d*d entries read as d - 1 rows of d + 1 whose last
    column is the diagonal: the off-diagonal entries as a view, not a copy.
    """
    n, d = stack.shape[:2]
    off = stack.reshape(n, d * d)[:, 1:].reshape(n, d - 1, d + 1)[:, :, :d]
    return ~np.any(off, axis=(1, 2))


def expm_i_hermitian(h: np.ndarray, tau) -> np.ndarray:
    """exp(-1j * tau * H) for Hermitian H, unitary to rounding.

    ``h`` is one matrix or an (n, d, d) stack with one ``tau`` per matrix.
    Dense matrices go through the truncated Taylor series of A = -i tau H
    (:func:`_taylor_expm`), whose backward error stays below the unit roundoff:
    the result is the exact exponential of a skew-Hermitian matrix perturbed
    at rounding level, so it is unitary to rounding. Diagonal matrices
    short-circuit to phases.
    """
    h = np.asarray(h, dtype=complex)
    stack = h.reshape(-1, *h.shape[-2:])
    taus = np.broadcast_to(np.asarray(tau, dtype=float), stack.shape[:1])
    diagonal = _is_diagonal(stack)
    if diagonal.all():
        out = diag_stack(np.exp(-1j * taus[:, None]
                                * np.real(np.diagonal(stack, axis1=1, axis2=2))))
    else:
        out = _taylor_expm(-1j * taus[:, None, None] * stack)
        if diagonal.any():
            out[diagonal] = expm_i_hermitian(stack[diagonal], taus[diagonal])
    return out.reshape(h.shape)
