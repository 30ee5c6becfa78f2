"""Dense complex matrices and stacks: the substrate every other module builds on.

Every object of the construction is a plain matrix, and the numerics work on
ndarrays. The matrices the construction stores (the representation generators,
``d0``, the reference invariants, the gauge generators and their sector cuts)
are read-only complex arrays (:func:`read_only`).

Conventions: the unqualified norm is Frobenius everywhere; eigenvalue
degeneracies are clustered with an absolute gap of ``1e-8 * max(1, ||A||)``.

Functions of time evaluate on arrays of times as ``(n, d, d)`` stacks, and
grids are worked through in chunks whose stacks fit in ``CHUNK_BYTES``
(:func:`chunks`). Each chunk allocates its own stacks; the CLI keeps freed
pages in the process (:func:`susyinv.cli.keep_freed_pages`), so a later chunk
reuses the pages of the one before instead of paging its stacks in again. A
scalar time gives an :class:`Operator`, which numpy reads as its read-only
``entries`` (:func:`per_time`).

There is one matrix exponential, a truncated Taylor series evaluated by
Paterson-Stockmeyer with 1-norm degree selection (:func:`_taylor_expm`): its
backward error stays below the unit roundoff and it needs no linear solve.
Step exponentials exp(-i tau H) of Hermitian stacks (:func:`expm_i_hermitian`),
diagonal ones included, are therefore unitary to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_RTOL = 1e-10
CLUSTER_GAP_SCALE = 1e-8
CHUNK_BYTES = 256 * 1024   # one complex (n, d, d) stack: 135 points at d = 11, 1 at d = 128
SINGULAR_RTOL = 1e-8
_ADJ_DAG_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


class NonHermitianError(ValueError):
    def __init__(self, defect: float, t: float | None = None):
        where = "" if t is None else f" at t={t}"
        super().__init__(f"matrix is not Hermitian{where} (relative defect {defect:.3e})")
        self.defect = defect


class SingularMatrixError(ValueError):
    """A matrix with no unique polar factor. ``index`` is its place in a stack, if
    any; ``where`` names it in the message, by default by that index."""

    def __init__(self, s_min: float, limit: float, index: int | None = None,
                 where: str | None = None):
        if where is None and index is not None:
            where = f"matrix {index} of the stack"
        suffix = "" if where is None else f" ({where})"
        super().__init__(f"singular matrix has no unique polar factor{suffix}: smallest "
                         f"singular value {s_min:.3e} <= {limit:.3e}")
        self.s_min, self.limit, self.index = s_min, limit, index


class NonFiniteMatrixError(ValueError):
    """A matrix with a non-finite entry at ``index`` in a stack; ``where`` names it."""

    def __init__(self, index: int, where: str | None = None):
        super().__init__(f"matrix is not finite ({where or f'matrix {index} of the stack'})")
        self.index = index


def check_finite(finite: np.ndarray) -> None:
    """Raise NonFiniteMatrixError at the first False of a per-matrix mask."""
    k = first_true(~finite)
    if k is not None:
        raise NonFiniteMatrixError(k)


def read_only(m) -> np.ndarray:
    """A read-only complex view of ``m``, copied only to convert it to complex: how
    the construction stores its matrices."""
    view = np.asarray(m, dtype=complex).view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class Operator:
    """The value of a map of t at a scalar t (:func:`per_time`): a read-only square
    matrix, which numpy reads as its ``entries``."""

    entries: np.ndarray

    def __post_init__(self):
        m = read_only(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        object.__setattr__(self, "entries", m)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype, copy=copy)


def chunks(n: int, dim: int, per_point: int = 1) -> list[slice]:
    """Consecutive slices of range(n) whose (k * per_point, dim, dim) complex stacks
    fit CHUNK_BYTES; a slice holds at least one point."""
    step = max(1, CHUNK_BYTES // (16 * dim * dim * per_point))
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


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return np.conjugate(m).swapaxes(-1, -2)


def frobenius(m: np.ndarray):
    """Frobenius norm of a matrix (a float) or of every matrix in a stack: numpy's
    matrix norm, sqrt of the sum of conj(M) M."""
    norms = np.sqrt(np.add.reduce((np.conjugate(m) * m).real, axis=(-2, -1)))
    return float(norms) if np.ndim(norms) == 0 else norms


def one_norm(m: np.ndarray):
    """Largest column sum of absolute values, per matrix for a stack."""
    norms = np.abs(m).sum(axis=-2).max(axis=-1)
    return float(norms) if np.ndim(norms) == 0 else norms


def unitarity_defect(u):
    """Frobenius norm of U^dag U - 1, per matrix for a stack."""
    m = np.asarray(u)
    return frobenius(dagger(m) @ m - np.eye(m.shape[-1]))


def project(m: np.ndarray, projector) -> np.ndarray:
    """P M P for a diagonal 0/1 projector, or M when it is None.

    The kept entries are masked, not multiplied: P M P adds only exact zeros
    to them, so the result is the same to the bit for finite M.
    """
    if projector is None:
        return m
    keep = np.diagonal(projector) != 0
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


def groups_by_size(groups) -> dict[int, np.ndarray]:
    """Index groups stacked by size, sizes ascending: k -> the (n, k) array of the
    groups of k indices, in their given order."""
    by_size: dict[int, list] = {}
    for g in groups:
        by_size.setdefault(len(g), []).append(g)
    return {k: np.array(by_size[k], dtype=int) for k in sorted(by_size)}


def stacked_columns(vectors: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """The columns of ``vectors`` that each row of an (n, k) index array names, as a
    contiguous (n, dim, k) stack."""
    return np.ascontiguousarray(np.moveaxis(vectors[:, groups], 1, 0))


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues, unitary column eigenvectors, degeneracy clusters."""

    values: np.ndarray
    vectors: np.ndarray
    degeneracy_groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)


def _hermitian(a) -> tuple[np.ndarray, np.ndarray]:
    """The matrix or stack of ``a`` and its max(1, ||A||_F) scale, per matrix.

    Raises NonHermitianError at the first matrix whose relative Hermiticity
    defect exceeds ``HERMITICITY_RTOL``.
    """
    m = np.asarray(a)
    scale = np.maximum(1.0, frobenius(m))
    relative = np.atleast_1d(hermiticity_defect(m) / scale)
    k = first_true(relative > HERMITICITY_RTOL)
    if k is not None:
        raise NonHermitianError(float(relative[k]))
    return m, scale


def eigh(a) -> EigenSystem:
    """Hermitian eigendecomposition with degeneracy clustering.

    Rejects inputs whose relative Hermiticity defect exceeds ``1e-10``. An
    (n, d, d) stack is checked matrix by matrix and gives stacked values and
    vectors with no degeneracy groups.
    """
    m, scale = _hermitian(a)
    values, vectors = np.linalg.eigh(m)
    groups = cluster_indices(values, CLUSTER_GAP_SCALE * scale) if m.ndim == 2 else ()
    return EigenSystem(values, vectors, groups)


def eigvalsh(a) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or per matrix of a stack, with
    the Hermiticity guard of :func:`eigh` and no eigenvectors."""
    return np.linalg.eigvalsh(_hermitian(a)[0])


def _check_nonsingular(s_min: np.ndarray, norm: np.ndarray) -> None:
    """Raise SingularMatrixError at the first s_min <= SINGULAR_RTOL * max(1, norm), or NaN."""
    limit = SINGULAR_RTOL * np.maximum(1.0, norm)
    k = first_true(np.ravel(~(s_min > limit)))
    if k is not None:
        raise SingularMatrixError(float(np.ravel(s_min)[k]), float(np.ravel(limit)[k]),
                                  k if np.ndim(s_min) else None)


def polar_unitary(m: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition M = U P, per matrix for a stack.

    For k x k matrices with k = 1 and k = 2 the factor is exact in closed
    form, elementwise over the stack with no LAPACK call (Higham, *Functions
    of Matrices*, SIAM 2008, ch. 8): ``U = m / |m|`` for k = 1 (with one
    Newton step on its modulus, so that rounding does not bias ``|U|`` over the
    thousands of factors of a holonomy), and for k = 2

        U = (M + (det M / |det M|) adj(M)^dag) / sqrt(||M||_F^2 + 2 |det M|),

    because ``|det M| M^-dag = s1 s2 U P^-1``, so the numerator is
    ``(s1 + s2) U``, and ``(s1 + s2)^2 = ||M||_F^2 + 2 |det M|``. For k >= 3
    the factor is ``u @ vh`` of an SVD.

    A matrix whose smallest singular value is at most
    ``SINGULAR_RTOL * max(1, ||M||_F)``, or NaN, has no unique polar factor and
    raises :class:`SingularMatrixError`. For k <= 2 that singular value
    follows in closed form from ``|det M|`` and ``||M||_F``.
    """
    m = np.asarray(m, dtype=complex)
    k = m.shape[-1]
    if k == 1:
        size = np.abs(m)
        _check_nonsingular(size[..., 0, 0], size[..., 0, 0])
        u = m / size
        # One Newton step toward |u| = 1, taking |u|^2 - 1 without cancellation.
        big = np.maximum(np.abs(u.real), np.abs(u.imag))
        small = np.minimum(np.abs(u.real), np.abs(u.imag))
        return u - u * (((big - 1) * (big + 1) + small * small) / 2)
    if k == 2:
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        abs_det = np.abs(det)
        fro2 = (m.real ** 2 + m.imag ** 2).sum(axis=(-2, -1))
        s_sum = np.sqrt(fro2 + 2 * abs_det)
        # s1 - s2 = sqrt(||M||_F^2 - 2 |det M|); the difference loses at most
        # eps * s1, far below the guard's 1e-8 * max(1, ||M||_F).
        s_min = (s_sum - np.sqrt(np.maximum(fro2 - 2 * abs_det, 0.0))) / 2
        _check_nonsingular(s_min, np.sqrt(fro2))
        # adj(M)^dag = [[conj d, -conj c], [-conj b, conj a]] for M = [[a, b], [c, d]].
        adj_dag = m[..., ::-1, ::-1].conj() * _ADJ_DAG_SIGNS
        return (m + (det / abs_det)[..., None, None] * adj_dag) / s_sum[..., None, None]
    u, s, vh = np.linalg.svd(m)
    _check_nonsingular(s[..., -1], np.linalg.norm(s, axis=-1))
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
    norms = one_norm(a)
    check_finite(np.isfinite(norms))
    norm = float(np.max(norms))
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
    # The Horner product r and one scratch stack are the only other stacks held:
    # each block is added into r a scaled power at a time, and each product
    # is written into the scratch stack, which then swaps with r.
    r, scratch = np.zeros_like(a), np.empty_like(a)

    def add_block(r: np.ndarray, scratch: np.ndarray, k: int, top: int) -> None:
        # r += sum_{j=0}^{top} c[kp + j] A^j
        for j in range(1, top + 1):
            r += np.multiply(powers[j - 1], c[k * p + j], out=scratch)
        r[:, idx, idx] += c[k * p]

    add_block(r, scratch, q - 1, p)
    for k in range(q - 2, -1, -1):
        np.matmul(powers[-1], r, out=scratch)
        r, scratch = scratch, r
        add_block(r, scratch, k, p - 1)
    for _ in range(s):
        np.matmul(r, r, out=scratch)
        r, scratch = scratch, r
    return r


def expm_i_hermitian(h: np.ndarray, tau) -> np.ndarray:
    """exp(-1j * tau * H) for Hermitian H, unitary to rounding.

    ``h`` is one matrix or an (n, d, d) stack with one ``tau`` per matrix. The
    truncated Taylor series of A = -i tau H (:func:`_taylor_expm`) has its
    backward error below the unit roundoff: the result is the exact exponential
    of a skew-Hermitian matrix perturbed at rounding level, so it is unitary to
    rounding. A non-finite matrix raises NonFiniteMatrixError, with no numpy warning.
    """
    h = np.asarray(h, dtype=complex)
    stack = h.reshape(-1, *h.shape[-2:])
    taus = np.broadcast_to(np.asarray(tau, dtype=float), stack.shape[:1])
    with np.errstate(invalid="ignore", over="ignore"):  # -1j * inf: caught in _taylor_expm
        a = -1j * taus[:, None, None] * stack
    return _taylor_expm(a).reshape(h.shape)
