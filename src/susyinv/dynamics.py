"""Independent verification engine: unitary propagation, invariance and
intertwining residuals, and discretized Berry holonomies.

The propagator has two step rules. The default applies the exponential of the
midpoint Hamiltonian on each step: second order in the step, unitary to
rounding by construction, and guarded by ``||H||_F dt < STEP_NORM_LIMIT`` at
every step. ``order=4`` applies the commutator-free Magnus scheme CF4:2
(Blanes & Moan, Appl. Numer. Math. 56 (2006) 1519): two exponentials per step
of H sampled at the two Gauss nodes, fourth order and equally unitary. It has
no step guard; its caller picks the steps and estimates the error, as the
``solutions`` suite does by comparing n and 2n steps. Unitarity matters more
than order here because unitarity defects would masquerade as superalgebra
violations. The step exponential is the truncated Taylor series of
:func:`susyinv.operators.expm_i_hermitian`, whose degree keeps the backward
error below the unit roundoff (the theta_m bounds of Al-Mohy & Higham 2011),
so each step is unitary to rounding. States are stepped as a block, or as the
blocks of the sectors of a block-diagonal H, one chunk of step unitaries and
one sector at a time, and only the kept grid points are stored.

The LvN and intertwining residuals take matrices or (n, d, d) stacks, with the
derivative their caller holds (:meth:`susyinv.construction.Block.sample`).
Maps of t (Hamiltonians, frames) are called with arrays of times and return
(n, d, d) stacks, or one matrix when they are constant. Grids are
evaluated chunk by chunk (:func:`susyinv.operators.chunks`); only the product
of step unitaries runs step by step. A holonomy takes every level of a frame
from one frame stack: the overlaps are taken once, unitarized level by level,
and multiplied pairwise (:func:`_ordered_product`), so the Wilson product
costs about log2(n) stacked matmuls per chunk instead of n. Each level's
overlaps are unitarized by :func:`susyinv.operators.polar_unitary`, in closed
form for levels of size 1 and 2 and by SVD above; an overlap that is singular
to rounding (the frame jumps to an orthogonal subspace between two steps)
raises :class:`susyinv.operators.SingularMatrixError`, naming the loop step and
the level, rather than taking an arbitrary unitary.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .operators import (NonFiniteMatrixError, Operator, SingularMatrixError, _mat,
                        check_finite, chunks, dagger, direct_sum, expm_i_hermitian,
                        first_true, frobenius, over_chunks, polar_unitary, project,
                        unitarity_defect)

FD_STEP = 1e-5
STEP_NORM_LIMIT = 0.5
CLOSURE_TOL = 1e-12

# CF4:2: the Gauss nodes of a step, and per factor, in the order the factors
# apply, the weights of H at those nodes. Applied in the other order the two
# factors make a second-order scheme.
_S3 = math.sqrt(3.0)
GAUSS_NODES = (0.5 - _S3 / 6, 0.5 + _S3 / 6)
CF4_WEIGHTS = (((3 + 2 * _S3) / 12, (3 - 2 * _S3) / 12),
               ((3 - 2 * _S3) / 12, (3 + 2 * _S3) / 12))


class StepSizeError(ValueError):
    def __init__(self, h_norm: float, dt: float):
        suggested = 0.4 * dt / (h_norm * dt) if h_norm > 0 else dt
        super().__init__(
            f"step too large: ||H||*dt = {h_norm * dt:.3g} >= {STEP_NORM_LIMIT} "
            f"(try dt <= {suggested:.3g})")
        self.suggested_dt = suggested


class NonClosedLoopError(ValueError):
    pass


def _stack(m, n: int, shape: tuple[int, ...]) -> np.ndarray:
    """A map's value at n times as a stack; a constant map's one matrix is broadcast."""
    return np.broadcast_to(_mat(m).reshape(-1, *shape), (n, *shape))


@dataclass(frozen=True)
class Trajectory:
    """Sampled states or operators on a time grid, with per-point diagnostics."""

    times: np.ndarray
    states: np.ndarray | None = None      # (nt, dim) or (nt, dim, k)
    operators: np.ndarray | None = None   # (nt, dim, dim)
    norm_drift: np.ndarray | None = None
    unitarity_defect: np.ndarray | None = None


def _check_grid(times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("grid must be strictly increasing with at least two points")
    return times


def check_step(hs: tuple, dt) -> None:
    """Raise at the first H of a stack that is not finite, else at ||H||_F dt >= the limit.

    ``hs`` holds the stacks of the sectors of a block-diagonal H, or its one
    stack: their norms combine by hypot, so the guard reads the whole H.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # caught below, with no warning
        norms = reduce(np.hypot, map(frobenius, hs))
    check_finite(np.isfinite(norms))
    dts = np.broadcast_to(dt, norms.shape)
    k = first_true(norms * dts >= STEP_NORM_LIMIT)
    if k is not None:
        raise StepSizeError(float(norms[k]), float(dts[k]))


def _step_factors(h: Callable, times: np.ndarray, dims: tuple[int, ...], order: int):
    """Step unitaries, computed as stacks one chunk of steps at a time.

    ``h`` gives a tuple of stacks, one per sector of a block-diagonal H of
    sector dimensions ``dims`` (one sector for a dense H). Each chunk yields a
    list with one list per sector of its step unitaries in the order they
    apply. Chunks are sized by the whole dimension.

    Order 2 gives one midpoint exponential per step, and every step is
    checked: the first with ||H|| dt >= STEP_NORM_LIMIT raises. Order 4 gives
    the two CF4:2 exponentials of each step, unchecked. Its chunks hold half
    as many steps, because each step takes H at both Gauss nodes in one call
    and both factors in one exponential: a stack of two matrices per step.
    A non-finite H raises NonFiniteMatrixError naming the first step it enters.
    """
    dts = np.diff(times)
    for sl in chunks(dts.size, sum(dims), per_point=1 if order == 2 else 2):
        t0, dt = times[:-1][sl], dts[sl]
        k = dt.size
        try:
            if order == 2:
                hs = [_stack(m, k, (d, d)) for m, d in zip(h(t0 + dt / 2), dims)]
                check_step(hs, dt)
                yield [list(expm_i_hermitian(m, dt)) for m in hs]
                continue
            ts = np.concatenate([t0 + c * dt for c in GAUSS_NODES])
            hs = [_stack(m, ts.size, (d, d)) for m, d in zip(h(ts), dims)]
            # Both exponents first, so that H at the nodes is freed before the
            # exponential takes its workspace (and catches a non-finite exponent).
            with np.errstate(invalid="ignore", over="ignore"):
                exponents = [np.concatenate([a * m[:k] + b * m[k:] for a, b in CF4_WEIGHTS])
                             for m in hs]
            del hs
            factors = [expm_i_hermitian(m, np.concatenate([dt, dt])) for m in exponents]
        except NonFiniteMatrixError as exc:
            step = sl.start + exc.index % k
            raise NonFiniteMatrixError(step, f"H on step {step + 1} of {dts.size}, t = "
                                       f"{times[step]:.6g} to {times[step + 1]:.6g}") from None
        yield [[u for pair in zip(m[:k], m[k:]) for u in pair] for m in factors]
        del factors  # before the next chunk's are formed


def propagate(h: Callable[[float], Operator], psi0: np.ndarray, times: np.ndarray,
              keep=None, order: int = 2) -> Trajectory:
    """Propagation of a state or a block of states under H(t).

    ``psi0`` is one normalized state ``(dim,)`` or a block ``(dim, k)`` of
    normalized columns, all stepped together. It may also be a tuple of
    blocks ``(dim_s, k_s)``, one per sector of a block-diagonal H: ``h`` then
    gives a tuple of stacks, one per sector, each block steps under its own,
    and ``states`` holds their direct sum (:func:`susyinv.operators.direct_sum`).
    ``keep`` is an optional array of grid indices: only those points are
    stored (``times``, ``states`` and ``norm_drift`` follow its order) and the
    steps stop at the last of them. By default the whole trajectory is
    stored. ``norm_drift`` is the largest drift over the columns of a block.
    ``order`` picks the step rule: 2 for the guarded midpoint exponential, 4
    for CF4:2 (see the module docstring).
    """
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order!r}")
    times = _check_grid(times)
    sectored = isinstance(psi0, tuple)
    psi = [np.asarray(b, dtype=complex) for b in (psi0 if sectored else (psi0,))]
    norm0 = np.linalg.norm(direct_sum(psi), axis=0)
    if np.any(np.abs(norm0 - 1.0) > 1e-9):
        raise ValueError(f"initial state must be normalized, got norm {norm0}")
    keep = np.arange(times.size) if keep is None else np.asarray(keep, dtype=int)
    if keep.ndim != 1 or keep.size == 0 or keep.min() < 0 or keep.max() >= times.size:
        raise ValueError(f"kept indices must lie in the grid of {times.size} points")
    wanted = np.zeros(times.size, dtype=bool)
    wanted[keep] = True
    stored = np.flatnonzero(wanted)
    # Each sector's blocks at the stored points, and how many factors precede each:
    # a stored start precedes them all.
    kept = [np.empty((stored.size, *b.shape), dtype=complex) for b in psi]
    marks = ((1 if order == 2 else len(CF4_WEIGHTS)) * stored).tolist()
    first = int(marks[0] == 0)
    for blocks, b in zip(kept, psi):
        blocks[:first] = b
    factors = _step_factors(h if sectored else (lambda ts: (h(ts),)),
                            times[:stored[-1] + 1], tuple(b.shape[0] for b in psi), order)
    done = 0
    for chunk in factors:
        last = bisect_right(marks, done + len(chunk[0]))
        ends = [m - done for m in marks[first:last]]  # the chunk's stored points
        for s, us in enumerate(chunk):  # each sector through the chunk's steps
            b, at, blocks = psi[s], 0, kept[s]
            for n, end in enumerate(ends, first):
                for u in us[at:end]:
                    b = u @ b
                blocks[n], at = b, end
            for u in us[at:]:
                b = u @ b
            psi[s] = b
        done, first = done + len(chunk[0]), last
        del chunk, us  # before the next chunk's factors are formed
    states = direct_sum(kept)
    if not np.array_equal(stored, keep):
        states = states[np.cumsum(wanted)[keep] - 1]
    drift = np.abs(np.linalg.norm(states, axis=1) - norm0).reshape(keep.size, -1)
    return Trajectory(times[keep], states=states, norm_drift=drift.max(axis=1))


def propagate_unitary(h: Callable[[float], Operator], dim: int,
                      times: np.ndarray) -> Trajectory:
    """Propagate the full evolution operator from U(0) = 1: the identity block."""
    traj = propagate(h, np.eye(dim, dtype=complex), times)
    ops = traj.states
    defects = over_chunks(np.arange(len(ops)), dim, lambda k: unitarity_defect(ops[k]))
    return Trajectory(traj.times, operators=ops, unitarity_defect=defects)


def central_difference(m_map: Callable[[float], Operator], t):
    """(M(t + FD_STEP) - M(t - FD_STEP)) / (2 FD_STEP), for a scalar t or an array."""
    return (_mat(m_map(t + FD_STEP)) - _mat(m_map(t - FD_STEP))) / (2 * FD_STEP)


def lvn_residual(i: np.ndarray, h: np.ndarray, i_dot: np.ndarray,
                 projector: np.ndarray | None = None):
    """|| dI/dt - i [I, H] ||, the defining residual of a dynamical invariant.

    I, H and dI/dt are matrices or (n, d, d) stacks (a matrix is broadcast
    against a stack); pass a projector to restrict the residual to a trusted
    subspace. A float for matrices, one residual per time for stacks.
    """
    return frobenius(project(i_dot - 1j * (i @ h - h @ i), projector))


def intertwining_residual(d: np.ndarray, d_dot: np.ndarray, h_minus: np.ndarray,
                          h_plus: np.ndarray, projector: np.ndarray | None = None):
    """|| i dd/dt - H_- d + d H_+ ||, the operator form of the intertwining relation.

    Matrices or (n, d, d) stacks, as for :func:`lvn_residual`.
    """
    return frobenius(project(1j * d_dot - h_minus @ d + d @ h_plus, projector))


@dataclass(frozen=True)
class HolonomyResult:
    """Path-ordered loop holonomy of an eigenframe: one diagonal block per level."""

    gamma: np.ndarray

    @property
    def degeneracy(self) -> int:
        return self.gamma.shape[0]

    def unitarity(self) -> float:
        return float(np.linalg.norm(self.gamma.conj().T @ self.gamma
                                    - np.eye(self.degeneracy)))


def _ordered_product(stack: np.ndarray) -> np.ndarray:
    """M_{n-1} ... M_1 M_0 of an (n, k, k) stack, later entries on the left.

    Neighbors are multiplied pairwise as one stacked matmul per halving, so
    the product takes about log2(n) matmul calls instead of n.
    """
    while len(stack) > 1:
        pairs = stack[1::2] @ stack[:len(stack) - 1:2]
        stack = np.concatenate([pairs, stack[2 * len(pairs):]])
    return stack[0]


def berry_holonomy(frame: Callable[[float], np.ndarray], steps: int,
                   period: float = 1.0,
                   groups: Sequence[Sequence[int]] | None = None) -> HolonomyResult:
    """Discretized path-ordered holonomies of a single-valued closed frame.

    ``frame(s)`` must return orthonormal columns and satisfy frame(period) =
    frame(0); it is called with arrays of loop parameters and returns one
    frame per parameter, or a single frame when it is constant. ``groups``
    partitions the columns into levels, as index tuples in the shape of
    ``EigenSystem.degeneracy_groups``; by default all columns are one level.
    Each level's columns must close to ``CLOSURE_TOL * max(1, ||frame(0)[:, g]||)``.

    The overlaps ``frame(s_{k+1})^dag frame(s_k)`` are taken once for the whole
    frame; each level's block of them is unitarized by its own polar
    decomposition, and the blocks are multiplied with later times on the left
    (pairwise, :func:`_ordered_product`). ``gamma`` is block-diagonal, one
    block per level; the discrete product converges to the continuum holonomy
    as steps grow.
    """
    if steps < 2:
        raise ValueError("at least two steps are required")
    v0 = np.asarray(frame(0.0), dtype=complex)
    if v0.ndim == 1:
        v0 = v0[:, None]
    v_end = np.asarray(frame(period), dtype=complex).reshape(v0.shape)
    groups = [np.arange(v0.shape[1])] if groups is None else \
        [np.asarray(g, dtype=int) for g in groups]
    for g in groups:
        closure = float(np.linalg.norm(v_end[:, g] - v0[:, g]))
        if closure > CLOSURE_TOL * max(1.0, np.linalg.norm(v0[:, g])):
            raise NonClosedLoopError(
                f"frame is not closed over the loop: ||frame(T) - frame(0)|| = "
                f"{closure:.3e}")

    # One product per level and chunk, in time order.
    products = [[] for _ in groups]
    prev = v0
    interior = period * np.arange(1, steps) / steps
    for sl in chunks(interior.size, v0.shape[0]):
        cur = _stack(frame(interior[sl]), interior[sl].size, v0.shape)
        overlaps = dagger(cur) @ np.concatenate([prev[None], cur[:-1]])
        prev = cur[-1].copy()
        # The chunk's d x d stacks go before the next frame stack is evaluated.
        del cur
        for level, (product, g) in enumerate(zip(products, groups)):
            product.append(_ordered_product(_unitarized(
                overlaps[:, g[:, None], g], level, sl.start + 1, steps, period)))
        del overlaps
    closing = v0.conj().T @ prev
    gamma = np.zeros((v0.shape[1],) * 2, dtype=complex)
    for level, (product, g) in enumerate(zip(products, groups)):
        product.append(_unitarized(closing[g[:, None], g], level, steps, steps, period))
        gamma[g[:, None], g] = _ordered_product(np.stack(product))
    return HolonomyResult(gamma)


def _unitarized(overlaps: np.ndarray, level: int, first_step: int, steps: int,
                period: float) -> np.ndarray:
    """Polar factors of one level's overlaps, from loop step ``first_step`` (1-based) on.

    A singular overlap is reported by its loop step, its span of the loop
    parameter and its level.
    """
    try:
        return polar_unitary(overlaps)
    except SingularMatrixError as exc:
        step = first_step + (exc.index or 0)
        span = f"s = {period * (step - 1) / steps:.6g} to {period * step / steps:.6g}"
        raise SingularMatrixError(exc.s_min, exc.limit, where=f"loop step {step} of "
                                  f"{steps}, {span}, level {level}") from None
