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
so each step is unitary to rounding. States are stepped as a block, in the
sectors of a block-diagonal H (each on its own rows), one chunk of step
unitaries and one sector at a time, and only the kept grid points are stored.

The LvN and intertwining residuals take matrices or (n, d, d) stacks, with the
derivative their caller holds (:meth:`susyinv.construction.Block.sample`).
Maps of t (Hamiltonians, frames) are called with arrays of times and return
(n, d, d) stacks, or one matrix when they are constant. Grids are
evaluated chunk by chunk (:func:`susyinv.operators.chunks`); only the product
of step unitaries runs step by step. A holonomy takes every level of a frame
from one frame stack: the overlaps are taken once, the blocks of the levels
of one size are cut out of them as one stack, unitarized together and
multiplied pairwise (:func:`_ordered_product`), so the Wilson product costs
about log2(n) stacked matmuls per chunk and level size instead of n per
level. The blocks are unitarized by :func:`susyinv.operators.polar_unitary`,
in closed form for levels of size 1 and 2 and by SVD above; an overlap that is
singular to rounding (the frame jumps to an orthogonal subspace between two
steps) raises :class:`susyinv.operators.SingularMatrixError`, naming the loop
step and the level, rather than taking an arbitrary unitary.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .operators import (NonFiniteMatrixError, Operator, SingularMatrixError, _mat,
                        check_finite, chunks, dagger, expm_i_hermitian,
                        first_true, fresh, frobenius, groups_by_size, over_chunks,
                        polar_unitary, project, unitarity_defect)

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

    ``hs`` holds the stacks of the sectors of a block-diagonal H: their norms
    combine by hypot, so the guard reads the whole H.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # caught below, with no warning
        norms = reduce(np.hypot, map(frobenius, hs))
    check_finite(np.isfinite(norms))
    dts = np.broadcast_to(dt, norms.shape)
    k = first_true(norms * dts >= STEP_NORM_LIMIT)
    if k is not None:
        raise StepSizeError(float(norms[k]), float(dts[k]))


def _step_factors(h: Callable, times: np.ndarray, dims: list, stepped: list, order: int):
    """Step unitaries, computed as stacks one chunk of steps at a time.

    ``h`` gives one stack per sector of a block-diagonal H of sector
    dimensions ``dims``, and only the sectors ``stepped`` are exponentiated:
    each chunk yields one list per stepped sector of its step unitaries in the
    order they apply. Chunks are sized by the stepped sectors' dimensions.

    Order 2 gives one midpoint exponential per step, and every step is
    checked: the first with ||H|| dt >= STEP_NORM_LIMIT raises. Order 4 gives
    the two CF4:2 exponentials of each step, unchecked. Its chunks hold half
    as many steps, because each step takes H at both Gauss nodes in one call
    and both factors in one exponential: a stack of two matrices per step.
    A non-finite H raises NonFiniteMatrixError naming the first step it enters.
    """
    dts = np.diff(times)
    for sl in chunks(dts.size, sum(dims[s] for s in stepped),
                     per_point=1 if order == 2 else 2):
        t0, dt = times[:-1][sl], dts[sl]
        k = dt.size
        try:
            if order == 2:
                hs = [_stack(m, k, (d, d)) for m, d in zip(h(t0 + dt / 2), dims)]
                check_step(hs, dt)
                yield [list(expm_i_hermitian(hs[s], dt)) for s in stepped]
                continue
            ts = np.concatenate([t0 + c * dt for c in GAUSS_NODES])
            hs = [_stack(m, ts.size, (d, d)) for m, d in zip(h(ts), dims)]
            # Both exponents first, so that H at the nodes is freed before the
            # exponential takes its workspace (and catches a non-finite exponent).
            with np.errstate(invalid="ignore", over="ignore"):
                exponents = [np.concatenate([a * hs[s][:k] + b * hs[s][k:]
                                             for a, b in CF4_WEIGHTS]) for s in stepped]
            del hs
            factors = [expm_i_hermitian(m, np.concatenate([dt, dt])) for m in exponents]
        except NonFiniteMatrixError as exc:
            step = sl.start + exc.index % k
            raise NonFiniteMatrixError(step, f"H on step {step + 1} of {dts.size}, t = "
                                       f"{times[step]:.6g} to {times[step + 1]:.6g}") from None
        yield [[u for pair in zip(m[:k], m[k:]) for u in pair] for m in factors]
        del factors  # before the next chunk's are formed


def propagate(h: Callable[[float], Operator], psi0: np.ndarray, times: np.ndarray,
              keep=None, order: int = 2, sectors: Sequence | None = None) -> Trajectory:
    """Propagation of a state or a block of states under H(t).

    ``psi0`` is one normalized state ``(dim,)`` or a block ``(dim, k)`` of
    normalized columns, all stepped together. ``sectors`` holds the row index
    arrays of the sectors of a block-diagonal H, or ``[None]`` for the whole
    space as its one sector; ``h`` then gives one stack per sector. A sector
    steps, under its stack, the columns of ``psi0`` from the first to the last
    that is nonzero on its rows, and one with none is not exponentiated. By
    default the whole space is the one sector and ``h`` gives its stack.
    ``states`` keep the rows of ``psi0``.
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
    psi = np.asarray(psi0, dtype=complex)
    norm0 = np.linalg.norm(psi, axis=0)
    if np.any(np.abs(norm0 - 1.0) > 1e-9):
        raise ValueError(f"initial state must be normalized, got norm {norm0}")
    keep = np.arange(times.size) if keep is None else np.asarray(keep, dtype=int)
    if keep.ndim != 1 or keep.size == 0 or keep.min() < 0 or keep.max() >= times.size:
        raise ValueError(f"kept indices must lie in the grid of {times.size} points")
    wanted = np.zeros(times.size, dtype=bool)
    wanted[keep] = True
    stored = np.flatnonzero(wanted)
    if sectors is None:
        sectors, h = [None], (lambda ts, whole=h: (whole(ts),))
    # Each stepped sector's index into psi, () for the whole space: its rows and, for a
    # block, the span of its nonzero columns as one slice, cheaper than an index array.
    nonzero = psi != 0
    index = {}
    for s, rows in enumerate(sectors):
        if rows is None:
            index[s] = ()
        elif (cols := np.flatnonzero(np.any(nonzero[rows], axis=0))).size:
            index[s] = (rows, slice(cols[0], cols[-1] + 1))[:psi.ndim]
    parts = [psi[i] for i in index.values()]
    # Each stepped sector's blocks at the stored points, and how many factors
    # precede each: a stored start precedes them all.
    kept = [np.empty((stored.size, *b.shape), dtype=complex) for b in parts]
    marks = ((1 if order == 2 else len(CF4_WEIGHTS)) * stored).tolist()
    first = int(marks[0] == 0)
    for blocks, b in zip(kept, parts):
        blocks[:first] = b
    dims = [psi.shape[0] if rows is None else len(rows) for rows in sectors]
    factors = _step_factors(h, times[:stored[-1] + 1], dims, list(index), order)
    done = 0
    for chunk in factors:
        last = bisect_right(marks, done + len(chunk[0]))
        ends = [m - done for m in marks[first:last]]  # the chunk's stored points
        for s, us in enumerate(chunk):  # each sector through the chunk's steps
            b, at, blocks = parts[s], 0, kept[s]
            for n, end in enumerate(ends, first):
                for u in us[at:end]:
                    b = u @ b
                blocks[n], at = b, end
            for u in us[at:]:
                b = u @ b
            parts[s] = b
        done, first = done + len(chunk[0]), last
        del chunk, us  # before the next chunk's factors are formed
    if sectors[0] is None:  # the whole space's one block: no copy
        states = kept[0]
    else:
        states = np.zeros((stored.size, *psi.shape), dtype=complex)
        for i, blocks in zip(index.values(), kept):
            states[(slice(None), *i)] = blocks
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
    out = _mat(m_map(t + FD_STEP)) - _mat(m_map(t - FD_STEP))
    out /= 2 * FD_STEP
    return out


def lvn_residual(i: np.ndarray, h: np.ndarray, i_dot: np.ndarray,
                 projector: np.ndarray | None = None, take=fresh):
    """|| dI/dt - i [I, H] ||, the defining residual of a dynamical invariant.

    I, H and dI/dt are matrices or (n, d, d) stacks (a matrix is broadcast
    against a stack); pass a projector to restrict the residual to a trusted
    subspace. A float for matrices, one residual per time for stacks.
    """
    shape = np.broadcast_shapes(np.shape(i), np.shape(h), np.shape(i_dot))
    c = np.matmul(i, h, out=take("scratch", shape))
    c -= np.matmul(h, i, out=take("scratch_b", shape))
    c = np.multiply(1j, c, out=take("scratch", shape))
    return frobenius(project(np.subtract(i_dot, c, out=c), projector, in_place=True), take)


def intertwining_residual(d: np.ndarray, d_dot: np.ndarray, h_minus: np.ndarray,
                          h_plus: np.ndarray, projector: np.ndarray | None = None):
    """|| i dd/dt - H_- d + d H_+ ||, the operator form of the intertwining relation.

    Matrices or (n, d, d) stacks, as for :func:`lvn_residual`.
    """
    return frobenius(project(1j * d_dot - h_minus @ d + d @ h_plus, projector))


def _ordered_product(stack: np.ndarray) -> np.ndarray:
    """M_{n-1} ... M_1 M_0 of an (n, ..., k, k) stack, later entries on the left,
    per trailing matrix.

    Neighbors are multiplied pairwise as one stacked matmul per halving, so
    the product takes about log2(n) matmul calls instead of n.
    """
    while len(stack) > 1:
        pairs = stack[1::2] @ stack[:len(stack) - 1:2]
        stack = np.concatenate([pairs, stack[2 * len(pairs):]])
    return stack[0]


def berry_holonomy(frame: Callable[[float], np.ndarray], steps: int,
                   period: float = 1.0,
                   groups: Sequence[Sequence[int]] | None = None) -> list[np.ndarray]:
    """Discretized path-ordered holonomies of a single-valued closed frame, one per level.

    ``frame(s)`` must return orthonormal columns and satisfy frame(period) =
    frame(0); it is called with arrays of loop parameters and returns one
    frame per parameter, or a single frame when it is constant. ``groups``
    partitions the columns into levels, as index tuples in the shape of
    ``EigenSystem.degeneracy_groups``; by default all columns are one level.
    Each level's columns must close to ``CLOSURE_TOL * max(1, ||frame(0)[:, g]||)``.

    The overlaps ``frame(s_{k+1})^dag frame(s_k)`` are taken once for the whole
    frame, and the blocks of the levels of one size k are cut out of them as
    one (n, L, k, k) stack (:func:`susyinv.operators.groups_by_size`): one
    polar decomposition unitarizes them, and one pairwise product
    (:func:`_ordered_product`) multiplies them with later times on the left.
    Returns one (k, k) gamma per level, in the order of ``groups``; the
    discrete product converges to the continuum holonomy as steps grow.
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

    # Per level size: the level numbers, their (L, k) column indices and, per
    # chunk in time order, the product of their blocks.
    by_size = groups_by_size(groups)
    levels = {k: np.flatnonzero([len(g) == k for g in groups]) for k in by_size}
    products = {k: [] for k in by_size}
    prev = v0
    interior = period * np.arange(1, steps) / steps
    for sl in chunks(interior.size, v0.shape[0]):
        cur = _stack(frame(interior[sl]), interior[sl].size, v0.shape)
        overlaps = dagger(cur) @ np.concatenate([prev[None], cur[:-1]])
        prev = cur[-1].copy()
        # The chunk's d x d stacks go before the next frame stack is evaluated.
        del cur
        for k, at in by_size.items():
            products[k].append(_ordered_product(_unitarized(
                overlaps, at, levels[k], sl.start + 1, steps, period)))
        del overlaps
    closing = (v0.conj().T @ prev)[None]
    gammas = [None] * len(groups)
    for k, at in by_size.items():
        products[k].append(_unitarized(closing, at, levels[k], steps, steps, period)[0])
        for level, gamma in zip(levels[k], _ordered_product(np.stack(products[k]))):
            gammas[level] = gamma
    return gammas


def _unitarized(overlaps: np.ndarray, at: np.ndarray, levels: np.ndarray, first_step: int,
                steps: int, period: float) -> np.ndarray:
    """Polar factors of the level blocks of an (n, d, d) overlap stack, from loop
    step ``first_step`` (1-based) on, as an (n, L, k, k) stack: ``at`` holds the
    (L, k) column indices of the levels numbered ``levels``.

    A singular overlap is reported by its loop step, its span of the loop
    parameter and its level.
    """
    try:
        return polar_unitary(overlaps[:, at[:, :, None], at[:, None, :]])
    except SingularMatrixError as exc:
        offset, position = divmod(exc.index, len(levels))
        step = first_step + offset
        span = f"s = {period * (step - 1) / steps:.6g} to {period * step / steps:.6g}"
        raise SingularMatrixError(exc.s_min, exc.limit, where=f"loop step {step} of "
                                  f"{steps}, {span}, level {levels[position]}") from None
