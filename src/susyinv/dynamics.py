"""Independent verification engine: unitary propagation, invariance and
intertwining residuals, and discretized Berry holonomies.

The propagator takes both step rules through one path: a rule (:func:`_rule`)
is its nodes in a step and, per factor in the order the factors apply, the
weights of H at those nodes. The midpoint rule (default; node 1/2, one factor
of weight 1) is second order, guarded by ``||H||_F dt < STEP_NORM_LIMIT`` at
every step. CF4:2 (``order=4``; Blanes & Moan, Appl. Numer. Math. 56 (2006)
1519; two factors on the two Gauss nodes) is fourth order and unguarded: its
caller estimates the error, as the ``solutions`` suite does from n and 2n
steps. Each step exponential is unitary to rounding, as unitarity defects
would masquerade as superalgebra violations. States are stepped as a block, a
chunk of steps and a sector of a block-diagonal H at a time, and each sector
writes its block into the states at the kept points.

The LvN and intertwining residuals take matrices or (n, d, d) stacks, with the
derivative their caller holds (:meth:`susyinv.construction.Block.sample`).
Maps of t (Hamiltonians, frames) are called with arrays of times and return
(n, d, d) stacks, or one matrix when they are constant. Grids are
evaluated chunk by chunk (:func:`susyinv.operators.chunks`); only the product
of step unitaries runs step by step. A holonomy takes every level of a frame
from one frame stack, and the resolutions n and 2 n from one walk at 2 n: the
overlaps are taken once per resolution, the blocks of the levels of one size
are cut out of them as one stack, unitarized together and multiplied
pairwise (:func:`_ordered_product`), so the Wilson product costs about
log2(n) stacked products per chunk and level size instead of n per level,
taken elementwise for levels of size 1 and 2.
The blocks are unitarized by :func:`susyinv.operators.polar_unitary`,
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

from .operators import (NonFiniteMatrixError, SingularMatrixError, check_finite, chunks, dagger,
                        expm_i_hermitian, first_true, frobenius, groups_by_size,
                        over_chunks, polar_unitary, project, unitarity_defect)

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
    return np.broadcast_to(np.reshape(m, (-1, *shape)), (n, *shape))


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


def _rule(order: int) -> tuple:
    """A step rule: its nodes in a step and, per factor in the order the factors
    apply, the weights of H at those nodes. CF4_WEIGHTS is read at each call."""
    return ((0.5,), ((1.0,),)) if order == 2 else (GAUSS_NODES, CF4_WEIGHTS)


def _weighted(hs: np.ndarray, weights: tuple) -> np.ndarray:
    """Each factor's weighted sum of the node-major H stack, as one (factors, steps, d, d)
    stack, taken on the float view: 1.0 * H is H to the bit (a complex product flips zeros)."""
    at = np.ascontiguousarray(hs, dtype=complex).view(float)
    at = at.reshape(len(weights[0]), -1, *at.shape[1:])
    out = np.empty((len(weights), *at.shape[1:]))
    for o, ws in zip(out, weights):
        np.multiply(ws[0], at[0], out=o)
        for w, a in zip(ws[1:], at[1:]):
            o += w * a
    return out.view(complex)


def _step_factors(h: Callable, times: np.ndarray, dims: list, stepped: list, order: int):
    """Step unitaries, computed as stacks one chunk of steps at a time.

    ``h`` gives one stack per sector of a block-diagonal H of sector dimensions
    ``dims``; only the sectors ``stepped`` are exponentiated. Each chunk takes H
    at every node of its steps in one call and yields, per stepped sector, its
    step unitaries in the order they apply, as views of one stack. Order 2
    raises at the first step with ||H|| dt >= STEP_NORM_LIMIT. A non-finite H
    raises NonFiniteMatrixError naming the first step it enters.
    """
    nodes, weights = _rule(order)
    dts = np.diff(times)
    for sl in chunks(dts.size, sum(dims[s] for s in stepped), per_point=len(nodes)):
        t0, dt, k = times[:-1][sl], dts[sl], sl.stop - sl.start
        try:
            ts = np.concatenate([t0 + c * dt for c in nodes])
            hs = [_stack(m, ts.size, (d, d)) for m, d in zip(h(ts), dims)]
            if order == 2:
                check_step(hs, dt)
            # Every exponent first, so that H at the nodes is freed before the
            # exponential takes its workspace (and catches a non-finite exponent).
            with np.errstate(invalid="ignore", over="ignore"):
                exponents = [_weighted(hs[s], weights) for s in stepped]
            del hs
            factors = [expm_i_hermitian(m, np.concatenate([dt] * len(weights))) for m in exponents]
        except NonFiniteMatrixError as exc:
            step = sl.start + exc.index % k
            raise NonFiniteMatrixError(step, f"H on step {step + 1} of {dts.size}, t = "
                                       f"{times[step]:.6g} to {times[step + 1]:.6g}") from None
        yield [[u for step in zip(*m) for u in step] for m in factors]
        del exponents, factors  # before the next chunk's are formed


def propagate(h: Callable, psi0: np.ndarray, times: np.ndarray,
              keep=None, order: int = 2, sectors: Sequence | None = None) -> Trajectory:
    """Propagation of a state or a block of states under H(t).

    ``psi0`` is one normalized state ``(dim,)`` or a block ``(dim, k)`` of
    normalized columns, all stepped together. ``sectors`` holds the row index
    arrays of the sectors of a block-diagonal H, or ``[None]`` for the whole
    space as its one sector; ``h`` then gives one stack per sector. A sector
    steps, under its stack, the columns of ``psi0`` from the first to the last
    that is nonzero on its rows, and one with none is not exponentiated. By
    default the whole space is the one sector and ``h`` gives its stack.
    ``states`` keep the rows of ``psi0``: each stepped sector writes its block
    into them at every stored point, and they are zero elsewhere.
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
    where = list(index.values())
    parts = [psi[i] for i in where]
    # The states at the stored points, and how many factors precede each: a stored
    # start precedes them all.
    states = np.zeros((stored.size, *psi.shape), dtype=complex)
    marks = (len(_rule(order)[1]) * stored).tolist()
    first = int(marks[0] == 0)
    for i, b in zip(where, parts):
        states[(slice(first), *i)] = b
    dims = [psi.shape[0] if rows is None else len(rows) for rows in sectors]
    done = 0
    for chunk in _step_factors(h, times[:stored[-1] + 1], dims, list(index), order):
        last = bisect_right(marks, done + len(chunk[0]))
        for s, (i, us) in enumerate(zip(where, chunk)):  # each sector through the chunk
            b, at = parts[s], 0
            for n in range(first, last):
                for u in us[at:marks[n] - done]:
                    b = u @ b
                states[(n, *i)], at = b, marks[n] - done
            for u in us[at:]:
                b = u @ b
            parts[s] = b
        done, first = done + len(chunk[0]), last
        del chunk, us  # before the next chunk's factors are formed
    if not np.array_equal(stored, keep):
        states = states[np.cumsum(wanted)[keep] - 1]
    drift = np.abs(np.linalg.norm(states, axis=1) - norm0).reshape(keep.size, -1)
    return Trajectory(times[keep], states=states, norm_drift=drift.max(axis=1))


def propagate_unitary(h: Callable, dim: int,
                      times: np.ndarray) -> Trajectory:
    """Propagate the full evolution operator from U(0) = 1: the identity block."""
    traj = propagate(h, np.eye(dim, dtype=complex), times)
    ops = traj.states
    defects = over_chunks(np.arange(len(ops)), dim, lambda k: unitarity_defect(ops[k]))
    return Trajectory(traj.times, operators=ops, unitarity_defect=defects)


def central_difference(m_map: Callable, t):
    """(M(t + FD_STEP) - M(t - FD_STEP)) / (2 FD_STEP), for a scalar t or an array."""
    out = np.subtract(m_map(t + FD_STEP), m_map(t - FD_STEP))
    out /= 2 * FD_STEP
    return out


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


def _ordered_product(stack: np.ndarray) -> np.ndarray:
    """M_{n-1} ... M_1 M_0 of an (n, ..., k, k) stack, later entries on the left,
    per trailing matrix.

    Neighbors are multiplied pairwise as one stacked product per halving, so
    the product takes about log2(n) calls instead of n. For k <= 2 the
    products are taken elementwise over the stack, as the sum over j of column
    j of the left factor times row j of the right one (``a * b`` for k = 1):
    numpy's stacked matmul pays about 240 ns per 2 x 2 product. Above, they are
    one stacked matmul.

    The factors are carried as their deviations from the identity, with
    (1 + A)(1 + B) = 1 + A + B + AB. The overlaps of a fine loop are close to
    the identity and, on a uniform loop, equal to rounding, so every product of
    one halving rounds alike and a product of the matrices themselves gathers
    those errors linearly: about 1e-13 over 2 000 factors, against 1e-15 on
    the deviations (measured against a long-double sequential product).
    """
    k = stack.shape[-1]
    eye = np.eye(k)
    dev = stack - eye
    while len(dev) > 1:
        left, right = dev[1::2], dev[:len(dev) - 1:2]
        pairs = left + right
        if k > 2:
            pairs += left @ right
        else:
            pairs += left[..., :1] * right[..., :1, :]
            if k == 2:
                pairs += left[..., 1:] * right[..., 1:, :]
        dev = np.concatenate([pairs, dev[2 * len(pairs):]])
    return dev[0] + eye


def berry_holonomy(frame: Callable[[float], np.ndarray], steps: int | tuple[int, int],
                   period: float = 1.0,
                   groups: Sequence[Sequence[int]] | None = None):
    """Discretized path-ordered holonomies of a single-valued closed frame, one per level.

    ``frame(s)`` must return orthonormal columns and satisfy frame(period) =
    frame(0); it is called with arrays of loop parameters and returns one
    frame per parameter, or a single frame when it is constant. ``groups``
    partitions the columns into levels, as index tuples in the shape of
    ``EigenSystem.degeneracy_groups``; by default all columns are one level.
    Each level's columns must close to ``CLOSURE_TOL * max(1, ||frame(0)[:, g]||)``.

    ``steps`` is one resolution n, or the pair (n, 2 n). A pair takes one walk
    at 2 n: the fine product takes the overlaps ``frame(s_{k+1})^dag
    frame(s_k)`` of every frame, and the coarse one those of its even frames,
    ``frame(s_{2k+2})^dag frame(s_{2k})``, so the two need 2 n + 1 frame
    points. The overlaps of a resolution are taken once for the whole frame,
    and the blocks of the levels of one size k are cut out of them as one
    (n, L, k, k) stack (:func:`susyinv.operators.groups_by_size`): one polar
    decomposition unitarizes them, and one pairwise product
    (:func:`_ordered_product`) multiplies them with later times on the left.
    Returns one (k, k) gamma per level, in the order of ``groups``, or for a
    pair one such list per resolution; the discrete product converges to the
    continuum holonomy as steps grow. A singular overlap raises: a resolution's
    first, by loop step and then level, and the coarse resolution's when both
    have one, numbered by the coarse steps.
    """
    pair = not isinstance(steps, (int, np.integer))
    resolutions = tuple(steps) if pair else (steps,)
    if pair and (len(resolutions) != 2 or resolutions[1] != 2 * resolutions[0]):
        raise ValueError(f"steps must be one resolution n or the pair (n, 2 n), "
                         f"got {steps!r}")
    if resolutions[0] < 2:
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

    # Per level size: the level numbers and their (L, k) column indices. Per
    # resolution: its last frame so far and, per level size and chunk in time
    # order, the product of its blocks; for the fine one, its first singular
    # overlap, raised after the walk if the coarse one meets none.
    by_size = groups_by_size(groups)
    levels = {k: np.flatnonzero([len(g) == k for g in groups]) for k in by_size}
    fine = resolutions[-1]
    last = [v0] * len(resolutions)
    failed = {}
    products = [{k: [] for k in by_size} for _ in resolutions]

    def take(r: int, frames: np.ndarray, point: int) -> None:
        """Multiply in resolution r's overlaps that end at ``frames``, the first of
        them at point ``point`` of the fine walk. Every level size is unitarized
        before a singular overlap is reported: the first by loop step, then level."""
        if r in failed or not len(frames):
            return
        n = resolutions[r]
        overlaps = dagger(frames) @ np.concatenate([last[r][None], frames[:-1]])
        last[r] = frames[-1].copy()
        singular = []
        for k, at in by_size.items():
            try:
                products[r][k].append(_ordered_product(polar_unitary(
                    overlaps[:, at[:, :, None], at[:, None, :]])))
            except SingularMatrixError as exc:
                offset, position = divmod(exc.index, len(at))
                singular.append((point * n // fine + offset, levels[k][position], exc))
        if singular:
            step, level, exc = min(singular, key=lambda found: found[:2])
            span = f"s = {period * (step - 1) / n:.6g} to {period * step / n:.6g}"
            error = SingularMatrixError(exc.s_min, exc.limit,
                                        where=f"loop step {step} of {n}, {span}, level {level}")
            if r == 0:  # the coarse walk's error is reported, as if walked first
                raise error
            failed[r] = error

    interior = period * np.arange(1, fine) / fine
    for sl in chunks(interior.size, v0.shape[0]):
        cur = _stack(frame(interior[sl]), interior[sl].size, v0.shape)
        for r, n in enumerate(resolutions):
            # The chunk's frames at the points of resolution r: every stride-th point.
            stride = fine // n
            first = -(sl.start + 1) % stride
            take(r, cur[first::stride], sl.start + 1 + first)
        # The chunk's d x d stacks go before the next frame stack is evaluated.
        del cur
    for r in range(len(resolutions)):
        take(r, v0[None], fine)
    if failed:
        raise failed[1]
    results = []
    for r in range(len(resolutions)):
        gammas = [None] * len(groups)
        for k in by_size:
            for level, gamma in zip(levels[k], _ordered_product(np.stack(products[r][k]))):
                gammas[level] = gamma
        results.append(gammas)
    return tuple(results) if pair else results[0]
