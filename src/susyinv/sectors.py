"""The sectors that verify takes the oscillator in.

A sector is a connected component of the off-diagonal nonzeros of D2, I_-(0)
and the closed-form generators, joined by the support of each checkable
level's minus vector (:func:`find_sectors`). K1, K2 and K3 are quadratic in a
and a^dag and conserve Fock parity: the one-mode realization of su(1,1) is the
sum of its k = 1/4 (even) and k = 3/4 (odd) irreps (Perelomov, *Generalized
Coherent States and Their Applications*, 1986, ch. 5). So with d0 = a^dag the
oscillator splits into its even and odd Fock states, and W, H_-, U_- and I_-
are block diagonal, with two blocks of about N/2. J1 couples every m, so spin
is one sector, and so is a d0 whose I_-(0) couples the parities. One sector is
the run's own objects, with no copy; more sectors each hold the gauge, Y,
I_-(0), projector, H+ diagonal, generators and levels restricted to their
indices (:class:`Sector`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .construction import GaugeCurve, Levels, PartnerOutput, YSpec, _Sample
from .operators import Operator
from .representations import SpinRep


def _generators(rep) -> tuple[Operator, Operator, Operator]:
    """The closed-form generators: (J1, J2, J3) or (K1, K2, K3)."""
    if isinstance(rep, SpinRep):
        return rep.J1, rep.J2, rep.J3
    return rep.K1, rep.K2, rep.K3


def find_sectors(matrices, vectors: np.ndarray) -> list[np.ndarray]:
    """The connected components of the off-diagonal nonzeros of (d, d) ``matrices``
    and of the support of each column of ``vectors``, as ascending index arrays
    ordered by their first index."""
    coupled = np.any(np.stack(matrices) != 0, axis=0)
    # A vector joins each index it touches to the first of them.
    rows, cols = np.nonzero(vectors)
    coupled[rows, np.argmax(vectors != 0, axis=0)[cols]] = True
    i, j = np.nonzero(coupled | coupled.T)
    # Each index takes the least label of its neighbours, then its label's label,
    # until nothing moves: every index is then labelled by its component's first,
    # the one index that labels itself.
    index = np.arange(coupled.shape[0])
    labels = index
    while True:
        hooked = labels.copy()
        np.minimum.at(hooked, i, labels[j])
        hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            return [np.flatnonzero(labels == first) for first in index[labels == index]]
        labels = hooked


@dataclass(frozen=True)
class Sector:
    """What the sampled residuals and the solutions suite read, restricted to the
    indices ``rows`` of one sector, or the run's own objects where one sector is the
    whole space (``rows`` None): the gauge, Y, I_-(0), the projector, the diagonal of
    H+, the closed-form generators, the levels (their minus vectors restricted to
    ``rows``) and the indices of the checkable levels that live there."""

    rows: np.ndarray | None
    gauge: GaugeCurve
    y: YSpec
    i_ref: np.ndarray
    projector: np.ndarray | None
    plus_energies: np.ndarray
    generators: tuple[Operator, ...]
    levels: Levels
    checkable: np.ndarray

    @property
    def dim(self) -> int:
        return self.gauge.dim

    def sample(self, ts: np.ndarray) -> _Sample:
        return _Sample(self.gauge, self.y, ts, self.i_ref)

    def mapped(self, ts: np.ndarray) -> np.ndarray:
        """The mapped solutions of the checkable levels at a time or an array of them."""
        return self.levels.mapped(self.y, self.checkable, ts, self.gauge.value(ts))


def split(rep, out: PartnerOutput, projector: np.ndarray | None,
          checkable: np.ndarray) -> tuple[Sector, ...]:
    """The sectors of D2, I_-(0), the closed-form generators and the minus vectors of
    the ``checkable`` levels (:func:`find_sectors`), restricting ``projector`` and
    the rest to each. J1 couples every m, so spin is one sector, whatever d0, and
    is not searched."""
    system, generators = out.system, _generators(rep)
    w, i_ref, levels = system.w_minus, out.invariant.Iminus.entries, out.levels
    if isinstance(rep, SpinRep) or len(parts := find_sectors(
            [w.d2.entries, i_ref, *(g.entries for g in generators)],
            levels.v_minus[:, checkable])) == 1:
        return (Sector(None, w, system.y_minus, i_ref, projector, system.plus_energies,
                       generators, levels, checkable),)
    # Each checkable level lives in the sector of the first row its minus vector touches.
    home = np.argmax(levels.v_minus[:, checkable] != 0, axis=0)
    sectors = []
    for rows in parts:
        block = np.ix_(rows, rows)

        def op(m: Operator) -> Operator:
            return Operator(m.entries[block])

        sectors.append(Sector(
            rows, replace(w, d3=op(w.d3), d2=op(w.d2)),
            replace(system.y_minus, D=op(system.y_minus.D)), i_ref[block],
            None if projector is None else projector[block], system.plus_energies[rows],
            tuple(map(op, generators)), replace(levels, v_minus=levels.v_minus[rows]),
            checkable[np.isin(home, rows)]))
    return tuple(sectors)
