"""The sectors that every command takes the minus side in.

A sector is a connected component of the off-diagonal nonzeros of D2, I_-(0)
and the closed-form generators, joined by the support of each level's minus
vector (:func:`find_sectors`). K1, K2 and K3 are quadratic in a and a^dag and
conserve Fock parity: the one-mode realization of su(1,1) is the sum of its
k = 1/4 (even) and k = 3/4 (odd) irreps (Perelomov, *Generalized Coherent
States and Their Applications*, 1986, ch. 5). So with d0 = a^dag the
oscillator splits into its even and odd Fock states, and W, H_-, U_- and I_-
are block diagonal, with two blocks of about N/2. J1 couples every m, so spin
is one sector, and so is a d0 whose I_-(0) couples the parities.
:attr:`susyinv.construction.PartnerOutput.sectors` finds them on first use
(:func:`split`); one sector is the whole space, with no copy.
"""

from __future__ import annotations

import numpy as np

from .operators import Operator
from .representations import SpinRep


def generators(rep) -> tuple[Operator, Operator, Operator]:
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


def split(rep, d2: np.ndarray, i_ref: np.ndarray, v_minus: np.ndarray) -> list[np.ndarray]:
    """The index sets of the sectors of D2, I_-(0), the closed-form generators of
    ``rep`` and the minus vectors (:func:`find_sectors`). J1 couples every m, so
    spin is one sector, whatever d0, and is not searched."""
    if isinstance(rep, SpinRep):
        return [np.arange(rep.dim)]
    return find_sectors([d2, i_ref, *(g.entries for g in generators(rep))], v_minus)
