"""Concrete generator matrices: spin-j su(2) and truncated-Fock su(1,1).

Spin matrices are exact. Oscillator operators live in a truncated Fock space;
the top ``buffer`` states are declared untrusted and every oscillator-family
check projects onto the interior below them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import Operator


def check_half_integer(j: float) -> int:
    two_j = round(2 * j)
    if two_j < 0 or abs(2 * j - two_j) > 1e-12:
        raise ValueError(f"j must be a nonnegative half-integer, got {j}")
    return two_j


@dataclass(frozen=True)
class SpinRep:
    """Spin-j angular momentum matrices in the basis m = j, j-1, ..., -j."""

    j: float
    J1: Operator
    J2: Operator
    J3: Operator
    Jplus: Operator
    Jminus: Operator

    @property
    def dim(self) -> int:
        return self.J3.dim

    def m_values(self) -> np.ndarray:
        return self.j - np.arange(self.dim)


def make_spin(j: float) -> SpinRep:
    """Build the spin-j representation; raising acts as
    J+|j,m> = sqrt((j-m)(j+m+1)) |j,m+1>."""
    two_j = check_half_integer(j)
    j = two_j / 2
    dim = two_j + 1
    m = j - np.arange(dim)
    jplus = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        jplus[k - 1, k] = np.sqrt((j - m[k]) * (j + m[k] + 1))
    jminus = jplus.conj().T
    j1 = (jplus + jminus) / 2
    j2 = (jplus - jminus) / 2j
    j3 = np.diag(m).astype(complex)
    return SpinRep(j, Operator(j1), Operator(j2), Operator(j3),
                   Operator(jplus), Operator(jminus))


@dataclass(frozen=True)
class OscillatorRep:
    """Truncated harmonic-oscillator operators with an untrusted edge buffer.

    All quadratics (x^2, K_i, ...) are products of the truncated x and p, so
    the canonical relations hold only on the interior block of size N - buffer.
    """

    N: int
    buffer: int
    a: Operator
    adag: Operator
    K1: Operator
    K2: Operator
    K3: Operator
    projector_interior: Operator

    @property
    def dim(self) -> int:
        return self.N


def default_buffer(n: int) -> int:
    return max(4, n // 8)


def check_truncation(N: int, buffer: int) -> None:
    """Raise ValueError unless N >= 8 and 1 <= buffer <= N/4."""
    if N < 8:
        raise ValueError(f"truncation dimension must be >= 8, got {N}")
    if not 1 <= buffer <= N // 4:
        raise ValueError(f"buffer must satisfy 1 <= buffer <= N/4, got {buffer}")


def make_oscillator(N: int, buffer: int | None = None) -> OscillatorRep:
    """Truncated Fock-space ladder, quadrature, and su(1,1) operators."""
    if buffer is None:
        buffer = default_buffer(N)
    check_truncation(N, buffer)
    a = np.diag(np.sqrt(np.arange(1, N, dtype=float)), 1).astype(complex)
    adag = a.conj().T
    x = (a + adag) / np.sqrt(2)
    p = 1j * (adag - a) / np.sqrt(2)
    k1 = (x @ x - p @ p) / 4
    k2 = -(x @ p + p @ x) / 4
    k3 = (x @ x + p @ p) / 4
    proj = np.diag((np.arange(N) < N - buffer).astype(complex))
    return OscillatorRep(N, buffer, Operator(a), Operator(adag), Operator(k1),
                         Operator(k2), Operator(k3), Operator(proj))

