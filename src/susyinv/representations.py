"""Concrete generator matrices: spin-j su(2) and truncated-Fock su(1,1).

Each representation gives its algebra's closed-form generators
(``generators``) and the projector onto the states its checks trust
(``projector_interior``), all read-only complex arrays. Spin matrices are exact: spin has no projector.
Oscillator operators live in a truncated Fock space; the top ``buffer``
states are declared untrusted and every oscillator-family check projects onto
the interior below them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import read_only


def check_half_integer(j: float) -> int:
    two_j = round(2 * j)
    if two_j < 0 or abs(2 * j - two_j) > 1e-12:
        raise ValueError(f"j must be a nonnegative half-integer, got {j}")
    return two_j


@dataclass(frozen=True)
class SpinRep:
    """Spin-j angular momentum matrices in the basis m = j, j-1, ..., -j."""

    j: float
    J1: np.ndarray
    J2: np.ndarray
    J3: np.ndarray
    Jplus: np.ndarray
    Jminus: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.J3)

    @property
    def generators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The su(2) generators of the closed form, (J1, J2, J3)."""
        return self.J1, self.J2, self.J3

    @property
    def projector_interior(self) -> None:
        """None: spin matrices are exact, so every check reads the whole space."""
        return None

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
    return SpinRep(j, *map(read_only, (j1, j2, j3, jplus, jminus)))


@dataclass(frozen=True)
class OscillatorRep:
    """Truncated harmonic-oscillator operators with an untrusted edge buffer.

    All quadratics (x^2, K_i, ...) are products of the truncated x and p, so
    the canonical relations hold only on the interior block of size N - buffer.
    """

    N: int
    buffer: int
    a: np.ndarray
    adag: np.ndarray
    K1: np.ndarray
    K2: np.ndarray
    K3: np.ndarray
    projector_interior: np.ndarray

    @property
    def dim(self) -> int:
        return self.N

    @property
    def generators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The su(1,1) generators of the closed form, (K1, K2, K3)."""
        return self.K1, self.K2, self.K3


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
    return OscillatorRep(N, buffer, *map(read_only, (a, adag, k1, k2, k3, proj)))

