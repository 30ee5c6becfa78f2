import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from susyinv.operators import (TAYLOR_THETA, DimensionMismatchError, NonHermitianError,
                               Operator, _is_diagonal, anticommutator, commutator, eigh,
                               expm, expm_i_hermitian, frobenius, identity, project,
                               unitarity_defect)
from susyinv.representations import make_oscillator, make_spin

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)


def random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Operator(np.zeros((2, 3)))

    def test_grading_must_split_dimension(self):
        with pytest.raises(ValueError):
            Operator(np.eye(4), grading=(1, 2))

    def test_entries_immutable(self):
        op = identity(3)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 2.0

    def test_block_structure_defects(self):
        n = 2
        q = np.zeros((4, 4), dtype=complex)
        q[n:, :n] = np.eye(n)
        odd = Operator(q, grading=(n, n))
        assert odd.odd_defect() == 0.0
        assert odd.even_defect() > 1.0
        even = identity(4, grading=(n, n))
        assert even.even_defect() == 0.0


class TestCommutators:
    def test_spin_half_su2(self):
        spin = make_spin(0.5)
        lhs = commutator(spin.J1, spin.J2)
        assert np.allclose(lhs.entries, 1j * spin.J3.entries, atol=1e-15)

    def test_self_commutator_zero(self):
        spin = make_spin(1.5)
        assert commutator(spin.J1, spin.J1).norm() == 0.0

    def test_truncated_su11_interior(self):
        from susyinv.representations import make_oscillator
        osc = make_oscillator(16, 4)
        lhs = commutator(osc.K2, osc.K3).entries - 1j * osc.K1.entries
        assert np.linalg.norm(osc.project_interior(lhs)) < 1e-12

    def test_pauli_anticommutator_vanishes(self):
        # Oracle: direct 2x2 multiplication.
        direct = SIGMA1 @ SIGMA2 + SIGMA2 @ SIGMA1
        assert np.allclose(direct, 0)
        assert anticommutator(Operator(SIGMA1), Operator(SIGMA2)).norm() < 1e-15

    def test_anticommutator_with_zero(self):
        a = Operator(random_complex(np.random.default_rng(3), 4))
        zero = Operator(np.zeros((4, 4)))
        assert anticommutator(a, zero).norm() == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            commutator(identity(2), identity(3))
        with pytest.raises(DimensionMismatchError):
            anticommutator(identity(2), identity(3))

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_hermitian_inputs_give_antihermitian_and_hermitian(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex(rng, 5)
        b = random_complex(rng, 5)
        ah = Operator(a + a.conj().T)
        bh = Operator(b + b.conj().T)
        comm = commutator(ah, bh)
        anti = anticommutator(ah, bh)
        assert (comm + comm.dag).norm() < 1e-12 * max(1.0, comm.norm())
        assert anti.hermiticity_defect() < 1e-12 * max(1.0, anti.norm())


class TestExpm:
    def test_expm_zero_is_identity(self):
        assert np.array_equal(expm(Operator(np.zeros((3, 3)))).entries, np.eye(3))

    def test_spin_half_rotation(self):
        # Oracle: closed-form 2x2 rotation exp(-i theta sigma2 / 2).
        spin = make_spin(0.5)
        got = expm(-1j * np.pi * spin.J2)
        assert np.allclose(got.entries, np.array([[0, -1], [1, 0]]), atol=1e-14)

    def test_diagonal_case(self):
        got = expm(Operator(np.diag([1j, 2j])))
        assert np.allclose(got.entries, np.diag([np.exp(1j), np.exp(2j)]), atol=1e-15)

    def test_antihermitian_gives_unitary(self):
        rng = np.random.default_rng(11)
        m = random_complex(rng, 6)
        anti = m - m.conj().T
        assert unitarity_defect(expm(Operator(anti))) < 1e-12

    @given(seed=st.integers(0, 10 ** 6), scale=st.floats(0.1, 50.0))
    @settings(max_examples=20, deadline=None)
    def test_inverse_identity_antihermitian(self, seed, scale):
        # Large-norm general matrices are ill-conditioned under e^A e^-A;
        # the identity at ||A|| up to 50 is meaningful for anti-Hermitian A.
        rng = np.random.default_rng(seed)
        m = random_complex(rng, 5)
        anti = m - m.conj().T
        anti *= scale / np.linalg.norm(anti)
        prod = expm(Operator(anti)) @ expm(Operator(-anti))
        assert np.allclose(prod.entries, np.eye(5), atol=1e-10)

    def test_inverse_identity_small_generic(self):
        rng = np.random.default_rng(7)
        m = random_complex(rng, 5)
        m *= 2.0 / np.linalg.norm(m)
        prod = expm(Operator(m)) @ expm(Operator(-m))
        assert np.allclose(prod.entries, np.eye(5), atol=1e-12)

    def test_non_normal_jordan_block(self):
        # Oracle: e^(lam 1 + tN) = e^lam sum_k (tN)^k / k! for the nilpotent
        # shift N. The block is far from normal, and its 1-norm (about 5.6)
        # takes the scaling-and-squaring branch.
        d, t, lam = 6, 5.0, -0.3 + 0.5j
        shift = np.diag(np.ones(d - 1), 1)
        expected = np.exp(lam) * sum(np.linalg.matrix_power(t * shift, k) / math.factorial(k)
                                     for k in range(d))
        got = expm(Operator(lam * np.eye(d) + t * shift)).entries
        assert np.max(np.abs(got - expected)) < 1e-13 * np.max(np.abs(expected))

    def test_non_finite_rejected(self):
        bad = np.eye(2, dtype=complex)
        bad = bad.copy()
        bad[0, 1] = np.nan
        with pytest.raises(ValueError):
            expm(Operator(bad))


def random_hermitian_stack(rng, n, d):
    x = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return (x + x.conj().swapaxes(-1, -2)) / 2


def one_norms(a):
    return np.abs(a).sum(axis=-2).max(axis=-1)


# Degree bands of the Pade approximant inside the scipy.linalg.expm reference
# (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179, Table 2.3): theta_m for
# m = 3, 5, 7, 9; above theta_9 it takes m = 13 with scaling and squaring.
REFERENCE_PADE_THETA = (1.495585217958292e-2, 2.539398330063230e-1,
                        9.504178996162932e-1, 2.097847961257068e0)


def check_against_scipy(largest, d):
    rng = np.random.default_rng(int(100 * largest) + d)
    h = random_hermitian_stack(rng, 6, d)
    taus = largest * np.linspace(0.25, 1.0, 6) / one_norms(h)
    assert np.max(taus * one_norms(h)) == pytest.approx(largest, rel=1e-12)
    got = expm_i_hermitian(h, taus)
    expected = np.stack([scipy.linalg.expm(-1j * t * m) for t, m in zip(taus, h)])
    assert got.shape == h.shape
    assert np.max(np.abs(got - expected)) < 1e-13
    assert np.max(unitarity_defect(got)) < 1e-13


class TestExpmIHermitian:
    # Largest tau * ||H||_1 of a stack and the band of the reference's Pade
    # degree it falls in: 0-3 select m = 3, 5, 7, 9, band 4 scales and squares.
    @pytest.mark.parametrize("largest, band", [(0.01, 0), (0.2, 1), (0.9, 2), (2.0, 3),
                                               (8.0, 4), (50.0, 4)])
    @pytest.mark.parametrize("d", [2, 7])
    def test_matches_scipy_and_is_unitary(self, largest, band, d):
        assert np.searchsorted(REFERENCE_PADE_THETA, largest) == band
        check_against_scipy(largest, d)

    # Largest tau * ||H||_1 of a stack and its band: 0-8 select the Taylor
    # degrees m = 2, 4, 6, 9, 12, 16, 20, 25, 30; band 9 lies above theta_30
    # and takes the scaling-and-squaring branch.
    @pytest.mark.parametrize("largest, band", [(1e-8, 0), (1e-4, 1), (5e-3, 2), (0.01, 3),
                                               (0.2, 4), (0.5, 5), (0.9, 6), (2.0, 7),
                                               (3.0, 8), (8.0, 9), (50.0, 9)])
    @pytest.mark.parametrize("d", [2, 7])
    def test_every_taylor_band_matches_scipy(self, largest, band, d):
        assert np.searchsorted(list(TAYLOR_THETA.values()), largest) == band
        check_against_scipy(largest, d)

    def test_all_diagonal_stack_is_exact_phases(self):
        values = np.array([[1.5, -0.5, 0.0], [2.0, 0.25, -3.0]])
        taus = np.array([0.1, 0.7])
        got = expm_i_hermitian(np.stack([np.diag(v) for v in values]), taus)
        expected = np.stack([np.diag(np.exp(-1j * t * v)) for t, v in zip(taus, values)])
        assert np.array_equal(got, expected)

    def test_mixed_diagonal_and_dense_stack(self):
        rng = np.random.default_rng(4)
        h = random_hermitian_stack(rng, 4, 5)
        h[1] = np.diag(rng.normal(size=5))
        h[3] = np.diag(rng.normal(size=5))
        taus = np.array([0.3, 0.4, 0.05, 1.1])
        got = expm_i_hermitian(h, taus)
        for k in (1, 3):
            assert np.array_equal(got[k], np.diag(np.exp(-1j * taus[k] * np.diag(h[k]).real)))
        for k in range(4):
            assert np.max(np.abs(got[k] - scipy.linalg.expm(-1j * taus[k] * h[k]))) < 1e-13
        assert np.max(unitarity_defect(got)) < 1e-13

    @pytest.mark.parametrize("d", [1, 2, 11, 128])
    def test_diagonal_view_matches_mask(self, d):
        # The strided view finds the same all-diagonal matrices as a boolean
        # mask over the off-diagonal entries, down to one entry next to the
        # last diagonal element.
        rng = np.random.default_rng(d)
        diagonal = np.stack([np.diag(v) for v in rng.normal(size=(3, d))]).astype(complex)
        stacks = [diagonal, random_hermitian_stack(rng, 3, d)]
        if d > 1:
            corner = diagonal.copy()
            corner[1, d - 2, d - 1] = 1e-300
            stacks.append(corner)
            assert _is_diagonal(corner).tolist() == [True, False, True]
        assert _is_diagonal(diagonal).all()
        for stack in stacks:
            mask = ~np.any(stack[:, ~np.eye(d, dtype=bool)], axis=1)
            assert np.array_equal(_is_diagonal(stack), mask)

    def test_single_matrix_and_stack_keep_their_shapes(self):
        rng = np.random.default_rng(9)
        h = random_hermitian_stack(rng, 3, 4)
        single = expm_i_hermitian(h[0], 0.2)
        assert single.shape == (4, 4)
        stacked = expm_i_hermitian(h, 0.2)
        assert stacked.shape == (3, 4, 4)
        assert np.max(np.abs(stacked[0] - single)) < 1e-15
        assert expm_i_hermitian(np.diag([1.0, 2.0]), 0.5).shape == (2, 2)


class TestEigh:
    def test_spin_half_invariant_spectrum(self):
        # 2 I+ = J- J+ has spectrum j(j+1) - m(m+1); I+ itself carries half.
        spin = make_spin(0.5)
        iplus = Operator(spin.Jminus.entries @ spin.Jplus.entries / 2)
        es = eigh(iplus)
        assert np.allclose(es.values, [0.0, 0.5], atol=1e-14)

    def test_spin_one_invariant_spectrum(self):
        spin = make_spin(1)
        jmjp = Operator(spin.Jminus.entries @ spin.Jplus.entries)
        assert np.allclose(eigh(jmjp).values, [0.0, 2.0, 2.0], atol=1e-13)

    def test_identity_single_group(self):
        es = eigh(identity(4))
        assert np.allclose(es.values, 1.0)
        assert es.degeneracy_groups == ((0, 1, 2, 3),)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        m = random_complex(rng, 8)
        h = Operator(m + m.conj().T)
        es = eigh(h)
        rebuilt = es.vectors @ np.diag(es.values) @ es.vectors.conj().T
        assert np.linalg.norm(rebuilt - h.entries) < 1e-10 * h.norm()
        assert np.linalg.norm(es.vectors.conj().T @ es.vectors - np.eye(8)) < 1e-12

    def test_blockdiag_union(self):
        rng = np.random.default_rng(6)
        a = random_complex(rng, 3)
        b = random_complex(rng, 4)
        ah, bh = a + a.conj().T, b + b.conj().T
        block = np.zeros((7, 7), dtype=complex)
        block[:3, :3], block[3:, 3:] = ah, bh
        union = np.sort(np.concatenate([eigh(Operator(ah)).values,
                                        eigh(Operator(bh)).values]))
        assert np.allclose(eigh(Operator(block)).values, union, atol=1e-10)

    def test_non_hermitian_rejected_with_defect(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonHermitianError) as err:
            eigh(Operator(m))
        assert err.value.defect > 0.1


def test_eigh_stack_rejects_one_non_hermitian_matrix():
    stack = np.tile(make_spin(1).J1.entries, (50, 1, 1))
    assert eigh(stack).values.shape == (50, 3)
    stack[31, 0, 2] += 1e-3
    with pytest.raises(NonHermitianError):
        eigh(stack)


class TestUnitarityDefect:
    def test_identity(self):
        assert unitarity_defect(identity(5)) == 0.0

    def test_rotation_any_angle(self):
        spin = make_spin(1.5)
        for theta in (0.3, 2.0, 11.0):
            assert unitarity_defect(expm(-1j * theta * spin.J2)) < 1e-12

    def test_scaled_identity(self):
        # Hand computation: ||4*1 - 1||_F = 3 sqrt(2).
        got = unitarity_defect(2 * identity(2))
        assert abs(got - 3 * np.sqrt(2)) < 1e-14


class TestProject:
    @pytest.mark.parametrize("projector", ["interior", "array", "none"])
    def test_masks_exactly_as_the_products(self, projector):
        # P M P with a diagonal 0/1 P adds only exact zeros to the kept entries.
        rng = np.random.default_rng(7)
        p = make_oscillator(32, 8).projector_interior
        stack = rng.normal(size=(5, 32, 32)) + 1j * rng.normal(size=(5, 32, 32))
        if projector == "none":
            assert project(stack, None) is stack
            return
        expected = p.entries @ stack @ p.entries
        got = project(stack, p if projector == "interior" else p.entries)
        assert got.shape == stack.shape
        assert np.array_equal(got, expected)
        assert np.array_equal(frobenius(got), frobenius(expected))

