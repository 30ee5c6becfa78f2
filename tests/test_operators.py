import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from susyinv.operators import (TAYLOR_THETA, NonFiniteMatrixError, NonHermitianError, Operator,
                               SingularMatrixError, _taylor_expm, dagger, eigh, eigvalsh,
                               expm_i_hermitian, frobenius, polar_unitary, project,
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

    def test_entries_immutable(self):
        op = Operator(np.eye(3))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 2.0


class TestCommutators:
    def test_spin_half_su2(self):
        spin = make_spin(0.5)
        j1, j2 = spin.J1, spin.J2
        assert np.allclose(j1 @ j2 - j2 @ j1, 1j * spin.J3, atol=1e-15)

    def test_truncated_su11_interior(self):
        osc = make_oscillator(16, 4)
        k2, k3 = osc.K2, osc.K3
        lhs = k2 @ k3 - k3 @ k2 - 1j * osc.K1
        p = osc.projector_interior
        assert np.linalg.norm(p @ lhs @ p) < 1e-12

    def test_pauli_anticommutator_vanishes(self):
        # Oracle: direct 2x2 multiplication; the spin-1/2 generators are sigma / 2.
        direct = SIGMA1 @ SIGMA2 + SIGMA2 @ SIGMA1
        assert np.allclose(direct, 0)
        spin = make_spin(0.5)
        assert np.array_equal(2 * spin.J1, SIGMA1)
        assert np.array_equal(2 * spin.J2, SIGMA2)
        j1, j2 = spin.J1, spin.J2
        assert np.linalg.norm(j1 @ j2 + j2 @ j1) < 1e-15


def expm(m):
    """e^M of one matrix by the package's one exponential, ``_taylor_expm``."""
    return _taylor_expm(np.asarray(m, dtype=complex)[None])[0]


class TestExpm:
    def test_expm_zero_is_identity(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_spin_half_rotation(self):
        # Oracle: closed-form 2x2 rotation exp(-i theta sigma2 / 2).
        spin = make_spin(0.5)
        got = expm(-1j * np.pi * spin.J2)
        assert np.allclose(got, np.array([[0, -1], [1, 0]]), atol=1e-14)

    def test_diagonal_case(self):
        got = expm(np.diag([1j, 2j]))
        assert np.allclose(got, np.diag([np.exp(1j), np.exp(2j)]), atol=1e-15)

    def test_antihermitian_gives_unitary(self):
        rng = np.random.default_rng(11)
        m = random_complex(rng, 6)
        anti = m - m.conj().T
        assert unitarity_defect(expm(anti)) < 1e-12

    @given(seed=st.integers(0, 10 ** 6), scale=st.floats(0.1, 50.0))
    @settings(max_examples=20, deadline=None)
    def test_inverse_identity_antihermitian(self, seed, scale):
        # Large-norm general matrices are ill-conditioned under e^A e^-A;
        # the identity at ||A|| up to 50 is meaningful for anti-Hermitian A.
        rng = np.random.default_rng(seed)
        m = random_complex(rng, 5)
        anti = m - m.conj().T
        anti *= scale / np.linalg.norm(anti)
        prod = expm(anti) @ expm(-anti)
        assert np.allclose(prod, np.eye(5), atol=1e-10)

    def test_inverse_identity_small_generic(self):
        rng = np.random.default_rng(7)
        m = random_complex(rng, 5)
        m *= 2.0 / np.linalg.norm(m)
        prod = expm(m) @ expm(-m)
        assert np.allclose(prod, np.eye(5), atol=1e-12)

    def test_non_normal_jordan_block(self):
        # Oracle: e^(lam 1 + tN) = e^lam sum_k (tN)^k / k! for the nilpotent
        # shift N. The block is far from normal, and its 1-norm (about 5.6)
        # takes the scaling-and-squaring branch.
        d, t, lam = 6, 5.0, -0.3 + 0.5j
        shift = np.diag(np.ones(d - 1), 1)
        expected = np.exp(lam) * sum(np.linalg.matrix_power(t * shift, k) / math.factorial(k)
                                     for k in range(d))
        got = expm(lam * np.eye(d) + t * shift)
        assert np.max(np.abs(got - expected)) < 1e-13 * np.max(np.abs(expected))


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

    def test_mixed_diagonal_and_dense_stack(self):
        rng = np.random.default_rng(4)
        h = random_hermitian_stack(rng, 4, 5)
        h[1] = np.diag(rng.normal(size=5))
        h[3] = np.diag(rng.normal(size=5))
        taus = np.array([0.3, 0.4, 0.05, 1.1])
        got = expm_i_hermitian(h, taus)
        for k in range(4):
            assert np.max(np.abs(got[k] - scipy.linalg.expm(-1j * taus[k] * h[k]))) < 1e-13
        assert np.max(unitarity_defect(got)) < 1e-13

    @pytest.mark.parametrize("bad", [[[np.inf, 0.0], [0.0, 1.0]], [[np.inf, 1.0], [1.0, 0.0]],
                                     [[np.nan, 0.0], [0.0, 1.0]]],
                             ids=["diagonal-inf", "dense-inf", "diagonal-nan"])
    def test_non_finite_matrix_raises_with_no_warning(self, bad):
        # The suite turns RuntimeWarning into an error, so a warning fails here.
        stack = np.stack([np.eye(2), np.asarray(bad)]).astype(complex)
        with pytest.raises(NonFiniteMatrixError, match="matrix 1 of the stack"):
            expm_i_hermitian(stack, 0.1)

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
        iplus = spin.Jminus @ spin.Jplus / 2
        es = eigh(iplus)
        assert np.allclose(es.values, [0.0, 0.5], atol=1e-14)

    def test_spin_one_invariant_spectrum(self):
        spin = make_spin(1)
        jmjp = spin.Jminus @ spin.Jplus
        assert np.allclose(eigh(jmjp).values, [0.0, 2.0, 2.0], atol=1e-13)

    def test_identity_single_group(self):
        es = eigh(np.eye(4))
        assert np.allclose(es.values, 1.0)
        assert es.degeneracy_groups == ((0, 1, 2, 3),)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        m = random_complex(rng, 8)
        h = m + m.conj().T
        es = eigh(h)
        rebuilt = es.vectors @ np.diag(es.values) @ es.vectors.conj().T
        assert np.linalg.norm(rebuilt - h) < 1e-10 * np.linalg.norm(h)
        assert np.linalg.norm(es.vectors.conj().T @ es.vectors - np.eye(8)) < 1e-12

    def test_blockdiag_union(self):
        rng = np.random.default_rng(6)
        a = random_complex(rng, 3)
        b = random_complex(rng, 4)
        ah, bh = a + a.conj().T, b + b.conj().T
        block = np.zeros((7, 7), dtype=complex)
        block[:3, :3], block[3:, 3:] = ah, bh
        union = np.sort(np.concatenate([eigh(ah).values, eigh(bh).values]))
        assert np.allclose(eigh(block).values, union, atol=1e-10)

    def test_non_hermitian_rejected_with_defect(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonHermitianError) as err:
            eigh(m)
        assert err.value.defect > 0.1


def test_eigh_stack_rejects_one_non_hermitian_matrix():
    stack = np.tile(make_spin(1).J1, (50, 1, 1))
    assert eigh(stack).values.shape == (50, 3)
    stack[31, 0, 2] += 1e-3
    with pytest.raises(NonHermitianError):
        eigh(stack)


def test_eigvalsh_is_eigh_values_with_its_guard():
    stack = np.tile(make_spin(1).J1, (50, 1, 1))
    assert np.allclose(eigvalsh(stack), eigh(stack).values, rtol=0, atol=1e-15)
    stack[31, 0, 2] += 1e-3
    with pytest.raises(NonHermitianError):
        eigvalsh(stack)


class TestUnitarityDefect:
    def test_identity(self):
        assert unitarity_defect(np.eye(5)) == 0.0

    def test_rotation_any_angle(self):
        spin = make_spin(1.5)
        for theta in (0.3, 2.0, 11.0):
            assert unitarity_defect(expm(-1j * theta * spin.J2)) < 1e-12

    def test_scaled_identity(self):
        # Hand computation: ||4*1 - 1||_F = 3 sqrt(2).
        got = unitarity_defect(2 * np.eye(2))
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
        expected = p @ stack @ p
        got = project(stack, p if projector == "interior" else np.array(p))
        assert got.shape == stack.shape
        assert np.array_equal(got, expected)
        assert np.array_equal(frobenius(got), frobenius(expected))


def svd_polar(m):
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def polar_inputs(kind, k):
    """A (400, k, k) stack: Gaussian, or unitary times (1 + 1e-3 X) like an overlap."""
    rng = np.random.default_rng(40 + k)
    z = rng.normal(size=(400, k, k)) + 1j * rng.normal(size=(400, k, k))
    if kind == "generic":
        return z
    q = np.linalg.qr(z)[0]
    x = rng.normal(size=(400, k, k)) + 1j * rng.normal(size=(400, k, k))
    return q @ (np.eye(k) + 1e-3 * x)


class TestPolarUnitary:
    @pytest.mark.parametrize("kind", ["generic", "near_unitary"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_closed_form_matches_svd(self, k, kind, monkeypatch):
        m = polar_inputs(kind, k)
        expected = svd_polar(m)
        monkeypatch.setattr(np.linalg, "svd", None)   # k <= 2 makes no LAPACK call
        got = polar_unitary(m)
        assert got.shape == m.shape
        assert np.max(np.abs(got - expected)) <= 1e-13
        single = polar_unitary(m[7])
        assert single.shape == (k, k)
        assert np.max(np.abs(single - expected[7])) <= 1e-13

    @pytest.mark.parametrize("kind", ["generic", "near_unitary"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_unitary_with_positive_definite_factor(self, k, kind):
        m = polar_inputs(kind, k)
        u = polar_unitary(m)
        assert np.max(unitarity_defect(u)) <= 1e-14
        p = dagger(u) @ m
        scale = frobenius(m)
        assert np.all(frobenius(p - dagger(p)) <= 1e-13 * scale)
        assert np.all(np.linalg.eigvalsh((p + dagger(p)) / 2) > 0)

    @pytest.mark.parametrize("kind", ["generic", "near_unitary"])
    def test_k1_modulus_within_one_ulp(self, kind):
        # m / |m| alone reads |u|^2 - 1 up to 6e-16 here; a holonomy multiplies
        # thousands of such factors, so the modulus is corrected to 2.2e-16.
        u = polar_unitary(polar_inputs(kind, 1) * np.linspace(1e-3, 1e3, 400)[:, None, None])
        re, im = np.abs(u.real), np.abs(u.imag)
        big, small = np.maximum(re, im), np.minimum(re, im)
        assert np.max(np.abs((big - 1) * (big + 1) + small * small)) <= 3e-16

    def test_k3_is_the_svd_product(self):
        m = polar_inputs("generic", 3)
        assert np.array_equal(polar_unitary(m), svd_polar(m))
        assert np.array_equal(polar_unitary(m[3]), svd_polar(m[3]))

    @pytest.mark.parametrize("m, index", [
        (np.zeros((1, 1)), None),
        (np.array([[1.0, 2.0], [0.5, 1.0]]), None),
        (np.stack([np.eye(2), np.outer([1, 1j], [2, -1]), np.eye(2)]), 1),
        (np.stack([np.eye(3), np.diag([1.0, 1.0, 0.0])]), 1),
        (np.array([[[1.0]], [[np.nan]]]), 1),
    ], ids=["zero_1x1", "rank_1_2x2", "rank_1_2x2_in_stack", "rank_2_3x3_in_stack",
            "nan_1x1"])
    def test_singular_rejected(self, m, index):
        with pytest.raises(SingularMatrixError) as err:
            polar_unitary(m)
        where = "" if index is None else f" (matrix {index} of the stack)"
        assert f"no unique polar factor{where}:" in str(err.value)

    @pytest.mark.parametrize("top", [0.5, 3e8])
    @pytest.mark.parametrize("k", [2, 3])
    def test_guard_threshold(self, k, top):
        # diag(top, ..., s): singular iff s <= 1e-8 * max(1, ||M||_F).
        limit = 1e-8 * max(1.0, top * np.sqrt(k - 1))
        with pytest.raises(SingularMatrixError):
            polar_unitary(np.diag([top] * (k - 1) + [0.9 * limit]))
        u = polar_unitary(np.diag([top] * (k - 1) + [1.1 * limit]))
        assert np.max(np.abs(u - np.eye(k))) <= 1e-15
