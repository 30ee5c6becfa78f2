import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyinv import susy
from susyinv.operators import SingularMatrixError, polar_unitary
from susyinv.representations import make_oscillator, make_spin
from susyinv.susy import (PairingAmbiguityError, SuperInvariant, build_invariant,
                          build_supercharge, check_superalgebra, pair_spectra)


def random_d(seed, n):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def per_level(pairing):
    """(lam, I+ frame, I- frame, v) of every level, ascending in lam."""
    rows = [row for lv in pairing.by_size for row in zip(lv.lam, lv.plus, lv.minus, lv.v)]
    return sorted(rows, key=lambda row: row[0])


class TestSupercharge:
    def test_zero_d(self):
        q = build_supercharge(np.zeros((3, 3)))
        inv = build_invariant(q)
        assert np.linalg.norm(inv.Iplus) == 0.0 and np.linalg.norm(inv.Iminus) == 0.0
        assert check_superalgebra(q, inv).max_residual() == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            build_supercharge(np.zeros((2, 3)))

    def test_spin_half_blocks(self):
        # {Q, Q^dag} = 2I = blockdiag(J- J+, J+ J-) for d = J+.
        spin = make_spin(0.5)
        inv = build_invariant(build_supercharge(spin.Jplus))
        jmjp = spin.Jminus @ spin.Jplus
        jpjm = spin.Jplus @ spin.Jminus
        assert np.allclose(2 * inv.Iplus, jmjp, atol=1e-15)
        assert np.allclose(2 * inv.Iminus, jpjm, atol=1e-15)
        assert np.allclose(inv.Iplus, np.diag([0.0, 0.5]), atol=1e-15)


class TestInvariant:
    def test_identity_d(self):
        inv = build_invariant(build_supercharge(np.eye(3)))
        assert np.allclose(inv.Iplus, np.eye(3) / 2)
        assert np.allclose(inv.Iminus, np.eye(3) / 2)

    def test_spin_one_shared_positive_spectrum(self):
        spin = make_spin(1)
        inv = build_invariant(build_supercharge(spin.Jplus))
        plus = np.sort(np.linalg.eigvalsh(inv.Iplus))
        minus = np.sort(np.linalg.eigvalsh(inv.Iminus))
        assert np.allclose(plus, [0.0, 1.0, 1.0], atol=1e-13)
        assert np.allclose(minus, [0.0, 1.0, 1.0], atol=1e-13)

    def test_oscillator_kernel(self):
        osc = make_oscillator(16, 4)
        inv = build_invariant(build_supercharge(osc.adag))
        # I- = a^dag a / 2 annihilates the ground state.
        ground = np.zeros(16, dtype=complex)
        ground[0] = 1.0
        assert np.linalg.norm(inv.Iminus @ ground) < 1e-15

    def test_positive_semidefinite(self):
        inv = build_invariant(build_supercharge(random_d(9, 6)))
        assert np.linalg.eigvalsh(inv.Iplus).min() >= -1e-12
        assert np.linalg.eigvalsh(inv.Iminus).min() >= -1e-12


class TestSuperalgebra:
    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0])
    def test_spin_ladders(self, j):
        spin = make_spin(j)
        q = build_supercharge(spin.Jplus)
        report = check_superalgebra(q, build_invariant(q))
        assert report.max_residual() < 1e-12

    def test_random_charges(self):
        for seed in range(20):
            q = build_supercharge(random_d(seed, 8))
            report = check_superalgebra(q, build_invariant(q))
            assert report.max_residual() < 1e-12

    def test_tampered_invariant_detected(self):
        spin = make_spin(0.5)
        q = build_supercharge(spin.Jplus)
        inv = build_invariant(q)
        bad = SuperInvariant(inv.Iplus + 0.1 * np.eye(2), inv.Iminus, inv.d)
        report = check_superalgebra(q, bad)
        assert report.closure > 0.1
        assert report.invariance > 0.05

    @pytest.mark.parametrize("seed", [3, 11])
    def test_blocks_match_doubled_space(self, seed):
        # Reference: Q = ((0, 0), (d, 0)) and I = blockdiag(I+, I-) as 2N x 2N
        # matrices, with a perturbed I so that both residuals are far from zero.
        n = 6
        d = random_d(seed, n)
        inv = build_invariant(build_supercharge(d))
        bad = SuperInvariant(inv.Iplus + random_d(seed + 1, n) * 1e-3,
                             inv.Iminus, d)
        q = np.zeros((2 * n, 2 * n), dtype=complex)
        q[n:, :n] = d
        i = np.zeros((2 * n, 2 * n), dtype=complex)
        i[:n, :n], i[n:, n:] = bad.Iplus, bad.Iminus
        qh = q.conj().T
        report = check_superalgebra(build_supercharge(d), bad)
        assert report.invariance == pytest.approx(np.linalg.norm(q @ i - i @ q), rel=1e-12)
        assert report.closure == pytest.approx(np.linalg.norm(q @ qh + qh @ q - 2 * i),
                                               rel=1e-12)
        assert bad.norm() == pytest.approx(np.linalg.norm(i), rel=1e-15)


class TestPairing:
    def test_spin_half(self):
        inv = build_invariant(build_supercharge(make_spin(0.5).Jplus))
        pairing = pair_spectra(inv)
        assert pairing.shared_positive_values == pytest.approx([0.5])
        assert pairing.degeneracies == (1,)
        assert (pairing.kernel_dim_plus, pairing.kernel_dim_minus) == (1, 1)

    def test_spin_one_degenerate_level(self):
        inv = build_invariant(build_supercharge(make_spin(1).Jplus))
        pairing = pair_spectra(inv)
        assert pairing.shared_positive_values == pytest.approx([1.0])
        assert pairing.degeneracies == (2,)

    def test_identity_d_single_level(self):
        inv = build_invariant(build_supercharge(np.eye(4)))
        pairing = pair_spectra(inv)
        assert pairing.shared_positive_values == pytest.approx([0.5])
        assert pairing.degeneracies == (4,)
        v = pairing.by_size[0].v[0]
        assert np.linalg.norm(v.conj().T @ v - np.eye(4)) < 1e-12

    def test_oscillator_interior_levels(self):
        osc = make_oscillator(32, 4)
        inv = build_invariant(build_supercharge(osc.adag))
        pairing = pair_spectra(inv)
        values = np.repeat(pairing.shared_positive_values, pairing.degeneracies)
        interior = values[values < (32 - 4) / 2]
        assert np.allclose(np.sort(interior),
                           (np.arange(interior.size) + 1) / 2, atol=1e-12)
        assert all(d == 1 for d in pairing.degeneracies)

    def test_pairing_relation_holds(self):
        # d |lam,a,+> = sqrt(2 lam) sum_b v_ba |lam,b,->
        inv = build_invariant(build_supercharge(random_d(4, 7)))
        pairing = pair_spectra(inv)
        d = inv.d
        for lam, vp, vm, v in per_level(pairing):
            assert np.linalg.norm(d @ vp - np.sqrt(2 * lam) * vm @ v) < 1e-10
            assert np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])) < 1e-10

    def test_stacked_factors_match_per_level_calls(self):
        # Levels of sizes 1, 1, 2 and 3 and a kernel: the factors taken one
        # stack per level size are the per-level polar factors, bit for bit.
        rng = np.random.default_rng(7)
        u, v = (np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))[0]
                for _ in range(2))
        d = u @ np.diag([0.5, 0.5, 0.5, 1.0, 1.0, 2.0, 3.0, 0.0]) @ v.conj().T
        pairing = pair_spectra(build_invariant(build_supercharge(d)))
        assert pairing.degeneracies == (3, 2, 1, 1)
        assert [lv.v.shape[1] for lv in pairing.by_size] == [1, 2, 3]
        for lam, vp, vm, factor in per_level(pairing):
            overlap = vm.conj().T @ d @ vp / np.sqrt(2 * lam)
            assert np.array_equal(factor, polar_unitary(overlap))

    def test_singular_overlap_names_its_level(self, monkeypatch):
        # The 1x1 stack holds levels 2 and 4.5; its matrix 1 is level 4.5, not
        # the fourth level or the second matrix overall.
        rng = np.random.default_rng(7)
        u, v = (np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))[0]
                for _ in range(2))
        d = u @ np.diag([0.5, 0.5, 0.5, 1.0, 1.0, 2.0, 3.0, 0.0]) @ v.conj().T

        def singular_second_1x1(stack):
            if stack.shape[1] == 1:
                raise SingularMatrixError(0.0, 1e-12, index=1)
            return polar_unitary(stack)

        monkeypatch.setattr(susy, "polar_unitary", singular_second_1x1)
        with pytest.raises(SingularMatrixError, match=r"\(level 4\.5\)") as caught:
            pair_spectra(build_invariant(build_supercharge(d)))
        assert "of the stack" not in str(caught.value)

    def test_ambiguous_zero_threshold_rejected(self):
        d = np.diag([6e-5, 1.0]).astype(complex)
        with pytest.raises(PairingAmbiguityError):
            pair_spectra(build_invariant(build_supercharge(d)))


class TestSusyMap:
    # d / sqrt(2 lam) maps each positive-level eigenvector of I+ onto the span of
    # its I- partner level; pair_spectra returns both frames and the unitary v.
    def test_spin_half_map(self):
        # Brute-force 2x2 oracle: I+ |down> = (1/2)|down>, J+ |down> = |up>.
        spin = make_spin(0.5)
        pairing = pair_spectra(build_invariant(build_supercharge(spin.Jplus)))
        _, vp, vm, v = per_level(pairing)[0]
        up, down = np.eye(2, dtype=complex)
        assert abs(np.vdot(down, vp[:, 0])) == pytest.approx(1.0)
        mapped = spin.Jplus @ vp / np.sqrt(2 * 0.5)
        assert np.allclose(mapped, vm @ v, atol=1e-14)
        assert abs(np.vdot(up, mapped[:, 0])) == pytest.approx(1.0)

    def test_oscillator_ladder(self):
        # d = a^dag: the level (n + 1) / 2 pairs |n> in I+ with |n + 1> in I-.
        osc = make_oscillator(16, 4)
        pairing = pair_spectra(build_invariant(build_supercharge(osc.adag)))
        n = 3
        k = pairing.shared_positive_values.index(pytest.approx((n + 1) / 2))
        _, vp, vm, v = per_level(pairing)[k]
        fock_n, fock_n1 = np.eye(16, dtype=complex)[n], np.eye(16, dtype=complex)[n + 1]
        assert abs(np.vdot(fock_n, vp[:, 0])) == pytest.approx(1.0)
        mapped = osc.adag @ vp / np.sqrt(n + 1)
        assert np.allclose(mapped, vm @ v, atol=1e-14)
        assert abs(np.vdot(fock_n1, mapped[:, 0])) == pytest.approx(1.0)


@given(seed=st.integers(0, 10 ** 6), n=st.integers(2, 12))
@settings(max_examples=60, deadline=None)
def test_positive_spectra_agree_for_random_d(seed, n):
    d = random_d(seed, n)
    plus = np.linalg.eigvalsh(d.conj().T @ d / 2)
    minus = np.linalg.eigvalsh(d @ d.conj().T / 2)
    scale = max(1.0, plus.max(initial=0.0))
    assert np.allclose(np.sort(plus), np.sort(minus), atol=1e-10 * scale)


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_adjoint_map_round_trip(seed):
    d = random_d(seed, 6)
    inv = build_invariant(build_supercharge(d))
    pairing = pair_spectra(inv)
    if not pairing.shared_positive_values:
        return
    lam, vp = per_level(pairing)[-1][:2]
    psi = vp[:, 0]
    mapped = d @ psi / np.sqrt(2 * lam)
    assert abs(np.linalg.norm(mapped) - 1.0) < 1e-10
    back = d.conj().T @ mapped / np.sqrt(2 * lam)
    assert abs(abs(np.vdot(back, psi)) - 1.0) < 1e-10


def test_witten_index_count():
    # dim Ker(I+) - dim Ker(I-) = dim Ker(d) - dim Ker(d^dag)
    rng = np.random.default_rng(17)
    base = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    base[:, 0] = 0  # one right-kernel direction
    pairing = pair_spectra(build_invariant(build_supercharge(base)))
    rank = np.linalg.matrix_rank(base)
    assert pairing.kernel_dim_plus - pairing.kernel_dim_minus == \
        (5 - rank) - (5 - rank)
    assert pairing.kernel_dim_plus == 5 - rank
