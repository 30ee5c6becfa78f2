import numpy as np
import pytest

from susyinv import timefunc as tf
from susyinv.construction import oscillator_supersystem
from susyinv.operators import eigh
from susyinv.representations import make_oscillator, make_spin

ALL_J = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]


class TestSpin:
    def test_rejects_non_half_integer(self):
        with pytest.raises(ValueError):
            make_spin(0.7)
        with pytest.raises(ValueError):
            make_spin(-1)

    def test_basis_order(self):
        spin = make_spin(0.5)
        assert np.allclose(spin.J3.entries, np.diag([0.5, -0.5]))

    def test_raising_on_lowest_state(self):
        spin = make_spin(0.5)
        up, down = np.eye(2, dtype=complex)
        assert np.allclose(spin.Jplus.entries @ down, up)

    @pytest.mark.parametrize("j", ALL_J)
    def test_su2_algebra(self, j):
        spin = make_spin(j)
        pairs = [(spin.J1, spin.J2, spin.J3), (spin.J2, spin.J3, spin.J1),
                 (spin.J3, spin.J1, spin.J2)]
        for a, b, c in pairs:
            a, b, c = a.entries, b.entries, c.entries
            assert np.linalg.norm(a @ b - b @ a - 1j * c) < 1e-13

    @pytest.mark.parametrize("j", ALL_J)
    def test_ladder_and_structure(self, j):
        spin = make_spin(j)
        j1, j2, j3 = spin.J1.entries, spin.J2.entries, spin.J3.entries
        jplus, jminus = spin.Jplus.entries, spin.Jminus.entries
        assert np.linalg.norm(jplus - (j1 + 1j * j2)) < 1e-13
        assert np.linalg.norm(jplus - jminus.conj().T) == 0.0
        casimir = j1 @ j1 + j2 @ j2 + j3 @ j3
        assert np.linalg.norm(jminus @ jplus - (casimir - j3 @ j3 - j3)) < 1e-13

    @pytest.mark.parametrize("j", ALL_J)
    def test_casimir(self, j):
        spin = make_spin(j)
        generators = (spin.J1.entries, spin.J2.entries, spin.J3.entries)
        casimir = sum(ji @ ji for ji in generators)
        expected = j * (j + 1) * np.eye(spin.dim)
        assert np.allclose(casimir, expected, atol=1e-13)
        for ji in generators:
            assert np.linalg.norm(casimir @ ji - ji @ casimir) < 1e-13

    @pytest.mark.parametrize("j", ALL_J)
    def test_invariant_commutes_with_j3(self, j):
        spin = make_spin(j)
        jmjp = spin.Jminus.entries @ spin.Jplus.entries
        j3 = spin.J3.entries
        assert np.linalg.norm(jmjp @ j3 - j3 @ jmjp) < 1e-13

    def test_invariant_eigenvalues_spin_one(self):
        # J- J+ carries j(j+1) - m(m+1) = {0, 2, 2}; I+ = J- J+ / 2 carries half.
        spin = make_spin(1)
        es = eigh(spin.Jminus.entries @ spin.Jplus.entries / 2)
        assert np.allclose(es.values, [0.0, 1.0, 1.0], atol=1e-13)


class TestOscillator:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            make_oscillator(4)
        with pytest.raises(ValueError):
            make_oscillator(16, buffer=5)  # > N/4
        with pytest.raises(ValueError):
            make_oscillator(16, buffer=0)

    def test_number_operator(self):
        osc = make_oscillator(16, 4)
        n_op = osc.adag.entries @ osc.a.entries
        assert np.allclose(np.diag(n_op), np.arange(16))

    def test_canonical_commutator_interior(self):
        osc = make_oscillator(16, 4)
        a, adag = osc.a.entries, osc.adag.entries
        defect = a @ adag - adag @ a - np.eye(16)
        p = osc.projector_interior.entries
        assert np.linalg.norm(p @ defect @ p) < 1e-12

    @pytest.mark.parametrize("n", [16, 64])
    def test_su11_relations_interior(self, n):
        osc = make_oscillator(n)
        relations = [(osc.K1, osc.K2, -1j * osc.K3.entries),
                     (osc.K2, osc.K3, 1j * osc.K1.entries),
                     (osc.K3, osc.K1, 1j * osc.K2.entries)]
        p = osc.projector_interior.entries
        for a, b, rhs in relations:
            a, b = a.entries, b.entries
            defect = a @ b - b @ a - rhs
            assert np.linalg.norm(p @ defect @ p) < 1e-12

    def test_quadrature_definitions(self):
        # The K_i are built from x = (a + a^dag) / sqrt 2 and p = i (a^dag - a) / sqrt 2,
        # so they take the ladder forms K1 = (a^2 + a^dag^2) / 4,
        # K2 = i (a^2 - a^dag^2) / 4 and K3 = (a a^dag + a^dag a) / 4.
        osc = make_oscillator(16, 4)
        a, adag = osc.a.entries, osc.adag.entries
        assert np.allclose(osc.K1.entries, (a @ a + adag @ adag) / 4, atol=1e-14)
        assert np.allclose(osc.K2.entries, 1j * (a @ a - adag @ adag) / 4, atol=1e-14)
        assert np.allclose(osc.K3.entries, (a @ adag + adag @ a) / 4, atol=1e-14)

    @staticmethod
    def unit_oscillator(osc):
        """H = a^dag a + 1/2 from the truncated ladder operators."""
        return osc.adag.entries @ osc.a.entries + 0.5 * np.eye(osc.N)

    @staticmethod
    def plus_sector(osc):
        zero = tf.const(0.0)
        return oscillator_supersystem(osc, zero, zero, zero)

    def test_hamiltonian_interior_spectrum(self):
        # The plus sector's energies are the spectrum of a^dag a + 1/2, which
        # is diagonal in the Fock basis.
        osc = make_oscillator(16, 4)
        h = self.unit_oscillator(osc)
        system = self.plus_sector(osc)
        assert np.allclose(system.h_plus, h, atol=1e-13)
        interior = np.diag(h).real[:12]
        assert np.allclose(system.plus_energies[:12], interior, atol=1e-13)
        assert np.allclose(interior, np.arange(12) + 0.5, atol=1e-13)

    def test_energy_expectation(self):
        osc = make_oscillator(32, 4)
        psi = np.zeros(32, dtype=complex)
        psi[5] = 1.0
        system = self.plus_sector(osc)
        for h in (system.h_plus, self.unit_oscillator(osc)):
            value = np.real(np.vdot(psi, h @ psi))
            assert abs(value - 5.5) < 1e-13

