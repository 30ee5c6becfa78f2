import numpy as np
import pytest

from susyinv.operators import commutator, eigh
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
        got = spin.Jplus.entries @ spin.basis_state(-0.5)
        assert np.allclose(got, spin.basis_state(0.5))

    @pytest.mark.parametrize("j", ALL_J)
    def test_su2_algebra(self, j):
        spin = make_spin(j)
        pairs = [(spin.J1, spin.J2, spin.J3), (spin.J2, spin.J3, spin.J1),
                 (spin.J3, spin.J1, spin.J2)]
        for a, b, c in pairs:
            assert (commutator(a, b) - 1j * c).norm() < 1e-13

    @pytest.mark.parametrize("j", ALL_J)
    def test_ladder_and_structure(self, j):
        spin = make_spin(j)
        assert (spin.Jplus - (spin.J1 + 1j * spin.J2)).norm() < 1e-13
        assert (spin.Jplus - spin.Jminus.dag).norm() == 0.0
        jmjp = spin.Jminus @ spin.Jplus
        structural = spin.Jsquared - spin.J3 @ spin.J3 - spin.J3
        assert (jmjp - structural).norm() < 1e-13

    @pytest.mark.parametrize("j", ALL_J)
    def test_casimir(self, j):
        spin = make_spin(j)
        expected = j * (j + 1) * np.eye(spin.dim)
        assert np.allclose(spin.Jsquared.entries, expected, atol=1e-13)
        for ji in (spin.J1, spin.J2, spin.J3):
            assert commutator(spin.Jsquared, ji).norm() < 1e-13

    @pytest.mark.parametrize("j", ALL_J)
    def test_invariant_commutes_with_j3(self, j):
        spin = make_spin(j)
        jmjp = spin.Jminus @ spin.Jplus
        assert commutator(jmjp, spin.J3).norm() < 1e-13

    def test_invariant_eigenvalues_spin_one(self):
        # J- J+ carries j(j+1) - m(m+1) = {0, 2, 2}; I+ = J- J+ / 2 carries half.
        spin = make_spin(1)
        es = eigh(spin.Jminus @ spin.Jplus / 2)
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
        n_op = osc.number_op().entries
        assert np.allclose(np.diag(n_op), np.arange(16))

    def test_canonical_commutator_interior(self):
        osc = make_oscillator(16, 4)
        defect = (osc.a @ osc.adag - osc.adag @ osc.a).entries - np.eye(16)
        assert np.linalg.norm(osc.project_interior(defect)) < 1e-12

    @pytest.mark.parametrize("n", [16, 64])
    def test_su11_relations_interior(self, n):
        osc = make_oscillator(n)
        relations = [(osc.K1, osc.K2, -1j * osc.K3.entries),
                     (osc.K2, osc.K3, 1j * osc.K1.entries),
                     (osc.K3, osc.K1, 1j * osc.K2.entries)]
        for a, b, rhs in relations:
            defect = commutator(a, b).entries - rhs
            assert np.linalg.norm(osc.project_interior(defect)) < 1e-12

    def test_quadrature_definitions(self):
        osc = make_oscillator(16, 4)
        a_from_xp = (osc.x.entries + 1j * osc.p.entries) / np.sqrt(2)
        assert np.allclose(a_from_xp, osc.a.entries, atol=1e-14)

    def test_hamiltonian_interior_spectrum(self):
        osc = make_oscillator(16, 4)
        h = osc.hamiltonian_plus().entries
        interior = np.diag(h).real[:12]
        assert np.allclose(interior, np.arange(12) + 0.5, atol=1e-13)

    def test_energy_expectation(self):
        osc = make_oscillator(32, 4)
        psi = np.zeros(32, dtype=complex)
        psi[5] = 1.0
        value = np.real(np.vdot(psi, osc.hamiltonian_plus().entries @ psi))
        assert abs(value - 5.5) < 1e-13

