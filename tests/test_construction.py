import numpy as np
import pytest

from susyinv import timefunc as tf
from susyinv import construction
from susyinv.construction import (GaugeCurve, YSpec, closed_form_osc_R, closed_form_spin_R,
                                  evolution_from_gauge, hamiltonian_from_gauge,
                                  oscillator_supersystem, precessing_special_case,
                                  quadrupole_partner, run_prescription,
                                  spin_supersystem)
from susyinv.operators import EigenSystem, NonHermitianError, dagger, unitarity_defect
from susyinv.representations import make_oscillator, make_spin


def fd_gauge_hamiltonian(w_of_t, y_of_t, t, h=1e-6):
    """Finite-difference oracle for W Y W^dag - i W dW^dag/dt."""
    w = w_of_t(t)
    wdot = (w_of_t(t + h) - w_of_t(t - h)) / (2 * h)
    return w @ y_of_t(t) @ w.conj().T - 1j * (w @ wdot.conj().T)


class Spike:
    """Time-function stub: ``base`` everywhere except ``value`` at the time ``at``."""

    def __init__(self, base, at, value):
        self.base, self.at, self.value = base, at, value

    def __call__(self, t):
        return np.where(np.asarray(t) == self.at, self.value, self.base(t))

    def derivative(self):
        return self.base.derivative()


@pytest.fixture
def spin_setup():
    spin = make_spin(1)
    theta = tf.parse("0.7 + 0.3*sin(1.3*t)")
    phi = tf.parse("0.4*t + 0.2*cos(0.9*t)")
    f = tf.parse("0.5 + 0.1*sin(2*t)")
    return spin, theta, phi, f


class TestGaugeCurve:
    def test_identity_at_start_when_theta_vanishes(self, spin_setup):
        spin, _, phi, _ = spin_setup
        gauge = GaugeCurve.spin(spin, tf.parse("0.5*sin(t)"), phi)
        assert gauge.identity_start_defect() < 1e-12

    def test_offset_start_reported(self, spin_setup):
        spin, theta, phi, _ = spin_setup
        gauge = GaugeCurve.spin(spin, theta, phi)
        assert gauge.identity_start_defect() > 0.1

    def test_unitary_on_grid(self, spin_setup):
        spin, theta, phi, _ = spin_setup
        gauge = GaugeCurve.spin(spin, theta, phi)
        for t in np.linspace(0, 8, 17):
            assert unitarity_defect(gauge.value(t)) < 1e-10

    def test_exact_derivative_matches_fd(self, spin_setup):
        spin, theta, phi, _ = spin_setup
        gauge = GaugeCurve.spin(spin, theta, phi)
        for t in (0.4, 2.1):
            fd = (gauge.value(t + 1e-6).entries - gauge.value(t - 1e-6).entries) / 2e-6
            assert np.linalg.norm(gauge.derivative(t).entries - fd) < 1e-8


class TestYSpec:
    def test_commutes_with_reference_invariant(self, spin_setup):
        spin, _, _, f = spin_setup
        y = YSpec(spin.J3, f, tf.parse("0.2*t"))
        i0 = spin.Jplus @ spin.Jminus / 2
        assert y.commutation_defect(i0) < 1e-12

    def test_oscillator_variant_commutes(self):
        osc = make_oscillator(16, 4)
        y = YSpec(osc.K3, tf.const(0.5))
        i0 = osc.adag @ osc.a / 2
        assert y.commutation_defect(i0) < 1e-12

    def test_hermitian(self, spin_setup):
        spin, _, _, f = spin_setup
        y = YSpec(spin.J3, f)
        assert y.value(1.7).hermiticity_defect() < 1e-14

    def test_non_diagonal_generator_rejected(self, spin_setup):
        spin, _, _, f = spin_setup
        with pytest.raises(ValueError):
            YSpec(spin.J1, f)


class TestHamiltonianFromGauge:
    def test_static_gauge_returns_y(self, spin_setup):
        spin, _, _, f = spin_setup
        gauge = GaugeCurve.spin(spin, tf.const(0.0), tf.const(0.0))
        y = YSpec(spin.J3, f)
        t = 1.9
        assert np.allclose(hamiltonian_from_gauge(gauge, y, t).entries,
                           f(t) * spin.J3.entries, atol=1e-14)

    def test_rotation_only_gives_j2(self):
        # theta = t, phi = 0, f = 0: W = exp(-i t J2) so H = J2 exactly.
        spin = make_spin(0.5)
        gauge = GaugeCurve.spin(spin, tf.linear(1.0), tf.const(0.0))
        y = YSpec(spin.J3, tf.const(0.0))
        for t in (0.3, 1.0):
            assert np.allclose(hamiltonian_from_gauge(gauge, y, t).entries,
                               spin.J2.entries, atol=1e-13)

    def test_matches_fd_oracle(self, spin_setup):
        spin, theta, phi, f = spin_setup
        gauge = GaugeCurve.spin(spin, theta, phi)
        y = YSpec(spin.J3, f)
        for t in (0.6, 2.4):
            fd = fd_gauge_hamiltonian(lambda s: gauge.value(s).entries,
                                      lambda s: y.value(s).entries, t)
            assert np.linalg.norm(hamiltonian_from_gauge(gauge, y, t).entries - fd) < 1e-8

    def test_non_unitary_rejected(self):
        # W at an infinite angle is not unitary: H is non-finite and rejected.
        gauge = GaugeCurve.spin(make_spin(0.5), Spike(tf.const(0.0), 0.5, np.inf),
                                tf.const(0.0))
        y = YSpec(make_spin(0.5).J3, tf.const(1.0))
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="t=0.5 "):
            hamiltonian_from_gauge(gauge, y, 0.5)

    def test_non_unitary_at_one_interior_grid_point_rejected(self):
        # The guard holds at every point of a stacked grid, not at samples.
        times = np.linspace(0.0, 2.0, 2001)
        bad = times[1234]
        spin = make_spin(0.5)
        gauge = GaugeCurve.spin(spin, Spike(tf.parse("0.3*sin(t)"), bad, np.inf),
                                tf.linear(0.4))
        y = YSpec(spin.J3, tf.const(1.0))
        assert hamiltonian_from_gauge(gauge, y, np.delete(times, 1234)).shape == (2000, 2, 2)
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match=f"not Hermitian at t={bad} "):
            hamiltonian_from_gauge(gauge, y, times)

    def test_non_unitary_eigenbasis_rejected_once(self, monkeypatch):
        # Unitarity is checked on the eigenbasis of D2, when it is first built.
        spin = make_spin(1)
        real = construction.eigh

        def scaled(op):
            es = real(op)
            return EigenSystem(es.values.copy(), 2.0 * es.vectors, es.degeneracy_groups)

        monkeypatch.setattr(construction, "eigh", scaled)
        gauge = GaugeCurve.spin(spin, tf.const(0.3), tf.const(0.0))
        with pytest.raises(ValueError, match="not unitary: the eigenbasis of D2"):
            gauge.value(0.0)

    def test_non_hermitian_at_one_grid_point_rejected(self, spin_setup):
        spin, theta, phi, f = spin_setup
        gauge = GaugeCurve.spin(spin, theta, phi)
        times = np.linspace(0.0, 2.0, 2001)
        bad = times[777]
        y = YSpec(spin.J3, Spike(f, bad, f(bad) + 1e-3j))
        with pytest.raises(NonHermitianError, match=f"at t={bad} "):
            hamiltonian_from_gauge(gauge, y, times)
        assert hamiltonian_from_gauge(gauge, y, np.delete(times, 777)).shape == (2000, 3, 3)

    @pytest.mark.parametrize("family, g", [("spin", None), ("spin", "0.2*t - 0.1*cos(3*t)"),
                                           ("oscillator", None)])
    def test_matches_literal_formula(self, family, g):
        # W diag(y - phi' d3) W^dag + theta' E D2 E^dag + phi' D3 against
        # W Y W^dag - i W dW^dag/dt built from value and derivative.
        phi = tf.parse("0.4*t + 0.2*cos(0.9*t)")
        f = tf.parse("0.5 + 0.1*sin(2*t)")
        if family == "spin":
            spin = make_spin(5)
            gauge = GaugeCurve.spin(spin, tf.parse("0.7 + 0.3*sin(1.3*t)"), phi)
            y = YSpec(spin.J3, f, None if g is None else tf.parse(g))
            times = np.linspace(0.0, 5.0, 201)
        else:
            osc = make_oscillator(128, 16)
            gauge = GaugeCurve.oscillator(osc, tf.parse("0.007*sin(1.1*t)"), phi)
            y = YSpec(osc.K3, f)
            times = np.linspace(0.0, 2.0, 21)
        w, wd = gauge.value(times), gauge.derivative(times)
        literal = w @ y.value(times) @ dagger(w) - 1j * w @ dagger(wd)
        error = np.linalg.norm(hamiltonian_from_gauge(gauge, y, times) - literal, axis=(1, 2))
        assert np.max(error / np.linalg.norm(literal, axis=(1, 2))) <= 1e-13

    def test_no_per_point_unitarity_or_derivative(self, spin_setup, monkeypatch):
        # Past the one-time check of the D2 eigenbasis, H takes neither the
        # W^dag W guard product nor dW/dt.
        spin, theta, phi, f = spin_setup
        gauge = GaugeCurve.spin(spin, theta, phi)
        y = YSpec(spin.J3, f)
        gauge.value(0.0)
        calls = []
        for owner, name in ((construction, "unitarity_defect"), (GaugeCurve, "derivative")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a, _real=real, **kw: calls.append(1) or _real(*a, **kw))
        assert hamiltonian_from_gauge(gauge, y, np.linspace(0.0, 2.0, 2001)).shape \
            == (2001, 3, 3)
        hamiltonian_from_gauge(gauge, y, 0.7)
        assert calls == []

    def test_array_matches_scalar_calls(self, spin_setup):
        spin, theta, phi, f = spin_setup
        gauge = GaugeCurve.spin(spin, theta, phi)
        y = YSpec(spin.J3, f, tf.parse("0.2*t"))
        times = np.linspace(0.0, 3.0, 7)
        stack = hamiltonian_from_gauge(gauge, y, times)
        for t, h in zip(times, stack):
            assert np.allclose(h, hamiltonian_from_gauge(gauge, y, t).entries,
                               rtol=0, atol=1e-14)


class TestClosedForms:
    def test_spin_theta_zero(self):
        # At theta = 0 the gauge is static, so H = f J3 plus the theta-dot swing.
        f, theta, phi = tf.const(0.7), tf.const(0.0), tf.const(0.4)
        r1, r2, r3 = closed_form_spin_R(f, theta, phi, 1.0)
        assert r1 == pytest.approx(0.0)
        assert r2 == pytest.approx(0.0)
        assert r3 == pytest.approx(0.7)

    def test_spin_theta_dot_only(self):
        f, theta, phi = tf.const(0.0), tf.linear(1.0), tf.const(0.0)
        assert closed_form_spin_R(f, theta, phi, 0.8) == pytest.approx((0.0, 1.0, 0.0))

    def test_spin_matches_gauge_route(self, spin_setup):
        spin, theta, phi, f = spin_setup
        gauge = GaugeCurve.spin(spin, theta, phi)
        y = YSpec(spin.J3, f)
        for t in np.linspace(0.2, 6.0, 8):
            r = closed_form_spin_R(f, theta, phi, t)
            built = (r[0] * spin.J1 + r[1] * spin.J2 + r[2] * spin.J3).entries
            assert np.linalg.norm(
                hamiltonian_from_gauge(gauge, y, t).entries - built) < 1e-9

    def test_osc_theta_zero(self):
        f, theta, phi = tf.const(0.7), tf.const(0.0), tf.linear(0.5)
        r1, r2, r3 = closed_form_osc_R(f, theta, phi, 1.0)
        # (sinh 0 = 0, cosh 0 = 1): transverse parts vanish, R3 = f.
        assert (r1, r2) == pytest.approx((0.0, 0.0))
        assert r3 == pytest.approx(0.7)

    def test_osc_matches_gauge_on_interior(self):
        osc = make_oscillator(32, 8)
        theta = tf.parse("0.02*sin(1.1*t)")
        phi = tf.parse("0.4*t")
        f = tf.const(0.5)
        gauge = GaugeCurve.oscillator(osc, theta, phi)
        y = YSpec(osc.K3, f)
        p = osc.projector_interior.entries
        for t in (0.9, 2.6):
            r = closed_form_osc_R(f, theta, phi, t)
            built = (r[0] * osc.K1 + r[1] * osc.K2 + r[2] * osc.K3).entries
            diff = hamiltonian_from_gauge(gauge, y, t).entries - built
            assert np.linalg.norm(p @ diff @ p) < 1e-6

    def test_static_osc_dilation(self):
        # theta = 1, phi = 0, f = 1/2: R3 = cosh(1)/2 once the gauge is static.
        f, theta, phi = tf.const(0.5), tf.const(1.0), tf.const(0.0)
        _, _, r3 = closed_form_osc_R(f, theta, phi, 0.0)
        assert r3 == pytest.approx(np.cosh(1.0) / 2)


class TestEvolution:
    def test_identity_at_zero(self, spin_setup):
        spin, _, phi, f = spin_setup
        gauge = GaugeCurve.spin(spin, tf.parse("0.4*sin(t)"), phi)
        u0 = evolution_from_gauge(gauge, YSpec(spin.J3, f), 0.0)
        assert np.allclose(u0.entries, np.eye(3), atol=1e-12)

    def test_unitary(self, spin_setup):
        spin, theta, phi, f = spin_setup
        gauge = GaugeCurve.spin(spin, theta, phi)
        y = YSpec(spin.J3, f)
        for t in (0.5, 3.3):
            assert unitarity_defect(evolution_from_gauge(gauge, y, t)) < 1e-10

    def test_three_exponential_form(self, spin_setup):
        # U(t) = e^{-i phi J3} e^{-i theta J2} e^{i (phi - F) J3}
        spin, theta, phi, f = spin_setup
        from scipy.linalg import expm as sexpm
        gauge = GaugeCurve.spin(spin, theta, phi)
        y = YSpec(spin.J3, f)
        bigF = f.antiderivative()
        t = 1.8
        j2, j3 = spin.J2.entries, spin.J3.entries
        expected = sexpm(-1j * phi(t) * j3) @ sexpm(-1j * theta(t) * j2) @ \
            sexpm(1j * (phi(t) - bigF(t)) * j3)
        assert np.allclose(evolution_from_gauge(gauge, y, t).entries, expected,
                           atol=1e-12)

    def test_satisfies_schrodinger(self, spin_setup):
        spin, theta, phi, f = spin_setup
        gauge = GaugeCurve.spin(spin, theta, phi)
        y = YSpec(spin.J3, f)
        h = 1e-6
        for t in (0.9, 2.2):
            du = (evolution_from_gauge(gauge, y, t + h).entries
                  - evolution_from_gauge(gauge, y, t - h).entries) / (2 * h)
            res = 1j * du - hamiltonian_from_gauge(gauge, y, t).entries \
                @ evolution_from_gauge(gauge, y, t).entries
            assert np.linalg.norm(res) < 1e-5


class TestPrescription:
    def test_identities_hold(self, spin_setup):
        spin, theta, phi, f = spin_setup
        out = run_prescription(spin_supersystem(spin, theta, phi, f, b=1.3))
        defects = out.identity_defects(ts=(0.5, 1.9, 4.2))
        assert defects["iplus"] < 1e-10
        assert defects["iminus"] < 1e-10
        assert out.system.plus_sector_defect() < 1e-5

    def test_static_gauge_constant_invariant(self, spin_setup):
        spin, _, _, f = spin_setup
        out = run_prescription(spin_supersystem(
            spin, tf.const(0.0), tf.const(0.0), f))
        assert np.allclose(out.h_minus(1.4).entries, f(1.4) * spin.J3.entries,
                           atol=1e-13)
        assert np.allclose(out.i_minus(2.0).entries, out.i_minus(0.0).entries,
                           atol=1e-13)

    def test_oscillator_family(self):
        osc = make_oscillator(32, 8)
        theta, phi, f = tf.parse("0.01*sin(t)"), tf.parse("0.3*t"), tf.const(0.5)
        out = run_prescription(oscillator_supersystem(osc, theta, phi, f))
        assert out.kernel_dim_minus == 1
        lv = out.levels[0]
        assert lv.lam == pytest.approx(0.5)   # I+ = a a^dag / 2 on |0>
        assert lv.mu == pytest.approx(3 / 4)  # K3 eigenvalue of |1>
        r = closed_form_osc_R(f, theta, phi, 1.1)
        built = (r[0] * osc.K1 + r[1] * osc.K2 + r[2] * osc.K3).entries
        diff = out.h_minus(1.1).entries - built
        assert np.linalg.norm(osc.project_interior(diff)) < 1e-8

    def test_degenerate_levels_split_by_generator(self):
        spin = make_spin(1.5)
        out = run_prescription(spin_supersystem(
            spin, tf.parse("0.2*sin(t)"), tf.parse("0.7*t"), tf.const(0.5)))
        lams = [round(lv.lam, 9) for lv in out.levels]
        assert lams == [1.5, 1.5, 2.0]
        mus = sorted(lv.mu for lv in out.levels if abs(lv.lam - 1.5) < 1e-9)
        assert mus == pytest.approx([-0.5, 1.5])

    def test_mapped_solution_normalized_stationary(self, spin_setup):
        # W = 1 and f = 0 freeze the mapped state at d0 psi / sqrt(2 lam).
        spin, _, _, _ = spin_setup
        out = run_prescription(spin_supersystem(
            spin, tf.const(0.0), tf.const(0.0), tf.const(0.0)))
        for level in range(len(out.levels)):
            s0 = out.mapped_solution(level, 0.0)
            s1 = out.mapped_solution(level, 2.9)
            assert np.allclose(s0, s1, atol=1e-14)
            assert abs(np.linalg.norm(s0) - 1.0) < 1e-10

    def test_oscillator_solution_phase(self):
        # Scalar-phase form: exp(i (phi - F)(2n+3)/4) e^{-i phi K3} e^{-i th K2}|n+1>
        from scipy.linalg import expm as sexpm
        osc = make_oscillator(16, 4)
        theta, phi, f = tf.parse("0.05*sin(t)"), tf.parse("0.3*t"), tf.const(0.5)
        out = run_prescription(oscillator_supersystem(osc, theta, phi, f))
        bigF = f.antiderivative()
        n, t = 2, 1.7
        level = out.level_for_label((2 * n + 3) / 4)
        e = np.zeros(16, dtype=complex)
        e[n + 1] = 1.0
        expected = np.exp(1j * (phi(t) - bigF(t)) * (2 * n + 3) / 4) * (
            sexpm(-1j * phi(t) * osc.K3.entries)
            @ sexpm(-1j * theta(t) * osc.K2.entries) @ e)
        assert np.allclose(out.mapped_solution(level, t), expected, atol=1e-12)

    def test_zero_mode_has_no_solution(self, spin_setup):
        spin, theta, phi, f = spin_setup
        out = run_prescription(spin_supersystem(spin, theta, phi, f))
        with pytest.raises((IndexError, KeyError)):
            out.mapped_solution(len(out.levels), 1.0)
        with pytest.raises(KeyError):
            out.level_for_label(spin.j + 1.0)  # mu of the absent zero mode


class TestPrecessing:
    def test_consistent_with_closed_form(self):
        f = tf.parse("0.5 + 0.2*sin(0.7*t)")
        theta0, omega, b = np.pi / 4, 2.0, 1.3
        th, ph = tf.const(theta0), tf.linear(omega)
        for t in np.linspace(0.0, 6.0, 9):
            r, f1, f2 = precessing_special_case(f, theta0, omega, t, b=b)
            vec = b * r * np.array([f1 * np.cos(omega * t),
                                    f1 * np.sin(omega * t), f2])
            assert np.allclose(vec, closed_form_spin_R(f, th, ph, t), atol=1e-10)

    def test_zero_f_magnitude(self):
        # Pure precession: field magnitude |omega| sqrt(2 - 2 cos theta).
        theta0, omega = 1.1, 1.7
        r, f1, f2 = precessing_special_case(tf.const(0.0), theta0, omega, 0.3)
        expected = omega * np.sqrt(2 - 2 * np.cos(theta0))
        assert r == pytest.approx(expected)

    def test_transverse_weight_at_right_angle(self):
        # theta = pi/2: f2 carries the residual omega component.
        r, f1, f2 = precessing_special_case(tf.const(0.5), np.pi / 2, 2.0, 0.0)
        assert f2 == pytest.approx(2.0 / (r * 1.0))


class TestQuadrupole:
    @pytest.mark.parametrize("j", [1.0, 1.5])
    def test_matches_gauge_route(self, j):
        spin = make_spin(j)
        theta = tf.parse("0.6 + 0.2*sin(1.1*t)")
        phi = tf.parse("0.9*t")
        f, g = tf.const(0.5), tf.parse("0.3 + 0.1*cos(t)")
        gauge = GaugeCurve.spin(spin, theta, phi)
        y = YSpec(spin.J3, f, g)
        for t in np.linspace(0.3, 5.0, 6):
            assert np.linalg.norm(
                hamiltonian_from_gauge(gauge, y, t).entries
                - quadrupole_partner(spin, f, g, theta, phi, t).entries) < 1e-9

    def test_g_zero_reduces_exactly(self):
        spin = make_spin(1)
        theta, phi, f = tf.parse("0.5*sin(t)"), tf.parse("0.8*t"), tf.const(0.5)
        t = 1.7
        r = closed_form_spin_R(f, theta, phi, t)
        linear = (r[0] * spin.J1 + r[1] * spin.J2 + r[2] * spin.J3).entries
        got = quadrupole_partner(spin, f, tf.const(0.0), theta, phi, t).entries
        assert np.array_equal(got, linear)

    def test_theta_zero_adds_j3_squared(self):
        spin = make_spin(1.5)
        g = tf.const(0.8)
        got = quadrupole_partner(spin, tf.const(0.3), g, tf.const(0.0),
                                 tf.const(0.0), 1.2).entries
        j3 = spin.J3.entries
        expected = 0.3 * j3 + 0.8 * (j3 @ j3)
        assert np.allclose(got, expected, atol=1e-14)

    def test_j1_squared_case(self):
        spin = make_spin(1)
        got = quadrupole_partner(spin, tf.const(0.0), tf.const(1.0),
                                 tf.const(np.pi / 2), tf.const(0.0), 0.9).entries
        j1sq = spin.J1.entries @ spin.J1.entries
        assert np.allclose(got, j1sq, atol=1e-14)


def test_invariant_spectrum_constant_along_curve(spin_setup):
    spin, theta, phi, f = spin_setup
    out = run_prescription(spin_supersystem(spin, theta, phi, f))
    from susyinv.operators import eigh
    reference = eigh(out.i_minus(0.0)).values
    for t in np.linspace(0.5, 9.5, 7):
        values = eigh(out.i_minus(t)).values
        assert np.max(np.abs(values - reference)) < 1e-9
