import numpy as np
import pytest

from susyinv import timefunc as tf
from susyinv import construction
from susyinv.construction import (GaugeCurve, YSpec, closed_form_osc_R, closed_form_spin_R,
                                  evolution_from_gauge, hamiltonian_from_gauge,
                                  oscillator_supersystem, quadrupole_partner,
                                  run_prescription, spin_supersystem)
from susyinv.config import load_config
from susyinv.operators import (EigenSystem, NonHermitianError, dagger, eigh,
                               frobenius, hermiticity_defect, unitarity_defect)
from susyinv.representations import make_oscillator, make_spin
from susyinv.suites import build_system
from susyinv.susy import ZERO_MODE_SCALE

from fd_reference import d_map, i_minus_map


def diag_stack(diagonals):
    """(n, d) diagonals -> (n, d, d) diagonal matrices."""
    return diagonals[..., None] * np.eye(diagonals.shape[-1])


def fd_gauge_hamiltonian(w_of_t, y_of_t, t, h=1e-6):
    """Finite-difference oracle for W Y W^dag - i W dW^dag/dt."""
    w = w_of_t(t)
    wdot = (w_of_t(t + h) - w_of_t(t - h)) / (2 * h)
    return w @ y_of_t(t) @ w.conj().T - 1j * (w @ wdot.conj().T)


def per_level_prescription(system):
    """The levels of run_prescription found one cluster at a time: (lam, mu, v_minus)."""
    d0 = system.d0
    iplus = d0.conj().T @ d0 / 2
    es = eigh(iplus)
    generator = system.y_minus.D
    levels = []
    for group in es.degeneracy_groups:
        lam = float(es.values[list(group)].mean())
        if lam < ZERO_MODE_SCALE * max(1.0, np.linalg.norm(iplus)):
            continue
        vm = d0 @ es.vectors[:, list(group)] / np.sqrt(2 * lam)
        block = vm.conj().T @ generator @ vm
        mus, s = np.linalg.eigh((block + block.conj().T) / 2)
        vm = vm @ s
        levels += [(lam, float(mu), vm[:, k]) for k, mu in enumerate(mus)]
    levels.sort(key=lambda lv: lv[:2])
    return levels


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
        assert np.linalg.norm(gauge.value(0.0).entries - np.eye(3)) < 1e-12

    def test_offset_start_reported(self, spin_setup):
        spin, theta, phi, _ = spin_setup
        gauge = GaugeCurve.spin(spin, theta, phi)
        assert np.linalg.norm(gauge.value(0.0).entries - np.eye(3)) > 0.1

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


def complex_route_w(gauge, t):
    """W = E V2 Phi V2^dag E^dag at a scalar t, with V2 the complex eigenbasis of D2:
    the reference for the real rotation."""
    lam, v2 = np.linalg.eigh(gauge.d2)
    e = np.exp(-1j * gauge.phi(t) * np.real(np.diag(gauge.d3)))
    rotation = (v2 * np.exp(-1j * gauge.theta(t) * lam)) @ v2.conj().T
    return e[:, None] * rotation * e.conj()[None, :]


def make_gauge(family, size, theta, phi):
    if family == "spin":
        return GaugeCurve.spin(make_spin(size), theta, phi)
    return GaugeCurve.oscillator(make_oscillator(size, 2), theta, phi)


# K2 has two zero modes at N = 2 (mod 4), one at odd N and none at N = 0 (mod 4);
# J2 has one at integer j.
GAUGE_SIZES = [("oscillator", n) for n in (8, 9, 10, 33, 130)] + \
    [("spin", j) for j in (0.5, 1, 5, 20)]


class TestRealRotation:
    THETA = tf.parse("0.7 + 0.3*sin(1.3*t)")
    PHI = tf.parse("0.4*t + 0.2*cos(0.9*t)")
    TIMES = np.linspace(0.0, 3.0, 7)

    @pytest.mark.parametrize("family, size", GAUGE_SIZES)
    def test_matches_complex_route_and_is_unitary(self, family, size):
        gauge = make_gauge(family, size, self.THETA, self.PHI)
        w = gauge.value(self.TIMES)
        for k, t in enumerate(self.TIMES):
            assert np.max(np.abs(w[k] - complex_route_w(gauge, t))) < 1e-13
        assert np.max(unitarity_defect(w)) < 1e-13

    @pytest.mark.parametrize("family, size", GAUGE_SIZES)
    def test_real_without_phi(self, family, size):
        gauge = make_gauge(family, size, self.THETA, tf.const(0.0))
        assert np.all(gauge.value(self.TIMES).imag == 0)

    @pytest.mark.parametrize("family, size", GAUGE_SIZES)
    def test_derivative_matches_central_difference(self, family, size):
        gauge = make_gauge(family, size, self.THETA, self.PHI)
        ts = np.array([0.4, 2.1])
        w_dot = gauge.derivative(ts)
        fd = (gauge.value(ts + 1e-6) - gauge.value(ts - 1e-6)) / 2e-6
        assert np.all(frobenius(w_dot - fd) < 1e-7 * np.maximum(1.0, frobenius(w_dot)))

    def test_real_part_in_d2_rejected_once(self, monkeypatch):
        # Checked when the basis is first built, before D2 is diagonalized.
        osc = make_oscillator(8, 2)
        calls = []
        real = construction.eigh
        monkeypatch.setattr(construction, "eigh", lambda op: calls.append(1) or real(op))
        gauge = GaugeCurve(osc.K3, osc.K1, self.THETA, self.PHI)
        with pytest.raises(ValueError) as exc:
            gauge.value(self.TIMES)
        assert str(exc.value) == \
            "the rotation generator D2 must be purely imaginary in this basis"
        assert not calls
        good = GaugeCurve.oscillator(osc, self.THETA, self.PHI)
        good.value(self.TIMES)
        good.derivative(self.TIMES)
        assert len(calls) == 1


class TestYSpec:
    def test_commutes_with_reference_invariant(self, spin_setup):
        spin, _, _, f = spin_setup
        y = YSpec(spin.J3, f, tf.parse("0.2*t"))
        i0 = spin.Jplus @ spin.Jminus / 2
        ys = diag_stack(y.diagonal(np.array([0.0, 0.7, 1.3])))
        assert np.max(np.linalg.norm(ys @ i0 - i0 @ ys, axis=(1, 2))) < 1e-12

    def test_oscillator_variant_commutes(self):
        osc = make_oscillator(16, 4)
        y = YSpec(osc.K3, tf.const(0.5))
        i0 = osc.adag @ osc.a / 2
        ys = diag_stack(y.diagonal(np.array([0.0, 0.7, 1.3])))
        assert np.max(np.linalg.norm(ys @ i0 - i0 @ ys, axis=(1, 2))) < 1e-12

    def test_hermitian(self, spin_setup):
        spin, _, _, f = spin_setup
        y = YSpec(spin.J3, f)
        assert hermiticity_defect(np.diag(y.diagonal(1.7))) < 1e-14

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
                           f(t) * spin.J3, atol=1e-14)

    def test_rotation_only_gives_j2(self):
        # theta = t, phi = 0, f = 0: W = exp(-i t J2) so H = J2 exactly.
        spin = make_spin(0.5)
        gauge = GaugeCurve.spin(spin, tf.linear(1.0), tf.const(0.0))
        y = YSpec(spin.J3, tf.const(0.0))
        for t in (0.3, 1.0):
            assert np.allclose(hamiltonian_from_gauge(gauge, y, t).entries,
                               spin.J2, atol=1e-13)

    def test_matches_fd_oracle(self, spin_setup):
        spin, theta, phi, f = spin_setup
        gauge = GaugeCurve.spin(spin, theta, phi)
        y = YSpec(spin.J3, f)
        for t in (0.6, 2.4):
            fd = fd_gauge_hamiltonian(lambda s: gauge.value(s).entries,
                                      lambda s: np.diag(y.diagonal(s)), t)
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
                pytest.raises(ValueError, match=f"H_- is not finite at t={bad} "):
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
        literal = w @ diag_stack(y.diagonal(times)) @ dagger(w) - 1j * w @ dagger(wd)
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
            built = r[0] * spin.J1 + r[1] * spin.J2 + r[2] * spin.J3
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
        p = osc.projector_interior
        for t in (0.9, 2.6):
            r = closed_form_osc_R(f, theta, phi, t)
            built = r[0] * osc.K1 + r[1] * osc.K2 + r[2] * osc.K3
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
        j2, j3 = spin.J2, spin.J3
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
        # The plus sector: U+(0) = 1 and i dU+/dt = H+ U+ by central difference.
        phases, h_plus = out.system.u_plus_phases, out.system.h_plus
        ts, h = np.array([0.3, 1.1]), 1e-5
        assert np.linalg.norm(phases(np.zeros(1)) - 1) < 1e-15
        du = diag_stack((phases(ts + h) - phases(ts - h)) / (2 * h))
        assert np.max(np.linalg.norm(1j * du - h_plus @ diag_stack(phases(ts)),
                                     axis=(1, 2))) < 1e-5

    def test_static_gauge_constant_invariant(self, spin_setup):
        spin, _, _, f = spin_setup
        out = run_prescription(spin_supersystem(
            spin, tf.const(0.0), tf.const(0.0), f))
        assert np.allclose(out.h_minus(1.4).entries, f(1.4) * spin.J3,
                           atol=1e-13)
        i_minus = out.whole.sample(np.array([0.0, 2.0])).i_minus
        assert np.allclose(i_minus[1], i_minus[0], atol=1e-13)

    def test_oscillator_family(self):
        osc = make_oscillator(32, 8)
        theta, phi, f = tf.parse("0.01*sin(t)"), tf.parse("0.3*t"), tf.const(0.5)
        out = run_prescription(oscillator_supersystem(osc, theta, phi, f))
        assert out.pairing.kernel_dim_minus == 1
        assert out.levels.lam[0] == pytest.approx(0.5)   # I+ = a a^dag / 2 on |0>
        assert out.levels.mu[0] == pytest.approx(3 / 4)  # K3 eigenvalue of |1>
        r = closed_form_osc_R(f, theta, phi, 1.1)
        built = r[0] * osc.K1 + r[1] * osc.K2 + r[2] * osc.K3
        diff = out.h_minus(1.1).entries - built
        p = osc.projector_interior
        assert np.linalg.norm(p @ diff @ p) < 1e-8

    def test_degenerate_levels_split_by_generator(self):
        spin = make_spin(1.5)
        out = run_prescription(spin_supersystem(
            spin, tf.parse("0.2*sin(t)"), tf.parse("0.7*t"), tf.const(0.5)))
        lams = np.round(out.levels.lam, 9).tolist()
        assert lams == [1.5, 1.5, 2.0]
        mus = sorted(out.levels.mu[np.abs(out.levels.lam - 1.5) < 1e-9])
        assert mus == pytest.approx([-0.5, 1.5])

    @pytest.mark.parametrize("config", ["oscillator_default", "phase_loop", "quadrupole",
                                        "spin_default", "spin_negative_control",
                                        "sweep_example", "degenerate_split", "oscillator_128"])
    def test_stacked_levels_match_per_level_reference(self, config_dir, config):
        # The levels of each cluster size, mapped and split as one stack, are the
        # levels found one cluster at a time, bit for bit.
        if config == "degenerate_split":
            out = run_prescription(spin_supersystem(
                make_spin(1.5), tf.parse("0.2*sin(t)"), tf.parse("0.7*t"), tf.const(0.5)))
        elif config == "oscillator_128":
            out = run_prescription(oscillator_supersystem(
                make_oscillator(128, 16), tf.parse("0.007*sin(1.1*t)"), tf.parse("0.4*t"),
                tf.const(0.55)))
        else:
            out = build_system(load_config(config_dir / f"{config}.ini"))[1]
        reference = per_level_prescription(out.system)
        assert len(out.levels) == len(reference) > 0
        assert np.array_equal(out.levels.lam, [lv[0] for lv in reference])
        assert np.array_equal(out.levels.mu, [lv[1] for lv in reference])
        assert np.array_equal(out.levels.v_minus, np.stack([lv[2] for lv in reference], 1))

    def test_exact_rates_match_central_differences(self, spin_setup):
        # dI-/dt, dd/dt and each mapped solution's dpsi/dt, taken from the W and
        # W' of one sample, against central differences of the maps of t.
        spin, theta, phi, f = spin_setup
        out = run_prescription(spin_supersystem(spin, theta, phi, f, b=1.3))
        ts, h = np.array([0.3, 1.1]), 1e-6
        at = out.whole.sample(ts)

        def fd(m_map):
            return (m_map(ts + h) - m_map(ts - h)) / (2 * h)

        assert np.max(frobenius(at.i_dot - fd(i_minus_map(out)))) < 1e-8
        d, gauge_rate = out.d_stack(ts, at.w), out.d_stack(ts, at.w_dot)
        d_dot = gauge_rate + 1j * d * out.system.plus_energies
        assert np.array_equal(d, d_map(out)(ts))
        assert np.max(frobenius(d_dot - fd(d_map(out)))) < 1e-8
        levels = list(range(len(out.levels)))
        psi, dpsi = out.whole.mapped_with_rate(np.array(levels), at)
        assert np.array_equal(psi, out.mapped_solution(levels, ts))
        assert np.max(np.abs(dpsi - fd(lambda t: out.mapped_solution(levels, t)))) < 1e-8

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
            sexpm(-1j * phi(t) * osc.K3)
            @ sexpm(-1j * theta(t) * osc.K2) @ e)
        assert np.allclose(out.mapped_solution(level, t), expected, atol=1e-12)

    def test_zero_mode_has_no_solution(self, spin_setup):
        spin, theta, phi, f = spin_setup
        out = run_prescription(spin_supersystem(spin, theta, phi, f))
        with pytest.raises((IndexError, KeyError)):
            out.mapped_solution(len(out.levels), 1.0)
        with pytest.raises(KeyError):
            out.level_for_label(spin.j + 1.0)  # mu of the absent zero mode


class TestPrecessing:
    # theta = theta0 and phi = omega t: H_- = R . J with R the field
    # ((f - omega) sin theta0 cos omega t, (f - omega) sin theta0 sin omega t,
    #  (f - omega) cos theta0 + omega), of magnitude r.
    def test_consistent_with_closed_form(self):
        f = tf.parse("0.5 + 0.2*sin(0.7*t)")
        theta0, omega = np.pi / 4, 2.0
        th, ph = tf.const(theta0), tf.linear(omega)
        for t in np.linspace(0.0, 6.0, 9):
            detuning = f(t) - omega
            vec = np.array([detuning * np.sin(theta0) * np.cos(omega * t),
                            detuning * np.sin(theta0) * np.sin(omega * t),
                            detuning * np.cos(theta0) + omega])
            assert np.allclose(vec, closed_form_spin_R(f, th, ph, t), atol=1e-10)

    def test_zero_f_magnitude(self):
        # Pure precession: field magnitude |omega| sqrt(2 - 2 cos theta).
        theta0, omega = 1.1, 1.7
        r = np.linalg.norm(closed_form_spin_R(tf.const(0.0), tf.const(theta0),
                                              tf.linear(omega), 0.3))
        assert r == pytest.approx(omega * np.sqrt(2 - 2 * np.cos(theta0)))

    def test_transverse_weight_at_right_angle(self):
        # theta = pi/2: the J3 component carries omega alone.
        r = closed_form_spin_R(tf.const(0.5), tf.const(np.pi / 2), tf.linear(2.0), 0.0)
        assert r[2] == pytest.approx(2.0)
        assert np.hypot(r[0], r[1]) == pytest.approx(1.5)


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
        linear = r[0] * spin.J1 + r[1] * spin.J2 + r[2] * spin.J3
        got = quadrupole_partner(spin, f, tf.const(0.0), theta, phi, t).entries
        assert np.array_equal(got, linear)

    def test_theta_zero_adds_j3_squared(self):
        spin = make_spin(1.5)
        g = tf.const(0.8)
        got = quadrupole_partner(spin, tf.const(0.3), g, tf.const(0.0),
                                 tf.const(0.0), 1.2).entries
        j3 = spin.J3
        expected = 0.3 * j3 + 0.8 * (j3 @ j3)
        assert np.allclose(got, expected, atol=1e-14)

    def test_j1_squared_case(self):
        spin = make_spin(1)
        got = quadrupole_partner(spin, tf.const(0.0), tf.const(1.0),
                                 tf.const(np.pi / 2), tf.const(0.0), 0.9).entries
        j1sq = spin.J1 @ spin.J1
        assert np.allclose(got, j1sq, atol=1e-14)


def test_invariant_spectrum_constant_along_curve(spin_setup):
    spin, theta, phi, f = spin_setup
    out = run_prescription(spin_supersystem(spin, theta, phi, f))
    from susyinv.operators import eigh
    i_minus = i_minus_map(out)
    reference = eigh(i_minus(0.0)).values
    for t in np.linspace(0.5, 9.5, 7):
        values = eigh(i_minus(t)).values
        assert np.max(np.abs(values - reference)) < 1e-9
