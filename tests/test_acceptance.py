"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion report.
"""

import json

import numpy as np
import pytest

from susyinv import timefunc as tf
from susyinv.cli import main as cli_main
from susyinv.construction import (closed_form_osc_R, closed_form_spin_R,
                                  hamiltonian_from_gauge, oscillator_supersystem,
                                  quadrupole_partner, run_prescription,
                                  spin_supersystem)
from susyinv.dynamics import berry_holonomy, propagate, propagate_unitary
from susyinv.operators import eigh, unitarity_defect
from susyinv.representations import make_oscillator, make_spin
from susyinv.suites import _checkable_levels
from susyinv.susy import build_invariant, build_supercharge, check_superalgebra

from fd_reference import d_map, fd_intertwining_residual, fd_lvn_residual, i_minus_map


def report(number: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:2d} {status}  {detail}")
    assert passed, f"criterion {number}: {detail}"


def grid(T, dt):
    return np.linspace(0.0, T, int(round(T / dt)) + 1)


@pytest.fixture(scope="module")
def precessing_outputs():
    outs = {}
    for j in (0.5, 1.0):
        system = spin_supersystem(make_spin(j), tf.const(np.pi / 4),
                                  tf.linear(2.0), tf.const(0.5), b=1.0)
        outs[j] = run_prescription(system)
    return outs


@pytest.fixture(scope="module")
def spin_systems(spin_draws):
    spin = make_spin(1)
    return [run_prescription(spin_supersystem(spin, theta, phi, f))
            for f, theta, phi in spin_draws]


@pytest.fixture(scope="module")
def osc_systems(osc_draws):
    osc = make_oscillator(64, 8)
    return osc, [run_prescription(oscillator_supersystem(osc, theta, phi, f))
                 for f, theta, phi in osc_draws]


def test_criterion_1_superalgebra():
    worst = 0.0
    for j in (0.5, 1.0, 1.5, 2.0):
        q = build_supercharge(make_spin(j).Jplus)
        worst = max(worst, check_superalgebra(q, build_invariant(q)).max_residual())
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        q = build_supercharge(d)
        worst = max(worst, check_superalgebra(q, build_invariant(q)).max_residual())
    report(1, worst < 1e-12,
           f"superalgebra residuals < 1e-12 (worst {worst:.2e})")


def test_criterion_2_spectrum_formula():
    # J- J+ = 2 I+ carries j(j+1) - m(m+1); I+ = J- J+ / 2 carries half of it.
    worst = 0.0
    for two_j in range(1, 9):
        j = two_j / 2
        spin = make_spin(j)
        m = spin.m_values()
        formula = np.sort(j * (j + 1) - m * (m + 1))
        jmjp = spin.Jminus @ spin.Jplus
        doubled = eigh(jmjp).values
        halved = eigh(jmjp / 2).values
        worst = max(worst, float(np.max(np.abs(doubled - formula))))
        worst = max(worst, float(np.max(np.abs(halved - formula / 2))))
    report(2, worst < 1e-12,
           f"I+ spectrum matches j(j+1)-m(m+1) convention for all j <= 4 "
           f"(worst {worst:.2e})")


def test_criterion_3_closed_form_vs_gauge(spin_draws, spin_systems, osc_draws,
                                          osc_systems):
    times = np.linspace(0.5, 9.5, 10)
    spin = make_spin(1)
    worst_spin = 0.0
    for (f, theta, phi), out in zip(spin_draws, spin_systems):
        for t in times:
            r = closed_form_spin_R(f, theta, phi, t)
            built = r[0] * spin.J1 + r[1] * spin.J2 + r[2] * spin.J3
            worst_spin = max(worst_spin, float(np.linalg.norm(
                out.h_minus(t).entries - built)))
    osc, outs = osc_systems
    p = osc.projector_interior
    worst_osc = 0.0
    for (f, theta, phi), out in zip(osc_draws, outs):
        for t in times:
            r = closed_form_osc_R(f, theta, phi, t)
            built = r[0] * osc.K1 + r[1] * osc.K2 + r[2] * osc.K3
            diff = out.h_minus(t).entries - built
            worst_osc = max(worst_osc, float(np.linalg.norm(p @ diff @ p)))
    report(3, worst_spin < 1e-9 and worst_osc < 1e-6,
           f"closed-form R vs gauge route: spin {worst_spin:.2e} < 1e-9, "
           f"oscillator interior {worst_osc:.2e} < 1e-6 (20 draws x 10 times)")


def test_criterion_4_invariance(spin_systems, osc_systems, precessing_outputs):
    times = np.arange(0.0, 10.01, 0.1)
    worst_spin = max(fd_lvn_residual(i_minus_map(out), out.h_minus, t)
                     for out in spin_systems for t in times)
    osc, outs = osc_systems
    p = osc.projector_interior
    worst_osc = max(fd_lvn_residual(i_minus_map(out), out.h_minus, t, projector=p)
                    for out in outs for t in times)
    out_neg = precessing_outputs[0.5]
    control = min(fd_lvn_residual(i_minus_map(out_neg), lambda t: out_neg.system.h_plus, t)
                  for t in times[1:])
    passed = worst_spin < 1e-6 and worst_osc < 1e-4 and control > 0.05
    report(4, passed,
           f"LvN residual: spin {worst_spin:.2e} < 1e-6, oscillator interior "
           f"{worst_osc:.2e} < 1e-4; mismatched-H control {control:.2f} > 0.05")


def test_criterion_5_exact_solvability(precessing_outputs):
    worst_infid = 0.0
    for j, out in precessing_outputs.items():
        dim = len(out.system.d0)
        psi_ref = np.ones(dim, dtype=complex) / np.sqrt(dim)
        psi0 = out.u_minus(0.0).entries @ psi_ref
        times = grid(10.0, 1e-3)
        traj = propagate(out.h_minus, psi0, times)
        for k in (len(times) // 2, len(times) - 1):
            closed = out.u_minus(times[k]).entries @ psi_ref
            worst_infid = max(worst_infid, 1 - abs(np.vdot(closed, traj.states[k])))

    out = precessing_outputs[0.5]
    psi_ref = np.ones(2, dtype=complex) / np.sqrt(2)
    psi0 = out.u_minus(0.0).entries @ psi_ref

    def infidelity(dt):
        times = grid(10.0, dt)
        traj = propagate(out.h_minus, psi0, times)
        closed = out.u_minus(times[-1]).entries @ psi_ref
        return 1 - abs(np.vdot(closed, traj.states[-1]))

    ratio = infidelity(0.02) / infidelity(0.01)
    passed = worst_infid < 1e-8 and ratio >= 3.5
    report(5, passed,
           f"propagation vs closed-form U: infidelity {worst_infid:.2e} < 1e-8 "
           f"(j=1/2 and j=1); halving error ratio {ratio:.1f} >= 3.5")


def test_criterion_6_solution_map(precessing_outputs):
    h_fd = 1e-6
    worst_res_spin = worst_inf_spin = 0.0
    for j, out in precessing_outputs.items():
        times = grid(10.0, 1e-3)
        traj = propagate_unitary(out.h_minus, len(out.system.d0), times)
        for level in range(len(out.levels)):
            psi0 = out.mapped_solution(level, 0.0)
            for t in (2.5, 7.0):
                dpsi = (out.mapped_solution(level, t + h_fd)
                        - out.mapped_solution(level, t - h_fd)) / (2 * h_fd)
                res = 1j * dpsi - out.h_minus(t).entries \
                    @ out.mapped_solution(level, t)
                worst_res_spin = max(worst_res_spin, float(np.linalg.norm(res)))
            for k in (len(times) // 2, len(times) - 1):
                numeric = traj.operators[k] @ psi0
                closed = out.mapped_solution(level, times[k])
                worst_inf_spin = max(worst_inf_spin,
                                     1 - abs(np.vdot(closed, numeric)))

    osc = make_oscillator(32, 8)
    out = run_prescription(oscillator_supersystem(
        osc, tf.parse("0.02*sin(t)"), tf.parse("0.4*t"), tf.const(0.5)))
    times = grid(5.0, 1e-3)
    traj = propagate_unitary(out.h_minus, 32, times)
    p = osc.projector_interior
    worst_res_osc = worst_inf_osc = 0.0
    # The levels whose minus state keeps off the edge buffer.
    levels = _checkable_levels(out)
    for level in levels:
        psi0 = out.mapped_solution(level, 0.0)
        for t in (1.5, 4.0):
            dpsi = (out.mapped_solution(level, t + h_fd)
                    - out.mapped_solution(level, t - h_fd)) / (2 * h_fd)
            res = p @ (1j * dpsi - out.h_minus(t).entries
                       @ out.mapped_solution(level, t))
            worst_res_osc = max(worst_res_osc, float(np.linalg.norm(res)))
        for k in (len(times) // 2, len(times) - 1):
            numeric = traj.operators[k] @ psi0
            closed = out.mapped_solution(level, times[k])
            worst_inf_osc = max(worst_inf_osc, 1 - abs(np.vdot(closed, numeric)))

    passed = (worst_res_spin < 1e-5 and worst_inf_spin < 1e-7
              and worst_res_osc < 1e-5 and worst_inf_osc < 1e-5)
    report(6, passed,
           f"mapped solutions: spin residual {worst_res_spin:.2e} < 1e-5, "
           f"infidelity {worst_inf_spin:.2e} < 1e-7; oscillator ({len(levels)} levels) "
           f"residual {worst_res_osc:.2e} < 1e-5, infidelity {worst_inf_osc:.2e} < 1e-5")


def test_criterion_7_intertwining_generality(precessing_outputs):
    out = precessing_outputs[0.5]
    res_lvn = max(fd_lvn_residual(i_minus_map(out), out.h_minus, t)
                  for t in np.arange(0.0, 10.01, 0.5))
    res_inter = fd_intertwining_residual(d_map(out), out.h_minus, out.system.h_plus, 1.0)
    passed = res_lvn < 1e-6 and res_inter > 0.1
    report(7, passed,
           f"invariance holds (LvN {res_lvn:.2e} < 1e-6) while the intertwining "
           f"relation fails (residual {res_inter:.3f} > 0.1 at t = 1)")


def test_criterion_8_quadrupole():
    worst = 0.0
    theta = tf.parse("0.6 + 0.2*sin(1.1*t)")
    phi = tf.parse("0.9*t")
    f, g = tf.const(0.5), tf.parse("0.3 + 0.1*cos(t)")
    for j in (1.0, 1.5):
        spin = make_spin(j)
        out = run_prescription(spin_supersystem(spin, theta, phi, f, g))
        for t in np.linspace(0.4, 8.0, 10):
            worst = max(worst, float(np.linalg.norm(
                out.h_minus(t).entries
                - quadrupole_partner(spin, f, g, theta, phi, t).entries)))
    spin = make_spin(1)
    t = 2.3
    r = closed_form_spin_R(f, theta, phi, t)
    linear = r[0] * spin.J1 + r[1] * spin.J2 + r[2] * spin.J3
    exact_reduction = np.array_equal(
        quadrupole_partner(spin, f, tf.const(0.0), theta, phi, t).entries, linear)
    report(8, worst < 1e-9 and exact_reduction,
           f"quadrupole partner vs gauge route {worst:.2e} < 1e-9 (j = 1, 3/2); "
           f"g = 0 reduces to the dipole coefficients exactly")


def test_criterion_9_holonomy():
    spin = make_spin(0.5)
    out = run_prescription(spin_supersystem(
        spin, tf.const(np.pi / 3), tf.linear(2 * np.pi), tf.const(0.5)))
    es0 = eigh(out.invariant.Iminus)
    worst_delta = worst_unit = 0.0
    for group in es0.degeneracy_groups:
        v0 = es0.vectors[:, list(group)]
        frame = lambda s, v0=v0: out.system.w_minus.value(s) @ v0
        coarse, = berry_holonomy(frame, 2000)
        fine, = berry_holonomy(frame, 4000)
        worst_delta = max(worst_delta, float(np.linalg.norm(coarse - fine)))
        worst_unit = max(worst_unit, float(unitarity_defect(coarse)))
    constant, = berry_holonomy(lambda s: np.eye(2)[:, :1], 2000)
    const_defect = float(np.linalg.norm(constant - np.eye(1)))
    passed = worst_delta < 1e-6 and worst_unit < 1e-8 and const_defect < 1e-12
    report(9, passed,
           f"holonomy at theta = pi/3: resolution doubling delta {worst_delta:.2e} "
           f"< 1e-6, unitarity {worst_unit:.2e} < 1e-8, constant frame "
           f"{const_defect:.2e} < 1e-12")


def test_criterion_10_cli_end_to_end(tmp_path, config_dir):
    codes = {}
    for name in ("spin_default", "oscillator_default"):
        codes[name] = cli_main(["verify", "--config",
                                str(config_dir / f"{name}.ini"),
                                "--out", str(tmp_path / name)])
    neg = cli_main(["verify", "--config",
                    str(config_dir / "spin_negative_control.ini"),
                    "--out", str(tmp_path / "neg")])

    deterministic = True
    for run_dir in ("d1", "d2"):
        assert cli_main(["build", "--config", str(config_dir / "spin_default.ini"),
                         "--out", str(tmp_path / run_dir)]) == 0
        assert cli_main(["verify", "--config", str(config_dir / "spin_default.ini"),
                         "--out", str(tmp_path / run_dir)]) == 0
    for name in ("H_minus.csv", "invariant_spectrum.csv", "U_minus.json",
                 "verify.json"):
        b1 = (tmp_path / "d1" / name).read_bytes()
        b2 = (tmp_path / "d2" / name).read_bytes()
        deterministic &= b1 == b2

    payload = json.loads((tmp_path / "neg" / "verify.json").read_text())
    passed = (codes["spin_default"] == 0 and codes["oscillator_default"] == 0
              and neg == 1 and not payload["all_pass"] and deterministic)
    report(10, passed,
           f"CLI: default configs exit 0 ({codes}), negative control exits 1, "
           f"outputs byte-deterministic across runs: {deterministic}")
