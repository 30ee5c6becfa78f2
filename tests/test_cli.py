import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from susyinv import construction, suites
from susyinv import timefunc as tf
from susyinv.cli import main
from susyinv.config import ConfigError, load_config
from susyinv.construction import oscillator_supersystem, run_prescription
from susyinv.representations import make_oscillator


def run(args):
    return main([str(a) for a in args])


class TestConfig:
    def test_load_defaults(self, config_dir):
        cfg = load_config(config_dir / "spin_default.ini")
        assert cfg.family == "spin"
        assert cfg.j == 0.5
        assert cfg.b == 1.0
        assert cfg.f(0.0) == 0.5
        assert cfg.theta(3.0) == pytest.approx(np.pi / 4)
        assert cfg.grid()[-1] == pytest.approx(5.0)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/x.ini")

    def test_bad_timefunc_reported_with_field(self, tmp_path, config_dir):
        text = (config_dir / "spin_default.ini").read_text()
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace('phi = "2*t"', 'phi = "2**t"'))
        with pytest.raises(ConfigError, match="phi"):
            load_config(bad)

    def test_grid_bounds(self, tmp_path, config_dir):
        text = (config_dir / "spin_default.ini").read_text()
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace("dt = 0.001", "dt = 0.0000000001"))
        with pytest.raises(ConfigError, match="exceeds"):
            load_config(bad)

    def test_unknown_suite_rejected(self, tmp_path, config_dir):
        text = (config_dir / "spin_default.ini").read_text()
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace("suites = superalgebra,", "suites = bogus,"))
        with pytest.raises(ConfigError, match="bogus"):
            load_config(bad)

    def test_cli_exit_2_on_config_error(self, tmp_path):
        bad = tmp_path / "b.ini"
        bad.write_text("[system]\nfamily = neither\n")
        assert run(["verify", "--config", bad]) == 2

    @pytest.mark.parametrize("config, command, old, new, message", [
        ("spin_default", "verify", "j = 1/2", "j = 0.3",
         "[system] j = '0.3': j must be a nonnegative half-integer"),
        ("phase_loop", "phase", "steps = 2000", "steps = lots",
         "[phase] steps = 'lots' is not an integer"),
        ("oscillator_default", "verify", "buffer = 8", "buffer = 12",
         "[system] n = 32, buffer = 12: buffer must satisfy 1 <= buffer <= N/4"),
        ("spin_default", "verify", "t_final = 5.0", "t_final = 0.0004",
         "[grid] t_final = 0.0004 is below dt/2 = 0.0005: the grid has no step"),
        ("spin_default", "verify", "t_final = 5.0", "t_final = nan",
         "[grid] t_final = nan, dt = 0.001: both must be finite"),
        ("spin_default", "verify", "b = 1.0", "b = nan", "[system] b = nan must be finite"),
        ("spin_default", "verify", 'f = "0.5"', 'f = "1e400"',
         "[y] f = '\"1e400\"': not finite at t = 0"),
        ("spin_default", "verify", 'f = "0.5"', 'f = "t*t"',
         "[y] f = '\"t*t\"': antiderivative of (1*t)*(1*t) leaves the closed family"),
    ], ids=["half_integer_j", "integer_phase_steps", "buffer_range", "zero_step_grid",
            "non_finite_t_final", "non_finite_b", "overflowing_f", "f_without_antiderivative"])
    def test_static_error_exit_2_with_one_line(self, tmp_path, config_dir, capsys,
                                               config, command, old, new, message):
        text = (config_dir / f"{config}.ini").read_text()
        assert old in text
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(old, new))
        assert run([command, "--config", bad, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["build", "propagate", "verify"])
    def test_overflow_on_the_grid_exit_2_with_one_line(self, tmp_path, config_dir, capsys,
                                                       command):
        # Finite at t = 0, but 1e300 * t^2 overflows from the first step on.
        text = (config_dir / "spin_default.ini").read_text()
        edits = (('phi = "2*t"', 'phi = "1e300*t*t"'), ("t_final = 5.0", "t_final = 1e9"),
                 ("dt = 0.001", "dt = 1e8"))
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        assert run([command, "--config", bad, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: [gauge] phi = '\"1e300*t*t\"': not finite at t = 1e+08\n"
        assert not (tmp_path / "out").exists()


class TestBuild:
    def test_outputs_and_r3_value(self, tmp_path, config_dir):
        out = tmp_path / "out"
        assert run(["build", "--config", config_dir / "spin_default.ini",
                    "--out", out]) == 0
        header, first = (out / "H_minus.csv").read_text().splitlines()[:2]
        assert header == "t,R1,R2,R3,hermiticity_defect"
        row = dict(zip(header.split(","), map(float, first.split(","))))
        # t = 0: R3 = cos(theta) (f - phi_dot) + phi_dot with theta = pi/4.
        expected = np.cos(np.pi / 4) * (0.5 - 2.0) + 2.0
        assert row["t"] == 0.0
        assert row["R3"] == pytest.approx(expected, abs=1e-15)
        assert row["hermiticity_defect"] < 1e-12

        spectrum = (out / "invariant_spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "t,lambda_0,lambda_1"
        values = [float(x) for x in spectrum[-1].split(",")[1:]]
        assert values == pytest.approx([0.0, 0.5], abs=1e-12)

        payload = json.loads((out / "U_minus.json").read_text())
        first_u = payload["samples"][0]
        assert float(first_u["t"]) == 0.0
        real = np.array([[float(v) for v in row] for row in first_u["U"]["real"]])
        imag = np.array([[float(v) for v in row] for row in first_u["U"]["imag"]])
        u0 = real + 1j * imag
        from susyinv.operators import unitarity_defect
        assert unitarity_defect(u0) < 1e-12

    def test_static_config_zero_columns(self, tmp_path, config_dir):
        text = (config_dir / "spin_default.ini").read_text()
        static = tmp_path / "static.ini"
        static.write_text(text.replace('theta = "0.7853981633974483"', 'theta = "0"')
                          .replace('phi = "2*t"', 'phi = "0"')
                          .replace('f = "0.5"', 'f = "0"')
                          .replace("t_final = 5.0", "t_final = 1.0"))
        out = tmp_path / "out"
        assert run(["build", "--config", static, "--out", out]) == 0
        rows = (out / "H_minus.csv").read_text().splitlines()[1:]
        for row in rows[:: len(rows) // 7 or 1]:
            _, r1, r2, r3, _ = map(float, row.split(","))
            assert (r1, r2, r3) == (0.0, 0.0, 0.0)

    def test_byte_determinism(self, tmp_path, config_dir):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["build", "--config", config_dir / "spin_default.ini",
                        "--out", out]) == 0
        for name in ("H_minus.csv", "invariant_spectrum.csv", "U_minus.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestVerify:
    def test_default_config_passes(self, tmp_path, config_dir):
        out = tmp_path / "out"
        assert run(["verify", "--config", config_dir / "spin_default.ini",
                    "--out", out]) == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["all_pass"] is True
        names = {c["name"] for c in payload["checks"]}
        assert {"superalgebra", "pairing", "gauge", "lvn", "unitarity",
                "intertwining", "solutions"} <= names

    def test_negative_control_fails(self, tmp_path, config_dir):
        out = tmp_path / "out"
        assert run(["verify", "--config",
                    config_dir / "spin_negative_control.ini", "--out", out]) == 1
        payload = json.loads((out / "verify.json").read_text())
        wrong = [c for c in payload["checks"] if c["name"] == "lvn_wrong_h"]
        assert wrong and wrong[0]["pass"] is False
        assert float(wrong[0]["max_residual"]) > 0.05

    def test_wrong_h_flag_equivalent(self, tmp_path, config_dir):
        out = tmp_path / "out"
        assert run(["verify", "--config", config_dir / "spin_default.ini",
                    "--out", out, "--cross-check-wrong-H"]) == 1

    def test_tolerance_scale_loosens(self, tmp_path, config_dir):
        out = tmp_path / "out"
        code = run(["verify", "--config", config_dir / "spin_negative_control.ini",
                    "--out", out, "--tolerance-scale", "1e9"])
        assert code == 0

    def test_quadrupole_config_passes(self, tmp_path, config_dir):
        assert run(["verify", "--config", config_dir / "quadrupole.ini",
                    "--out", tmp_path / "out"]) == 0

    def test_lvn_sweep_runs_once_per_call(self, tmp_path, config_dir, monkeypatch):
        # The lvn and intertwining suites share one LvN residual sweep, in
        # either order; the wrong-H cross-check adds a sweep of its own.
        calls = []
        real = suites.lvn_residual
        monkeypatch.setattr(suites, "lvn_residual",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        text = (config_dir / "spin_default.ini").read_text()
        all_suites = "suites = superalgebra, pairing, gauge, lvn, unitarity, intertwining, " \
                     "solutions"
        assert all_suites in text
        counts = {}
        for names in ("lvn", "intertwining", "lvn, intertwining", "intertwining, lvn",
                      "lvn, intertwining\ncross_check_wrong_h = true"):
            cfg = tmp_path / "suites.ini"
            cfg.write_text(text.replace(all_suites, f"suites = {names}"))
            calls.clear()
            suites.run_suites(load_config(cfg))
            counts[names] = len(calls)
        sweep = counts["lvn"]
        assert sweep > 0
        assert list(counts.values()) == [sweep, sweep, sweep, sweep, 2 * sweep]

    def test_verify_json_deterministic(self, tmp_path, config_dir):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["verify", "--config", config_dir / "oscillator_default.ini",
                        "--out", out]) == 0
        assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()


class TestSolutionsSuite:
    """CF4:2 on the internal grid: its cost, its error bar and its state-error gate."""

    @staticmethod
    def solutions(out):
        payload = json.loads((out / "verify.json").read_text())
        return next(c for c in payload["checks"] if c["name"] == "solutions")

    def test_verify_builds_h_at_fewer_times_than_config_steps(self, tmp_path, config_dir,
                                                              monkeypatch):
        # The solutions suite steps its own coarse grid, so all of verify
        # evaluates H_-(t) at fewer times than the config grid has steps.
        points = []
        real = construction.hamiltonian_from_gauge

        def counting(w, y, t):
            points.append(np.size(t))
            return real(w, y, t)

        monkeypatch.setattr(construction, "hamiltonian_from_gauge", counting)
        monkeypatch.setattr(suites, "hamiltonian_from_gauge", counting)
        config = config_dir / "oscillator_default.ini"
        assert load_config(config).grid().size - 1 == 1500
        assert run(["verify", "--config", config, "--out", tmp_path / "out"]) == 0
        assert 0 < sum(points) < 1500

    @pytest.mark.parametrize("n, buffer", [(32, 4), (128, 16)])
    def test_edge_level_not_checked(self, n, buffer):
        # Level k maps to the Fock state |k + 1>. Level N - 2 maps to the top
        # one, inside the edge buffer, although its truncated K3 eigenvalue
        # reads as an interior level's.
        rep = make_oscillator(n, buffer)
        out = run_prescription(oscillator_supersystem(
            rep, tf.parse("0.007*sin(1.1*t)"), tf.parse("0.4*t"), tf.const(0.55)))
        levels = suites._checkable_levels(rep, out)
        assert len(out.levels) == n - 1
        assert n - 2 not in levels
        assert levels == list(range(n - buffer - 1))

    def test_capped_error_bar_fails_and_is_reported(self, tmp_path, config_dir):
        # At dt = 0.3 the config grid has 17 steps, so the doubling stops at
        # n = 6 steps per segment, where the n-vs-2n bar is about 5e-4.
        text = (config_dir / "spin_default.ini").read_text()
        cfg = tmp_path / "coarse.ini"
        cfg.write_text(text.replace("dt = 0.001", "dt = 0.3"))
        out = tmp_path / "out"
        assert run(["verify", "--config", cfg, "--out", out]) == 1
        check = self.solutions(out)
        assert check["pass"] is False
        assert check["note"].startswith("error bar ")
        assert "capped at the config grid's 17 steps" in check["note"]
        bar = float(check["note"].split()[2])
        assert bar > 1e-5
        assert float(check["max_residual"]) == pytest.approx(bar, rel=1e-3)

    def test_one_step_grid_has_one_segment(self, tmp_path, config_dir, monkeypatch):
        # On a one-step grid both check times are t_final: the internal grid
        # is one segment, and both kept indices are its end.
        calls = []
        real = suites.propagate

        def spy(h, psi0, times, keep=None, order=2):
            calls.append((times[-1], list(keep)))
            return real(h, psi0, times, keep=keep, order=order)

        monkeypatch.setattr(suites, "propagate", spy)
        text = (config_dir / "spin_default.ini").read_text()
        cfg = tmp_path / "one_step.ini"
        cfg.write_text(text.replace("t_final = 5.0", "t_final = 0.001"))
        assert run(["verify", "--config", cfg, "--out", tmp_path / "out"]) == 0
        n = calls[0][1][0]
        assert calls == [(0.001, [n, n]), (0.001, [2 * n, 2 * n])]

    def test_state_error_gate_catches_a_global_phase(self, tmp_path, config_dir,
                                                     monkeypatch):
        # A numeric state off by a global phase has zero infidelity and the
        # same error bar, but a state error of |e^{i eps} - 1| = eps.
        eps = 1e-3
        real = suites.propagate

        def rotated(*args, **kwargs):
            traj = real(*args, **kwargs)
            return replace(traj, states=np.exp(1j * eps) * traj.states)

        monkeypatch.setattr(suites, "propagate", rotated)
        text = (config_dir / "spin_default.ini").read_text()
        cfg = tmp_path / "short.ini"
        cfg.write_text(text.replace("t_final = 5.0", "t_final = 1.0"))
        out = tmp_path / "out"
        assert run(["verify", "--config", cfg, "--out", out]) == 1
        check = self.solutions(out)
        assert check["pass"] is False and check["note"] == ""
        assert float(check["max_residual"]) == pytest.approx(eps, rel=1e-3)


class TestPropagate:
    def test_mapped_level_infidelity(self, tmp_path, config_dir):
        out = tmp_path / "out"
        assert run(["propagate", "--config", config_dir / "spin_default.ini",
                    "--out", out]) == 0
        lines = (out / "solution.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[-1] == "infidelity"
        worst = max(float(line.split(",")[-1]) for line in lines[1:])
        assert worst < 1e-8

    def test_zero_mode_numeric_only(self, tmp_path, config_dir):
        text = (config_dir / "spin_default.ini").read_text()
        cfg = tmp_path / "kernel.ini"
        cfg.write_text(text.replace("level = -1/2", "level = kernel")
                       .replace("t_final = 5.0", "t_final = 1.0"))
        out = tmp_path / "out"
        assert run(["propagate", "--config", cfg, "--out", out]) == 0
        header = (out / "solution.csv").read_text().splitlines()[0]
        assert "closed" not in header and "infidelity" not in header


class TestPhase:
    def test_loop_holonomy(self, tmp_path, config_dir):
        out = tmp_path / "out"
        assert run(["phase", "--config", config_dir / "phase_loop.ini",
                    "--out", out]) == 0
        payload = json.loads((out / "holonomy.json").read_text())
        assert len(payload["levels"]) == 2
        for level in payload["levels"]:
            assert float(level["unitarity_defect"]) < 1e-8
            assert float(level["resolution_doubling_delta"]) < 1e-6
        positive = payload["levels"][1]
        gamma = complex(float(positive["gamma"]["real"][0][0]),
                        float(positive["gamma"]["imag"][0][0]))
        assert abs(gamma - np.exp(-1j * np.pi * (1 - 0.5))) < 1e-5

    def test_open_loop_exit_2(self, tmp_path, config_dir):
        text = (config_dir / "phase_loop.ini").read_text()
        bad = tmp_path / "open.ini"
        bad.write_text(text.replace('phi = "2*pi*t"', 'phi = "3.0*t"'))
        assert run(["phase", "--config", bad, "--out", tmp_path / "out"]) == 2

    def test_reverse_flag_conjugates(self, tmp_path, config_dir):
        out_f, out_r = tmp_path / "f", tmp_path / "r"
        assert run(["phase", "--config", config_dir / "phase_loop.ini",
                    "--out", out_f]) == 0
        assert run(["phase", "--config", config_dir / "phase_loop.ini",
                    "--out", out_r, "--reverse"]) == 0
        fwd = json.loads((out_f / "holonomy.json").read_text())["levels"][1]
        rev = json.loads((out_r / "holonomy.json").read_text())["levels"][1]
        gf = complex(float(fwd["gamma"]["real"][0][0]),
                     float(fwd["gamma"]["imag"][0][0]))
        gr = complex(float(rev["gamma"]["real"][0][0]),
                     float(rev["gamma"]["imag"][0][0]))
        assert abs(gr - np.conj(gf)) < 1e-8


class TestSweep:
    def test_sweep_cells(self, tmp_path, config_dir):
        out = tmp_path / "out"
        assert run(["sweep", "--config", config_dir / "sweep_example.ini",
                    "--out", out]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "cell,worst_residual,pass"
        assert len(rows) == 4
        for i in range(3):
            cell = json.loads((out / f"sweep_cell_{i:03d}.json").read_text())
            assert cell["all_pass"] is True

    def test_sweep_without_section_exit_2(self, tmp_path, config_dir):
        assert run(["sweep", "--config", config_dir / "spin_default.ini",
                    "--out", tmp_path / "out"]) == 2


class TestD0File:
    def test_explicit_matrix_file(self, tmp_path, config_dir):
        # Supplying J+ through a matrix file must reproduce the named behavior.
        jplus = [[0.0, 1.0], [0.0, 0.0]]
        d0 = tmp_path / "d0.json"
        d0.write_text(json.dumps({"real": jplus}))
        text = (config_dir / "spin_default.ini").read_text()
        cfg = tmp_path / "file_d0.ini"
        cfg.write_text(text.replace("named = Jplus", f"file = {d0}")
                       .replace("t_final = 5.0", "t_final = 1.0"))
        assert run(["verify", "--config", cfg, "--out", tmp_path / "out"]) == 0

    def test_zero_d0_passes_with_warning(self, tmp_path, config_dir, capsys):
        d0 = tmp_path / "zero.json"
        d0.write_text(json.dumps({"real": [[0.0, 0.0], [0.0, 0.0]]}))
        text = (config_dir / "spin_default.ini").read_text()
        cfg = tmp_path / "zero_d0.ini"
        cfg.write_text(text.replace("named = Jplus", f"file = {d0}")
                       .replace("t_final = 5.0", "t_final = 1.0"))
        out = tmp_path / "out"
        assert run(["verify", "--config", cfg, "--out", out]) == 0
        assert "no positive levels" in capsys.readouterr().out
        payload = json.loads((out / "verify.json").read_text())
        assert payload["all_pass"] is True

    def test_solutions_propagate_only_checkable_levels(self, tmp_path, config_dir,
                                                      monkeypatch):
        # The solutions suite propagates nothing when no level is checkable.
        # Otherwise it runs CF4:2 on internal grids of n equal steps on each
        # of [0, 0.5] and [0.5, 1], doubling n, and keeps only the two check
        # points: indices n and 2n, at the config grid's t = 0.5 and t = 1.
        calls = []
        real = suites.propagate

        def spy(h, psi0, times, keep=None, order=2):
            calls.append((times, list(keep), order))
            return real(h, psi0, times, keep=keep, order=order)

        monkeypatch.setattr(suites, "propagate", spy)
        d0 = tmp_path / "zero.json"
        d0.write_text(json.dumps({"real": [[0.0, 0.0], [0.0, 0.0]]}))
        text = (config_dir / "spin_default.ini").read_text() \
            .replace("t_final = 5.0", "t_final = 1.0")
        for name, cfg_text, propagated in (
                ("zero_d0", text.replace("named = Jplus", f"file = {d0}"), False),
                ("default", text, True)):
            calls.clear()
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text(cfg_text)
            assert run(["verify", "--config", cfg, "--out", tmp_path / name]) == 0
            assert bool(calls) == propagated
        assert len(calls) >= 2
        n0 = len(calls[0][0]) // 2
        for k, (times, keep, order) in enumerate(calls):
            n = n0 * 2 ** k
            assert order == 4 and keep == [n, 2 * n]
            assert np.allclose(np.diff(times), 0.5 / n)
            assert (times[n], times[2 * n]) == (0.5, 1.0)

    def test_oscillator_propagate_level(self, tmp_path, config_dir):
        out = tmp_path / "out"
        assert run(["propagate", "--config", config_dir / "oscillator_default.ini",
                    "--out", out]) == 0
        lines = (out / "solution.csv").read_text().splitlines()
        worst = max(float(line.split(",")[-1]) for line in lines[1:])
        assert worst < 1e-6


class TestStepTooLarge:
    @pytest.mark.parametrize("command", ["propagate", "verify"])
    def test_exit_2_with_one_line(self, tmp_path, config_dir, capsys, command):
        text = (config_dir / "spin_default.ini").read_text()
        cfg = tmp_path / "coarse.ini"
        cfg.write_text(text.replace("dt = 0.001", "dt = 1.0"))
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: step too large: ||H||*dt = 1 >= 0.5")
        assert err.count("\n") == 1


class TestRuntimeInputErrors:
    # Bad [d0] files are rejected by load_config; a pairing too close to the
    # zero-mode threshold, a level that does not split into generator
    # eigenvectors and a loop open by less than the 1e-9 angle check are
    # raised by the library. All exit 2 with one line, no traceback.
    @pytest.mark.parametrize("config, command, old, new, d0_text, message", [
        ("spin_default", "verify", "named = Jplus", "file = {d0}", None,
         "file not found"),
        ("spin_default", "verify", "named = Jplus", "file = {d0}", '{"real": [[0, 1], [0',
         "not a JSON matrix"),
        ("spin_default", "verify", "named = Jplus", "file = {d0}",
         '{"real": [[0, 1], [0, 0], [1, 1]]}', "got shape (3, 2)"),
        ("spin_default", "verify", "named = Jplus", "file = {d0}",
         '{"real": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]}', "expected a 2x2 matrix"),
        ("spin_default", "verify", "named = Jplus", "file = {d0}",
         '{"real": [[NaN, 1], [0, 0]]}', "real and imag must be finite"),
        ("spin_default", "verify", "named = Jplus", "file = {d0}",
         '{"real": [[0, 1], [0, 0]], "imag": [[1]]}', "got (2, 2) and (1, 1)"),
        ("spin_default", "verify", "named = Jplus", "file = {d0}",
         '{"real": [[1, 0], [0, 7.0710678118654756e-05]]}',
         "too close to the zero-mode threshold"),
        ("spin_default", "verify", "named = Jplus", "file = {d0}",
         '{"real": [[0, 1], [0, 0]], "imag": [[1, 1], [1, 1]]}',
         "does not split into generator eigenvectors"),
        ("phase_loop", "phase", 'theta = "1.0471975511965976"',
         'theta = "1.0471975511965976 + 0.0000000005*t"', None,
         "frame is not closed over the loop"),
    ], ids=["missing_d0_file", "truncated_d0_json", "non_square_d0", "d0_dimension",
            "non_finite_d0", "d0_imag_shape", "pairing_ambiguity", "generator_split",
            "loop_not_closed"])
    def test_exit_2_with_one_line(self, tmp_path, config_dir, capsys, config, command,
                                  old, new, d0_text, message):
        d0 = tmp_path / "d0.json"
        if d0_text is not None:
            d0.write_text(d0_text)
        text = (config_dir / f"{config}.ini").read_text()
        assert old in text
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text.replace(old, new.format(d0=d0)))
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert err.count("\n") == 1


class TestLevelAndFamilyGuards:
    def test_oscillator_quadratic_y_rejected(self, tmp_path, config_dir):
        text = (config_dir / "oscillator_default.ini").read_text()
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace('f = "0.5"', 'f = "0.5"\ng = "0.1"'))
        assert run(["verify", "--config", bad, "--out", tmp_path / "out"]) == 2

    def test_unknown_level_exit_2(self, tmp_path, config_dir):
        text = (config_dir / "oscillator_default.ini").read_text()
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace("level = 0", "level = 99"))
        assert run(["propagate", "--config", bad, "--out", tmp_path / "out"]) == 2

    def test_garbled_level_exit_2(self, tmp_path, config_dir):
        text = (config_dir / "spin_default.ini").read_text()
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace("level = -1/2", "level = highest"))
        assert run(["propagate", "--config", bad, "--out", tmp_path / "out"]) == 2


def loaded_by_cli_import(top: str) -> list[str]:
    """Names of the ``top`` package's modules that a fresh ``import susyinv.cli`` loads."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("import json, sys, susyinv.cli; "
            f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == {top!r})))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


def test_cli_import_loads_no_scipy():
    # Nothing on the CLI path needs scipy; importing it would cost every call
    # about 0.2 s of set-up.
    assert loaded_by_cli_import("scipy") == []


@pytest.mark.parametrize("top", ["concurrent"])
def test_cli_import_loads_no_module(top):
    # Top-level packages the CLI path does without: the sweep runs its cells
    # in one serial loop, so concurrent.futures has no user.
    assert loaded_by_cli_import(top) == []
