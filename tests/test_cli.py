import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from susyinv import cli, construction, dynamics, suites, susy
from susyinv import timefunc as tf
from susyinv.cli import main
from susyinv.config import HELD_MATRICES, ConfigError, load_config
from susyinv.construction import oscillator_supersystem, run_prescription
from susyinv.representations import make_oscillator, make_spin
from susyinv.susy import SuperalgebraReport


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
        ("spin_default", "verify", "b = 1.0", "b = 1e308",
         "[system] b = 1e+308: the plus-sector phase b*j*t must be finite up to t = 5"),
        ("spin_default", "verify", 'f = "0.5"', 'f = "1e400"',
         "[y] f = '\"1e400\"': not finite at t = 0"),
        ("spin_default", "verify", 'f = "0.5"', 'f = "t*t"',
         "[y] f = '\"t*t\"': antiderivative of (1*t)*(1*t) leaves the closed family"),
        ("spin_default", "verify", 'f = "0.5"', 'f = "t*sin(1e-200*t)"',
         "[y] f = '\"t*sin(1e-200*t)\"': antiderivative of (1*t)*(sin(1e-200*t)) needs "
         "1/(1e-200)^2, outside the float range"),
        ("spin_default", "verify", "[checks]\n", "[checks]\ncross_check_wrong_h = ture\n",
         "[checks] cross_check_wrong_h = 'ture' is not a boolean; "
         "use one of 1, yes, true, on, 0, no, false, off"),
        ("phase_loop", "phase", "steps = 2000", "steps = 2000\nreverse = ture",
         "[phase] reverse = 'ture' is not a boolean; "
         "use one of 1, yes, true, on, 0, no, false, off"),
        # Sizes no machine holds: refused before any array is built.
        ("oscillator_default", "verify", "n = 32", "n = 10000000",
         "[system] n = 10000000: a command holds 34 complex (10000000, 10000000) "
         "matrices, 5.44e+16 bytes, more than the "),
        ("spin_default", "verify", "j = 1/2", "j = 1e7",
         "[system] j = '1e7': a command holds 34 complex (20000001, 20000001) matrices, "
         "2.18e+17 bytes, more than the "),
    ], ids=["half_integer_j", "integer_phase_steps", "buffer_range", "zero_step_grid",
            "non_finite_t_final", "non_finite_b", "overflowing_b", "overflowing_f",
            "f_without_antiderivative", "f_antiderivative_divides_by_zero",
            "misspelt_cross_check_wrong_h", "misspelt_phase_reverse", "oversized_n",
            "oversized_j"])
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

    def test_memory_bound_counts_the_matrices_a_command_holds(self, tmp_path, config_dir,
                                                               capsys, monkeypatch):
        # With 1 MiB of memory one complex (64, 64) matrix fits, but not the
        # HELD_MATRICES of them a command holds; sysconf is faked, so no large
        # array is built.
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        text = (config_dir / "oscillator_default.ini").read_text()
        cfg = tmp_path / "n.ini"
        cfg.write_text(text.replace("n = 32", "n = 64"))
        assert run(["verify", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == (
            "config error: [system] n = 64: a command holds 34 complex (64, 64) matrices, "
            "2.23e+06 bytes, more than the 1.05e+06 bytes of memory\n")
        assert not (tmp_path / "out").exists()
        assert load_config(config_dir / "oscillator_default.ini").n == 32

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

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (11, 11)])
    def test_json_complex_is_the_payload_text(self, shape):
        # U_minus.json's writer gives the bytes json.dumps gives for the payload.
        rng = np.random.default_rng(5)
        m = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape) \
            + 1j * rng.normal(size=shape)
        m.flat[0] = complex(-0.0, np.inf)
        m.flat[-1] = complex(np.nan, 1e-320)
        payload = {"real": [[f"{float(v):.17g}" for v in row] for row in m.real],
                   "imag": [[f"{float(v):.17g}" for v in row] for row in m.imag]}
        assert cli._json_complex(m) == json.dumps(payload, sort_keys=True)

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

    @pytest.mark.parametrize("config, flags", [("spin_negative_control", []),
                                               ("spin_default", ["--cross-check-wrong-H"])])
    def test_controls_fail_only_the_wrong_h_check(self, tmp_path, config_dir, config,
                                                  flags):
        out = tmp_path / "out"
        assert run(["verify", "--config", config_dir / f"{config}.ini",
                    "--out", out, *flags]) == 1
        payload = json.loads((out / "verify.json").read_text())
        assert [c["name"] for c in payload["checks"] if not c["pass"]] == ["lvn_wrong_h"]

    def test_tolerance_scale_loosens(self, tmp_path, config_dir):
        out = tmp_path / "out"
        code = run(["verify", "--config", config_dir / "spin_negative_control.ini",
                    "--out", out, "--tolerance-scale", "1e9"])
        assert code == 0

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("command, config", [("verify", "spin_negative_control"),
                                                 ("sweep", "sweep_example")])
    def test_bad_tolerance_scale_exit_2_with_one_line(self, tmp_path, config_dir, capsys,
                                                      command, config, scale):
        # inf would pass every check of the negative control; nan, 0 and -1
        # would fail every one.
        assert run([command, "--config", config_dir / f"{config}.ini",
                    "--out", tmp_path / "out", "--tolerance-scale", scale]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --tolerance-scale must be finite and positive")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("names", ["superalgebra, pairing, lvn",
                                       "pairing, lvn, superalgebra, lvn",
                                       "lvn, superalgebra"])
    def test_supercharge_built_once_per_call(self, tmp_path, config_dir, monkeypatch,
                                             names):
        # superalgebra and pairing share the one supercharge, invariant and
        # spectral pairing that run_prescription builds. Each name is counted
        # on every susyinv module that binds it.
        calls = []
        for name in ("build_supercharge", "build_invariant", "pair_spectra"):
            real = getattr(susy, name)
            for module in (susy, construction, suites):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, lambda *a, _real=real, _name=name,
                                        **kw: calls.append(_name) or _real(*a, **kw))
        text = (config_dir / "spin_default.ini").read_text()
        all_suites = "superalgebra, pairing, gauge, lvn, unitarity, intertwining, solutions"
        cfg = tmp_path / "suites.ini"
        cfg.write_text(text.replace(all_suites, names))
        suites.run_suites(load_config(cfg))
        assert sorted(calls) == ["build_invariant", "build_supercharge", "pair_spectra"]

    def test_superalgebra_checks_the_identities_after_t0(self, config_dir, monkeypatch):
        # U+ scaled by 1.01 leaves I(0) and d0 alone, so the relations at t = 0
        # hold; I-(t) = d d^dag / 2 fails at the sample times by 2 % of ||I-||.
        real = construction.SuperSystem.u_plus_phases
        cfg = replace(load_config(config_dir / "spin_default.ini"), suites=("superalgebra",))
        [honest] = suites.run_suites(cfg)
        monkeypatch.setattr(construction.SuperSystem, "u_plus_phases",
                            lambda system, ts: 1.01 * real(system, ts))
        [result] = suites.run_suites(cfg)
        assert honest.passed and honest.max_residual < 1e-14
        assert not result.passed and result.max_residual > 1e-3

    def test_quadrupole_config_passes(self, tmp_path, config_dir):
        assert run(["verify", "--config", config_dir / "quadrupole.ini",
                    "--out", tmp_path / "out"]) == 0

    def test_lvn_sweep_runs_once_per_call(self, tmp_path, config_dir, monkeypatch):
        # The lvn and intertwining suites share one LvN residual sweep, in
        # either order; the wrong-H cross-check takes one more LvN residual,
        # against H+, in the same pass over the sample times.
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

    @pytest.mark.parametrize("config", ["oscillator_default", "phase_loop", "quadrupole",
                                        "spin_default", "spin_negative_control",
                                        "sweep_example"])
    def test_sampled_residuals_do_not_depend_on_the_selection(self, config_dir, config):
        # Each suite of the shared pass over the sample times gets the same
        # residual, to the bit, alone as with every other suite selected.
        cfg = load_config(config_dir / f"{config}.ini")
        together = {r.name: r.max_residual
                    for r in suites.run_suites(replace(cfg, suites=tuple(suites.SUITES)))}
        for name in ("gauge", "lvn", "unitarity", "intertwining"):
            alone = suites.run_suites(replace(cfg, suites=(name,)))[0]
            assert alone.name == name
            assert alone.max_residual == together[name]

    def test_shared_pass_builds_w_once_per_time(self, config_dir, monkeypatch):
        # lvn alone builds W at each sample time t, and at t -+ FD_STEP for the
        # central-difference bound on W'; W' itself comes from the factors of
        # the W at t, with no build of its own. gauge and unitarity take theirs
        # from the same W at t, plus one W(0), and so does the wrong-H
        # cross-check, with no build of its own. The oscillator's W is built
        # in its two parity blocks, so each build counts its dimension: one W
        # at a time is N of them.
        points = []
        real = construction.GaugeCurve._factors

        def counting(gauge, t):
            points.append(np.size(t) * gauge.dim)
            return real(gauge, t)

        monkeypatch.setattr(construction.GaugeCurve, "_factors", counting)
        cfg = load_config(config_dir / "oscillator_default.ini")
        counts = {}
        for names, cross in ((("lvn",), False), (("gauge", "lvn", "unitarity"), False),
                             (("gauge", "lvn", "unitarity"), True)):
            points.clear()
            suites.run_suites(replace(cfg, suites=names, cross_check_wrong_h=cross))
            counts[names, cross] = sum(points)
        assert counts[("lvn",), False] == 3 * len(suites._sample_times(cfg)) * cfg.n
        assert counts[("gauge", "lvn", "unitarity"), False] \
            <= counts[("lvn",), False] + cfg.n
        assert counts[("gauge", "lvn", "unitarity"), True] \
            == counts[("gauge", "lvn", "unitarity"), False]

    @staticmethod
    def osc128(tmp_path, config_dir) -> Path:
        """An N = 128, buffer 16 oscillator on a 201-point grid."""
        text = (config_dir / "oscillator_default.ini").read_text()
        edits = (("n = 32", "n = 128"), ("buffer = 8", "buffer = 16"),
                 ("t_final = 3.0", "t_final = 0.1"), ("dt = 0.002", "dt = 0.0005"))
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "osc128.ini"
        path.write_text(text)
        return path

    def test_traced_verify_peak_within_the_memory_bound(self, tmp_path, config_dir):
        # The peak that HELD_MATRICES bounds: an N = 128 oscillator verify
        # (33.7 matrices when the bound was set). An extra held stack fails here.
        cfg = load_config(self.osc128(tmp_path, config_dir))
        suites.run_suites(cfg)
        tracemalloc.start()
        try:
            reports = suites.run_suites(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in reports)
        assert peak <= HELD_MATRICES * 16 * 128 ** 2

    def test_traced_propagate_peak_within_the_memory_bound(self, tmp_path, config_dir):
        # The same bound holds propagate on that oscillator: its writer formats
        # one chunk of solution.csv's rows at a time, and only the sector of the
        # state is stepped.
        args = ["propagate", "--config", self.osc128(tmp_path, config_dir),
                "--out", tmp_path / "out"]
        assert run(args) == 0
        tracemalloc.start()
        try:
            code = run(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= HELD_MATRICES * 16 * 128 ** 2

    def test_planted_term_in_h_raises_exact_lvn_residual(self, config_dir, monkeypatch):
        # A Hermitian term of norm 1e-9 in H_- at N = 128 lifts the exact LvN
        # residual far above its rounding floor. H_- is taken in its two 64 x 64
        # parity blocks, so the term is planted in each, off the 8 edge states
        # of each block.
        cfg = replace(load_config(config_dir / "oscillator_default.ini"), n=128, buffer=16,
                      t_final=0.1, suites=("lvn",))
        rng = np.random.default_rng(3)
        term = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        term = term + term.conj().T
        term[56:], term[:, 56:] = 0, 0
        term *= 1e-9 / np.sqrt(2) / np.linalg.norm(term)
        [clean] = suites.run_suites(cfg)
        real = construction._Sample.h_minus.func
        monkeypatch.setattr(construction._Sample, "h_minus",
                            property(lambda at: real(at) + term))
        [planted] = suites.run_suites(cfg)
        assert clean.passed and clean.max_residual < 1e-12
        assert planted.max_residual >= 10 * clean.max_residual

    def test_lvn_fails_when_w_dot_leaves_its_central_difference(self, config_dir,
                                                                 monkeypatch):
        # The central difference of W bounds the W' that the exact residual is
        # taken from: past tol, relative to max(1, ||W'||), lvn (and
        # intertwining) fail with a note, and the reported residual is still
        # the exact one.
        cfg = replace(load_config(config_dir / "spin_default.ini"),
                      suites=("lvn", "intertwining"))
        honest = suites.run_suites(cfg)
        real = suites.central_difference
        monkeypatch.setattr(suites, "central_difference", lambda m, t: real(m, t) + 1e-5)
        lvn, intertwining = suites.run_suites(cfg)
        assert all(r.passed for r in honest)
        assert not lvn.passed and lvn.max_residual == honest[0].max_residual
        assert "differs from its central difference" in lvn.note
        assert not intertwining.passed

    def test_spin_j20_passes_every_suite(self, tmp_path, config_dir):
        # At j = 20 ||W'||_F is about 116, and the central difference of W
        # misses W' by about 1e-6 from its own truncation error: the bound
        # on W' holds relative to ||W'||.
        text = (config_dir / "spin_default.ini").read_text()
        assert "j = 1/2" in text
        config = tmp_path / "j20.ini"
        config.write_text(text.replace("j = 1/2", "j = 20"))
        out = tmp_path / "out"
        assert run(["verify", "--config", config, "--out", out]) == 0
        checks = json.loads((out / "verify.json").read_text())["checks"]
        assert len(checks) == 7 and all(c["pass"] for c in checks)

    def test_intertwining_survives_a_large_plus_sector(self, tmp_path, config_dir):
        # At b = 1e16 the i d H+ of dd/dt and the + d H+ of the residual are
        # each about 5e15; taken apart, their rounding drowned the O(1) rest
        # (||Y_- d0|| = 0.25) and the suite read 0.
        text = (config_dir / "spin_default.ini").read_text()
        assert "b = 1.0" in text
        config = tmp_path / "b16.ini"
        config.write_text(text.replace("b = 1.0", "b = 1e16"))
        out = tmp_path / "out"
        assert run(["verify", "--config", config, "--out", out]) == 0
        checks = {c["name"]: c for c in json.loads((out / "verify.json").read_text())["checks"]}
        assert checks["intertwining"]["pass"]
        assert float(checks["intertwining"]["max_residual"]) == pytest.approx(0.25, rel=1e-9)

    @pytest.mark.parametrize("suite, part", [("superalgebra", "closure"),
                                             ("superalgebra", "identities"),
                                             ("pairing", "residuals"),
                                             ("solutions", "propagation")])
    def test_nan_in_any_part_fails_the_suite(self, config_dir, monkeypatch, suite, part):
        # Each suite folds several parts into one residual; a NaN in a part
        # that is not the first fails it, where Python's max would drop it.
        if part == "closure":
            monkeypatch.setattr(suites, "check_superalgebra",
                                lambda q, inv: SuperalgebraReport(0.0, np.nan))
        elif part == "identities":
            monkeypatch.setattr(construction.PartnerOutput, "identity_defects",
                                lambda out, ts: {"iplus": 0.0, "iminus": np.nan})
        elif part == "residuals":
            monkeypatch.setattr(suites, "pairing_residuals",
                                lambda d, levels: np.full(levels.lam.shape, np.nan))
        else:
            real = suites.propagate

            def propagate(*args, **kwargs):
                traj = real(*args, **kwargs)
                return replace(traj, states=np.full_like(traj.states, np.nan))

            monkeypatch.setattr(suites, "propagate", propagate)
        cfg = replace(load_config(config_dir / "spin_default.ini"), suites=(suite,))
        [result] = suites.run_suites(cfg)
        assert np.isnan(result.max_residual) and not result.passed

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
        # Every H_- is assembled by _Sample.h_minus; the wrapper counts each use.
        points = []
        real = construction._Sample.h_minus.func

        def counting(at):
            points.append(np.size(at.ts))
            return real(at)

        monkeypatch.setattr(construction._Sample, "h_minus", property(counting))
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

    @staticmethod
    def propagations(monkeypatch) -> list:
        """Steps and kept states of every run the solutions suite propagates."""
        calls = []
        real = suites.propagate

        def spy(h, psi0, times, keep=None, order=2):
            traj = real(h, psi0, times, keep=keep, order=order)
            calls.append((times.size - 1, traj.states))
            return traj

        monkeypatch.setattr(suites, "propagate", spy)
        return calls

    @staticmethod
    def bars(calls) -> list[float]:
        return [float(np.max(np.linalg.norm(fine - coarse, axis=1)))
                for (_, coarse), (_, fine) in zip(calls, calls[1:])]

    @staticmethod
    def run_solutions(tmp_path, config_dir, name, *edits):
        """The solutions suite alone on a shipped config with text edits."""
        text = (config_dir / f"{name}.ini").read_text()
        for old, new in edits + (("superalgebra, pairing, gauge, lvn, unitarity, "
                                  "intertwining, solutions", "solutions"),):
            assert old in text
            text = text.replace(old, new)
        cfg = tmp_path / "solutions.ini"
        cfg.write_text(text)
        [result] = suites.run_suites(load_config(cfg))
        return result

    def test_bar_between_margin_and_tol_doubles_again(self, tmp_path, config_dir,
                                                      monkeypatch):
        # The first pair (1 and 2 steps per segment) differs by about 6e-6:
        # below the tolerance but above its tenth, so n doubles once more.
        calls = self.propagations(monkeypatch)
        result = self.run_solutions(tmp_path, config_dir, "spin_default",
                                   ("t_final = 5.0", "t_final = 0.5"))
        tol = result.tolerance
        bars = self.bars(calls)
        assert suites.ERROR_BAR_MARGIN * tol <= bars[0] < tol
        assert [steps for steps, _ in calls] == [2, 4, 8]
        assert bars[-1] < suites.ERROR_BAR_MARGIN * tol
        assert result.passed and result.note == ""

    def test_osc_verify_shape_stops_at_one_and_two_steps(self, tmp_path, config_dir,
                                                         monkeypatch):
        # N = 128 over 200 config steps: the first pair already meets the
        # margin, so the suite exponentiates 2 + 4 steps of two factors each,
        # in each of the two 64 x 64 parity blocks.
        calls = self.propagations(monkeypatch)
        matrices = []
        real = dynamics.expm_i_hermitian

        def counting(h, tau):
            assert np.shape(h)[-1] == 64
            matrices.append(1 if np.ndim(h) == 2 else len(h))
            return real(h, tau)

        monkeypatch.setattr(dynamics, "expm_i_hermitian", counting)
        result = self.run_solutions(
            tmp_path, config_dir, "oscillator_default", ("n = 32", "n = 128"),
            ("buffer = 8", "buffer = 16"), ("t_final = 3.0", "t_final = 0.1"),
            ("dt = 0.002", "dt = 0.0005"))
        assert [steps for steps, _ in calls] == [2, 4]
        assert sum(matrices) == 2 * 12
        assert result.passed and result.max_residual < suites.ERROR_BAR_MARGIN * 1e-5

    def test_oscillatory_gauge_doubles_past_its_wiggles(self, tmp_path, config_dir,
                                                        monkeypatch):
        # Coarse runs miss phi's sin(20 t) wiggles and differ by O(1); no
        # pair of them meets the margin, so nothing stops early.
        calls = self.propagations(monkeypatch)
        result = self.run_solutions(tmp_path, config_dir, "spin_default",
                                   ('phi = "2*t"', 'phi = "2*t + 0.3*sin(20*t)"'))
        bars = self.bars(calls)
        assert bars[0] > 1.0
        assert bars[-1] < suites.ERROR_BAR_MARGIN * result.tolerance
        assert result.passed and result.note == ""

    def test_capped_bar_inside_the_tolerance_passes_with_a_note(self, tmp_path,
                                                                config_dir):
        # dt = 0.08 gives 10 config steps, so the doubling stops after the
        # 2-vs-4 pair, whose bar of about 4e-6 misses only the margin.
        result = self.run_solutions(tmp_path, config_dir, "spin_default",
                                   ("t_final = 5.0", "t_final = 0.8"),
                                   ("dt = 0.001", "dt = 0.08"))
        bar = float(result.note.split()[2])
        assert suites.ERROR_BAR_MARGIN * result.tolerance <= bar < result.tolerance
        assert "at n = 2 steps per segment" in result.note
        assert result.passed

    def test_capped_error_bar_fails_and_is_reported(self, tmp_path, config_dir):
        # At dt = 0.3 the config grid has 17 steps, so the doubling stops at
        # n = 4 steps per segment, where the n-vs-2n bar is about 2.5e-3.
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

    def test_singular_overlap_exit_2_with_one_line(self, tmp_path, config_dir, capsys):
        # At theta = pi/2 the spin-1/2 frame at s = 1/2 is orthogonal to the one
        # at s = 0, so two steps give a zero overlap: the SVD's arbitrary
        # unitary made gamma read 1 where the holonomy is -1.
        text = (config_dir / "phase_loop.ini").read_text()
        edits = (('theta = "1.0471975511965976"', 'theta = "1.5707963267948966"'),
                 ("steps = 2000", "steps = 2"))
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        cfg = tmp_path / "coarse.ini"
        cfg.write_text(text)
        assert run(["phase", "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: singular matrix has no unique polar factor "
                              "(loop step 1 of 2, s = 0 to 0.5, level 0): ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "holonomy.json").exists()

    def test_one_holonomy_call_per_resolution(self, tmp_path, config_dir, monkeypatch):
        # Every level comes out of the same two calls, at steps and 2*steps.
        calls = []
        real = cli.berry_holonomy
        monkeypatch.setattr(cli, "berry_holonomy",
                            lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
        text = (config_dir / "phase_loop.ini").read_text()
        for j, levels in (("1/2", 2), ("2", 3)):
            cfg = tmp_path / f"j{levels}.ini"
            cfg.write_text(text.replace("j = 1/2", f"j = {j}").replace("steps = 2000",
                                                                     "steps = 200"))
            out = tmp_path / f"out{levels}"
            calls.clear()
            assert run(["phase", "--config", cfg, "--out", out]) == 0
            assert len(json.loads((out / "holonomy.json").read_text())["levels"]) == levels
            assert calls == [200, 400]

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


# I+ = diag(0.5, 2.5e-9): the small eigenvalue sits within 10x of the zero-mode
# threshold, so the pairing is ambiguous.
AMBIGUOUS_D0 = '{"real": [[1, 0], [0, 7.0710678118654756e-05]]}'


class TestRuntimeInputErrors:
    # Bad [d0] files are rejected by load_config; a pairing too close to the
    # zero-mode threshold, a level that does not split into generator
    # eigenvectors and a loop open by less than the 1e-9 angle check are
    # raised by the library. All exit 2 with one line, no traceback. Every
    # command takes its levels from the one pairing, so each exits 2 on it.
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
        ("spin_default", "verify", "named = Jplus", "file = {d0}", AMBIGUOUS_D0,
         "too close to the zero-mode threshold"),
        ("spin_default", "build", "named = Jplus", "file = {d0}", AMBIGUOUS_D0,
         "too close to the zero-mode threshold"),
        ("spin_default", "propagate", "named = Jplus", "file = {d0}", AMBIGUOUS_D0,
         "too close to the zero-mode threshold"),
        ("phase_loop", "phase", "named = Jplus", "file = {d0}", AMBIGUOUS_D0,
         "too close to the zero-mode threshold"),
        ("spin_default", "verify", "named = Jplus", "file = {d0}",
         '{"real": [[0, 1], [0, 0]], "imag": [[1, 1], [1, 1]]}',
         "does not split into generator eigenvectors"),
        ("phase_loop", "phase", 'theta = "1.0471975511965976"',
         'theta = "1.0471975511965976 + 0.0000000005*t"', None,
         "frame is not closed over the loop"),
    ], ids=["missing_d0_file", "truncated_d0_json", "non_square_d0", "d0_dimension",
            "non_finite_d0", "d0_imag_shape", "pairing_ambiguity",
            "pairing_ambiguity_build", "pairing_ambiguity_propagate",
            "pairing_ambiguity_phase", "generator_split", "loop_not_closed"])
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

    def test_pairing_ambiguity_one_line_for_every_command(self, tmp_path, config_dir,
                                                          capsys):
        # One config, one verdict: the same line from every command.
        d0 = tmp_path / "d0.json"
        d0.write_text(AMBIGUOUS_D0)
        lines = set()
        for config, command in (("spin_default", "build"), ("spin_default", "propagate"),
                                ("spin_default", "verify"), ("phase_loop", "phase")):
            text = (config_dir / f"{config}.ini").read_text()
            cfg = tmp_path / f"{command}.ini"
            cfg.write_text(text.replace("named = Jplus", f"file = {d0}"))
            assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
            lines.add(capsys.readouterr().err)
        assert len(lines) == 1

    @pytest.mark.parametrize("command, suites_line", [
        ("propagate", None), ("verify", "suites = solutions")])
    def test_kernel_vector_near_a_level_exit_2_with_one_line(self, tmp_path, config_dir,
                                                              capsys, command, suites_line):
        # j = 1 with I+ = diag(0, 1, 2.965e-9): the last eigenvalue is within
        # 10x of the zero-mode threshold. Clustered with the zero mode before
        # the kernel was split off, it once made a "level" whose mapped state
        # had norm 0.
        d = np.zeros((3, 3))
        d[0, 1], d[1, 2] = np.sqrt(2), 7.7e-5
        d0 = tmp_path / "d0.json"
        d0.write_text(json.dumps({"real": d.tolist()}))
        text = (config_dir / "spin_default.ini").read_text()
        text = text.replace("j = 1/2", "j = 1").replace("named = Jplus", f"file = {d0}") \
            .replace("level = -1/2", "level = auto")
        if suites_line:
            text = text.replace(
                "suites = superalgebra, pairing, gauge, lvn, unitarity, intertwining, "
                "solutions", suites_line)
        cfg = tmp_path / "kernel.ini"
        cfg.write_text(text)
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: eigenvalue 2.965e-09 is too close to the "
                              "zero-mode threshold")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("config, command", [
        ("spin_default", "build"), ("spin_default", "propagate"),
        ("spin_default", "verify"), ("phase_loop", "phase"), ("sweep_example", "sweep")])
    def test_unpaired_level_exit_2_with_one_line(self, tmp_path, config_dir, capsys,
                                                 monkeypatch, config, command):
        # pair_spectra takes eigh of I+, then of I-; the top value of I- moved
        # by 1e-6 relative leaves the level of I+ with no partner.
        real, calls = susy.eigh, []

        def shifted(a):
            es = real(a)
            calls.append(1)
            if len(calls) % 2:
                return es
            values = es.values.copy()
            values[-1] *= 1 + 1e-6
            return replace(es, values=values)

        monkeypatch.setattr(susy, "eigh", shifted)
        assert run([command, "--config", config_dir / f"{config}.ini",
                    "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: positive level 0.5 of I+ has no partner in I-")
        assert err.count("\n") == 1

    def test_failed_pairing_relation_is_a_verdict(self, tmp_path, config_dir, capsys):
        # j = 3/2 and d0 = diag(logspace(-5, 5, 4)) U^dag, U = exp(-0.7i J2): the
        # pairing relation misses by about 5e-9 at level 1077.2. The pairing
        # suite fails on it (exit 1); pair_spectra does not raise.
        w, v = np.linalg.eigh(make_spin(1.5).J2.entries)
        u = v @ np.diag(np.exp(-0.7j * w)) @ v.conj().T
        d = np.diag(np.logspace(-5, 5, 4)) @ u.conj().T
        d0 = tmp_path / "d0.json"
        d0.write_text(json.dumps({"real": d.real.tolist(), "imag": d.imag.tolist()}))
        text = (config_dir / "spin_default.ini").read_text()
        cfg = tmp_path / "j32.ini"
        cfg.write_text(text.replace("j = 1/2", "j = 3/2")
                       .replace("named = Jplus", f"file = {d0}"))
        out = tmp_path / "out"
        assert run(["verify", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == ""
        payload = json.loads((out / "verify.json").read_text())
        pairing = next(c for c in payload["checks"] if c["name"] == "pairing")
        assert not payload["all_pass"]
        assert not pairing["pass"] and float(pairing["max_residual"]) > 1e-10


    @pytest.mark.parametrize("command", ["build", "propagate", "verify"])
    def test_norm_overflow_exit_2_with_one_line(self, tmp_path, config_dir, capsys,
                                                command):
        # f = 1e306 is finite, so load_config takes it, but ||H_-||_F overflows
        # (NonFiniteHamiltonianError).
        text = (config_dir / "spin_default.ini").read_text()
        assert 'f = "0.5"' in text
        cfg = tmp_path / "huge_f.ini"
        cfg.write_text(text.replace('f = "0.5"', 'f = "1e306"'))
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: H_- is not finite at t=")
        assert err.rstrip().endswith("(Frobenius norm inf)")
        assert err.count("\n") == 1


class TestLevelAndFamilyGuards:
    def test_oscillator_quadratic_y_rejected(self, tmp_path, config_dir):
        text = (config_dir / "oscillator_default.ini").read_text()
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace('f = "0.5"', 'f = "0.5"\ng = "0.1"'))
        assert run(["verify", "--config", bad, "--out", tmp_path / "out"]) == 2

    @pytest.mark.parametrize("g, code", [("0", 0), ("0.0", 0), ("0*t", 0), ("sin(0)", 0),
                                         ("1e-300*t", 2)])
    def test_oscillator_zero_g_is_no_quadratic_term(self, tmp_path, config_dir, g, code):
        # A g that parses to the zero constant is absent, however it is spelt.
        text = (config_dir / "oscillator_default.ini").read_text()
        cfg = tmp_path / "g.ini"
        cfg.write_text(text.replace('f = "0.5"', f'f = "0.5"\ng = "{g}"'))
        assert run(["verify", "--config", cfg, "--out", tmp_path / "out"]) == code

    def test_unknown_level_exit_2(self, tmp_path, config_dir, capsys):
        text = (config_dir / "oscillator_default.ini").read_text()
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace("level = 0", "level = 99"))
        assert run(["propagate", "--config", bad, "--out", tmp_path / "out"]) == 2
        # One line, with the message quoted once.
        assert capsys.readouterr().err == ("config error: [propagate] level = '99': "
                                           "no positive level with generator eigenvalue "
                                           "50.25\n")

    @pytest.mark.parametrize("level, message", [("1/0", "zero denominator"),
                                                ("inf", "must be finite"),
                                                ("nan", "must be finite"),
                                                ("1e308/1e-10", "must be finite")])
    def test_bad_level_number_exit_2_with_one_line(self, tmp_path, config_dir, capsys,
                                                   level, message):
        text = (config_dir / "spin_default.ini").read_text()
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace("level = -1/2", f"level = {level}"))
        assert run(["propagate", "--config", bad, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [propagate] level = '{level}': ")
        assert message in err and err.count("\n") == 1

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
