"""The sectors that every command takes the oscillator in, and their dense references."""

import json
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from dense_reference import one_sector, sampled_residuals, solutions_result
from susyinv import sectors, suites
from susyinv.cli import main
from susyinv.config import load_config
from susyinv.dynamics import FD_STEP
from susyinv.representations import make_oscillator
from susyinv.susy import build_invariant, build_supercharge


def sector_rows(cfg) -> list[np.ndarray]:
    rep, out = suites.build_system(cfg)
    return [np.arange(rep.dim) if s.rows is None else s.rows for s in out.sectors]


def oscillator(config_dir, n: int, buffer: int, **changes):
    return replace(load_config(config_dir / "oscillator_default.ini"), n=n, buffer=buffer,
                   **changes)


class TestFindSectors:
    def test_oscillator_splits_into_even_and_odd_fock_states(self, config_dir):
        even, odd = sector_rows(oscillator(config_dir, 128, 16))
        assert np.array_equal(even, np.arange(0, 128, 2))
        assert np.array_equal(odd, np.arange(1, 128, 2))

    def test_odd_truncation_splits_17_and_16(self, config_dir):
        even, odd = sector_rows(oscillator(config_dir, 33, 8))
        assert np.array_equal(even, np.arange(0, 33, 2))
        assert np.array_equal(odd, np.arange(1, 33, 2))
        assert (even.size, odd.size) == (17, 16)

    def test_spin_is_one_sector(self, config_dir):
        cfg = replace(load_config(config_dir / "spin_default.ini"), j=5.0)
        rep, out = suites.build_system(cfg)
        # J1 couples every m: the finder joins all 11, and the run takes spin as
        # one sector without searching.
        matrices = [out.system.w_minus.d2.entries, out.invariant.Iminus.entries,
                    rep.J1.entries, rep.J2.entries, rep.J3.entries]
        assert [p.size for p in sectors.find_sectors(matrices, out.levels.v_minus)] == [11]
        # One sector is the whole space, with the system's own objects.
        [sector] = out.sectors
        assert sector is out.whole and sector.rows is None
        assert sector.gauge is out.system.w_minus
        assert sector.i_ref is out.invariant.Iminus.entries

    def test_d0_file_that_couples_parities_is_one_sector(self, tmp_path, config_dir):
        # I_-(0) = d0 d0^dag / 2 of d0 = a^dag + a^dag^2 holds a^dag a^dag a, which
        # changes the Fock number by one. (The prescription refuses this d0,
        # as its levels do not split into K3 eigenvectors.)
        rep = make_oscillator(16, 4)
        adag = rep.adag.entries
        d0 = adag + adag @ adag
        path = tmp_path / "d0.json"
        path.write_text(json.dumps({"real": d0.real.tolist(), "imag": d0.imag.tolist()}))
        text = (config_dir / "oscillator_default.ini").read_text()
        for old, new in (("n = 32", "n = 16"), ("buffer = 8", "buffer = 4"),
                         ("named = adag", f"file = {path}")):
            assert old in text
            text = text.replace(old, new)
        config = tmp_path / "mixed.ini"
        config.write_text(text)
        cfg = load_config(config)

        def parts(d0):
            i_minus = build_invariant(build_supercharge(d0)).Iminus.entries
            return sectors.find_sectors(
                [rep.K2.entries, i_minus, rep.K1.entries, rep.K3.entries], np.zeros((16, 0)))

        assert [p.size for p in parts(cfg.d0_for(rep))] == [16]
        assert [p.size for p in parts(rep.adag)] == [8, 8]

    def test_a_vector_joins_the_indices_it_touches(self):
        vectors = np.zeros((4, 1))
        vectors[[0, 3], 0] = 1.0
        parts = sectors.find_sectors([np.eye(4)], vectors)
        assert [p.tolist() for p in parts] == [[0, 3], [1], [2]]


@pytest.mark.parametrize("n, buffer", [(32, 8), (33, 8)])
class TestAgainstDense:
    def test_sampled_residuals(self, config_dir, n, buffer):
        # The bound on dW/dt is the distance of W' from a central difference of
        # W, whose rounding is eps ||W||_F / FD_STEP, about 1.3e-10 at N = 32:
        # it is held to a tenth of that, the residuals to 1e-12.
        cfg = oscillator(config_dir, n, buffer, cross_check_wrong_h=True)
        run = suites._Run(cfg, *suites.build_system(cfg))
        assert len(run.out.sectors) == 2
        dense = sampled_residuals(cfg)
        assert set(run.sampled) == set(dense)
        floor = np.finfo(float).eps * np.sqrt(n) / FD_STEP
        for name, value in run.sampled.items():
            bound = floor / 10 if name == "w_dot" else 1e-12
            assert abs(value - dense[name]) <= bound, name

    def test_solutions(self, config_dir, n, buffer):
        cfg = oscillator(config_dir, n, buffer, suites=("solutions",))
        [sectored] = suites.run_suites(cfg)
        dense = solutions_result(cfg, sectored.tolerance)
        assert sectored.passed and dense.passed
        assert abs(sectored.max_residual - dense.max_residual) <= 1e-12


    def test_build_and_propagate_files(self, tmp_path, config_dir, n, buffer):
        # build's three files and propagate's solution.csv, sectored and dense,
        # agree within 1e-12 of each file's largest entry.
        text = (config_dir / "oscillator_default.ini").read_text()
        for old, new in (("n = 32", f"n = {n}"), ("buffer = 8", f"buffer = {buffer}")):
            text = text.replace(old, new)
        config = tmp_path / "osc.ini"
        config.write_text(text)
        cfg = load_config(config)
        assert len(suites.build_system(cfg)[1].sectors) == 2
        for route in ("sectored", "dense"):
            with one_sector() if route == "dense" else nullcontext():
                for command in ("build", "propagate"):
                    assert main([command, "--config", str(config),
                                 "--out", str(tmp_path / route)]) == 0
        for name in ("H_minus.csv", "invariant_spectrum.csv", "U_minus.json",
                     "solution.csv"):
            sectored, dense = (numbers(tmp_path / route / name)
                               for route in ("sectored", "dense"))
            assert sectored.shape == dense.shape
            assert np.max(np.abs(sectored - dense)) <= 1e-12 * np.max(np.abs(dense)), name


def numbers(path) -> np.ndarray:
    """Every number of a CSV table, or of the samples of U_minus.json."""
    if path.suffix == ".csv":
        return np.loadtxt(path, delimiter=",", skiprows=1)
    samples = json.loads(path.read_text())["samples"]
    return np.array([[float(s["t"])] + [float(x) for part in ("real", "imag")
                                        for row in s["U"][part] for x in row]
                     for s in samples])


def test_verify_builds_no_whole_space_gauge(config_dir, monkeypatch):
    # Every suite takes W in the sectors, the superalgebra and intertwining
    # suites as the direct sum of their blocks: the eigenbasis of the whole D2
    # is never built.
    outputs = []
    real = suites.build_system

    def capture(cfg):
        rep, out = real(cfg)
        outputs.append(out)
        return rep, out

    monkeypatch.setattr(suites, "build_system", capture)
    results = suites.run_suites(oscillator(config_dir, 32, 8))
    [out] = outputs
    assert all(r.passed for r in results) and len(results) == 7
    assert "_d2_basis" not in vars(out.system.w_minus)
    assert len(out.sectors) == 2 and all("_d2_basis" in vars(s.gauge) for s in out.sectors)


@pytest.mark.parametrize("command", ["verify", "propagate"])
def test_step_guard_reads_the_whole_h(tmp_path, config_dir, capsys, command):
    # At dt = 0.024 the whole H_- has ||H||_F dt = 0.605, while its even and odd
    # blocks, of norms up to 18.04 and 17.62, reach only 0.433 and 0.423 against
    # the limit of 0.5: a guard taken per sector would let this grid through.
    # propagate steps only the sector of its state, and still reads the whole H.
    text = (config_dir / "oscillator_default.ini").read_text()
    assert "dt = 0.002" in text
    config = tmp_path / "coarse.ini"
    config.write_text(text.replace("dt = 0.002", "dt = 0.024"))
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("config error: step too large: ||H||*dt = 0.605 "
                                       ">= 0.5 (try dt <= 0.0159)\n")
