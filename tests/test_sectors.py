"""The sectors that every command takes the oscillator in, and their dense references."""

import json
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from dense_reference import one_sector, sampled_residuals, solutions_result
from susyinv import cli, dynamics, operators, sectors, suites
from susyinv.cli import main
from susyinv.config import load_config
from susyinv.dynamics import FD_STEP
from susyinv.operators import read_only
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

    def test_spin_is_one_sector(self, config_dir, monkeypatch):
        # J1 couples every m: the search itself joins all of them, whatever j, and
        # one sector is the whole space, with the system's own objects.
        found = []
        real = sectors.find_sectors

        def spy(matrices, vectors):
            found.append(real(matrices, vectors))
            return found[-1]

        monkeypatch.setattr(sectors, "find_sectors", spy)
        for j in (0.5, 5.0):
            rep, out = suites.build_system(
                replace(load_config(config_dir / "spin_default.ini"), j=j))
            assert out.sectors == (out.whole,)
            assert [p.size for p in found.pop()] == [rep.dim]
            assert out.whole.rows is None and out.whole.projector is None
            assert out.whole.gauge is out.system.w_minus
            assert out.whole.i_ref is out.invariant.Iminus

    def test_d0_file_that_couples_parities_is_one_sector(self, tmp_path, config_dir):
        # I_-(0) = d0 d0^dag / 2 of d0 = a^dag + a^dag^2 holds a^dag a^dag a, which
        # changes the Fock number by one. (The prescription refuses this d0,
        # as its levels do not split into K3 eigenvectors.)
        rep = make_oscillator(16, 4)
        adag = rep.adag
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
            i_minus = build_invariant(build_supercharge(d0)).Iminus
            return sectors.find_sectors(
                [rep.K2, i_minus, rep.K1, rep.K3], np.zeros((16, 0)))

        assert [p.size for p in parts(cfg.d0_for(rep))] == [16]
        assert [p.size for p in parts(rep.adag)] == [8, 8]

    def test_a_vector_joins_the_indices_it_touches(self):
        vectors = np.zeros((4, 1))
        vectors[[0, 3], 0] = 1.0
        parts = sectors.find_sectors([np.eye(4)], vectors)
        assert [p.tolist() for p in parts] == [[0, 3], [1], [2]]


def stored_matrices(rep, out) -> dict[str, np.ndarray]:
    """Every matrix that a representation and its prescription's output store, the
    whole block's and each sector's cuts included, by name."""
    found = {name: m for name, m in vars(rep).items() if isinstance(m, np.ndarray)}
    found.update(d0=out.system.d0, Iplus=out.invariant.Iplus, Iminus=out.invariant.Iminus,
                 d=out.invariant.d)
    for k, block in enumerate((out.whole, *out.sectors)):
        named = {"d3": block.gauge.d3, "d2": block.gauge.d2, "D": block.y.D,
                 "i_ref": block.i_ref, "projector": block.projector,
                 **{f"generator {i}": g for i, g in enumerate(block.generators)}}
        found.update({f"block {k} {name}": m for name, m in named.items() if m is not None})
    return found


class TestStoredMatrices:
    @pytest.mark.parametrize("family", ["spin", "spin_d0_file", "oscillator"])
    def test_every_stored_matrix_is_read_only(self, config_dir, family):
        if family == "oscillator":
            cfg, sectors_found = oscillator(config_dir, 33, 8), 2
        else:
            cfg, sectors_found = load_config(config_dir / "spin_default.ini"), 1
        if family == "spin_d0_file":
            cfg = replace(cfg, d0=read_only([[0, 1], [0, 0]]))
        rep, out = suites.build_system(cfg)
        assert len(out.sectors) == sectors_found
        matrices = stored_matrices(rep, out)
        assert len(matrices) >= 15
        assert all(m.dtype == complex for m in matrices.values())
        assert [name for name, m in matrices.items() if m.flags.writeable] == []

    def test_a_scalar_time_gives_numpy_its_entries(self, config_dir):
        _, out = suites.build_system(oscillator(config_dir, 33, 8))
        h = out.h_minus(0.3)
        assert np.asarray(h) is h.entries
        assert not h.entries.flags.writeable


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

    def test_sectors_hold_the_whole_cut_to_their_rows(self, config_dir, n, buffer):
        # The closed-form generators and the interior projector, cut in one place.
        rep, out = suites.build_system(oscillator(config_dir, n, buffer))
        whole = out.whole
        assert all(np.array_equal(g, r)
                   for g, r in zip(whole.generators, rep.generators, strict=True))
        assert np.array_equal(whole.projector, rep.projector_interior)
        assert len(out.sectors) == 2
        for sector in out.sectors:
            ix = np.ix_(sector.rows, sector.rows)
            assert all(np.array_equal(g, w[ix])
                       for g, w in zip(sector.generators, whole.generators, strict=True))
            assert np.array_equal(sector.projector, whole.projector[ix])

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

    def test_kernel_level_propagate(self, tmp_path, config_dir, monkeypatch, n, buffer):
        # The kernel state is the lowest eigenvector of the even sector's block of
        # I_-(0), zero on the odd Fock states: exactly one sector, the even one, is
        # exponentiated, and no step exponential is N x N. Its solution.csv agrees
        # with the dense route within 1e-12 of its largest entry.
        text = (config_dir / "oscillator_default.ini").read_text()
        for old, new in (("n = 32", f"n = {n}"), ("buffer = 8", f"buffer = {buffer}"),
                         ("level = 0", "level = kernel")):
            assert old in text
            text = text.replace(old, new)
        config = tmp_path / "kernel.ini"
        config.write_text(text)
        shapes, stepped = [], []
        real, real_factors = dynamics.expm_i_hermitian, dynamics._step_factors

        def spy(h, tau):
            shapes.append(np.shape(h)[-2:])
            return real(h, tau)

        def spy_factors(h, times, dims, sectors, order):
            stepped.append(list(sectors))
            return real_factors(h, times, dims, sectors, order)

        monkeypatch.setattr(dynamics, "expm_i_hermitian", spy)
        monkeypatch.setattr(dynamics, "_step_factors", spy_factors)
        assert main(["propagate", "--config", str(config),
                     "--out", str(tmp_path / "sectored")]) == 0
        assert stepped == [[0]]
        assert set(shapes) == {(n - n // 2, n - n // 2)}
        with one_sector():
            assert main(["propagate", "--config", str(config),
                         "--out", str(tmp_path / "dense")]) == 0
        sectored, dense = (numbers(tmp_path / route / "solution.csv")
                           for route in ("sectored", "dense"))
        assert sectored.shape == dense.shape
        assert np.max(np.abs(sectored - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("n, buffer", [(32, 8), (33, 8)])
def test_mapped_solution_in_interleaved_sector_order(config_dir, n, buffer):
    # Levels asked for alternately from the odd and the even sector come back in
    # the order asked, each equal to the bit to that level asked for alone.
    rep, out = suites.build_system(oscillator(config_dir, n, buffer))
    every = np.arange(len(out.levels))
    even, odd = (every[s.holds(every)] for s in out.sectors)
    interleaved = [int(level) for pair in zip(odd, even) for level in pair]
    ts = np.array([0.0, 0.7, 1.9])
    alone = np.stack([out.mapped_solution(level, ts) for level in interleaved], axis=-1)
    assert np.array_equal(out.mapped_solution(interleaved, ts), alone)
    assert np.array_equal(out.mapped_solution(interleaved, 0.7), alone[1])


def test_outputs_do_not_depend_on_the_chunks(tmp_path, config_dir, monkeypatch):
    # The chunk loops reuse one set of buffers from chunk to chunk, shared by the
    # two 16 x 16 sectors: a view read after a later chunk or the other sector has
    # overwritten it, or a short last chunk read past its end, would move a number.
    # The sampled residuals, the verify results and build's three files are the
    # same with the default chunks (the 9 sample times in one), with 4 points a
    # chunk (the last one short) and with one.
    text = (config_dir / "oscillator_default.ini").read_text()
    assert "t_final = 3.0" in text
    config = tmp_path / "osc.ini"
    config.write_text(text.replace("t_final = 3.0", "t_final = 0.5"))
    cfg = replace(load_config(config), cross_check_wrong_h=True)
    seen = []
    for chunk_bytes in (operators.CHUNK_BYTES, 4 * 16 * 16 ** 2, 1):
        monkeypatch.setattr(operators, "CHUNK_BYTES", chunk_bytes)
        run = suites._Run(cfg, *suites.build_system(cfg))
        out = tmp_path / str(chunk_bytes)
        assert main(["build", "--config", str(config), "--out", str(out)]) == 0
        seen.append((run.sampled, suites.run_suites(cfg),
                     {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert len(seen[0][2]) == 3
    assert seen[1] == seen[0] and seen[2] == seen[0]


def numbers(path) -> np.ndarray:
    """Every number of a CSV table, or of the samples of U_minus.json."""
    if path.suffix == ".csv":
        return np.loadtxt(path, delimiter=",", skiprows=1)
    samples = json.loads(path.read_text())["samples"]
    return np.array([[float(s["t"])] + [float(x) for part in ("real", "imag")
                                        for row in s["U"][part] for x in row]
                     for s in samples])


def closed_loop(config_dir, n: int, buffer: int) -> str:
    """oscillator_default.ini at N = n as a closed loop of 200 phase steps."""
    text = (config_dir / "oscillator_default.ini").read_text()
    for old, new in (("n = 32", f"n = {n}"), ("buffer = 8", f"buffer = {buffer}"),
                     ('theta = "0.01*sin(t)"', 'theta = "0.01"'),
                     ('phi = "0.4*t"', 'phi = "2*pi*t"'), ("t_final = 3.0", "t_final = 1.0")):
        assert old in text
        text = text.replace(old, new)
    return text + "\n[phase]\nsteps = 200\n"


@pytest.mark.parametrize("command, level", [
    ("build", "0"), ("verify", "0"), ("propagate", "0"), ("propagate", "kernel"),
    ("phase", "0")], ids=["build", "verify", "propagate", "propagate_kernel", "phase"])
def test_no_command_builds_the_whole_space_gauge(tmp_path, config_dir, monkeypatch,
                                                 command, level):
    # Every command takes W in the sectors, and build's U_- and the superalgebra
    # and intertwining suites' W as the direct sum of their blocks: the eigenbasis
    # of the whole D2 is never built.
    outputs = []
    real = suites.build_system

    def capture(cfg):
        rep, out = real(cfg)
        outputs.append(out)
        return rep, out

    monkeypatch.setattr(suites, "build_system", capture)
    monkeypatch.setattr(cli, "build_system", capture)
    config = tmp_path / "loop.ini"
    config.write_text(closed_loop(config_dir, 32, 8).replace("level = 0", f"level = {level}"))
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    [out] = outputs
    assert "_d2_basis" not in vars(out.system.w_minus)
    assert len(out.sectors) == 2 and all("_d2_basis" in vars(s.gauge) for s in out.sectors)


def test_phase_lists_a_shared_eigenvalue_once_per_sector(tmp_path, config_dir):
    # With d0 the identity, I_-(0) = 1/2 on all 16 Fock states: each parity sector
    # holds the eigenvalue 1/2 eight times, and phase writes one level of 8 per
    # sector, the even one first.
    path = tmp_path / "d0.json"
    path.write_text(json.dumps({"real": np.eye(16).tolist(), "imag": np.zeros((16, 16)).tolist()}))
    config = tmp_path / "identity.ini"
    config.write_text(closed_loop(config_dir, 16, 4).replace("named = adag", f"file = {path}"))
    assert main(["phase", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    levels = json.loads((tmp_path / "out" / "holonomy.json").read_text())["levels"]
    assert [lv["degeneracy"] for lv in levels] == [8, 8]
    assert levels[0]["invariant_eigenvalue"] == levels[1]["invariant_eigenvalue"]
    assert all(float(lv["unitarity_defect"]) < 1e-9 for lv in levels)


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
