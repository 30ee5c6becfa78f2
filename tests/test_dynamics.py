import numpy as np
import pytest

from susyinv import dynamics, operators
from susyinv import timefunc as tf
from susyinv.construction import run_prescription, spin_supersystem
from susyinv.dynamics import (NonClosedLoopError, StepSizeError, berry_holonomy,
                              lvn_residual, propagate, propagate_unitary)
from susyinv.operators import (NonFiniteMatrixError, Operator, SingularMatrixError, dagger,
                               direct_sum, eigh)
from susyinv.representations import make_spin

from fd_reference import d_map, fd_intertwining_residual, fd_lvn_residual


def grid(T, dt):
    return np.linspace(0.0, T, int(round(T / dt)) + 1)


def basis_state(spin, m):
    """Unit vector |j, m> in the basis m = j, j-1, ..., -j."""
    return np.eye(spin.dim, dtype=complex)[round(spin.j - m)]


@pytest.fixture(scope="module")
def precessing():
    spin = make_spin(0.5)
    system = spin_supersystem(spin, tf.const(np.pi / 4), tf.linear(2.0),
                              tf.const(0.5), b=1.0)
    return spin, run_prescription(system)


class TestPropagate:
    def test_constant_dipole_phases(self):
        # H = b J3 on |j,m>: psi(t) = e^{-i b t m} |j,m>.
        spin = make_spin(1)
        b = 1.7
        h = Operator(b * spin.J3.entries)
        times = grid(2.0, 1e-3)
        for m in (1.0, 0.0, -1.0):
            traj = propagate(lambda t: h, basis_state(spin, m), times)
            expected = np.exp(-1j * b * times[-1] * m) * basis_state(spin, m)
            assert abs(np.vdot(expected, traj.states[-1])) > 1 - 1e-12

    def test_zero_hamiltonian(self):
        spin = make_spin(0.5)
        h = Operator(np.zeros((2, 2)))
        traj = propagate(lambda t: h, basis_state(spin, 0.5), grid(1.0, 0.01))
        assert np.array_equal(traj.states[-1], traj.states[0])

    def test_norm_drift_small(self, precessing):
        _, out = precessing
        psi0 = out.mapped_solution(0, 0.0)
        traj = propagate(out.h_minus, psi0, grid(5.0, 1e-3))
        assert traj.norm_drift.max() < 1e-9

    def test_against_closed_form_evolution(self, precessing):
        _, out = precessing
        times = grid(5.0, 1e-3)
        psi_ref = np.array([1.0, 1.0]) / np.sqrt(2)
        psi0 = out.u_minus(0.0).entries @ psi_ref
        traj = propagate(out.h_minus, psi0, times)
        closed = out.u_minus(times[-1]).entries @ psi_ref
        assert abs(np.vdot(closed, traj.states[-1])) >= 1 - 1e-8

    def test_second_order_convergence(self, precessing):
        _, out = precessing
        psi_ref = np.array([1.0, 1.0]) / np.sqrt(2)
        psi0 = out.u_minus(0.0).entries @ psi_ref

        def infidelity(dt):
            times = grid(4.0, dt)
            traj = propagate(out.h_minus, psi0, times)
            closed = out.u_minus(times[-1]).entries @ psi_ref
            return 1 - abs(np.vdot(closed, traj.states[-1]))

        assert infidelity(0.02) / infidelity(0.01) >= 3.5

    def test_fourth_order_convergence(self, precessing, monkeypatch):
        # CF4:2: halving dt cuts the state error against the closed form by
        # about 16; with its two factors applied in the other order, by about 4.
        _, out = precessing
        psi_ref = np.array([1.0, 1.0]) / np.sqrt(2)
        psi0 = out.u_minus(0.0).entries @ psi_ref
        closed = out.u_minus(4.0).entries @ psi_ref

        def error(n):
            traj = propagate(out.h_minus, psi0, grid(4.0, 4.0 / n), keep=[n], order=4)
            return np.linalg.norm(traj.states[-1] - closed)

        assert 15 < error(20) / error(40) < 17
        monkeypatch.setattr(dynamics, "CF4_WEIGHTS", dynamics.CF4_WEIGHTS[::-1])
        assert 3.5 < error(20) / error(40) < 4.5

    def test_fourth_order_is_unitary_and_unguarded(self, precessing):
        # At dt = 1, ||H|| dt is twice the midpoint rule's limit; CF4:2 still
        # keeps the norm, and its error is the caller's to estimate.
        _, out = precessing
        psi0 = out.mapped_solution(0, 0.0)
        times = grid(4.0, 1.0)
        with pytest.raises(StepSizeError):
            propagate(out.h_minus, psi0, times)
        traj = propagate(out.h_minus, psi0, times, order=4)
        assert traj.norm_drift.max() < 1e-14

    def test_unknown_order_rejected(self):
        spin = make_spin(0.5)
        with pytest.raises(ValueError, match="order must be 2 or 4"):
            propagate(lambda t: spin.J3, basis_state(spin, 0.5), grid(0.1, 0.01), order=3)

    def test_step_size_rejected_with_suggestion(self):
        spin = make_spin(0.5)
        h = Operator(100.0 * spin.J3.entries)
        with pytest.raises(StepSizeError) as err:
            propagate(lambda t: h, basis_state(spin, 0.5), grid(1.0, 0.1))
        assert err.value.suggested_dt < 0.01

    def test_step_size_first_offending_step(self):
        # Dim 32 splits the 2 001-point grid into chunks of 16 steps; ||H|| dt
        # first reaches the limit at the midpoint 1.2005 and keeps growing.
        spin = make_spin(15.5)
        j3 = spin.J3.entries
        h = lambda t: np.multiply.outer(np.where(t > 1.2, 10.0 * t, 1.0), j3)
        with pytest.raises(StepSizeError) as err:
            propagate(h, basis_state(spin, 0.5), grid(2.0, 1e-3))
        expected = StepSizeError(float(np.linalg.norm(12.005 * j3)), 1e-3)
        assert str(err.value) == str(expected)
        assert str(err.value).startswith("step too large: ||H||*dt = 0.627 >= 0.5 (try dt <=")
        assert err.value.suggested_dt == pytest.approx(expected.suggested_dt, rel=1e-12)

    @pytest.mark.parametrize("order, first", [(2, "step 7 of 10, t = 0.6 to 0.7"),
                                              (4, "step 6 of 10, t = 0.5 to 0.6")])
    @pytest.mark.parametrize("bad", [[[np.nan, 0.0], [0.0, 1.0]], [[np.nan, 1.0], [1.0, 0.0]],
                                     [[np.inf, 0.0], [0.0, 1.0]], [[np.inf, 1.0], [1.0, 0.0]]],
                             ids=["diagonal", "dense", "diagonal-inf", "dense-inf"])
    def test_non_finite_h_names_its_first_step(self, order, first, bad):
        # H turns non-finite after t = 0.55: at the midpoint 0.65 (order 2) and
        # at the second Gauss node of [0.5, 0.6] (order 4). An infinite entry
        # raises the same error, with no numpy warning on the way (the suite
        # turns RuntimeWarning into an error).
        def h(ts):
            return np.where((ts > 0.55)[:, None, None], np.asarray(bad, dtype=complex),
                            np.diag([1.0, -1.0]).astype(complex))
        with pytest.raises(NonFiniteMatrixError, match=f"H on {first}"):
            propagate(h, np.array([1.0, 0.0], dtype=complex), grid(1.0, 0.1), order=order)

    def test_unnormalized_state_rejected(self):
        spin = make_spin(0.5)
        with pytest.raises(ValueError):
            propagate(lambda t: spin.J3, 2.0 * basis_state(spin, 0.5), grid(1.0, 0.01))

    def test_unitary_propagation(self, precessing):
        # Per-step unitarity is rounding-level; drift compounds over 3000 steps.
        _, out = precessing
        traj = propagate_unitary(out.h_minus, 2, grid(3.0, 1e-3))
        assert traj.unitarity_defect.max() < 1e-10
        assert np.diff(traj.unitarity_defect).max() < 1e-13
        closed = out.u_minus(3.0).entries @ out.u_minus(0.0).entries.conj().T
        overlap = abs(np.trace(closed.conj().T @ traj.operators[-1])) / 2
        assert overlap > 1 - 1e-8


class TestBlockAndKeep:
    @pytest.fixture(scope="class")
    def spin_two(self):
        system = spin_supersystem(make_spin(2), tf.parse("0.7 + 0.2*sin(t)"),
                                  tf.linear(1.5), tf.const(0.6))
        return run_prescription(system)

    @staticmethod
    def block(dim, k, seed):
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
        return psi / np.linalg.norm(psi, axis=0)

    def test_block_equals_single_state_runs(self, spin_two):
        times = grid(1.0, 1e-3)
        psi0 = self.block(5, 3, 1)
        traj = propagate(spin_two.h_minus, psi0, times)
        assert traj.states.shape == (times.size, 5, 3)
        for c in range(3):
            single = propagate(spin_two.h_minus, psi0[:, c], times)
            assert np.max(np.abs(traj.states[:, :, c] - single.states)) < 1e-13
        assert traj.norm_drift.shape == (times.size,)
        assert traj.norm_drift.max() < 1e-12

    def test_kept_indices_equal_rows_of_full_trajectory(self, spin_two):
        times = grid(1.0, 1e-3)
        psi0 = self.block(5, 2, 2)
        full = propagate(spin_two.h_minus, psi0, times)
        keep = [700, 0, 350, 350, times.size - 1]
        kept = propagate(spin_two.h_minus, psi0, times, keep=keep)
        assert np.array_equal(kept.times, times[keep])
        assert np.array_equal(kept.states, full.states[keep])
        assert np.array_equal(kept.norm_drift, full.norm_drift[keep])

    def test_steps_stop_at_last_kept_index(self):
        # The step at t > 0.5 would exceed the step-size limit.
        spin = make_spin(0.5)
        h = lambda t: np.multiply.outer(np.where(t > 0.5, 1e4, 1.0), spin.J3.entries)
        times = grid(1.0, 0.01)
        kept = propagate(h, basis_state(spin, 0.5), times, keep=[10, 40])
        assert kept.states.shape == (2, 2)
        with pytest.raises(StepSizeError):
            propagate(h, basis_state(spin, 0.5), times, keep=[10, 60])

    @pytest.mark.parametrize("keep", [[], [-1], [11], [[1, 2]]])
    def test_bad_kept_indices_rejected(self, keep):
        spin = make_spin(0.5)
        with pytest.raises(ValueError, match="kept indices"):
            propagate(lambda t: spin.J3, basis_state(spin, 0.5), grid(0.1, 0.01), keep=keep)

    @pytest.mark.parametrize("order", [2, 4])
    def test_sector_blocks_equal_the_dense_direct_sum(self, order):
        # A block-diagonal H(t) stepped as a tuple of its 3 x 3 and 2 x 2 blocks
        # gives the states of the dense run, kept as the direct sum of the blocks.
        rng = np.random.default_rng(5)

        def hermitian(d):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            return m + m.conj().T

        (a3, b3), (a2, b2) = (hermitian(3), hermitian(3)), (hermitian(2), hermitian(2))
        blocks = lambda t: (a3 + np.multiply.outer(np.sin(t), b3),
                            a2 + np.multiply.outer(np.cos(t), b2))
        dense = lambda t: direct_sum(blocks(t))
        psi0 = (self.block(3, 2, 3), self.block(2, 1, 4))
        times = grid(0.3, 1e-3 if order == 2 else 0.05)
        sectored = propagate(blocks, psi0, times, order=order)
        whole = propagate(dense, direct_sum(psi0), times, order=order)
        assert sectored.states.shape == (times.size, 5, 3)
        assert np.max(np.abs(sectored.states - whole.states)) < 1e-12
        assert np.array_equal(sectored.states[:, 3:, :2], np.zeros((times.size, 2, 2)))

    @pytest.mark.parametrize("order", [2, 4])
    def test_kept_points_across_chunks(self, order, monkeypatch):
        # Chunks of six steps at order 2 and three at order 4, with kept points
        # inside them, on their edges and out of order, give the states of the
        # whole trajectory.
        rng = np.random.default_rng(7)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a3, a2 = m + m.conj().T, np.diag([1.0, -2.0])
        blocks = lambda t: (np.multiply.outer(1 + np.sin(t), a3),
                            np.multiply.outer(np.cos(t), a2))
        psi0 = (self.block(3, 2, 3), self.block(2, 1, 4))
        times = grid(0.3, 0.01)
        whole = propagate(blocks, psi0, times, order=order).states
        monkeypatch.setattr(operators, "CHUNK_BYTES", 16 * 25 * 6)
        keep = [17, 0, 5, 6, 12, 30, 29]
        kept = propagate(blocks, psi0, times, keep=keep, order=order)
        assert np.max(np.abs(kept.states - whole[keep])) < 1e-13

    def test_step_guard_of_sector_blocks_reads_the_whole_h(self):
        # Each block alone has ||H||_F dt = 0.4, the whole H 0.4 sqrt(2) = 0.57.
        h = lambda t: (np.broadcast_to(np.diag([40.0, 0.0]), (np.size(t), 2, 2)),
                       np.broadcast_to(np.diag([0.0, 40.0]), (np.size(t), 2, 2)))
        psi0 = (np.eye(2)[:, :1], np.eye(2)[:, 1:])
        with pytest.raises(StepSizeError, match=r"\|\|H\|\|\*dt = 0\.566"):
            propagate(h, psi0, grid(0.1, 0.01))

    def test_unitary_is_identity_block(self, spin_two):
        times = grid(0.5, 1e-3)
        traj = propagate_unitary(spin_two.h_minus, 5, times)
        block = propagate(spin_two.h_minus, np.eye(5), times)
        assert np.array_equal(traj.operators, block.states)
        assert traj.unitarity_defect.shape == (times.size,)


class TestLvnResidual:
    def test_commuting_constants_vanish(self):
        spin = make_spin(1)
        i_map = lambda t: spin.J3
        h_map = lambda t: Operator(spin.J3.entries * 2.0)
        assert fd_lvn_residual(i_map, h_map, 1.0) < 1e-12

    def test_prescription_invariant(self, precessing):
        _, out = precessing
        worst = max(fd_lvn_residual(out.i_minus, out.h_minus, t)
                    for t in np.arange(0.0, 10.01, 0.5))
        assert worst < 1e-6

    def test_mismatched_hamiltonian_detected(self, precessing):
        # Negative control: same invariant against the plus-sector Hamiltonian.
        _, out = precessing
        res = fd_lvn_residual(out.i_minus, lambda t: out.system.h_plus, 1.0)
        assert res > 0.1

    def test_exact_derivative_hook(self, precessing):
        _, out = precessing
        t, h = 1.3, 1e-5
        i_dot = (out.i_minus(t + h).entries - out.i_minus(t - h).entries) / (2 * h)
        res = lvn_residual(out.i_minus(t).entries, out.h_minus(t).entries, i_dot)
        assert res < 1e-6

    def test_stacks_give_one_residual_per_time(self, precessing):
        # A stack of times gives the residuals of each time, and a constant H
        # is broadcast against the stack.
        _, out = precessing
        at = out.whole.sample(np.array([0.4, 1.3]))
        for h in (at.h_minus, out.system.h_plus):
            stacked = lvn_residual(at.i_minus, h, at.i_dot)
            hs = np.broadcast_to(h, at.i_minus.shape)
            one_by_one = [lvn_residual(i, hk, di)
                          for i, hk, di in zip(at.i_minus, hs, at.i_dot)]
            assert stacked.shape == (2,)
            assert np.allclose(stacked, one_by_one, rtol=1e-12, atol=1e-15)


class TestIntertwining:
    def test_prescription_violates_while_invariant_holds(self, precessing):
        # The generality gap: Y+ = 0 but Y- d0 != 0.
        _, out = precessing
        res = fd_intertwining_residual(d_map(out), out.h_minus, out.system.h_plus, 1.0)
        assert res > 0.1
        assert fd_lvn_residual(out.i_minus, out.h_minus, 1.0) < 1e-6

    def test_residual_equals_y_d0_norm(self, precessing):
        # Unitaries preserve Frobenius: residual = ||Y-(t) d0|| for Y+ = 0.
        _, out = precessing
        expected = np.linalg.norm(out.system.y_minus.diagonal(1.0)[:, None]
                                  * out.system.d0.entries)
        res = fd_intertwining_residual(d_map(out), out.h_minus, out.system.h_plus, 1.0)
        assert res == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(0.25)

    def test_zero_y_satisfies_intertwining(self):
        spin = make_spin(0.5)
        out = run_prescription(spin_supersystem(
            spin, tf.parse("0.3*sin(t)"), tf.parse("0.7*t"), tf.const(0.0)))
        res = fd_intertwining_residual(d_map(out), out.h_minus, out.system.h_plus, 1.0)
        assert res < 1e-6

    def test_constant_commuting_case(self):
        spin = make_spin(1)
        h_map = lambda t: Operator(1.3 * spin.J3.entries)
        assert fd_intertwining_residual(lambda t: spin.J3, h_map, h_map(0.0), 0.7) < 1e-12


class TestBerryHolonomy:
    def test_constant_frame_identity(self):
        v = np.eye(4)[:, :2]
        res = berry_holonomy(lambda s: v, 100)
        assert np.linalg.norm(res.gamma - np.eye(2)) < 1e-12

    def test_spin_half_loop_phase(self):
        # Closed-form oracle: Gamma = exp(-i pi (1 - cos theta)) for the
        # positive level of the transported invariant frame; cross-checked
        # at 10x resolution.
        theta0 = np.pi / 3
        spin = make_spin(0.5)
        out = run_prescription(spin_supersystem(
            spin, tf.const(theta0), tf.linear(2 * np.pi), tf.const(0.5)))
        es0 = eigh(out.invariant.Iminus)
        v0 = es0.vectors[:, list(es0.degeneracy_groups[1])]
        frame = lambda s: out.system.w_minus.value(s) @ v0
        res = berry_holonomy(frame, 400)
        fine = berry_holonomy(frame, 4000)
        expected = np.exp(-1j * np.pi * (1 - np.cos(theta0)))
        assert abs(res.gamma[0, 0] - expected) < 1e-4
        assert abs(fine.gamma[0, 0] - expected) < 1e-6
        assert abs(abs(res.gamma[0, 0]) - 1.0) < 1e-10

    def test_reversed_loop_conjugates(self):
        spin = make_spin(1)
        out = run_prescription(spin_supersystem(
            spin, tf.const(np.pi / 3), tf.linear(2 * np.pi), tf.const(0.5)))
        es0 = eigh(out.invariant.Iminus)
        v0 = es0.vectors[:, list(es0.degeneracy_groups[-1])]
        frame = lambda s: out.system.w_minus.value(s) @ v0
        reverse = lambda s: frame(1.0 - s)
        forward = berry_holonomy(frame, 800).gamma
        backward = berry_holonomy(reverse, 800).gamma
        assert np.linalg.norm(backward - forward.conj().T) < 1e-8

    def test_gauge_covariance(self):
        # |lam,a> -> sum_b g_ba |lam,b> with constant unitary g: Gamma -> g^dag Gamma g.
        spin = make_spin(1)
        out = run_prescription(spin_supersystem(
            spin, tf.const(np.pi / 3), tf.linear(2 * np.pi), tf.const(0.5)))
        es0 = eigh(out.invariant.Iminus)
        v0 = es0.vectors[:, list(es0.degeneracy_groups[-1])]
        frame = lambda s: out.system.w_minus.value(s) @ v0
        rng = np.random.default_rng(2)
        g = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        rotated = lambda s: frame(s) @ g
        base = berry_holonomy(frame, 600).gamma
        got = berry_holonomy(rotated, 600).gamma
        assert np.linalg.norm(got - g.conj().T @ base @ g) < 1e-8
        assert np.allclose(np.sort(np.angle(np.linalg.eigvals(got))),
                           np.sort(np.angle(np.linalg.eigvals(base))), atol=1e-8)

    def test_open_path_rejected(self):
        spin = make_spin(0.5)
        w = run_prescription(spin_supersystem(
            spin, tf.const(0.4), tf.linear(1.0), tf.const(0.0))).system.w_minus
        v0 = np.eye(2)[:, :1]
        frame = lambda s: w.value(s) @ v0  # phi ends at 1 rad, not 2 pi
        with pytest.raises(NonClosedLoopError):
            berry_holonomy(frame, 100)

    @pytest.mark.parametrize("groups", [None, [[0], [1]]], ids=["one_2x2", "two_1x1"])
    def test_jump_to_orthogonal_subspace_rejected(self, groups):
        # At s = 1/2 the columns leave span(e0, e1) for span(e2, e3): that
        # step's overlap is zero and has no polar factor.
        near, far = np.eye(4)[:, :2], np.eye(4)[:, 2:]

        def frame(s):
            return np.where((np.asarray(s) == 0.5)[..., None, None], far, near)

        with pytest.raises(SingularMatrixError, match=r"\(loop step 2 of 4, s = 0.25 to "
                                                      r"0.5, level 0\)"):
            berry_holonomy(frame, 4, groups=groups)
        berry_holonomy(frame, 3, groups=groups)   # s = 1/3, 2/3 never jump
        # Step 2000 lies in the second chunk of overlaps: the step counts on.
        with pytest.raises(SingularMatrixError, match=r"\(loop step 2000 of 4000, "):
            berry_holonomy(frame, 4000, groups=groups)

    def test_coarse_loop_near_singular_overlap_runs(self):
        # perfbench's loop_sweep seed-0 loop at [phase] steps = 3: the overlaps
        # of the (1, 2) level are far from unitary but not singular.
        spin = make_spin(2)
        out = run_prescription(spin_supersystem(
            spin, tf.parse("0.6809 + 0.1446*sin(2*pi*t)"),
            tf.parse("2*pi*t + 0.2074*sin(2*pi*t)"), tf.const(0.4143)))
        es0 = eigh(out.invariant.Iminus)
        groups = es0.degeneracy_groups
        assert (1, 2) in groups
        frame = lambda s: out.system.w_minus.value(s) @ es0.vectors
        frames = np.stack([frame(s) for s in (0.0, 1 / 3, 2 / 3, 1.0)])
        overlaps = (dagger(frames[1:]) @ frames[:-1])[:, 1:3, 1:3]
        s_min = np.linalg.svd(overlaps, compute_uv=False)[:, -1].min()
        assert 1e-3 < s_min < 0.05
        res = berry_holonomy(frame, 3, groups=groups)
        assert res.unitarity() < 1e-13
        assert np.isfinite(res.gamma).all()


class TestOrderedProduct:
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 4001])
    def test_matches_sequential_product(self, n, k):
        rng = np.random.default_rng(100 * n + k)
        z = rng.normal(size=(n, k, k)) + 1j * rng.normal(size=(n, k, k))
        stack = np.linalg.qr(z)[0]
        sequential = np.eye(k, dtype=complex)
        for m in stack:
            sequential = m @ sequential
        assert np.max(np.abs(dynamics._ordered_product(stack) - sequential)) < 1e-13


@pytest.fixture(scope="module")
def j2_loop():
    """The full invariant eigenframe of j = 2 over a closed loop, and its levels."""
    spin = make_spin(2)
    out = run_prescription(spin_supersystem(
        spin, tf.parse("0.9 + 0.1*sin(2*pi*t)"), tf.parse("2*pi*t + 0.2*sin(2*pi*t)"),
        tf.const(0.6)))
    es0 = eigh(out.invariant.Iminus)
    return (lambda s: out.system.w_minus.value(s) @ es0.vectors), es0.degeneracy_groups


class TestGroupedHolonomy:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_per_level_calls(self, j2_loop, reverse):
        full, groups = j2_loop
        assert sorted(len(g) for g in groups) == [1, 2, 2]
        frame = (lambda s: full(1.0 - s)) if reverse else full
        gamma = berry_holonomy(frame, 500, groups=groups).gamma
        for g in groups:
            level = berry_holonomy(lambda s, g=list(g): frame(s)[..., g], 500).gamma
            assert np.max(np.abs(gamma[np.ix_(g, g)] - level)) < 1e-13
            rest = [c for c in range(gamma.shape[0]) if c not in g]
            assert not np.any(gamma[np.ix_(g, rest)])

    def test_one_open_level_rejected(self, j2_loop):
        # One column of the 1x1 level fails to close by 1.5e-12: within the
        # full frame's bound CLOSURE_TOL * sqrt(5), outside its own CLOSURE_TOL.
        full, groups = j2_loop
        single = np.arange(5) == next(g[0] for g in groups if len(g) == 1)

        def frame(s):
            phase = np.where(single, np.exp(1.5e-12j * np.asarray(s)[..., None]), 1.0)
            return full(s) * phase[..., None, :]

        v0, v_end = frame(0.0), frame(1.0)
        assert np.linalg.norm(v_end - v0) <= dynamics.CLOSURE_TOL * np.linalg.norm(v0)
        berry_holonomy(frame, 100)
        with pytest.raises(NonClosedLoopError):
            berry_holonomy(frame, 100, groups=groups)


def test_transport_via_numeric_propagation(precessing):
    # Independent route: conjugate I(0) with the numerically propagated U.
    _, out = precessing
    times = grid(3.0, 1e-3)
    traj = propagate_unitary(out.h_minus, 2, times)
    i0 = out.i_minus(0.0).entries
    for k in (len(times) // 2, len(times) - 1):
        u = traj.operators[k]
        diff = u @ i0 @ u.conj().T - out.i_minus(times[k]).entries
        assert np.linalg.norm(diff) < 1e-6
