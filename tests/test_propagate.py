import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitydd import propagate
from cavitydd.algebra import (PAULI, CouplingSet, ModelParams, assemble,
                              chemical_shift, expm_herm, jaynes_cummings,
                              kron, op_norm)
from cavitydd.errors import ConvergenceError
from cavitydd.metrics import BlochGrid
from cavitydd.propagate import (build_schedule, propagate_period,
                                run_trace, step_halving_difference)
from cavitydd.sequences import parse_sequence
from cavitydd.shapes import amplitude, delta, fourier, gaussian, hermitian
from conftest import random_couplings

PROPERTY_SHAPES = {"G10": gaussian(0.10), "H05": hermitian(0.05),
                   "fourier": fourier([0.5, 1.0, 0.5])}


@pytest.fixture(scope="module")
def grid6():
    return BlochGrid.build(0)


class TestSchedule:
    def test_layout(self, g10):
        sched = build_schedule(parse_sequence("4p"), g10)
        assert sched.period == pytest.approx(4.0)
        starts = [s.t0 for s in sched.segments]
        assert starts == [0.0, 1.0, 2.0, 3.0]

    def test_single_axis_active(self, g10):
        sched = build_schedule(parse_sequence("4p"), g10)
        # second pulse is X on [1, 2): the x field matches the envelope,
        # y and z are silent there
        t = 1.37
        assert sched.field("x", t) == pytest.approx(amplitude(g10, 0.37))
        assert sched.field("y", t) == 0.0
        assert sched.field("z", t) == 0.0

    def test_negative_pulse_field_sign(self, g10):
        sched = build_schedule(parse_sequence("-X"), g10)
        assert sched.field("x", 0.5) == pytest.approx(-amplitude(g10, 0.5))

    def test_delay_layout(self):
        sched = build_schedule(parse_sequence("X d(1.0) -X d(1.0)"), delta())
        assert sched.period == pytest.approx(2.0)

    def test_delta_field_rejected(self):
        sched = build_schedule(parse_sequence("X"), delta())
        with pytest.raises(ValueError):
            sched.field("x", 0.0)

    def test_field_axis_validation(self, g10):
        sched = build_schedule(parse_sequence("X"), g10)
        with pytest.raises(ValueError):
            sched.field("w", 0.5)


def step_loop_pulse_unitary(hs, k_op, shape, sign, steps):
    """Reference CF4 pulse unitary: one step at a time, two scalar envelope
    evaluations and two expm_herm exponentials per step."""
    h = shape.taup / steps
    u = np.eye(hs.shape[0], dtype=complex)
    for k in range(steps):
        t0 = k * h
        v1 = sign * amplitude(shape, t0 + propagate._GL_NODE_1 * h)
        v2 = sign * amplitude(shape, t0 + propagate._GL_NODE_2 * h)
        ha = hs + v1 * k_op
        hb = hs + v2 * k_op
        u = expm_herm(propagate._CF4_W2 * ha + propagate._CF4_W1 * hb, h) \
            @ expm_herm(propagate._CF4_W1 * ha + propagate._CF4_W2 * hb, h) @ u
    return u


class TestPulseUnitary:
    # 27 steps give a last block of 22 factors, so the tree carries an odd
    # factor on two of its levels
    @pytest.mark.parametrize("steps", (16, 17, 27, 100, 257))
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4),
           axis=st.sampled_from("xyz"), sign=st.sampled_from((1, -1)),
           shape=st.sampled_from(sorted(PROPERTY_SHAPES)))
    def test_batched_matches_step_loop(self, steps, seed, dim, axis, sign,
                                       shape):
        hs = assemble(random_couplings(np.random.default_rng(seed), dim))
        k_op = kron(PAULI[axis] / 2, np.eye(dim, dtype=complex))
        sh = PROPERTY_SHAPES[shape]
        batched = propagate._pulse_unitary(hs, k_op, sh, sign, steps)
        looped = step_loop_pulse_unitary(hs, k_op, sh, sign, steps)
        assert op_norm(batched - looped) <= 1e-12

    def test_off_hermitian_system_rejected(self, g10, grid6):
        cs = jaynes_cummings(ModelParams(omega_r=0.1, omega_0=0, g=0.01,
                                         n_max=2))
        a0 = cs.a0.copy()
        a0[0, 1] += 2e-11
        # within CouplingSet's own 1e-10 tolerance, outside the propagator's
        bad = CouplingSet(a0, cs.ax, cs.ay, cs.az)
        sched = build_schedule(parse_sequence("X"), g10)
        with pytest.raises(ValueError, match="Hermitian"):
            propagate_period(bad, sched)
        with pytest.raises(ValueError, match="Hermitian"):
            run_trace(bad, sched, 1, grid6.as_array())


class TestPropagatePeriod:
    def test_control_off_diagonal_phases(self):
        # no coupling, pure oscillator drift over a delay
        cs = jaynes_cummings(ModelParams(omega_r=0.2, omega_0=0, g=0, n_max=3))
        seq = parse_sequence("d(1.0)")
        sched = build_schedule(seq, delta())
        u = propagate_period(cs, sched)
        omr = 0.2 * 2 * np.pi
        expect = np.kron(np.eye(2), np.diag(np.exp(-1j * omr * np.arange(4))))
        assert op_norm(u - expect) < 1e-12

    def test_delta_echo_is_identity(self):
        cs = chemical_shift(0.9)
        sched = build_schedule(parse_sequence("X d(1.0) -X d(1.0)"), delta())
        u = propagate_period(cs, sched)
        assert op_norm(u - np.eye(2)) < 1e-12

    def test_fourth_order_convergence(self, g10):
        rng = np.random.default_rng(17)
        cs = random_couplings(rng, 3, scale=0.5)
        sched = build_schedule(parse_sequence("X"), g10)
        d1 = step_halving_difference(cs, sched, 128)   # |U64 - U128|
        d2 = step_halving_difference(cs, sched, 256)   # |U128 - U256|
        assert 10 < d1 / d2 < 24

    def test_commuting_control_factorizes(self, g10):
        # Hs ~ sigma_x commutes with an x pulse: U = U_pulse * exp(-i Hs T)
        c = 0.3
        one = np.eye(1, dtype=complex)
        zero = np.zeros((1, 1), dtype=complex)
        cs = CouplingSet(a0=zero, ax=c * one, ay=zero, az=zero)
        sched = build_schedule(parse_sequence("X"), g10)
        u = propagate_period(cs, sched)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        expect = (-1j * sx) @ expm_herm(c * sx, 1.0)
        assert op_norm(u - expect) < 1e-10

    def test_period_reuse_matches_doubled_schedule(self, q1_shape):
        cs = jaynes_cummings(ModelParams(omega_r=0.117, omega_0=0, g=0.002,
                                         n_max=4))
        once = "Y X -Y X X -Y X Y"
        one = build_schedule(parse_sequence(once), q1_shape)
        two = build_schedule(parse_sequence(once + " " + once), q1_shape)
        u1 = propagate_period(cs, one, self_check=False)
        u2 = propagate_period(cs, two, self_check=False)
        assert op_norm(u2 - u1 @ u1) < 1e-9

    def test_self_check_raises_on_hot_parameters(self, q1_shape):
        cs = jaynes_cummings(ModelParams(omega_r=0.117, omega_0=0, g=0.1,
                                         n_max=3))
        sched = build_schedule(parse_sequence("8a"), q1_shape)
        with pytest.raises(ConvergenceError):
            propagate_period(cs, sched, steps_per_pulse=256)
        # and passes with more steps
        u = propagate_period(cs, sched, steps_per_pulse=512)
        assert op_norm(u @ u.conj().T - np.eye(8)) < 1e-10

    def test_steps_validation(self, g10):
        cs = chemical_shift(0.1)
        sched = build_schedule(parse_sequence("X"), g10)
        with pytest.raises(ValueError):
            propagate_period(cs, sched, steps_per_pulse=8)
        with pytest.raises(ValueError, match="self_check"):
            propagate_period(cs, sched, steps_per_pulse=16)
        with pytest.raises(ValueError, match="self_check"):
            step_halving_difference(cs, sched, 16)
        propagate_period(cs, sched, steps_per_pulse=16, self_check=False)


class TestRunTrace:
    def test_zero_periods(self, g10, grid6):
        cs = jaynes_cummings(ModelParams(omega_r=0.1, omega_0=0, g=0.01,
                                         n_max=2))
        sched = build_schedule(parse_sequence("4p"), g10)
        tr = run_trace(cs, sched, 0, grid6.as_array())
        assert tr.n_periods == 0
        assert np.allclose(tr.propagators[0], np.eye(6))
        assert np.allclose(tr.n_exp, 0)
        f = np.einsum("si,ksij,sj->ks", grid6.as_array().conj(), tr.rho_q,
                      grid6.as_array()).real
        assert np.allclose(f, 1)

    def test_norm_and_unitarity(self, g10, grid6):
        cs = jaynes_cummings(ModelParams(omega_r=0.117, omega_0=0, g=0.01,
                                         n_max=4))
        sched = build_schedule(parse_sequence("4p"), g10)
        tr = run_trace(cs, sched, 50, grid6.as_array())
        assert tr.unitarity_drift < 1e-10
        # norm conservation: tr rho_q = 1 per state and sample
        norms = np.einsum("ksii->ks", tr.rho_q).real
        assert np.allclose(norms, 1, atol=1e-10)
        assert tr.halving_diff < 1e-8

    def test_energy_conservation_control_off(self, grid6):
        cs = jaynes_cummings(ModelParams(omega_r=0.08, omega_0=0.05, g=0.03,
                                         n_max=3))
        sched = build_schedule(parse_sequence("d(1.0)"), delta())
        tr = run_trace(cs, sched, 30, grid6.as_array())
        hs = assemble(cs)
        q0 = grid6.as_array()[2]
        psi0 = np.kron(q0, np.eye(4)[:, 0])
        energies = [np.vdot(u @ psi0, hs @ (u @ psi0)).real
                    for u in tr.propagators]
        assert np.ptp(energies) < 1e-10

    def test_stroboscopic_factorization(self, g10, grid6):
        cs = jaynes_cummings(ModelParams(omega_r=0.1, omega_0=0, g=0.002,
                                         n_max=3))
        sched = build_schedule(parse_sequence("xbarx"), g10)
        tr = run_trace(cs, sched, 12, grid6.as_array())
        u1 = tr.propagators[1]
        for n in (3, 7, 12):
            assert op_norm(tr.propagators[n]
                           - np.linalg.matrix_power(u1, n)) < 1e-9

    def test_leak_warning(self, g10, grid6):
        # strong resonant drive on a short ladder leaks into the top levels
        cs = jaynes_cummings(ModelParams(omega_r=0.0, omega_0=0, g=0.1,
                                         n_max=2))
        sched = build_schedule(parse_sequence("4p"), g10)
        with pytest.warns(RuntimeWarning, match="n_max"):
            run_trace(cs, sched, 60, grid6.as_array(), self_check=False)

    def test_validation(self, g10, grid6):
        cs = jaynes_cummings(ModelParams(omega_r=0.1, omega_0=0, g=0.01,
                                         n_max=2))
        sched = build_schedule(parse_sequence("4p"), g10)
        with pytest.raises(ValueError):
            run_trace(cs, sched, -1, grid6.as_array())
        with pytest.raises(ValueError):
            run_trace(cs, sched, 1, 2 * grid6.as_array())
        with pytest.raises(ValueError):
            run_trace(cs, sched, 1, grid6.as_array(), oscillator_level=7)

    def test_steps_validation(self, g10, grid6):
        cs = jaynes_cummings(ModelParams(omega_r=0.1, omega_0=0, g=0.002,
                                         n_max=4))
        sched = build_schedule(parse_sequence("4p"), g10)
        with pytest.raises(ValueError, match="steps_per_pulse"):
            run_trace(cs, sched, 1, grid6.as_array(), steps_per_pulse=4)
        with pytest.raises(ValueError, match="self_check"):
            run_trace(cs, sched, 1, grid6.as_array(), steps_per_pulse=16)
        tr = run_trace(cs, sched, 1, grid6.as_array(), steps_per_pulse=16,
                       self_check=False)
        assert tr.halving_diff == 0.0

    def test_fock_start(self, g10, grid6):
        cs = jaynes_cummings(ModelParams(omega_r=0.1, omega_0=0, g=0.0,
                                         n_max=5))
        sched = build_schedule(parse_sequence("4p"), g10)
        tr = run_trace(cs, sched, 2, grid6.as_array(), oscillator_level=2)
        assert np.allclose(tr.n_exp, 2.0, atol=1e-10)
