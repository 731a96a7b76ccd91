import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitydd import propagate
from cavitydd.algebra import (PAULI, CouplingSet, ModelParams, assemble,
                              expm_herm, jaynes_cummings, kron, lowering,
                              op_norm)
from cavitydd.errors import ConvergenceError
from cavitydd.metrics import bloch_grid
from cavitydd.propagate import propagate_period, run_trace
from cavitydd.sequences import PulseSpec, build_schedule, parse_sequence
from cavitydd.shapes import (amplitude, delta, fourier, gaussian, hermitian,
                             resolve_shape)
from conftest import chemical_shift, random_couplings

PROPERTY_SHAPES = {"G10": gaussian(0.10), "H05": hermitian(0.05),
                   "fourier": fourier([0.5, 1.0, 0.5])}


@pytest.fixture(scope="module")
def grid6():
    return bloch_grid(0)


class TestSchedule:
    def test_layout(self, g10):
        sched = build_schedule(parse_sequence("4p"), g10)
        assert sched.period == 4.0
        assert sched.elements == parse_sequence("4p").elements
        assert build_schedule(parse_sequence("8a"), g10).period == 8.0

    def test_single_axis_active(self, g10):
        sched = build_schedule(parse_sequence("4p"), g10)
        # second pulse is X on [1, 2), driving x alone
        assert sched.elements[1] == PulseSpec("x", 1)
        assert [e.axis for e in sched.elements] == ["y", "x", "y", "x"]

    def test_negative_pulse_field_sign(self, g10):
        sched = build_schedule(parse_sequence("-X"), g10)
        assert sched.elements == (PulseSpec("x", -1),)

    def test_delay_layout(self):
        sched = build_schedule(parse_sequence("X d(1.0) -X d(1.0)"), delta())
        assert sched.period == pytest.approx(2.0)


def step_loop_pulse_unitary(hs, k_op, shape, sign, steps):
    """Reference CF4 pulse unitary: one step at a time, two scalar envelope
    evaluations and two expm_herm exponentials per step.  The factors'
    own departures from unitarity add up over the steps (to 1.8e-12 at
    1024 steps), so, as the propagator does, one Newton-Schulz step
    U (3 - U^dagger U) / 2 ends the product; it is then unitary to 1e-13."""
    h = 1 / steps
    u = np.eye(hs.shape[0], dtype=complex)
    for k in range(steps):
        t0 = k * h
        v1 = sign * amplitude(shape, t0 + propagate._GL_NODE_1 * h)
        v2 = sign * amplitude(shape, t0 + propagate._GL_NODE_2 * h)
        ha = hs + v1 * k_op
        hb = hs + v2 * k_op
        u = expm_herm(propagate._CF4_W2 * ha + propagate._CF4_W1 * hb, h) \
            @ expm_herm(propagate._CF4_W1 * ha + propagate._CF4_W2 * hb, h) @ u
    eye = np.eye(len(u))
    u = u @ (3 * eye - u.conj().T @ u) / 2
    assert op_norm(u.conj().T @ u - eye) <= 1e-13
    return u


class TestPulseUnitary:
    # at dim <= 8 a block holds 256 factors or more: 27 steps give one tree
    # of 54 factors, which carries an odd factor on two of its levels, and
    # 257 steps at dim 8 on the general path give blocks of 256, 256 and 2
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
        batched = propagate._pulse_unitary(hs, sign * k_op, sh, steps)
        looped = step_loop_pulse_unitary(hs, k_op, sh, sign, steps)
        assert op_norm(batched - looped) <= 1e-12

    @settings(derandomize=True, max_examples=16, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(16, 1024),
           n_max=st.integers(1, 3),
           model=st.sampled_from(("jc", "parity", "generic")),
           axis=st.sampled_from("xyz"), sign=st.sampled_from((1, -1)),
           shape=st.sampled_from(sorted(PROPERTY_SHAPES)))
    def test_interpolated_matches_exact_factors(self, seed, steps, n_max,
                                                model, axis, sign, shape):
        # real couplings ("jc", "parity") take the real half-product for x
        # and z pulses, complex ones ("generic", or a y pulse) the general
        # product
        hs = assemble(drawn_couplings(model, seed, n_max))
        k_op = kron(PAULI[axis] / 2, np.eye(n_max + 1, dtype=complex))
        sh = PROPERTY_SHAPES[shape]
        interpolated = propagate._pulse_unitary(hs, sign * k_op, sh, steps)
        looped = step_loop_pulse_unitary(hs, k_op, sh, sign, steps)
        assert op_norm(interpolated - looped) <= 1e-12

    # a control operator this strong makes the bound ask for a node per
    # factor: 16 of the real half-product, 32 of the general product
    @pytest.mark.parametrize("model, factors", (("jc", 16), ("generic", 32)))
    def test_as_many_nodes_as_factors_gives_exact_factors(
            self, monkeypatch, g10, model, factors):
        # the distinct coefficients are then the nodes, so each factor is
        # its own exact exponential, and at this scale no interpolant of
        # fewer nodes would come near the step loop
        hs = assemble(drawn_couplings(model, 4, 2))
        k_op = 100 * kron(PAULI["x"] / 2, np.eye(3, dtype=complex))
        eigh = np.linalg.eigh
        sizes = []

        def counting_eigh(a, *args, **kwargs):
            sizes.append(len(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        u = propagate._pulse_unitary(hs, k_op, g10, 16)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert len(sizes) == 1 and sizes[0] <= factors
        assert op_norm(u - step_loop_pulse_unitary(hs, k_op, g10, 1, 16)) \
            <= 1e-12

    @pytest.mark.parametrize("dim, block", ((2, 4096), (4, 1024), (6, 256),
                                            (8, 256), (14, 64), (16, 64),
                                            (18, 32), (40, 32)))
    def test_block_length_by_dimension(self, dim, block):
        assert propagate._block_length(dim) == block

    @pytest.mark.parametrize("steps", (17, 27, 128, 257))
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_max=st.integers(1, 3),
           model=st.sampled_from(("jc", "generic")),
           axis=st.sampled_from("xyz"),
           shape=st.sampled_from(sorted(PROPERTY_SHAPES)))
    def test_product_independent_of_block_length(self, steps, seed, n_max,
                                                 model, axis, shape):
        # real half-products ("jc", x and z) and general ones, with blocks
        # of _BLOCK factors and with the budgeted blocks
        hs = assemble(drawn_couplings(model, seed, n_max))
        k_op = kron(PAULI[axis] / 2, np.eye(n_max + 1, dtype=complex))
        sh = PROPERTY_SHAPES[shape]
        budgeted = propagate._pulse_unitary(hs, k_op, sh, steps)
        with mock.patch.object(propagate, "_BLOCK_ENTRIES", 0):
            assert propagate._block_length(2 * n_max + 2) == propagate._BLOCK
            fixed = propagate._pulse_unitary(hs, k_op, sh, steps)
        assert op_norm(budgeted - fixed) <= 1e-13

    def test_long_general_pulse_stays_unitary(self, h05):
        # the roundoff of 2048 near-identical factors errs coherently (2.8e-12
        # off unitarity here); the closing Newton-Schulz step removes it
        hs = assemble(random_couplings(np.random.default_rng(5), 10))
        k_op = kron(PAULI["x"] / 2, np.eye(10, dtype=complex))
        u = propagate._pulse_unitary(hs, k_op, h05, 1024)
        assert op_norm(u @ u.conj().T - np.eye(20)) <= 1e-14

    def test_off_hermitian_system_rejected(self):
        # Hermiticity is checked once, where the couplings are built, at the
        # tolerance expm_herm applies
        cs = jaynes_cummings(ModelParams(omega_r=0.1, omega_0=0, g=0.01,
                                         n_max=2))
        a0 = cs.a0.copy()
        a0[0, 1] += 1e-11
        with pytest.raises(ValueError, match="A0 is not Hermitian"):
            CouplingSet(a0, cs.ax, cs.ay, cs.az)


def drawn_couplings(model, seed, n_max):
    """Couplings of one of three symmetry classes: "jc" (the Jaynes-Cummings
    model, keeping R, V and V^dagger), "parity" (JC plus a real
    counter-rotating sigma_x (b + b') term, keeping R alone) or "generic"
    (random complex couplings, keeping none)."""
    rng = np.random.default_rng(seed)
    if model == "generic":
        return random_couplings(rng, n_max + 1)
    omega_r, omega_0, g = rng.uniform(-0.3, 0.3, size=3)
    cs = jaynes_cummings(ModelParams(omega_r, omega_0, g, n_max))
    if model == "jc":
        return cs
    b = lowering(n_max + 1)
    lam = rng.uniform(0.1, 1.0)
    return CouplingSet(cs.a0, cs.ax + lam * (b + b.T), cs.ay, cs.az)


def general_period_unitary(cs, schedule, steps):
    """Reference U(T): every distinct pulse of the schedule by the step
    loop, with no symmetry and no half-product."""
    hs = assemble(cs)
    eye = np.eye(cs.dim, dtype=complex)
    u = np.eye(2 * cs.dim, dtype=complex)
    pulses = {}
    for e in schedule.elements:
        if e not in pulses:
            pulses[e] = step_loop_pulse_unitary(
                hs, kron(PAULI[e.axis] / 2, eye), schedule.shape, e.sign,
                steps)
        u = pulses[e] @ u
    return u


def pulse_tokens(max_size):
    return st.lists(st.sampled_from(("X", "-X", "Y", "-Y", "Z", "-Z")),
                    min_size=1, max_size=max_size).map(" ".join)


SEQUENCES = st.one_of(st.sampled_from(("4p", "8s", "8a")), pulse_tokens(5))


class TestSymmetryReduction:
    @pytest.mark.parametrize("model, kept", (("jc", 4), ("parity", 2),
                                             ("generic", 1)))
    def test_symmetries_kept(self, model, kept):
        syms = propagate._symmetries(assemble(drawn_couplings(model, 3, 4)))
        assert len(syms) == kept
        assert np.all(syms[0] == 1)

    @pytest.mark.parametrize("scale, kept", ((1e-14, 4), (1e-10, 1)))
    def test_symmetry_tolerance(self, scale, kept):
        # sigma_x (x) 1 anticommutes with R and shifts N by one, so it breaks
        # R, V and V^dagger; the Frobenius test keeps them only while the
        # breaking is far below 1e-12 |Hs|
        hs = assemble(drawn_couplings("jc", 3, 4))
        flip = kron(PAULI["x"], np.eye(5, dtype=complex))
        broken = hs + scale * op_norm(hs) * flip
        assert len(propagate._symmetries(broken)) == kept

    # odd step counts put the middle step in the first half-product
    @pytest.mark.parametrize("steps", (17, 27, 257))
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_max=st.integers(1, 4),
           model=st.sampled_from(("jc", "parity", "generic")),
           shape=st.sampled_from(sorted(PROPERTY_SHAPES)), seq=SEQUENCES)
    def test_matches_general_step_loop(self, steps, seed, n_max, model,
                                       shape, seq):
        cs = drawn_couplings(model, seed, n_max)
        sched = build_schedule(parse_sequence(seq),
                               PROPERTY_SHAPES[shape])
        reduced = propagate._period_unitary(cs, sched, steps)
        assert op_norm(reduced - general_period_unitary(cs, sched, steps)) \
            <= 1e-12

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_max=st.integers(1, 3),
           model=st.sampled_from(("jc", "generic")),
           shape=st.sampled_from(sorted(PROPERTY_SHAPES)), seq=SEQUENCES)
    def test_doubled_schedule_is_period_squared(self, seed, n_max, model,
                                                shape, seq):
        cs = drawn_couplings(model, seed, n_max)
        once = parse_sequence(seq).label()
        sh = PROPERTY_SHAPES[shape]
        # unchecked: the identity holds at any step count, and 32 steps do
        # not pass the halving check on these shapes
        u1 = propagate._period_unitary(
            cs, build_schedule(parse_sequence(once), sh), 32)
        u2 = propagate._period_unitary(
            cs, build_schedule(parse_sequence(f"{once} {once}"), sh), 32)
        assert op_norm(u2 - u1 @ u1) <= 1e-12

    @pytest.mark.parametrize("seq", ("4p", "8a", "8s"))
    @pytest.mark.parametrize("shape", ("G10", "S1"))
    def test_one_real_half_pulse_per_step_count(self, monkeypatch, seq,
                                                shape):
        # the figure model: every pulse of the period comes from one +x
        # pulse per step count, integrated as a real half-product whose
        # factors are interpolated from 7 exact ones, the node count the
        # bound gives at 256 and at 128 steps
        cs = jaynes_cummings(ModelParams(omega_r=0.117, omega_0=0, g=0.0002,
                                         n_max=8))
        sched = build_schedule(parse_sequence(seq), resolve_shape(shape))
        eigh = np.linalg.eigh
        calls = []

        def counting_eigh(a, *args, **kwargs):
            calls.append((a.dtype, a.ndim, len(a)))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        propagate_period(cs, sched, 256)
        assert calls == [(np.float64, 3, 7)] * 2


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

    def test_delta_schedule_makes_the_halving_check(self, monkeypatch):
        # an exact schedule is integrated twice too; the two products are the
        # same operations, so the reported difference is exactly 0.0
        calls = []
        period_unitary = propagate._period_unitary
        monkeypatch.setattr(
            propagate, "_period_unitary",
            lambda cs, sched, steps: calls.append(steps)
            or period_unitary(cs, sched, steps))
        cs = jaynes_cummings(ModelParams(omega_r=0.117, omega_0=0, g=0.002,
                                         n_max=3))
        sched = build_schedule(parse_sequence("8a"), delta())
        tr = run_trace(cs, sched, 1, [(1.0, 0.0)], steps_per_pulse=64)
        assert calls == [64, 32]
        assert tr.halving_diff == 0.0

    @pytest.mark.parametrize("shape", ["G05", "G10", "H05", "H10", "S1",
                                       "S2", "Q1", "Q2"])
    def test_fourth_order_convergence(self, shape):
        rng = np.random.default_rng(17)
        cs = random_couplings(rng, 3, scale=0.5)
        sched = build_schedule(parse_sequence("X"), resolve_shape(shape))
        # the unchecked U(T): the test measures the unconverged differences
        u64, u128, u256 = (propagate._period_unitary(cs, sched, n)
                           for n in (64, 128, 256))
        d1 = op_norm(u128 - u64)
        d2 = op_norm(u256 - u128)
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
        u1 = propagate_period(cs, one)
        u2 = propagate_period(cs, two)
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
        # one rule for every schedule, so that the halving check integrates
        # at least 16 steps
        cs = chemical_shift(0.1)
        soft = build_schedule(parse_sequence("X"), g10)
        hard = build_schedule(parse_sequence("X"), delta())
        for sched in (soft, hard):
            for steps in (8, 16, 31):
                with pytest.raises(ValueError,
                                   match="steps_per_pulse must be >= 32"):
                    propagate_period(cs, sched, steps_per_pulse=steps)
        # 32 steps pass the rule, and the halving check then runs: it fails
        # for G10 at this step size, and an exact delta pulse passes it
        with pytest.raises(ConvergenceError):
            propagate_period(cs, soft, steps_per_pulse=32)
        assert op_norm(propagate_period(cs, hard, steps_per_pulse=32)
                       + 1j * PAULI["x"]) < 1e-14


def per_period_columns(u, qs, d, level, n_periods):
    """Reference worst-case columns, one period at a time: the reduced qubit
    state, occupation and top-two-level population of every initial state,
    then the worst case over the states."""
    ns = len(qs)
    osc0 = np.zeros(d, dtype=complex)
    osc0[level] = 1.0
    cur = np.einsum("si,n->sin", qs, osc0).reshape(ns, 2 * d)
    nvec = np.arange(d, dtype=float)
    cols = []
    for k in range(n_periods + 1):
        if k:
            cur = cur @ u.T
        m = cur.reshape(ns, 2, d)
        rho_q = np.einsum("sin,sjn->sij", m, m.conj())
        w = np.abs(m) ** 2
        f = np.einsum("si,sij,sj->s", qs.conj(), rho_q, qs).real
        n_exp = np.einsum("sin,n->s", w, nvec)
        leak = w[:, :, max(0, d - 2):].sum(axis=(1, 2))
        cols.append((f.min(), n_exp.max(), leak.max()))
    return np.array(cols).T


def unchecked_period_unitary():
    """Patch run_trace's U(T) to the unchecked one, for random couplings on
    which few steps do not converge: the trace loop is under test."""
    return mock.patch.object(
        propagate, "_checked_period_unitary",
        lambda cs, sched, steps: (propagate._period_unitary(cs, sched, steps),
                                  0.0))


TRACE_SCHEDULES = {"xbarx+G10": ("xbarx", gaussian(0.10)),
                   "echo+delta": ("X d(0.5) -X d(0.5)", delta())}


class TestRunTrace:
    def test_zero_periods(self, g10, grid6):
        cs = jaynes_cummings(ModelParams(omega_r=0.1, omega_0=0, g=0.01,
                                         n_max=2))
        sched = build_schedule(parse_sequence("4p"), g10)
        tr = run_trace(cs, sched, 0, grid6)
        assert len(tr.times) == 1
        assert tr.unitarity_drift < 1e-14
        assert np.allclose(tr.n_mean_max, 0)
        assert np.allclose(tr.leakage_max, 0)
        assert np.allclose(tr.fidelity_min, 1)

    # block edges: empty trace, one period, a block short / full / one over,
    # and a partial third block
    @pytest.mark.parametrize("n_periods", (0, 1, propagate._BLOCK - 1,
                                           propagate._BLOCK,
                                           propagate._BLOCK + 1,
                                           2 * propagate._BLOCK + 3))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4),
           n_states=st.integers(1, 7),
           schedule=st.sampled_from(sorted(TRACE_SCHEDULES)))
    def test_streamed_columns_match_per_period_reference(
            self, n_periods, seed, dim, n_states, schedule):
        rng = np.random.default_rng(seed)
        cs = random_couplings(rng, dim)
        qs = rng.normal(size=(n_states, 2)) + 1j * rng.normal(
            size=(n_states, 2))
        qs /= np.linalg.norm(qs, axis=1, keepdims=True)
        level = int(rng.integers(dim))
        seq, shape = TRACE_SCHEDULES[schedule]
        sched = build_schedule(parse_sequence(seq), shape)
        with unchecked_period_unitary():
            tr = run_trace(cs, sched, n_periods, qs, oscillator_level=level,
                           steps_per_pulse=16)
        u = propagate._period_unitary(cs, sched, 16)
        ref = per_period_columns(u, qs, dim, level, n_periods)
        got = np.array([tr.fidelity_min, tr.n_mean_max, tr.leakage_max])
        assert got.shape == ref.shape == (3, n_periods + 1)
        assert np.max(np.abs(got - ref)) <= 1e-13

    def test_matches_per_period_reference_at_figure_scale(self, g10):
        # the fig-1 model: n_max 8, the 56-state grid, 100 periods, and a
        # pulse unitary from the real half-product
        cs = jaynes_cummings(ModelParams(omega_r=0.117, omega_0=0, g=0.0002,
                                         n_max=8))
        sched = build_schedule(parse_sequence("4p"), g10)
        qs = bloch_grid(50)
        tr = run_trace(cs, sched, 100, qs)
        u = propagate_period(cs, sched)
        ref = per_period_columns(u, qs, 9, 0, 100)
        got = np.array([tr.fidelity_min, tr.n_mean_max, tr.leakage_max])
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_matches_per_period_reference_over_blocks(self):
        # random complex couplings and states, an excited start, and a
        # partial fourth block
        rng = np.random.default_rng(20)
        cs = random_couplings(rng, 5)
        qs = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
        qs /= np.linalg.norm(qs, axis=1, keepdims=True)
        n_periods = 3 * propagate._BLOCK + 5
        sched = build_schedule(parse_sequence("xbarx"), gaussian(0.10))
        with pytest.warns(RuntimeWarning, match="n_max"), \
                unchecked_period_unitary():
            tr = run_trace(cs, sched, n_periods, qs, oscillator_level=3,
                           steps_per_pulse=16)
        u = propagate._period_unitary(cs, sched, 16)
        ref = per_period_columns(u, qs, 5, 3, n_periods)
        got = np.array([tr.fidelity_min, tr.n_mean_max, tr.leakage_max])
        assert np.max(np.abs(got - ref)) <= 1e-12

    # the drift is |U^n U^n' - I| of the scaled (1 + eps) U, which is
    # (1 + eps)^(2n) - 1 only if U^n is accumulated exactly to n, across
    # block edges and in the last partial block
    @pytest.mark.parametrize("n_periods", (0, 1, propagate._BLOCK - 1,
                                           propagate._BLOCK,
                                           propagate._BLOCK + 1,
                                           2 * propagate._BLOCK + 3))
    def test_drift_accumulates_the_nth_power(self, monkeypatch, grid6,
                                             n_periods):
        eps = 1e-9
        checked = propagate._checked_period_unitary

        def scaled(*args, **kwargs):
            u, halving = checked(*args, **kwargs)
            return (1 + eps) * u, halving

        monkeypatch.setattr(propagate, "_checked_period_unitary", scaled)
        cs = jaynes_cummings(ModelParams(omega_r=0.117, omega_0=0, g=0.0002,
                                         n_max=3))
        sched = build_schedule(parse_sequence("X d(0.5) -X d(0.5)"), delta())
        drift = run_trace(cs, sched, n_periods, grid6
                          ).unitarity_drift
        expected = (1 + eps) ** (2 * n_periods) - 1
        if n_periods == 0:
            assert drift < 1e-14
        else:
            assert abs(drift - expected) <= 1e-5 * expected

    def test_output_columns_allocated_before_period_unitary(
            self, monkeypatch, g10, grid6):
        # an n_periods too large for memory fails before U(T) is built
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        def unreachable(*args, **kwargs):
            raise AssertionError("U(T) built before the output columns")

        monkeypatch.setattr(propagate, "_checked_period_unitary", unreachable)
        monkeypatch.setattr(propagate.np, "empty", no_memory)
        cs = jaynes_cummings(ModelParams(omega_r=0.1, omega_0=0, g=0.01,
                                         n_max=2))
        sched = build_schedule(parse_sequence("4p"), g10)
        with pytest.raises(MemoryError):
            run_trace(cs, sched, 10 ** 13, grid6)

    def test_peak_memory_flat_in_n_periods(self, grid6):
        # the loop keeps O(1) storage per period (the times and three
        # columns, 32 B); a stored 18x18 U^k would add 5184 B per period
        cs = jaynes_cummings(ModelParams(omega_r=0.117, omega_0=0, g=0.0002,
                                         n_max=8))
        sched = build_schedule(parse_sequence("X d(1.0) -X d(1.0)"), delta())
        run_trace(cs, sched, 1, grid6)
        peaks = {}
        for n in (200, 4000):
            tracemalloc.start()
            try:
                run_trace(cs, sched, n, grid6)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4000] - peaks[200] < (4000 - 200) * 64

    def test_norm_and_unitarity(self, g10, grid6):
        cs = jaynes_cummings(ModelParams(omega_r=0.117, omega_0=0, g=0.01,
                                         n_max=4))
        sched = build_schedule(parse_sequence("4p"), g10)
        tr = run_trace(cs, sched, 50, grid6)
        assert tr.unitarity_drift < 1e-10
        assert tr.halving_diff < 1e-8
        # norm conservation: |U(T)^k psi| = 1 per state and sample
        u = propagate_period(cs, sched)
        psi = np.kron(grid6, np.eye(5)[0])
        for k in range(51):
            norms = np.linalg.norm(psi @ np.linalg.matrix_power(u, k).T,
                                   axis=1)
            assert np.allclose(norms, 1, atol=1e-10)

    def test_energy_conservation_control_off(self, grid6):
        cs = jaynes_cummings(ModelParams(omega_r=0.08, omega_0=0.05, g=0.03,
                                         n_max=3))
        sched = build_schedule(parse_sequence("d(1.0)"), delta())
        u = propagate_period(cs, sched)
        hs = assemble(cs)
        q0 = grid6[2]
        psi0 = np.kron(q0, np.eye(4)[:, 0])
        energies = []
        for k in range(31):
            psi = np.linalg.matrix_power(u, k) @ psi0
            energies.append(np.vdot(psi, hs @ psi).real)
        assert np.ptp(energies) < 1e-10

    def test_stroboscopic_factorization(self, g10, grid6):
        # the trace at period n is the state under U(T)^n
        cs = jaynes_cummings(ModelParams(omega_r=0.1, omega_0=0, g=0.002,
                                         n_max=3))
        sched = build_schedule(parse_sequence("xbarx"), g10)
        tr = run_trace(cs, sched, 12, grid6)
        u1 = propagate_period(cs, sched)
        qs = grid6
        for n in (3, 7, 12):
            m = (np.kron(qs, np.eye(4)[0])
                 @ np.linalg.matrix_power(u1, n).T).reshape(len(qs), 2, 4)
            rho_q = np.einsum("sin,sjn->sij", m, m.conj())
            f = np.einsum("si,sij,sj->s", qs.conj(), rho_q, qs).real
            n_exp = (np.abs(m) ** 2) @ np.arange(4.0)
            assert abs(tr.fidelity_min[n] - f.min()) < 1e-9
            assert abs(tr.n_mean_max[n] - n_exp.sum(axis=1).max()) < 1e-9

    def test_leak_warning(self, g10, grid6):
        # strong resonant drive on a short ladder leaks into the top levels
        cs = jaynes_cummings(ModelParams(omega_r=0.0, omega_0=0, g=0.1,
                                         n_max=2))
        sched = build_schedule(parse_sequence("4p"), g10)
        with pytest.warns(RuntimeWarning, match="n_max"):
            run_trace(cs, sched, 60, grid6)

    def test_validation(self, g10, grid6):
        cs = jaynes_cummings(ModelParams(omega_r=0.1, omega_0=0, g=0.01,
                                         n_max=2))
        sched = build_schedule(parse_sequence("4p"), g10)
        with pytest.raises(ValueError):
            run_trace(cs, sched, -1, grid6)
        with pytest.raises(ValueError):
            run_trace(cs, sched, 1, 2 * grid6)
        with pytest.raises(ValueError):
            run_trace(cs, sched, 1, grid6, oscillator_level=7)
        with pytest.raises(ValueError, match="empty"):
            run_trace(cs, sched, 1, np.empty((0, 2)))

    @pytest.mark.parametrize("state", [[np.nan, 0], [1, np.nan],
                                       [np.inf, 0], [1, -np.inf]], ids=str)
    def test_non_finite_state_refused(self, g10, state):
        # refused before the norm is taken: a NaN norm compares false with
        # any bound, and the norm of an infinite entry warns of inf * 0 on
        # the way, which the suite turns into an error
        cs = jaynes_cummings(ModelParams(omega_r=0.1, omega_0=0, g=0.01,
                                         n_max=2))
        sched = build_schedule(parse_sequence("4p"), g10)
        with pytest.raises(ValueError, match="finite"):
            run_trace(cs, sched, 2, [state])

    @pytest.mark.parametrize("state", [[1, 1], [0.5, 0], [1e200, 0]],
                             ids=str)
    def test_unnormalized_state_refused(self, g10, state):
        # a huge entry is refused before the norm, which would overflow
        cs = jaynes_cummings(ModelParams(omega_r=0.1, omega_0=0, g=0.01,
                                         n_max=2))
        sched = build_schedule(parse_sequence("4p"), g10)
        with pytest.raises(ValueError, match="normalized"):
            run_trace(cs, sched, 2, [state])

    def test_steps_validation(self, g10, grid6):
        cs = jaynes_cummings(ModelParams(omega_r=0.1, omega_0=0, g=0.002,
                                         n_max=4))
        sched = build_schedule(parse_sequence("4p"), g10)
        for steps in (4, 16):
            with pytest.raises(ValueError,
                               match="steps_per_pulse must be >= 32"):
                run_trace(cs, sched, 1, grid6, steps_per_pulse=steps)
        # the halving check runs at every accepted step count: G10 needs
        # 128 steps here, and the exact delta schedule reports 0.0
        with pytest.raises(ConvergenceError):
            run_trace(cs, sched, 1, grid6, steps_per_pulse=64)
        tr = run_trace(cs, sched, 1, grid6, steps_per_pulse=128)
        assert 0 < tr.halving_diff <= propagate.SELF_CHECK_TOL
        hard = build_schedule(parse_sequence("4p"), delta())
        assert run_trace(cs, hard, 1, grid6,
                         steps_per_pulse=32).halving_diff == 0.0

    def test_fock_start(self, g10, grid6):
        cs = jaynes_cummings(ModelParams(omega_r=0.1, omega_0=0, g=0.0,
                                         n_max=5))
        sched = build_schedule(parse_sequence("4p"), g10)
        tr = run_trace(cs, sched, 2, grid6, oscillator_level=2)
        assert np.allclose(tr.n_mean_max, 2.0, atol=1e-10)
