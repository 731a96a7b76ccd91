import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitydd import propagate, sequences
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
        # real couplings ("jc", "parity") take the transposed mirror for x
        # and z pulses, complex ones ("generic", or a y pulse) the mirror
        # product over the reversed weight rows
        hs = assemble(drawn_couplings(model, seed, n_max))
        k_op = kron(PAULI[axis] / 2, np.eye(n_max + 1, dtype=complex))
        sh = PROPERTY_SHAPES[shape]
        interpolated = propagate._pulse_unitary(hs, sign * k_op, sh, steps)
        looped = step_loop_pulse_unitary(hs, k_op, sh, sign, steps)
        assert op_norm(interpolated - looped) <= 1e-12

    # an envelope this strong (peak 2 pi 150.5) makes the bound ask for a
    # node per factor of the first half, 16, whether the generators are real
    # or not
    @pytest.mark.parametrize("model, factors", (("jc", 16), ("generic", 16)))
    def test_as_many_nodes_as_factors_gives_exact_factors(
            self, monkeypatch, model, factors):
        # the distinct coefficients are then the nodes, so each factor is
        # its own exact exponential, and at this scale no interpolant of
        # fewer nodes would come near the step loop
        strong = fourier([1, 300])
        hs = assemble(drawn_couplings(model, 4, 2))
        k_op = kron(PAULI["x"] / 2, np.eye(3, dtype=complex))
        eigh = np.linalg.eigh
        sizes = []

        def counting_eigh(a, *args, **kwargs):
            sizes.append(len(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        u = propagate._pulse_unitary(hs, k_op, strong, 16)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert len(sizes) == 1 and sizes[0] <= factors
        assert op_norm(u - step_loop_pulse_unitary(hs, k_op, strong, 1, 16)) \
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
        # real mirrors ("jc", x and z) and complex ones, with blocks
        # of _BLOCK factors and with the budgeted blocks
        hs = assemble(drawn_couplings(model, seed, n_max))
        k_op = kron(PAULI[axis] / 2, np.eye(n_max + 1, dtype=complex))
        sh = PROPERTY_SHAPES[shape]
        budgeted = propagate._pulse_unitary(hs, k_op, sh, steps)
        with mock.patch.object(propagate, "_BLOCK_ENTRIES", 0):
            assert propagate._block_length(2 * n_max + 2) == propagate._BLOCK
            propagate._integrated_pulse.cache_clear()
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


def period_unitary(cs, schedule, steps):
    """The unchecked U(T) at one step count."""
    return propagate._period_unitaries(cs, schedule, (steps,))[0]


def general_period_unitary(cs, schedule, steps):
    """Reference U(T): every distinct pulse of the schedule by the step
    loop, with no symmetry and no mirror."""
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
        hs = assemble(drawn_couplings(model, 3, 4))
        syms = propagate._symmetries(hs, op_norm(hs))
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
        assert len(propagate._symmetries(broken, op_norm(broken))) == kept

    # odd step counts put the middle step in the first half
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
        reduced = period_unitary(cs, sched, steps)
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
        u1 = period_unitary(cs, build_schedule(parse_sequence(once), sh), 32)
        u2 = period_unitary(
            cs, build_schedule(parse_sequence(f"{once} {once}"), sh), 32)
        assert op_norm(u2 - u1 @ u1) <= 1e-12

    @pytest.mark.parametrize("seq", ("4p", "8a", "8s"))
    @pytest.mark.parametrize("shape", ("G10", "S1"))
    def test_one_real_half_pulse_per_step_count(self, monkeypatch, seq,
                                                shape):
        # the figure model: every pulse of the period comes from one +x
        # pulse per step count, integrated as a real mirror whose
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


def cached_and_fresh(hs, k_op, shape, steps):
    """A pulse unitary built from cached interpolation data, and the same
    pulse after the cache is cleared.  The pulse-unitary cache is cleared
    before each product, so that both are integrated."""
    propagate._pulse_unitary(hs, k_op, shape, steps)
    hits = propagate._interpolation.cache_info().hits
    propagate._integrated_pulse.cache_clear()
    cached = propagate._pulse_unitary(hs, k_op, shape, steps)
    assert propagate._interpolation.cache_info().hits == hits + 1
    propagate._interpolation.cache_clear()
    propagate._integrated_pulse.cache_clear()
    return cached, propagate._pulse_unitary(hs, k_op, shape, steps)


class TestOnePassSetUp:
    def test_order_check_samples_each_envelope_once_per_step_count(
            self, monkeypatch, q1_shape):
        # the verify order check: four coupling scales, every pulse of 8a
        # from one +x pulse, at 256 and 128 steps, each sampled over its
        # first half alone
        calls = []
        amplitude = propagate.amplitude
        monkeypatch.setattr(propagate, "amplitude",
                            lambda shape, t: calls.append(t.shape)
                            or amplitude(shape, t))
        propagate._interpolation.cache_clear()
        cs = jaynes_cummings(ModelParams(omega_r=0, omega_0=0, g=0.1,
                                         n_max=3))
        sequences.order_check(parse_sequence("8a"), cs, q1_shape,
                              (0.4, 0.2, 0.1, 0.04))
        assert calls == [(128, 2), (64, 2)]

    def test_one_symmetry_test_per_checked_pair(self, monkeypatch, g10):
        calls = []
        symmetries = propagate._symmetries
        monkeypatch.setattr(propagate, "_symmetries",
                            lambda hs, scale: calls.append(scale)
                            or symmetries(hs, scale))
        cs = jaynes_cummings(ModelParams(omega_r=0.117, omega_0=0, g=0.002,
                                         n_max=3))
        propagate_period(cs, build_schedule(parse_sequence("8s"), g10))
        assert len(calls) == 1

    def test_interpolation_data_is_read_only(self, g10):
        _, nodes, weights = propagate._interpolation(g10, 64)
        for a in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    # odd step counts put the middle step in the first half
    @pytest.mark.parametrize("steps", (17, 64, 257))
    @pytest.mark.parametrize("model", ("jc", "generic"))
    @pytest.mark.parametrize("axis", ("x", "y"))
    def test_cached_product_matches_a_cold_one(self, model, axis, steps,
                                               h05):
        # "jc" with an x pulse takes the transposed mirror, the rest the
        # mirror product over the reversed weight rows
        hs = assemble(drawn_couplings(model, 2, 2))
        k_op = kron(PAULI[axis] / 2, np.eye(3, dtype=complex))
        cached, fresh = cached_and_fresh(hs, k_op, h05, steps)
        assert np.array_equal(cached, fresh)

    @pytest.mark.parametrize("model", ("jc", "generic"))
    def test_cached_product_with_a_node_per_factor(self, model):
        # the strong envelope of test_as_many_nodes_as_factors_gives_exact_
        # factors, whose distinct coefficients are the nodes
        strong = fourier([1, 300])
        hs = assemble(drawn_couplings(model, 4, 2))
        k_op = kron(PAULI["x"] / 2, np.eye(3, dtype=complex))
        cached, fresh = cached_and_fresh(hs, k_op, strong, 16)
        assert np.array_equal(cached, fresh)
        assert len(propagate._interpolation(strong, 16)[1]) == 16

    def test_real_and_complex_pulses_share_the_interpolation(
            self, monkeypatch, g10):
        # a real (x) and a complex (y) control operator of one norm, on the
        # real JC Hs, both read the first-half data of one entry
        calls = []
        amplitude = propagate.amplitude
        monkeypatch.setattr(propagate, "amplitude",
                            lambda shape, t: calls.append(t.shape)
                            or amplitude(shape, t))
        hs = assemble(drawn_couplings("jc", 3, 2))
        for axis in "xy":
            k_op = kron(PAULI[axis] / 2, np.eye(3, dtype=complex))
            propagate._pulse_unitary(hs, k_op, g10, 64)
        info = propagate._interpolation.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert calls == [(32, 2)]

    # gaussian and hermitian widths and Fourier coefficients as drawn; the
    # worst seen on 300 such shapes is 20 eps
    @pytest.mark.parametrize("odd", (0, 1))
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(kind=st.sampled_from(("gaussian", "hermitian", "fourier")),
           width=st.floats(0.05, 0.5),
           coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
           half=st.integers(8, 512))
    def test_coefficients_are_a_palindrome(self, odd, kind, width, coeffs,
                                           half):
        # the mirror's precondition: the 2*steps CF4 coefficients of a full
        # pulse, sampled directly, read the same backwards to roundoff
        steps = 2 * half + odd
        if kind == "fourier":
            shape = fourier([1.0] + coeffs)
        else:
            shape = (gaussian if kind == "gaussian" else hermitian)(width)
        h = 1 / steps
        t = np.arange(steps)[:, None] * h \
            + np.array([propagate._GL_NODE_1, propagate._GL_NODE_2]) * h
        w1, w2 = propagate._CF4_W1, propagate._CF4_W2
        coef = (amplitude(shape, t) @ np.array([[w1, w2], [w2, w1]])).ravel()
        assert np.abs(coef - coef[::-1]).max() \
            <= 64 * np.finfo(float).eps * np.abs(coef).max()

    @pytest.mark.parametrize("steps", (32, 33, 64))
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_max=st.integers(1, 3),
           model=st.sampled_from(("jc", "parity", "generic")),
           shape=st.sampled_from(sorted(PROPERTY_SHAPES) + ["delta"]),
           seq=st.lists(st.sampled_from(("X", "-X", "Y", "-Y", "Z", "-Z",
                                         "d(0.25)", "d(0.5)")),
                        min_size=1, max_size=6).map(" ".join))
    def test_paired_pass_matches_separate_passes(self, steps, seed, n_max,
                                                 model, shape, seq):
        # soft and delta pulses, with and without delays
        cs = drawn_couplings(model, seed, n_max)
        sh = delta() if shape == "delta" else PROPERTY_SHAPES[shape]
        sched = build_schedule(parse_sequence(seq), sh)
        u, u_half = propagate._period_unitaries(cs, sched,
                                                (steps, steps // 2))
        # each separate pass integrates its pulses afresh
        propagate._integrated_pulse.cache_clear()
        assert np.array_equal(u, period_unitary(cs, sched, steps))
        propagate._integrated_pulse.cache_clear()
        assert np.array_equal(u_half, period_unitary(cs, sched, steps // 2))


def jc_pulse(g):
    """Hs of the figure model at coupling g, and its +x control operator."""
    cs = jaynes_cummings(ModelParams(omega_r=0.117, omega_0=0, g=g, n_max=3))
    return assemble(cs), kron(PAULI["x"] / 2, np.eye(4, dtype=complex))


class TestPulseCache:
    def test_cached_unitary_is_read_only(self, g10):
        hs, k_op = jc_pulse(0.0002)
        for _ in range(2):
            u = propagate._pulse_unitary(hs, k_op, g10, 64)
            with pytest.raises(ValueError, match="read-only"):
                u[0, 0] = 0.0
        assert propagate._integrated_pulse.cache_info().hits == 1

    def test_hit_needs_byte_equal_operators(self, g10):
        # a coupling one ulp away is another Hs, integrated anew
        g = 0.0002
        for coupling in (g, g, np.nextafter(g, 1.0)):
            hs, k_op = jc_pulse(coupling)
            propagate._pulse_unitary(hs, k_op, g10, 64)
        info = propagate._integrated_pulse.cache_info()
        assert (info.hits, info.misses) == (1, 2)

    def test_real_and_complex_operands_share_an_entry(self, g10):
        # the key is the complex128 bytes, whatever dtype the caller passes
        hs, k_op = jc_pulse(0.0002)
        u = propagate._pulse_unitary(hs, k_op, g10, 64)
        assert propagate._pulse_unitary(hs.real, k_op.real, g10, 64) is u

    def test_bounded_to_64_entries(self, g10):
        hs, k_op = jc_pulse(0.0002)
        for steps in range(32, 100):
            propagate._pulse_unitary(hs, k_op, g10, steps)
            assert propagate._integrated_pulse.cache_info().currsize <= 64
        assert propagate._integrated_pulse.cache_info().currsize == 64

    def test_order_checks_of_one_model_share_their_pulses(self, q1_shape):
        # the verify order checks of 8a and 8s: each integrates one +x pulse
        # per coupling scale and step count, and 8s reuses all 8 of 8a's
        cs = jaynes_cummings(ModelParams(omega_r=0, omega_0=0, g=0.1,
                                         n_max=3))
        for seq in ("8a", "8s"):
            sequences.order_check(parse_sequence(seq), cs, q1_shape,
                                  (0.4, 0.2, 0.1, 0.04))
        info = propagate._integrated_pulse.cache_info()
        assert (info.misses, info.hits) == (8, 8)


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

    @pytest.mark.parametrize("spec, steps, refused", [
        ("gaussian:1e-5", 256, True), ("gaussian:0.00145", 32, True),
        ("gaussian:0.2", 32, False), ("H05", 256, False)])
    def test_area_rule(self, spec, steps, refused):
        # a resolved pulse's area error at the coarse count is its change
        # between the counts (gaussian:0.2 misses pi by 1.4e-6 at 16 steps,
        # and 8a cancels that flip error to below the halving tolerance);
        # an unresolved one misses pi by more than it changes, and 8a's
        # halving difference (4e-10 at width 0.00145) cannot see it
        cs = jaynes_cummings(ModelParams(omega_r=0.117, n_max=3))
        sched = build_schedule(parse_sequence("8a"), resolve_shape(spec))
        if refused:
            with pytest.raises(ConvergenceError, match="too narrow"):
                propagate_period(cs, sched, steps)
        else:
            u = propagate_period(cs, sched, steps)
            assert op_norm(u @ u.conj().T - np.eye(len(u))) < 1e-12

    def test_area_rule_skips_a_schedule_without_pulses(self):
        # a delays-only schedule integrates no pulse, whatever its shape
        cs = jaynes_cummings(ModelParams(n_max=3))
        sched = build_schedule(parse_sequence("d(1.0)"), gaussian(1e-5))
        u = propagate_period(cs, sched)
        assert op_norm(u @ u.conj().T - np.eye(len(u))) < 1e-12

    @pytest.mark.parametrize("duration, refused", ((0.25, False),
                                                   (1.0, True)))
    def test_delay_roundoff_bound(self, duration, refused):
        # |Hs| = 1e8: the roundoff eps |Hs| d of d(1) is 2.2e-8, above the
        # tolerance of the halving check, that of d(0.25) 5.6e-9, below it
        cs = chemical_shift(2e8)
        sched = build_schedule(
            parse_sequence(f"X d({duration}) -X d({duration})"), delta())
        if refused:
            with pytest.raises(ConvergenceError,
                               match=r"eps \|Hs\| t = 2\.220e-08 of "
                                     r"d\(1\) exceeds 1e-08"):
                propagate_period(cs, sched)
        else:
            u = propagate_period(cs, sched)
            assert op_norm(u @ u.conj().T - np.eye(2)) < 1e-12

    def test_delta_schedule_makes_the_halving_check(self, monkeypatch):
        # an exact schedule is integrated at both step counts too; the two
        # products are the same operations, so the reported difference is
        # exactly 0.0
        calls = []
        period_unitaries = propagate._period_unitaries
        monkeypatch.setattr(
            propagate, "_period_unitaries",
            lambda cs, sched, counts: calls.append(counts)
            or period_unitaries(cs, sched, counts))
        cs = jaynes_cummings(ModelParams(omega_r=0.117, omega_0=0, g=0.002,
                                         n_max=3))
        sched = build_schedule(parse_sequence("8a"), delta())
        tr = run_trace(cs, sched, 1, [(1.0, 0.0)], steps_per_pulse=64)
        assert calls == [(64, 32)]
        assert tr.halving_diff == 0.0

    @pytest.mark.parametrize("shape", ["G05", "G10", "H05", "H10", "S1",
                                       "S2", "Q1", "Q2"])
    def test_fourth_order_convergence(self, shape):
        rng = np.random.default_rng(17)
        cs = random_couplings(rng, 3, scale=0.5)
        sched = build_schedule(parse_sequence("X"), resolve_shape(shape))
        # the unchecked U(T): the test measures the unconverged differences
        u64, u128, u256 = propagate._period_unitaries(cs, sched,
                                                      (64, 128, 256))
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


def random_states(rng, n_states):
    """Random normalized qubit states, (n_states, 2)."""
    qs = rng.normal(size=(n_states, 2)) + 1j * rng.normal(size=(n_states, 2))
    return qs / np.linalg.norm(qs, axis=1, keepdims=True)


def population_tensor(qs):
    """delta_ij q_a q_b* on (s, i, a, j, b)."""
    return np.einsum("ij,sa,sb->siajb", np.eye(2), qs, qs.conj())


def product_columns(g):
    """The 16 real product columns of ``propagate._state_tables``, read from
    a Hermitian Gram g on p = (i, a): |x_i0|^2, |x_i1|^2 and the (Re, Im)
    of x_i0 x_i1* per qubit block i, then those of x_0a x_1b*."""
    blocks = [[g[2 * i, 2 * i].real, g[2 * i + 1, 2 * i + 1].real,
               g[2 * i, 2 * i + 1].real, g[2 * i, 2 * i + 1].imag]
              for i in range(2)]
    cross = g[:2, 2:].ravel()
    return np.concatenate([*blocks, np.stack([cross.real, cross.imag],
                                             axis=1).ravel()])


def unchecked_period_unitary():
    """Patch run_trace's U(T) to the unchecked one, for random couplings on
    which few steps do not converge: the trace loop is under test."""
    return mock.patch.object(
        propagate, "_checked_period_unitary",
        lambda cs, sched, steps: (period_unitary(cs, sched, steps), 0.0))


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
    # and a partial third block; then the same at chunk edges
    @pytest.mark.parametrize("n_periods", (0, 1, propagate._BLOCK - 1,
                                           propagate._BLOCK,
                                           propagate._BLOCK + 1,
                                           2 * propagate._BLOCK + 3,
                                           propagate._CHUNK - 1,
                                           propagate._CHUNK,
                                           propagate._CHUNK + 1,
                                           2 * propagate._CHUNK + 3))
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
        u = period_unitary(cs, sched, 16)
        ref = per_period_columns(u, qs, dim, level, n_periods)
        got = np.array([tr.fidelity_min, tr.n_mean_max, tr.leakage_max])
        assert got.shape == ref.shape == (3, n_periods + 1)
        assert np.max(np.abs(got - ref)) <= 1e-13

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_states=st.integers(1, 9),
           d=st.integers(1, 5))
    def test_real_tables_match_the_complex_contractions(self, seed, n_states,
                                                        d):
        # the real tables on the 16 product columns of a Hermitian Gram g
        # give Re sum_pq g_pq q4_pq, and on its 4 columns summed over the
        # qubit blocks Re sum_pq g_pq q2_pq: the complex contractions with
        # the state tensors on ((i, a), (j, b))
        rng = np.random.default_rng(seed)
        qs = random_states(rng, n_states)
        q4 = np.einsum("si,sa,sb,sj->siajb", qs.conj(), qs, qs.conj(),
                       qs).reshape(n_states, 16)
        q2 = population_tensor(qs).reshape(n_states, 16)
        fid_table, pop_table = propagate._state_tables(qs)
        assert fid_table.shape == (n_states, 16)
        assert pop_table.shape == (n_states, 4)
        # a Gram of random columns x (4, d), its complex products x_p x_q*
        # summed over the levels, and a random Hermitian matrix, both with
        # entries of modulus <= 1 like the Grams of unitary columns
        x = rng.normal(size=(4, d)) + 1j * rng.normal(size=(4, d))
        x /= np.linalg.norm(x)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m /= 2 * np.abs(m).max()
        for g in ((x[:, None] * x.conj()[None]).sum(axis=2), m + m.conj().T):
            cols = product_columns(g)
            for table, parts, tensor in (
                    (fid_table, cols, q4),
                    (pop_table, cols[:4] + cols[4:8], q2)):
                ref = (tensor @ g.ravel()).real
                assert np.max(np.abs(table @ parts - ref)) <= 1e-14

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_states=st.integers(1, 9))
    def test_population_tensor_equal_on_both_qubit_blocks(self, seed,
                                                          n_states):
        # run_trace sums the occupation and leakage Grams over the qubit
        # blocks before one 4-column contraction; that fold is exact in
        # exact arithmetic because the 16-column tensor delta_ij q_a q_b* is
        # the same on both blocks and zero off them
        qs = random_states(np.random.default_rng(seed), n_states)
        t = population_tensor(qs)
        assert np.array_equal(t[:, 0, :, 0], t[:, 1, :, 1])
        assert not t[:, 0, :, 1].any() and not t[:, 1, :, 0].any()

    def test_matches_per_period_reference_at_figure_scale(self, g10):
        # the fig-1 model: n_max 8, the 56-state grid, 100 periods, and a
        # pulse unitary from the real mirror W^T W
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
        u = period_unitary(cs, sched, 16)
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
        # past one chunk the chunk buffers have their full size, so between
        # two such lengths the peak grows only by the four output columns
        # (times and three observables, 32 B a period), plus a slack of
        # 8 KB for small temporaries; a stored 18x18 U^k (5184 B a period)
        # or any per-period storage of 3 B more would exceed it
        cs = jaynes_cummings(ModelParams(omega_r=0.117, omega_0=0, g=0.0002,
                                         n_max=8))
        sched = build_schedule(parse_sequence("X d(1.0) -X d(1.0)"), delta())
        run_trace(cs, sched, 1, grid6)
        short, long = 2 * propagate._CHUNK, 2 * propagate._CHUNK + 4000
        peaks = {}
        for n in (short, long):
            tracemalloc.start()
            try:
                run_trace(cs, sched, n, grid6)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        allowance = (long - short) * 32 + 8192
        assert allowance < (long - short) * (32 + 3)
        assert peaks[long] - peaks[short] <= allowance

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

    @pytest.mark.parametrize("n_max", (1, 2))
    def test_leak_warning(self, g10, grid6, n_max):
        # strong resonant drive on a short ladder leaks into the top levels;
        # at n_max = 1 they are every level, so the leakage column is 1 by
        # definition, no larger truncation changes it, and no warning is
        # given (the suite makes a stray one an error)
        cs = jaynes_cummings(ModelParams(omega_r=0.0, omega_0=0, g=0.1,
                                         n_max=n_max))
        sched = build_schedule(parse_sequence("4p"), g10)
        if n_max == 1:
            tr = run_trace(cs, sched, 60, grid6)
            assert np.max(np.abs(tr.leakage_max - 1)) < 1e-13
        else:
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
