import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitydd import propagate, sequences
from cavitydd.algebra import (CouplingSet, ModelParams, chemical_shift,
                              jaynes_cummings, op_norm)
from cavitydd.sequences import (BUILTIN_SEQUENCES, Delay, PulseSpec, Sequence,
                                control_unitary, effective_hamiltonian,
                                expand_pulse, expansion_sum,
                                jc_cavity_hamiltonian, order_check,
                                parse_sequence)
from cavitydd.propagate import build_schedule
from cavitydd.shapes import ShapeParams, compute_params, delta, gaussian
from conftest import random_couplings


class TestParser:
    def test_token_string_is_time_ordered(self):
        seq = parse_sequence("X -Y X Y")
        assert seq.name is None
        assert [p.label() for p in seq.pulses] == ["X", "-Y", "X", "Y"]

    def test_named_4p_reverses_the_product(self):
        # the library entry 4p is the product X Ybar X Y: Y acts first
        seq = parse_sequence("4p")
        assert [p.label() for p in seq.pulses] == ["Y", "X", "-Y", "X"]

    def test_alias(self):
        assert parse_sequence("4pxy").name == "4p"
        assert parse_sequence("8A").name == "8a"

    def test_echo_layout(self):
        seq = parse_sequence("X d(1.0) -X d(1.0)")
        assert seq.elements == (PulseSpec("x"), Delay(1.0),
                                PulseSpec("x", -1), Delay(1.0))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.builds(PulseSpec, axis=st.sampled_from("xyz"),
                  sign=st.sampled_from((1, -1))),
        st.builds(Delay, st.floats(0.0, 1e6, allow_subnormal=False))),
        min_size=1, max_size=12))
    def test_label_roundtrip(self, elements):
        seq = Sequence(elements=tuple(elements))
        back = parse_sequence(seq.label())
        assert back.name is None
        assert back.pulses == seq.pulses
        assert len(back.elements) == len(seq.elements)
        for got, want in zip(back.elements, seq.elements):
            assert type(got) is type(want)
            if isinstance(want, Delay):
                # label() prints delays with :g, 6 significant digits
                assert got.duration == pytest.approx(want.duration, rel=5e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_sequence("   ")

    def test_unknown_token(self):
        with pytest.raises(ValueError):
            parse_sequence("X W Y")

    def test_malformed_delay(self):
        with pytest.raises(ValueError):
            parse_sequence("X d(abc)")
        with pytest.raises(ValueError):
            parse_sequence("X d(-1)")

    @pytest.mark.parametrize("name", sorted(BUILTIN_SEQUENCES))
    def test_zeroth_order_refocusing(self, name):
        u = control_unitary(parse_sequence(name))
        # identity up to global phase
        assert abs(abs(np.trace(u)) - 2) < 1e-12

    def test_period(self):
        assert build_schedule(parse_sequence("8a"), gaussian(0.1)).period == 8.0
        assert build_schedule(parse_sequence("X d(1.0) -X d(1.0)"),
                              delta()).period == 2.0


class TestExpandPulse:
    def test_zero_couplings(self):
        z = np.zeros((2, 2), dtype=complex)
        cs = CouplingSet(z, z, z, z)
        p = compute_params(gaussian(0.10))
        x0, x1, x2 = expand_pulse(cs, p, PulseSpec("x"))
        assert np.allclose(x0, np.kron(-1j * np.array([[0, 1], [1, 0]]),
                                       np.eye(2)))
        assert op_norm(x1) == 0
        assert op_norm(x2) == 0

    def test_chemical_shift_first_order_selfrefocusing(self):
        # s = 0 shape on the shift model: no first-order term at all
        cs = chemical_shift(0.4)
        p = ShapeParams(s=0.0, alpha=0.01, zeta=0.25, area=np.pi)
        _, x1, _ = expand_pulse(cs, p, PulseSpec("x"))
        assert op_norm(x1) < 1e-14

    def test_chemical_shift_quadratic_structure(self):
        # matched convention: X = -i sx - i s taubar sz
        #                         + taubar^2 (-alpha + i s^2/2 sx)
        delta_shift = 0.8
        cs = chemical_shift(delta_shift)
        p = compute_params(gaussian(0.10))
        x0, x1, x2 = expand_pulse(cs, p, PulseSpec("x"))
        taubar = delta_shift / 2  # taup = 1
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        assert np.allclose(x1, -1j * p.s * (delta_shift / 2) * sz, atol=1e-14)
        expect2 = taubar ** 2 * (-p.alpha * np.eye(2) + 0.5j * p.s ** 2 * sx)
        assert np.allclose(x2, expect2, atol=1e-14)
        # and the propagator agrees with the matched variant, not the
        # sign-flipped one
        sched = propagate.build_schedule(parse_sequence("X"), gaussian(0.10))
        u = propagate.propagate_period(cs, sched, self_check=False)
        matched = x0 + x1 + x2
        flipped = x0 - x1 + taubar ** 2 * (p.alpha * np.eye(2)
                                           + 0.5j * p.s ** 2 * sx)
        assert op_norm(u - matched) < op_norm(u - flipped) / 30

    def test_requires_inversion_params(self):
        cs = chemical_shift(0.4)
        bad = ShapeParams(s=0.1, alpha=0.0, zeta=0.25, area=2.0)
        with pytest.raises(ValueError):
            expand_pulse(cs, bad, PulseSpec("x"))

    def test_truncation_scaling(self, g10):
        # residual || U - (X0 + taup X1 + taup^2 X2) || ~ C (J taup)^3:
        # halving the couplings shrinks it by 8x within +-20%
        rng = np.random.default_rng(21)
        cs = random_couplings(rng, 3, scale=0.3)
        p = compute_params(g10)
        sched = propagate.build_schedule(parse_sequence("X"), g10)

        def residual(scale):
            sc = cs.scaled(scale)
            u = propagate.propagate_period(sc, sched, self_check=False)
            return op_norm(u - expansion_sum(sc, p, PulseSpec("x")))

        ratio = residual(0.2) / residual(0.1)
        assert 8 * 0.8 < ratio < 8 * 1.2

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_all_axes_and_signs_against_propagator(self, axis, sign, g10):
        # cyclic permutation for y/z pulses; negative pulse = overall (-1)
        # with s -> -s, alpha -> -alpha
        rng = np.random.default_rng(31)
        cs = random_couplings(rng, 3, scale=0.3)
        p = compute_params(g10)
        seq = Sequence(elements=(PulseSpec(axis, sign),))
        sched = propagate.build_schedule(seq, g10)
        res = []
        for lam in (0.2, 0.1):
            sc = cs.scaled(lam)
            u = propagate.propagate_period(sc, sched, self_check=False)
            res.append(op_norm(u - expansion_sum(sc, p, PulseSpec(axis, sign))))
        assert 6 < res[0] / res[1] < 10

    def test_nonunit_pulse_duration(self):
        # the expansion is organized in powers of taup: consistent at taup=2
        rng = np.random.default_rng(9)
        cs = random_couplings(rng, 3, scale=0.15)
        shape = gaussian(0.10, taup=2.0)
        p = compute_params(shape)
        sched = propagate.build_schedule(parse_sequence("X"), shape)
        res = []
        for lam in (0.2, 0.1):
            sc = cs.scaled(lam)
            u = propagate.propagate_period(sc, sched, self_check=False)
            res.append(op_norm(u - expansion_sum(sc, p, PulseSpec("x"),
                                                 taup=2.0)))
        assert 6 < res[0] / res[1] < 10

    def test_negative_pulse_rule(self, g10):
        rng = np.random.default_rng(41)
        cs = random_couplings(rng, 3)
        p = compute_params(g10)
        flipped = ShapeParams(s=-p.s, alpha=-p.alpha, zeta=p.zeta,
                              area=-p.area)
        neg = expand_pulse(cs, p, PulseSpec("x", -1))
        pos_flipped = expand_pulse(cs, flipped, PulseSpec("x", 1))
        for a, b in zip(neg, pos_flipped):
            assert np.allclose(a, -b, atol=1e-14)


class TestEffectiveHamiltonian:
    def test_custom_sequence_rejected(self, g10):
        rng = np.random.default_rng(51)
        cs = random_couplings(rng, 2)
        p = compute_params(g10)
        with pytest.raises(ValueError):
            effective_hamiltonian(parse_sequence("X Y Z"), cs, p)

    @pytest.mark.parametrize("name", sequences.EFFECTIVE_SEQUENCES)
    def test_hermitian(self, name, g10):
        rng = np.random.default_rng(61)
        cs = random_couplings(rng, 3)
        p = compute_params(g10)
        for convention in ("matched", "printed"):
            h, note = effective_hamiltonian(parse_sequence(name), cs, p,
                                            convention=convention)
            assert op_norm(h - h.conj().T) < 1e-12
            assert note.startswith("O(")

    def test_8a_with_selfrefocusing_pulse_is_a0_only(self, q1_shape):
        rng = np.random.default_rng(71)
        cs = random_couplings(rng, 3)
        p = compute_params(q1_shape)
        h, _ = effective_hamiltonian(parse_sequence("8a"), cs, p)
        assert op_norm(h - np.kron(np.eye(2), cs.a0)) < 1e-8

    @pytest.mark.parametrize("name,scales", [
        ("xbarx", (0.4, 0.2, 0.1, 0.04)),
        ("x4", (0.2, 0.1, 0.05, 0.02)),
        ("8a", (0.4, 0.2, 0.1, 0.04)),
        ("8s", (0.4, 0.2, 0.1, 0.04)),
    ])
    def test_defect_scaling_matched(self, name, scales, g10):
        # remainder O(taup^2) terms are cubic in the coupling scale
        rng = np.random.default_rng(42)
        cs = random_couplings(rng, 3)
        r = order_check(parse_sequence(name), cs, g10, scales,
                        reference="effective")
        assert r.exponent > 2.7

    def test_4p_defect_scaling_with_s0_pulse(self, s1_shape):
        # the printed 4p drops s*taup terms, so validate with an s = 0 shape
        rng = np.random.default_rng(42)
        cs = random_couplings(rng, 3)
        r = order_check(parse_sequence("4p"), cs, s1_shape,
                        (0.4, 0.2, 0.1, 0.04), reference="effective")
        assert r.exponent > 2.7

    def test_printed_convention_fails_at_first_order(self, g10):
        # the verbatim equations have the s-terms with the opposite sign,
        # which the propagator rejects: the defect stops being cubic
        rng = np.random.default_rng(42)
        cs = random_couplings(rng, 3)
        r = order_check(parse_sequence("xbarx"), cs, g10,
                        (0.4, 0.2, 0.1, 0.04), reference="effective",
                        convention="printed")
        assert r.exponent < 1.5


class TestCavityForms:
    def test_8a_cavity_equation_equals_matched_generic_on_resonance(self, g10):
        # at omega_0 = 0 the printed cavity form of 8a coincides with the
        # matched generic specialization (the sign story resolves in its
        # favor); the printed generic form differs
        model = ModelParams(omega_r=0.03, omega_0=0.0, g=0.02, n_max=3)
        cs = jaynes_cummings(model)
        p = compute_params(g10)
        h_match, _ = effective_hamiltonian(parse_sequence("8a"), cs, p)
        h_cav = jc_cavity_hamiltonian("8a", model, p)
        h_printed, _ = effective_hamiltonian(parse_sequence("8a"), cs, p,
                                             convention="printed")
        assert op_norm(h_match - h_cav) < 1e-12
        assert op_norm(h_printed - h_cav) > 1e-3

    def test_cavity_forms_hermitian(self, g10):
        model = ModelParams(omega_r=0.1, omega_0=0.2, g=0.05, n_max=4)
        p = compute_params(g10)
        for name in ("4p", "4p_s0", "4pxz", "8s", "8a"):
            h = jc_cavity_hamiltonian(name, model, p)
            assert op_norm(h - h.conj().T) < 1e-12

    def test_unknown_name(self, g10):
        with pytest.raises(ValueError):
            jc_cavity_hamiltonian("x4", ModelParams(), compute_params(g10))


class TestOrderCheck:
    def test_zero_couplings_floor(self, g10):
        z = np.zeros((2, 2), dtype=complex)
        cs = CouplingSet(z, z, z, z)
        r = order_check(parse_sequence("4p"), cs, g10, (1.0, 0.1))
        assert r.floor_limited
        assert np.isnan(r.exponent)
        assert all(d < 1e-10 for d in r.defects)

    def test_scale_span_validation(self, g10):
        rng = np.random.default_rng(81)
        cs = random_couplings(rng, 2)
        with pytest.raises(ValueError):
            order_check(parse_sequence("4p"), cs, g10, (0.4, 0.2))
        with pytest.raises(ValueError):
            order_check(parse_sequence("4p"), cs, g10, (0.4,))

    @pytest.mark.parametrize("scales", ((0.0, 0.4), (0.4, np.inf),
                                        (0.4, np.nan, 0.1), (0.04, -0.4)))
    def test_scales_finite_and_positive(self, g10, scales):
        cs = random_couplings(np.random.default_rng(5), 2)
        with pytest.raises(ValueError, match="finite and positive"):
            order_check(parse_sequence("4p"), cs, g10, scales)

    def test_reference_validation(self, g10):
        rng = np.random.default_rng(91)
        cs = random_couplings(rng, 2)
        with pytest.raises(ValueError):
            order_check(parse_sequence("4p"), cs, g10, (1.0, 0.1),
                        reference="exact")
