import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitydd import propagate, sequences
from cavitydd.algebra import (PAULI, CouplingSet, ModelParams, anticomm,
                              assemble, comm, expm_herm, is_hermitian,
                              jaynes_cummings, op_norm)
from cavitydd.sequences import (BUILTIN_SEQUENCES, Delay, PulseSpec, Sequence,
                                build_schedule, effective_hamiltonian,
                                expand_pulse, expansion_sum,
                                jc_cavity_hamiltonian, order_check,
                                parse_sequence)
from cavitydd.propagate import propagate_period
from cavitydd.shapes import (ShapeParams, compute_params, delta, gaussian,
                             resolve_shape)
from conftest import chemical_shift, random_couplings


class TestParser:
    def test_token_string_is_time_ordered(self):
        seq = parse_sequence("X -Y X Y")
        assert seq.name is None
        assert [p.label() for p in seq.elements] == ["X", "-Y", "X", "Y"]

    def test_named_4p_reverses_the_product(self):
        # the library entry 4p is the product X Ybar X Y: Y acts first
        seq = parse_sequence("4p")
        assert [p.label() for p in seq.elements] == ["Y", "X", "-Y", "X"]

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
        assert len(back.elements) == len(seq.elements)
        for got, want in zip(back.elements, seq.elements):
            assert type(got) is type(want)
            if isinstance(want, PulseSpec):
                assert got == want
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
        # with no coupling, one period of delta pulses is the identity up to
        # a global phase
        cs = jaynes_cummings(ModelParams(0, 0, 0, n_max=1))
        u = propagate_period(cs, build_schedule(parse_sequence(name), delta()))
        assert abs(abs(np.trace(u)) - u.shape[0]) < 1e-12

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

    @pytest.mark.parametrize("axis", "xyz")
    @pytest.mark.parametrize("sign", (1, -1))
    def test_each_product_formed_once(self, monkeypatch, axis, sign):
        # X0, and the 13 distinct sigma (x) A products of X1 and X2
        calls = []
        kron = sequences.kron
        monkeypatch.setattr(sequences, "kron",
                            lambda a, b: calls.append(1) or kron(a, b))
        cs = random_couplings(np.random.default_rng(3), 3)
        expand_pulse(cs, compute_params(gaussian(0.10)),
                     PulseSpec(axis, sign))
        assert len(calls) == 14

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
        sched = build_schedule(parse_sequence("X"), gaussian(0.10))
        u = propagate.propagate_period(cs, sched)
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
        # residual || U - (X0 + X1 + X2) || ~ C (J taup)^3:
        # halving the couplings shrinks it by 8x within +-20%
        rng = np.random.default_rng(21)
        cs = random_couplings(rng, 3, scale=0.3)
        p = compute_params(g10)
        sched = build_schedule(parse_sequence("X"), g10)

        def residual(scale):
            sc = cs.scaled(scale)
            u = propagate.propagate_period(sc, sched)
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
        sched = build_schedule(seq, g10)
        res = []
        for lam in (0.2, 0.1):
            sc = cs.scaled(lam)
            u = propagate.propagate_period(sc, sched)
            res.append(op_norm(u - expansion_sum(sc, p, PulseSpec(axis, sign))))
        assert 6 < res[0] / res[1] < 10

    def test_nonunit_pulse_duration(self, g10):
        # a pulse twice as long against these couplings is the unit pulse
        # against couplings twice as large: J taup doubled
        rng = np.random.default_rng(9)
        cs = random_couplings(rng, 3, scale=0.15).scaled(2.0)
        p = compute_params(g10)
        sched = build_schedule(parse_sequence("X"), g10)
        res = []
        for lam in (0.2, 0.1):
            sc = cs.scaled(lam)
            u = propagate.propagate_period(sc, sched)
            res.append(op_norm(u - expansion_sum(sc, p, PulseSpec("x"))))
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

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4),
           name=st.sampled_from(("G10", "H05", "S1", "Q1")),
           factor=st.sampled_from((1.0, 2.0)))
    def test_negative_pulse_against_propagator(self, seed, dim, name, factor):
        # the truncated -x expansion against one propagated -x pulse:
        # halving the couplings shrinks the residual ~8x, as for +x; factor
        # 2 doubles J taup
        shape = resolve_shape(name)
        cs = random_couplings(np.random.default_rng(seed), dim,
                              scale=0.3).scaled(factor)
        p = compute_params(shape)
        sched = build_schedule(Sequence(elements=(PulseSpec("x", -1),)),
                               shape)
        res = []
        for lam in (0.2, 0.1):
            sc = cs.scaled(lam)
            # unchecked: some drawn couplings need more than 256 steps to
            # pass the halving check, far below the residuals compared here
            u = propagate._period_unitaries(sc, sched, (256,))[0]
            res.append(op_norm(u - expansion_sum(sc, p, PulseSpec("x", -1))))
        assert 6 < res[0] / res[1] < 10


def _on(axis, m):
    q = PAULI[axis] if axis else np.eye(2)
    return np.kron(q, m)


def paper_effective_hamiltonian(name, cs, params, taup, convention):
    """The paper's printed H_eff of xbarx, x4, 8s, 8a and 4p, with the
    matched convention's sign flip of s and alpha: the reference the composed
    effective Hamiltonian is held to.  The printed 4p equation drops the
    s*taup terms, and its [A0, .] term has the sign opposite to the composed
    printed expansion, so the matched convention flips that term too."""
    s, alpha = params.s, params.alpha
    if convention == "matched":
        s, alpha = -s, -alpha
    a0, ax, ay, az = cs.a0, cs.ax, cs.ay, cs.az
    if name == "xbarx":
        return _on(None, a0) + _on("x", ax) - s * (_on("y", az) - _on("z", ay))
    if name == "x4":
        return (_on(None, a0) + _on("x", ax)
                - s * taup * anticomm(_on(None, ax),
                                      _on("y", ay) + _on("z", az))
                + 1j * s * taup * comm(_on(None, a0),
                                       _on("y", az) - _on("z", ay)))
    if name == "8s":
        blk = (0.25j * _on(None, comm(az, ax + ay))
               + 0.5 * (_on("x", ay @ ay) - _on("y", ax @ ax))
               + 0.25 * _on("y", anticomm(ax, ay))
               + 0.25 * _on("z", anticomm(ay, az))
               + 0.5j * comm(_on(None, a0),
                             _on("y", az) + _on("z", ax)
                             + 1.5 * _on("z", ay) - 2.5 * _on("x", az)))
        return (_on(None, a0) + s * taup * blk
                - (alpha * taup / 2) * (_on("y", ax @ ax + az @ az)
                                        + 1j * _on(None, comm(ay, az))))
    if name == "4p":
        sign = -1.0 if convention == "matched" else 1.0
        return (_on(None, a0) + (s / 2) * (_on("x", az) - _on("z", ay))
                + sign * (-0.5j * taup) * comm(_on(None, a0),
                                               _on("x", ax) - _on("y", ay))
                - taup * (alpha / 2) * _on("y", ax @ ax + az @ az)
                + taup * (0.5j * alpha) * _on(None, comm(az, ay))
                - taup * ((1 + 4 * params.zeta) / 4)
                * _on("z", anticomm(ax, ay)))
    assert name == "8a"
    return _on(None, a0) + (s / 2) * (_on("x", az) - _on("z", ay))


class TestEffectiveHamiltonian:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 4),
           shape=st.sampled_from(("G05", "G10", "H05", "S1", "Q1")),
           factor=st.sampled_from((1.0, 2.0)),
           convention=st.sampled_from(("matched", "printed")))
    def test_composition_equals_paper_formulas(self, seed, dim, shape, factor,
                                               convention):
        # couplings factor * J multiply J taup by factor: H_eff / factor is
        # the paper's form with taup = factor
        cs = random_couplings(np.random.default_rng(seed), dim)
        shp = resolve_shape(shape)
        p = compute_params(shp)
        names = ["xbarx", "x4", "8s", "8a"]
        if convention == "matched" and abs(p.s) * factor <= 4e-13:
            # the printed 4p equation drops only s*taup terms, below the
            # tolerance here (S1 at both factors, Q1 at factor 1; Q1 at
            # factor 2 reaches 1.6e-13)
            names.append("4p")
        for name in names:
            h = effective_hamiltonian(parse_sequence(name), cs.scaled(factor),
                                      shp, convention) / factor
            ref = paper_effective_hamiltonian(name, cs, p, factor, convention)
            assert op_norm(h - ref) <= 1e-13 * max(1.0, op_norm(ref))

    def test_printed_4p_commutator_sign(self, s1_shape):
        # composing the printed single-pulse expansions gives the printed 4p
        # equation with its -(i taup/2) [1 (x) A0, sx (x) Ax - sy (x) Ay]
        # term of the opposite sign
        cs = random_couplings(np.random.default_rng(13), 3)
        composed = effective_hamiltonian(parse_sequence("Y X -Y X"), cs,
                                         s1_shape, "printed")
        printed = paper_effective_hamiltonian(
            "4p", cs, compute_params(s1_shape), 1.0, "printed")
        term = -0.5j * comm(_on(None, cs.a0),
                            _on("x", cs.ax) - _on("y", cs.ay))
        assert op_norm(term) > 1e-2
        assert op_norm(composed - (printed - 2 * term)) < 1e-13

    def test_non_refocusing_sequence_rejected(self, g10):
        cs = random_couplings(np.random.default_rng(51), 2)
        for text in ("X Y", "X Y -X", "Y X -Y", "X d(1) Y"):
            with pytest.raises(ValueError, match="does not refocus"):
                effective_hamiltonian(parse_sequence(text), cs, g10)

    def test_custom_sequence_accepted(self, g10):
        # a custom sequence takes the path of the named one with its pulses
        cs = random_couplings(np.random.default_rng(51), 2)
        for text, name in (("X -X", "xbarx"), ("Y X -Y X", "4p")):
            h = effective_hamiltonian(parse_sequence(text), cs, g10)
            ref = effective_hamiltonian(parse_sequence(name), cs, g10)
            assert np.array_equal(h, ref)

    def test_zero_length_period_rejected(self, g10):
        # hard pulses take no time, so 8a of delta pulses has no period
        cs = random_couplings(np.random.default_rng(51), 2)
        for text, shape in (("d(0)", g10), ("8a", delta())):
            with pytest.raises(ValueError, match="zero duration"):
                effective_hamiltonian(parse_sequence(text), cs, shape)

    @pytest.mark.parametrize("name", sorted(BUILTIN_SEQUENCES) + [
        "Y X -Y X", "X Y X Y", "X X", "X d(0.5) -X d(0.5)",
        "Y d(0.5) X -Y d(0.5) X"])
    def test_hermitian(self, name, g10):
        rng = np.random.default_rng(61)
        cs = random_couplings(rng, 3)
        for convention in ("matched", "printed"):
            h = effective_hamiltonian(parse_sequence(name), cs, g10,
                                      convention)
            assert op_norm(h - h.conj().T) < 1e-12

    @pytest.mark.parametrize("name, shape", [("4p", "G10"), ("8a", "S1"),
                                             ("8s", "G10")])
    @pytest.mark.parametrize("convention", ("matched", "printed"))
    def test_two_periods_compose_to_the_same_hamiltonian(self, name, shape,
                                                         convention):
        # exp(-2i T H_eff) is the propagator of the sequence played twice,
        # so H_eff of the doubled sequence is H_eff (the effham arguments of
        # the verify benchmark; the two agree to <= 7.9e-16)
        cs = jaynes_cummings(ModelParams(omega_r=0.02, omega_0=0.03, g=0.02,
                                         n_max=3))
        seq = parse_sequence(name)
        sh = resolve_shape(shape)
        h = effective_hamiltonian(seq, cs, sh, convention)
        h2 = effective_hamiltonian(Sequence(elements=seq.elements * 2), cs,
                                   sh, convention)
        assert op_norm(h2 - h) <= 1e-14

    def test_delays_compose_exactly_without_pulses(self):
        # a pulse-free sequence is free evolution: H_eff = Hs
        cs = random_couplings(np.random.default_rng(3), 3)
        h = effective_hamiltonian(parse_sequence("d(0.5) d(1.5)"), cs,
                                  gaussian(0.10))
        assert op_norm(h - assemble(cs)) < 1e-15

    def test_global_phase_folded_into_h(self, g10):
        # X X multiplies to -1: exp(-i T H_eff) carries that sign
        cs = random_couplings(np.random.default_rng(7), 2)
        h = effective_hamiltonian(parse_sequence("X X"), cs, g10)
        assert sequences.refocusing_phase(parse_sequence("X X")) == -1
        assert sequences.refocusing_phase(parse_sequence("8s")) == 1
        zero = CouplingSet(*(np.zeros((2, 2), dtype=complex),) * 4)
        h0 = effective_hamiltonian(parse_sequence("X X"), zero, g10)
        assert op_norm(expm_herm(h0, 2.0) + np.eye(4)) < 1e-14
        assert is_hermitian(h)

    def test_8a_with_selfrefocusing_pulse_is_a0_only(self, q1_shape):
        rng = np.random.default_rng(71)
        cs = random_couplings(rng, 3)
        h = effective_hamiltonian(parse_sequence("8a"), cs, q1_shape)
        assert op_norm(h - np.kron(np.eye(2), cs.a0)) < 1e-8

    @pytest.mark.parametrize("name,scales", [
        ("xbarx", (0.4, 0.2, 0.1, 0.04)),
        ("x4", (0.2, 0.1, 0.05, 0.02)),
        ("8a", (0.4, 0.2, 0.1, 0.04)),
        ("8s", (0.4, 0.2, 0.1, 0.04)),
        ("x4", (0.4, 0.2, 0.1, 0.04)),
    ])
    def test_defect_scaling_matched(self, name, scales, g10):
        # remainder O(taup^2) terms are cubic in the coupling scale
        rng = np.random.default_rng(42)
        cs = random_couplings(rng, 3)
        r = order_check(parse_sequence(name), cs, g10, scales,
                        reference="effective")
        assert r.exponent > 2.7

    @pytest.mark.parametrize("text", ["Y X -Y X", "4p", "4pxz",
                                      "Y d(0.5) X -Y d(0.5) X"])
    def test_composed_defect_scaling(self, text, g10):
        # sequences with no coded form, delays included, against the
        # composed effective Hamiltonian
        cs = random_couplings(np.random.default_rng(42), 3)
        r = order_check(parse_sequence(text), cs, g10, (0.4, 0.2, 0.1, 0.04),
                        reference="effective")
        assert r.exponent >= 2.8

    def test_4p_defect_scaling_with_s0_pulse(self, s1_shape):
        rng = np.random.default_rng(42)
        cs = random_couplings(rng, 3)
        r = order_check(parse_sequence("4p"), cs, s1_shape,
                        (0.4, 0.2, 0.1, 0.04), reference="effective")
        assert r.exponent > 2.7

    @pytest.mark.parametrize("factor", [1.0, 2.0])
    def test_delta_defect_scaling(self, factor):
        # hard pulses between delays: the remainder is cubic as for soft
        # ones, at J taup and at twice that
        cs = random_couplings(np.random.default_rng(42), 3).scaled(factor)
        r = order_check(parse_sequence("d(0.5) X d(1) -X d(0.5)"), cs,
                        delta(), (0.4, 0.2, 0.1, 0.04),
                        reference="effective")
        assert r.exponent >= 2.8

    def test_printed_convention_fails_at_first_order(self, g10):
        # the verbatim equations have the s-terms with the opposite sign,
        # which the propagator rejects: the defect stops being cubic
        cs = random_couplings(np.random.default_rng(42), 3)
        seq = parse_sequence("xbarx")
        sched = build_schedule(seq, g10)
        scales = (0.4, 0.2, 0.1, 0.04)
        defects = []
        for lam in scales:
            sc = cs.scaled(lam)
            h = effective_hamiltonian(seq, sc, g10, "printed")
            defects.append(op_norm(propagate_period(sc, sched)
                                   - expm_herm(h, sched.period)))
        exponent = np.polyfit(np.log(scales), np.log(defects), 1)[0]
        assert exponent < 1.5


class TestCavityForms:
    def test_8a_cavity_equation_equals_matched_generic_on_resonance(self, g10):
        # at omega_0 = 0 the printed cavity form of 8a coincides with the
        # matched generic specialization (the sign story resolves in its
        # favor); the printed generic form differs
        model = ModelParams(omega_r=0.03, omega_0=0.0, g=0.02, n_max=3)
        cs = jaynes_cummings(model)
        h_match = effective_hamiltonian(parse_sequence("8a"), cs, g10)
        h_cav = jc_cavity_hamiltonian("8a", model, compute_params(g10))
        h_printed = effective_hamiltonian(parse_sequence("8a"), cs, g10,
                                          "printed")
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

    @pytest.mark.parametrize("text", ["X Y X Y", "X X"])
    def test_global_phase_of_the_target(self, text, g10):
        # the ideal pulses multiply to -1; both references carry that sign,
        # so the zero reference sees the first-order defect and the
        # effective one the third-order remainder
        cs = random_couplings(np.random.default_rng(42), 3)
        scales = (0.4, 0.2, 0.1, 0.04)
        zero = order_check(parse_sequence(text), cs, g10, scales)
        eff = order_check(parse_sequence(text), cs, g10, scales,
                          reference="effective")
        assert 0.8 <= zero.exponent <= 1.5
        assert max(zero.defects) < 1
        assert eff.exponent >= 2.8

    @pytest.mark.parametrize("reference", ["zero", "effective"])
    def test_non_refocusing_rejected(self, reference, g10):
        cs = random_couplings(np.random.default_rng(42), 2)
        with pytest.raises(ValueError, match="does not refocus"):
            order_check(parse_sequence("X Y"), cs, g10, (0.4, 0.04),
                        reference=reference)

    def test_reference_validation(self, g10):
        rng = np.random.default_rng(91)
        cs = random_couplings(rng, 2)
        with pytest.raises(ValueError):
            order_check(parse_sequence("4p"), cs, g10, (1.0, 0.1),
                        reference="exact")
