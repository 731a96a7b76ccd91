import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitydd import algebra
from cavitydd.algebra import (HERMITICITY_TOL, CouplingSet, ModelParams,
                              SIGMA_X, anticomm, assemble, comm, expm_herm,
                              is_hermitian, jaynes_cummings, kron, lowering,
                              op_norm)
from conftest import chemical_shift, random_couplings


class TestBuilders:
    def test_decoupled_oscillator(self):
        # g = 0, omega_0 = 0: only A0 survives, diagonal omega_r * n
        cs = jaynes_cummings(ModelParams(omega_r=0.25, omega_0=0, g=0, n_max=4))
        unit = 2 * np.pi
        assert np.allclose(cs.a0, np.diag(0.25 * unit * np.arange(5)))
        assert op_norm(cs.ax) == 0
        assert op_norm(cs.ay) == 0
        assert op_norm(cs.az) == 0

    def test_two_level_oscillator(self):
        # n_max = 1 makes the mode effectively a qubit
        cs = jaynes_cummings(ModelParams(omega_r=0.1, omega_0=0, g=0.05,
                                         n_max=1))
        assert cs.dim == 2
        b = lowering(2)
        assert np.allclose(b, [[0, 1], [0, 0]])

    def test_assembled_hermitian(self):
        cs = jaynes_cummings(ModelParams(omega_r=0.117, omega_0=0.3, g=0.1,
                                         n_max=8))
        h = assemble(cs)
        assert op_norm(h - h.conj().T) < 1e-14

    def test_chemical_shift(self):
        cs = chemical_shift(1.0)
        assert cs.dim == 1
        assert cs.az[0, 0] == pytest.approx(0.5)
        assert op_norm(cs.a0) == op_norm(cs.ax) == op_norm(cs.ay) == 0
        zero = chemical_shift(0.0)
        assert op_norm(assemble(zero)) == 0

    def test_assemble_zero(self):
        z = np.zeros((3, 3), dtype=complex)
        assert op_norm(assemble(CouplingSet(z, z, z, z))) == 0

    def test_exchange_block_by_hand(self):
        # omega_r = omega_0 = 0, n_max = 1: independent hand assembly in the
        # basis |q,n> = (up,0), (up,1), (down,0), (down,1); the exchange
        # couples (up,0) <-> (down,1) with matrix element -g
        g_unit = 0.05
        cs = jaynes_cummings(ModelParams(omega_r=0, omega_0=0, g=g_unit,
                                         n_max=1))
        h = assemble(cs)
        g_abs = g_unit * 2 * np.pi
        expect = np.zeros((4, 4), dtype=complex)
        expect[0, 3] = -g_abs
        expect[3, 0] = -g_abs
        assert np.allclose(h, expect, atol=1e-14)

    def test_resonant_rabi_splittings(self):
        # exact dressed-state spectrum as independent oracle
        om, g_unit, n_max = 0.2, 0.03, 4
        cs = jaynes_cummings(ModelParams(omega_r=om, omega_0=om, g=g_unit,
                                         n_max=n_max))
        w = np.sort(np.linalg.eigvalsh(assemble(cs)))
        unit = 2 * np.pi
        omr, g = om * unit, g_unit * unit
        expect = [-omr / 2, omr * n_max + omr / 2]
        for n in range(n_max):
            center = omr * (n + 0.5)
            expect += [center - g * np.sqrt(n + 1), center + g * np.sqrt(n + 1)]
        assert np.allclose(w, np.sort(expect), atol=1e-11)


class TestValidation:
    def test_dimension_mismatch(self):
        z2 = np.zeros((2, 2), dtype=complex)
        z3 = np.zeros((3, 3), dtype=complex)
        with pytest.raises(ValueError):
            CouplingSet(z2, z2, z2, z3)

    def test_non_hermitian_rejected(self):
        z = np.zeros((2, 2), dtype=complex)
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            CouplingSet(z, bad, z, z)

    def test_hermiticity_checked_on_assembled_hamiltonian(self):
        # each operator passes alone, but Hs = diag(0.9e-12j, 0) fails the
        # check expm_herm applies
        z = np.zeros((1, 1), dtype=complex)
        a = np.array([[0.45e-12j]])
        with pytest.raises(ValueError, match="is not Hermitian"):
            CouplingSet(a0=a, ax=z, ay=z, az=a)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 3),
           size=st.sampled_from((1e-3, 1.0, 30.0)),
           leak=st.floats(0.1, 2.0), factor=st.floats(-1.0, 1.0),
           grow=st.floats(1.0, 1e3, exclude_min=True))
    def test_constructed_sets_exponentiate_and_scale_down(self, seed, dim,
                                                          size, leak,
                                                          factor, grow):
        # each operator A gets an anti-Hermitian part with ||A - A^dag|| at
        # `leak` times the tolerance A would have alone, so the sets straddle
        # the check; scaling by |factor| <= 1 shrinks the anti-Hermitian
        # part with the tolerance, so the scaled set passes again, and
        # scaling by more than 1 may fail
        rng = np.random.default_rng(seed)
        ops = []
        base = random_couplings(rng, dim, scale=size)
        for m in (base.a0, base.ax, base.ay, base.az):
            k = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            k = (k - k.conj().T) / (2 * op_norm(k - k.conj().T))
            ops.append(m + leak * HERMITICITY_TOL * max(1.0, op_norm(m)) * k)
        try:
            cs = CouplingSet(*ops)
        except ValueError:
            return
        expm_herm(assemble(cs))
        expm_herm(assemble(cs.scaled(factor)))
        try:
            up = cs.scaled(grow)
        except ValueError:
            return
        expm_herm(assemble(up))

    def test_model_params(self):
        with pytest.raises(ValueError):
            ModelParams(n_max=0)
        with pytest.raises(ValueError):
            ModelParams(g=float("inf"))

    # a finite frequency whose operator, or twice it, overflows is refused
    # by name, with no RuntimeWarning on the way
    @pytest.mark.parametrize("name, value", [("g", 1e308), ("omega_r", 1e307),
                                             ("omega_0", 1e308)])
    def test_overflowing_frequency_named(self, name, value):
        message = f"{name} = {value:g} overflows the coupling operators"
        with pytest.raises(ValueError, match=f"^{re.escape(message)} at "
                                             "n_max = 8$"):
            jaynes_cummings(ModelParams(**{name: value}))

    def test_largest_frequencies_build_a_finite_hamiltonian(self):
        cs = jaynes_cummings(ModelParams(omega_r=1e306, omega_0=1e307,
                                         g=1e306))
        assert np.isfinite(assemble(cs)).all()

    def test_model_params_has_no_delta_shift(self):
        # the builder never read a chemical-shift offset, so none is taken
        with pytest.raises(TypeError):
            ModelParams(delta_shift=0.5)


class TestExpmHerm:
    def test_zero_gives_identity(self):
        assert np.allclose(expm_herm(np.zeros((3, 3)), 1.0), np.eye(3))

    def test_pi_rotation(self):
        u = expm_herm(SIGMA_X * np.pi / 2, 1.0)
        assert np.allclose(u, -1j * SIGMA_X, atol=1e-14)

    def test_inverse(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = (m + m.conj().T) / 2
        u = expm_herm(h, 0.7) @ expm_herm(h, -0.7)
        assert op_norm(u - np.eye(5)) < 1e-12

    def test_unitary(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = (m + m.conj().T) / 2
        u = expm_herm(h, 2.0)
        assert op_norm(u @ u.conj().T - np.eye(6)) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            expm_herm(np.array([[0, 1], [0, 0]], dtype=complex))


def test_comm_anticomm_properties():
    rng = np.random.default_rng(11)
    for _ in range(5):
        cs = random_couplings(rng, 4)
        a, b = cs.ax, cs.ay
        assert np.allclose(comm(a, b), -comm(b, a))
        assert np.allclose(anticomm(a, b), anticomm(b, a))
        assert np.allclose(comm(a, b) + anticomm(a, b), 2 * a @ b)


@pytest.mark.parametrize("shapes", [((2, 2), (4, 4)), ((2, 2), (1, 1)),
                                    ((3, 1), (2, 5)), ((1, 4), (3, 2))])
@pytest.mark.parametrize("real_b", [False, True])
def test_kron_matches_numpy_bitwise(shapes, real_b):
    # kron forms the same products as np.kron, without its overhead
    rng = np.random.default_rng(17)
    (m, n), (p, q) = shapes
    a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    b = rng.normal(size=(p, q))
    if not real_b:
        b = b + 1j * rng.normal(size=(p, q))
    assert np.array_equal(kron(a, b), np.kron(a, b))
    assert np.array_equal(kron(b, a), np.kron(b, a))


def test_coupling_scaling():
    rng = np.random.default_rng(13)
    cs = random_couplings(rng, 3)
    half = cs.scaled(0.5)
    assert np.allclose(assemble(half), 0.5 * assemble(cs))
    assert op_norm(assemble(half)) == pytest.approx(
        0.5 * op_norm(assemble(cs)), rel=1e-12)


def test_scaled_sets_are_checked(monkeypatch):
    # every scaled copy is checked as a constructed set is
    cs = random_couplings(np.random.default_rng(13), 3)
    calls = []
    monkeypatch.setattr(algebra, "is_hermitian",
                        lambda a: calls.append(a) or is_hermitian(a))
    for factor in (0.4, -1.0, 0.0, np.float64(0.04), 1, 2.0, -1.5):
        cs.scaled(factor)
    assert len(calls) == 7
    with pytest.raises(ValueError, match="is not Hermitian"):
        cs.scaled(0.5j)
    assert len(calls) == 8
    # a non-finite factor is refused before the check
    for factor in (float("nan"), float("inf"), -np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            cs.scaled(factor)
    assert len(calls) == 8


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4),
       size=st.sampled_from((1e-3, 1.0, 30.0)),
       kind=st.sampled_from(("exact", "straddling", "non-finite")),
       leak=st.floats(0.5, 2.0), bad=st.sampled_from((np.nan, np.inf,
                                                       -np.inf)))
def test_is_hermitian_matches_the_spectral_test(seed, dim, size, kind, leak,
                                                bad):
    # the exactly-zero shortcut gives the spectral test's verdict, or its
    # error, on exactly Hermitian, straddling and non-finite matrices
    rng = np.random.default_rng(seed)
    m = size * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    a = (m + m.conj().T) / 2
    if kind == "straddling":
        k = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        k = (k - k.conj().T) / (2 * op_norm(k - k.conj().T))
        a = a + leak * HERMITICITY_TOL * max(1.0, op_norm(a)) * k
    elif kind == "non-finite":
        a[rng.integers(dim), rng.integers(dim)] = bad
    with np.errstate(invalid="ignore"):
        try:
            spectral = op_norm(a - a.conj().T) \
                < HERMITICITY_TOL * max(1.0, op_norm(a))
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                is_hermitian(a)
            return
        assert is_hermitian(a) == spectral


def test_exactly_hermitian_input_skips_the_svds(monkeypatch):
    calls = []
    monkeypatch.setattr(algebra, "op_norm",
                        lambda a: calls.append(a) or op_norm(a))
    cs = jaynes_cummings(ModelParams(omega_r=0.117, omega_0=0.3, g=0.1,
                                     n_max=8))
    assert is_hermitian(assemble(cs))
    assert is_hermitian(assemble(cs.scaled(0.37)))
    assert calls == []
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert len(calls) == 2
