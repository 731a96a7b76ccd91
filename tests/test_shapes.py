import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitydd import cli, designer, shapes
from cavitydd.errors import ConvergenceError
from cavitydd.shapes import (DEFAULT_N_QUAD, PulseShape, amplitude,
                             compute_params, delta, fourier, gaussian,
                             hermitian, resolve_shape, shape_to_text,
                             solve_hermitian_gamma)
from conftest import cosine_average


class TestConstruction:
    def test_delta_is_symbolic(self):
        d = delta()
        assert d.is_delta
        with pytest.raises(ValueError):
            amplitude(d, 0.3)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            gaussian(0.0)
        with pytest.raises(ValueError):
            gaussian(1.5)
        with pytest.raises(ValueError):
            PulseShape(kind="nope")

    def test_fourier_needs_dc_term(self):
        with pytest.raises(ValueError):
            fourier([0.0, 1.0])

    def test_fourier_normalization(self):
        # uniform rescale to a0 = 1/2 (area pi)
        sh = fourier([0.4, 0.2])
        assert sh.coeffs[0] == pytest.approx(0.5, abs=1e-15)
        assert sh.coeffs[1] == pytest.approx(0.25, abs=1e-15)
        assert compute_params(sh).area == pytest.approx(np.pi, abs=1e-10)


class TestNonFiniteInput:
    @pytest.mark.parametrize("make", [
        lambda: hermitian(0.05, gamma=np.nan),
        lambda: hermitian(0.05, gamma=np.inf),
        lambda: fourier([1.0, np.nan]),
        lambda: fourier([1.0, np.inf]),
        lambda: PulseShape(kind="fourier", coeffs=(0.5, np.nan)),
    ], ids=["gamma-nan", "gamma-inf", "coeff-nan", "coeff-inf",
            "raw-coeff-nan"])
    def test_rejected_at_construction(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_singular_hermitian_gamma_rejected(self):
        # gamma = 2 zeroes the envelope's 1 - gamma/2 normalization
        with pytest.raises(ValueError, match="gamma"):
            hermitian(0.05, gamma=2.0)
        with pytest.raises(ValueError, match="gamma"):
            PulseShape(kind="hermitian", width_ratio=0.05, gamma=2.0)
        p = compute_params(hermitian(0.05, gamma=2.5))
        assert np.isfinite([p.s, p.alpha, p.zeta]).all()
        assert p.area == pytest.approx(np.pi, abs=1e-10)
        with pytest.raises(ConvergenceError):
            compute_params(hermitian(0.05, gamma=1.99))

    def test_hermitian_without_gamma_rejected(self):
        # the envelope multiplies by gamma, so a missing one is refused
        # before any quadrature runs
        with pytest.raises(ValueError, match="gamma"):
            PulseShape(kind="hermitian", width_ratio=0.05)

    def test_nan_residual_fails_the_doubling_check(self):
        # a finite but huge cosine coefficient overflows the envelope to
        # +-inf, so the phase samples and every residual are NaN
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ConvergenceError, match="nan"):
            compute_params(fourier([1.0, 1e308]))


class TestAmplitude:
    def test_gaussian_peak_value(self):
        # peak of the width-0.05 Gaussian is pi^(1/2)/tau (truncation is
        # negligible at this width)
        sh = gaussian(0.05)
        assert amplitude(sh, 0.5) == pytest.approx(np.sqrt(np.pi) / 0.05,
                                                   rel=1e-10)

    def test_hermitian_peak_value(self):
        sh = hermitian(0.05)
        g_peak = np.sqrt(np.pi) / 0.05
        expect = g_peak / (1 - shapes.HERMITIAN_GAMMA / 2)
        assert amplitude(sh, 0.5) == pytest.approx(expect, rel=1e-10)

    def test_fourier_constant_envelope(self):
        sh = fourier([0.5])
        for t in (0.0, 0.3, 0.77, 1.0):
            assert amplitude(sh, t) == pytest.approx(np.pi, abs=1e-12)

    def test_range_check(self):
        with pytest.raises(ValueError):
            amplitude(gaussian(0.1), 1.2)
        with pytest.raises(ValueError):
            amplitude(gaussian(0.1), -0.1)

    def test_symmetry(self):
        for sh in (gaussian(0.1), hermitian(0.08), fourier([0.5, 1.0, 0.5])):
            t = np.linspace(0, 1, 101)
            v = amplitude(sh, t)
            assert np.allclose(v, v[::-1], atol=1e-9)


def phase(shape):
    """phi(t) = int_0^t V on the DEFAULT_N_QUAD + 1 quadrature nodes."""
    return shapes._sampled(shape, DEFAULT_N_QUAD)


class TestPhaseIntegral:
    def test_total_area_is_pi(self):
        for sh in (gaussian(0.05), gaussian(0.10), hermitian(0.05),
                   fourier([0.5, 1.0])):
            assert phase(sh)[-1] == pytest.approx(np.pi, abs=1e-10)
            assert compute_params(sh).area == pytest.approx(np.pi, abs=1e-10)

    def test_half_way_is_half_pi(self):
        assert phase(gaussian(0.05))[DEFAULT_N_QUAD // 2] == pytest.approx(
            np.pi / 2, abs=1e-10)


def row_cumulative_simpson(y, h):
    """The local-cubic cumulative integral, each stencil taken along the
    rows."""
    inc = np.empty(y.shape[:-1] + (y.shape[-1] - 1,))
    inc[..., 0] = h * (9 * y[..., 0] + 19 * y[..., 1] - 5 * y[..., 2]
                       + y[..., 3]) / 24.0
    inc[..., 1:-1] = h * (-y[..., :-3] + 13 * y[..., 1:-2] + 13 * y[..., 2:-1]
                          - y[..., 3:]) / 24.0
    inc[..., -1] = h * (y[..., -4] - 5 * y[..., -3] + 19 * y[..., -2]
                        + 9 * y[..., -1]) / 24.0
    out = np.zeros(y.shape)
    out[..., 1:] = np.cumsum(inc, axis=-1)
    return out


@pytest.mark.parametrize("shape", [(4,), (5,), (3, 4), (2, 3, 17),
                                   (2, 15, 513)])
def test_cumulative_simpson_matches_row_stencils_bitwise(shape):
    # the interior stencil taken over the flattened samples, into a given
    # buffer or a fresh one, rounds as the stencils along the rows do
    y = np.random.default_rng(len(shape)).normal(size=shape)
    want = row_cumulative_simpson(y, 0.37)
    assert np.array_equal(shapes._cumulative_simpson(y, 0.37), want)
    out = np.full((2,) + shape, np.nan)
    got = shapes._cumulative_simpson(y, 0.37, out=out[1])
    assert np.shares_memory(got, out) and np.array_equal(out[1], want)
    # the rows are formed flattened, so a strided out is refused
    with pytest.raises(ValueError, match="C-contiguous"):
        shapes._cumulative_simpson(y, 0.37, out=np.empty(shape + (2,))[..., 0])


class TestComputeParams:
    def test_delta_row_exact(self):
        p = compute_params(delta())
        assert (p.s, p.alpha, p.zeta) == (0.0, 0.0, 0.25)

    @pytest.mark.parametrize("name", ["G05", "G10", "H05", "H10"])
    def test_reference_table(self, name):
        p = compute_params(resolve_shape(name))
        ref_s, ref_ah, ref_z = shapes.REFERENCE_PARAMS[name]
        assert abs(p.s - ref_s) < 1e-5
        assert abs(p.alpha / 2 - ref_ah) < 1e-5
        assert abs(p.zeta - ref_z) < 1e-5

    def test_s_tracks_width(self):
        # s ~ 1.5 tau/taup for narrow Gaussians
        p = compute_params(gaussian(0.05))
        assert p.s == pytest.approx(1.5 * 0.05, rel=0.02)

    def test_cosine_average_vanishes(self):
        for sh in (gaussian(0.05), gaussian(0.10), hermitian(0.10),
                   fourier([0.5, 1.0, 0.3])):
            assert abs(cosine_average(sh)) < 1e-9

    @pytest.mark.parametrize("name, expected", [
        ("G10", (0.14897897047460365, 0.13078752125713428,
                 0.24790540026491162, 3.141592653589799)),
        ("H05", (2.832343931032467e-13, 0.0030769721139048117,
                 0.2496473574121786, 3.1415926535897993)),
    ])
    def test_values_bitwise_pinned(self, name, expected):
        # the stacked-phase quadrature helpers must not move a single bit
        p = compute_params(resolve_shape(name))
        assert (p.s, p.alpha, p.zeta, p.area) == expected

    def test_node_doubling_stability(self):
        a = compute_params(gaussian(0.10), n_quad=2048)
        b = compute_params(gaussian(0.10), n_quad=8192)
        assert abs(a.s - b.s) < 1e-9
        assert abs(a.alpha - b.alpha) < 1e-9
        assert abs(a.zeta - b.zeta) < 1e-9

    def test_narrow_shape_reports_nonconvergence(self):
        with pytest.raises(ConvergenceError):
            compute_params(gaussian(0.004), n_quad=64)

    def test_n_quad_validation(self):
        with pytest.raises(ValueError):
            compute_params(gaussian(0.1), n_quad=32)

    def test_gaussian_delta_limit(self):
        # narrower Gaussians approach the hard-pulse row monotonically
        widths = [0.1, 0.075, 0.05, 0.025]
        ps = [compute_params(gaussian(r), n_quad=16384) for r in widths]
        s_vals = [p.s for p in ps]
        a_vals = [p.alpha for p in ps]
        assert all(x > y > 0 for x, y in zip(s_vals, s_vals[1:]))
        assert all(x > y > 0 for x, y in zip(a_vals, a_vals[1:]))
        assert abs(ps[-1].zeta - 0.25) < abs(ps[0].zeta - 0.25)

    @staticmethod
    def count_quadratures(monkeypatch):
        """Clear the cache and record the n_quad of every _sampled call."""
        calls = []
        sampled = shapes._sampled
        monkeypatch.setattr(shapes, "_sampled", lambda shape, n_quad: (
            calls.append(n_quad), sampled(shape, n_quad))[1])
        shapes._params_at.cache_clear()
        return calls

    def test_effham_takes_one_quadrature_pair(self, monkeypatch, capsys):
        # effham reads the parameters three times: for its report and for
        # both conventions of the effective Hamiltonian
        calls = self.count_quadratures(monkeypatch)
        assert cli.main(["effham", "--sequence", "8a", "--shape", "G10",
                         "--n-max", "1", "--steps-per-pulse", "64"]) == 0
        assert "defect" in capsys.readouterr().out
        assert calls == [DEFAULT_N_QUAD, 2 * DEFAULT_N_QUAD]

    def test_convergence_error_raised_on_every_call(self, monkeypatch):
        # the quadratures are kept, the failed check is not
        calls = self.count_quadratures(monkeypatch)
        shape = hermitian(0.05, gamma=1.99)
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                compute_params(shape)
        assert calls == [DEFAULT_N_QUAD, 2 * DEFAULT_N_QUAD]

    def test_call_forms_share_one_quadrature_pair(self, monkeypatch):
        # the default, positional and keyword n_quad reach one cache, and a
        # halved n_quad takes the kept quadrature as its finer one
        calls = self.count_quadratures(monkeypatch)
        shape = gaussian(0.10)
        params = [compute_params(shape), compute_params(shape, 4096),
                  compute_params(shape, n_quad=4096)]
        assert calls == [4096, 8192]
        assert params[0] == params[1] == params[2]
        compute_params(shape, 2048)
        assert calls == [4096, 8192, 2048]

    def test_unconverged_quadrature_message(self):
        # the residuals print as plain numbers, not numpy scalar reprs
        with pytest.raises(ConvergenceError) as err:
            compute_params(resolve_shape("G10"), 64)
        assert str(err.value) == (
            "quadrature not converged at n_quad=64: residuals s = 3.59e-06, "
            "alpha = 2.80e-06, zeta = 2.41e-07; increase n_quad")


class TestGammaSolve:
    def test_recovers_reference_gamma(self):
        gam = solve_hermitian_gamma(0.05)
        assert gam == pytest.approx(shapes.HERMITIAN_GAMMA, abs=1e-6)

    def test_width_independence(self):
        # the root moves by < 1e-8 between widths 0.05 and 0.10
        g1 = solve_hermitian_gamma(0.05, tol=1e-10)
        g2 = solve_hermitian_gamma(0.10, tol=1e-10)
        assert abs(g1 - g2) < 1e-8

    def test_root_bitwise_unchanged_by_its_check(self):
        assert solve_hermitian_gamma(0.05) == 0.9609317216993076

    def test_bisection_leaves_the_cache_alone(self):
        # the bisection points are used once each and are not kept; only
        # the final check's quadrature pair is
        shapes._params_at.cache_clear()
        solve_hermitian_gamma(0.05)
        assert shapes._params_at.cache_info().currsize <= 2

    def test_unconverged_root_refused(self):
        # at width 0.004 the bisection lands 9.5e-8 off the width-independent
        # root, on a quadrature that fails its doubling check
        with pytest.raises(ConvergenceError, match="n_quad=8192"):
            solve_hermitian_gamma(0.004)


class TestSerialization:
    @pytest.mark.parametrize("sh", [
        delta(),
        gaussian(0.10),
        hermitian(0.05),
        hermitian(0.07, gamma=0.93),
        fourier([0.5, 1.1873, 0.6873]),
    ])
    def test_roundtrip(self, sh):
        back = resolve_shape(shape_to_text(sh))
        assert back.kind == sh.kind
        if sh.kind != "delta":
            t = np.linspace(0, 1, 37)
            assert np.allclose(amplitude(back, t), amplitude(sh, t),
                               atol=1e-9)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(kind=st.sampled_from(("gaussian", "hermitian", "fourier")),
           width=st.floats(0.02, 0.5), gamma=st.floats(0.5, 1.5),
           a0=st.floats(0.1, 2.0),
           tail=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5))
    def test_roundtrip_random_shapes(self, kind, width, gamma, a0, tail):
        sh = {"gaussian": lambda: gaussian(width),
              "hermitian": lambda: hermitian(width, gamma),
              "fourier": lambda: fourier([a0, *tail])}[kind]()
        text = shape_to_text(sh)
        back = resolve_shape(text)
        assert back.kind == kind
        assert shape_to_text(back) == text
        # every printed number keeps 12 significant digits, a relative
        # rounding of at most 5e-12 each; the worst such rounding of width
        # and gamma moves a hermitian envelope by 2.1e-11 of its peak
        t = np.linspace(0.0, 1.0, 257)
        v = amplitude(sh, t)
        if kind == "fourier":
            scale = 2 * np.pi * np.sum(np.abs(sh.coeffs))
        else:
            scale = np.max(np.abs(v))
        assert np.max(np.abs(amplitude(back, t) - v)) <= 5e-11 * scale

    def test_malformed(self):
        # kind=... is the retired serialization, refused like any unknown spec
        with pytest.raises(ValueError):
            resolve_shape("kind=warp width=0.1")
        with pytest.raises(ValueError):
            resolve_shape("kind=gaussian 0.1")
        with pytest.raises(ValueError):
            resolve_shape("gaussian 0.1")


def test_named_designs_are_data(monkeypatch):
    # S1/S2/Q1/Q2 come from the literal coefficient table; neither shape
    # lookup nor the parameter table may run the designer
    def refuse(*args, **kwargs):
        raise AssertionError("the designer ran")

    monkeypatch.setattr(designer, "design", refuse)
    monkeypatch.setattr(designer, "design_named", refuse)
    for name in ("S1", "S2", "Q1", "Q2"):
        sh = resolve_shape(name)
        assert sh.kind == "fourier"
        assert sh.coeffs == shapes.DESIGNED_COEFFS[name]
    assert [row[0] for row in shapes.table_rows()][-4:] == [
        "S1", "S2", "Q1", "Q2"]


def test_table_report_includes_designed_rows():
    report = shapes.table_report()
    for name in ("delta", "G05", "G10", "H05", "H10", "S1", "S2", "Q1", "Q2"):
        assert name in report
    # the designed branches happen to sit within the loose window
    assert "FLAG" not in report
