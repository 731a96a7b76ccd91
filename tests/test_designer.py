from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavitydd import designer, shapes
from cavitydd.designer import DesignSpec, design, design_named
from cavitydd.errors import ConvergenceError
from cavitydd.shapes import amplitude, compute_params
from conftest import cosine_average


class TestSpecValidation:
    def test_family(self):
        with pytest.raises(ValueError):
            DesignSpec(family="Z", order=1)

    def test_order(self):
        with pytest.raises(ValueError):
            DesignSpec(family="S", order=0)

    def test_tol_floor(self):
        with pytest.raises(ValueError):
            design(DesignSpec("S", 1), tol=1e-14)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan")])
    def test_tol_must_be_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be finite"):
            design(DesignSpec("S", 1), tol=tol)

    def test_tol_ceiling(self):
        # a tolerance this loose accepts the seed-grid start point unsolved
        with pytest.raises(ValueError, match="tol must be <= 1e-6"):
            design(DesignSpec("Q", 1), tol=1.0)
        with pytest.raises(ValueError, match="tol must be <= 1e-6"):
            design(DesignSpec("S", 1), tol=1.01e-6)
        r = design(DesignSpec("S", 1), tol=1e-6)
        assert max(r.residuals.values()) < 1e-5

    def test_named_lookup(self):
        with pytest.raises(ValueError):
            design_named("R1")


class TestFirstOrder:
    def test_s1_counts_and_constraints(self):
        r = design_named("S1")
        assert len(r.coeffs) == 3
        assert r.residuals["s"] < 1e-10
        assert r.residuals["area"] < 1e-10
        assert r.residuals["endpoint_d0"] < 1e-10
        # re-check with the quadrature oracle at higher resolution
        p = compute_params(r.shape, n_quad=8192)
        assert abs(p.s) < 1e-10

    def test_s1_endpoint_value(self):
        r = design_named("S1")
        assert abs(amplitude(r.shape, 0.0)) < 1e-9
        assert abs(amplitude(r.shape, 1.0)) < 1e-9

    def test_s2_second_derivative_condition(self):
        r = design_named("S2")
        # V''(0) = 0: finite difference across the endpoint mirror
        h = 1e-4
        v0 = amplitude(r.shape, 0.0)
        v1 = amplitude(r.shape, h)
        v2 = amplitude(r.shape, 2 * h)
        d2 = (v2 - 2 * v1 + v0) / h ** 2
        assert abs(d2) < 1e-2 * max(1.0, r.peak_amplitude)


class TestSecondOrder:
    def test_q1_counts_and_constraints(self):
        r = design_named("Q1")
        assert len(r.coeffs) == 4
        p = compute_params(r.shape, n_quad=8192)
        assert abs(p.s) < 1e-9
        assert abs(p.alpha) < 1e-9

    def test_q2_constraints(self):
        r = design_named("Q2")
        assert len(r.coeffs) == 5
        p = compute_params(r.shape, n_quad=8192)
        assert abs(p.s) < 1e-9
        assert abs(p.alpha) < 1e-9


class TestDesignedShapeInvariants:
    @pytest.mark.parametrize("name", ["S1", "S2", "Q1", "Q2"])
    def test_shape_module_invariants(self, name):
        sh = design_named(name).shape
        t = np.linspace(0, 1, 201)
        v = amplitude(sh, t)
        assert np.allclose(v, v[::-1], atol=1e-9)              # symmetric
        assert abs(compute_params(sh).area - np.pi) < 1e-10    # pi area
        assert abs(cosine_average(sh)) < 1e-9

    @pytest.mark.parametrize("name", ["S1", "S2", "Q1", "Q2"])
    def test_branch_near_reference(self, name):
        r = design_named(name)
        assert r.zeta_reference == shapes.REFERENCE_PARAMS[name][2]
        # the minimal-power branch lands within the loose comparison window
        assert r.zeta_deviation < designer.ZETA_FLAG_THRESHOLD
        assert not r.flagged

    def test_one_zeta_flag_threshold(self, monkeypatch):
        # shapes owns the threshold: the parameter table and the designer
        # both follow it, and designer's name refers to the same value
        assert designer.ZETA_FLAG_THRESHOLD == shapes.ZETA_FLAG_THRESHOLD
        monkeypatch.setattr(shapes, "ZETA_FLAG_THRESHOLD", 0.0)
        rows = [line for line in shapes.table_report().splitlines()
                if "designed" in line]
        assert len(rows) == 4
        assert all(line.endswith(" FLAG") for line in rows)
        assert design(DesignSpec("S", 1)).flagged

    def test_node_doubling_coefficient_stability(self):
        a = design(DesignSpec("S", 1), n_quad=4096)
        b = design(DesignSpec("S", 1), n_quad=8192)
        shift = np.max(np.abs(np.array(a.coeffs) - np.array(b.coeffs)))
        assert shift < 1e-8


def test_extra_terms_do_not_increase_peak():
    base = design(DesignSpec("S", 1))
    wide = design(DesignSpec("S", 1, extra_terms=1))
    assert len(wide.coeffs) == 4
    assert wide.residuals["s"] < 1e-10
    assert wide.peak_amplitude <= base.peak_amplitude + 1e-6


# minimal-peak branch recorded before the designer was batched; the named
# designs are pinned by the literals in shapes.DESIGNED_COEFFS
PINNED_COEFFS = {
    DesignSpec("S", 2, extra_terms=1): (0.5, 1.2126376836994888,
                                        0.681675372044182,
                                        -0.28706582728030683,
                                        -0.25610351562500006),
    # recorded while each compass probe was still solved on its own
    DesignSpec("S", 2, extra_terms=2): (0.5, 1.2299870819153926,
                                        0.45967854981462797,
                                        -0.5139608758507648,
                                        -0.09521484374999997,
                                        0.14843750000000003),
    DesignSpec("Q", 1, extra_terms=1): (0.5, 1.2044613169625553,
                                        1.695490598587633,
                                        0.14727928162507747, -0.84375),
}


@pytest.mark.parametrize("name", list(shapes.DESIGNED_COEFFS))
def test_designer_rederives_shipped_literals(name):
    result = design_named(name)
    expected = shapes.DESIGNED_COEFFS[name]
    assert len(result.coeffs) == len(expected)
    assert np.max(np.abs(np.subtract(result.coeffs, expected))) <= 1e-10


@pytest.mark.parametrize("spec", list(PINNED_COEFFS), ids=str)
def test_designed_coefficients_pinned(spec):
    result = design(spec)
    expected = PINNED_COEFFS[spec]
    assert len(result.coeffs) == len(expected)
    assert np.max(np.abs(np.subtract(result.coeffs, expected))) <= 1e-10


class TestStackedConstraints:
    @settings(derandomize=True, max_examples=24, deadline=None)
    @given(family=st.sampled_from("SQ"), order=st.integers(1, 2),
           extra=st.integers(0, 1), n_quad=st.sampled_from((256, 512, 1024)),
           rows=st.sampled_from(("one", "chunk", "chunk + 1")),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_match_scalar_quadrature(self, family, order, extra, n_quad,
                                          rows, seed):
        spec = DesignSpec(family, order, extra_terms=extra)
        chunk = designer._chunk_rows(n_quad)
        rows = {"one": 1, "chunk": chunk, "chunk + 1": chunk + 1}[rows]
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-8.0, 8.0, size=(rows, spec.n_nonlinear + extra))
        got, jac = designer._constraints(spec, xs, n_quad)
        assert got.shape == (rows, spec.n_nonlinear)
        assert jac.shape == (rows, spec.n_nonlinear, spec.n_nonlinear)
        for x, row in zip(xs, got):
            raw = designer._coeffs_from_free(spec, x)
            p = shapes._params_at(designer._fourier_shape(raw), n_quad)
            want = np.array([p.s, p.alpha])[:spec.n_nonlinear]
            assert np.max(np.abs(row - want)) <= 1e-13
        # a row's values and Jacobian do not depend on the rows sharing its
        # chunk
        alone, jac_alone = designer._constraints(spec, xs[-1:], n_quad)
        assert np.array_equal(alone[0], got[-1])
        assert np.array_equal(jac_alone[0], jac[-1])

    @pytest.mark.parametrize("n_quad, rows", ((512, 15), (4096, 1),
                                              (256, 31)))
    def test_chunk_rows_by_entry_budget(self, n_quad, rows):
        assert designer._chunk_rows(n_quad) == rows

    @pytest.mark.parametrize("spec", [DesignSpec("S", 1),
                                      DesignSpec("S", 2, 1),
                                      DesignSpec("Q", 1),
                                      DesignSpec("Q", 2, 1)], ids=str)
    @pytest.mark.parametrize("n_quad", (512, 4096))
    def test_fused_quadrature_matches_separate_simpson_calls(self, spec,
                                                             n_quad):
        # one Simpson call over the stacked planes of a chunk gives every
        # value and Jacobian entry bit for bit as its own call would
        rng = np.random.default_rng(n_quad)
        xs = rng.uniform(-8.0, 8.0, size=(designer._chunk_rows(n_quad) + 2,
                                          spec.n_nonlinear + spec.extra_terms))
        f, jac = designer._constraints(spec, xs, n_quad)
        phi0, p = designer._phase_basis(spec, n_quad)
        h = 1.0 / n_quad
        for x, f_row, jac_row in zip(xs, f, jac):
            phi = phi0 + sum(x[j] * p[j] for j in range(len(p)))
            cos_sin = np.array([np.cos(phi), np.sin(phi)])
            cos_phi, sin_phi = cos_sin
            want = [shapes._simpson(sin_phi, h)]
            w = [cos_phi]
            if spec.family == "Q":
                c, s = shapes._cumulative_simpson(cos_sin, h)
                want.append(shapes._simpson(sin_phi * c - cos_phi * s, h))
                w.append(cos_phi * (2 * c - c[-1]) + sin_phi * (2 * s - s[-1]))
            assert np.array_equal(f_row, want)
            assert np.array_equal(jac_row, [[shapes._simpson(w_i * p_j, h)
                                             for p_j in p[:len(w)]]
                                            for w_i in w])

    @settings(derandomize=True, max_examples=32, deadline=None)
    @given(family=st.sampled_from("SQ"), order=st.integers(1, 2),
           extra=st.integers(0, 1), n_quad=st.sampled_from((256, 1024)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_jacobian_matches_central_differences(self, family, order, extra,
                                                  n_quad, seed):
        spec = DesignSpec(family, order, extra_terms=extra)
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-8.0, 8.0, size=(3, spec.n_nonlinear + extra))
        _, jac = designer._constraints(spec, xs, n_quad)
        # entries are 1e-3 .. 1; central differences of the quadrature
        # agree with the exact Jacobian to <= 1e-10 on these draws
        eps = 1e-5
        for j in range(spec.n_nonlinear):
            step = np.zeros(xs.shape[1])
            step[j] = eps
            up, _ = designer._constraints(spec, xs + step, n_quad)
            down, _ = designer._constraints(spec, xs - step, n_quad)
            fd = (up - down) / (2 * eps)
            assert np.max(np.abs(jac[:, :, j] - fd)) <= 1e-9


def test_q1_design_row_count(monkeypatch):
    # starts whose iterate RMS already exceeds the best converged peak are
    # cut: a Q1 design evaluates 919 constraint rows (916 in the 128-panel
    # seed stage, one for its check at 256 panels, two in the polish),
    # against 11004 when every seed runs to the end
    rows = []
    constraints = designer._constraints

    def counted(spec, xs, n_quad):
        rows.append(len(xs))
        return constraints(spec, xs, n_quad)

    monkeypatch.setattr(designer, "_constraints", counted)
    design(DesignSpec("Q", 1))
    assert sum(rows) < 1500


def _newton_one_halving_at_a_time(spec, x0, n_quad, tol, bound=np.inf):
    # designer._newton with the line search trying one halving per stacked
    # call, as it did before the halvings were grouped into rounds
    n_nl = spec.n_nonlinear
    x = np.array(x0, dtype=float)
    f, jac = designer._constraints(spec, x, n_quad)
    ok = np.zeros(len(x), dtype=bool)
    live = np.ones(len(x), dtype=bool)
    peak = np.full(len(x), np.inf)
    for it in range(designer._MAX_ITER + 1):
        done = np.flatnonzero(live & (np.max(np.abs(f), axis=1) < tol))
        for r in done:
            raw = designer._coeffs_from_free(spec, x[r])
            peak[r] = designer._peaks(raw[None])[0]
        ok[done] = True
        live[done] = False
        rows = np.flatnonzero(live)
        if bound is not None:
            cut = designer._rms(spec, x[rows]) > min(bound, peak.min())
            live[rows[cut]] = False
            rows = rows[~cut]
        if rows.size == 0 or it == designer._MAX_ITER:
            break
        dx = np.linalg.solve(jac[rows], -f[rows, :, None])[..., 0]
        usable = (np.all(np.isfinite(dx), axis=1)
                  & (np.linalg.norm(dx, axis=1) <= 1e4))
        live[rows[~usable]] = False
        rows, dx = rows[usable], dx[usable]
        norm_f = np.linalg.norm(f[rows], axis=1)
        lam = 1.0
        for _ in range(40):
            if rows.size == 0:
                break
            x_try = x[rows]
            x_try[:, :n_nl] += lam * dx
            f_try, jac_try = designer._constraints(spec, x_try, n_quad)
            better = np.linalg.norm(f_try, axis=1) < norm_f
            x[rows[better]] = x_try[better]
            f[rows[better]] = f_try[better]
            jac[rows[better]] = jac_try[better]
            rows, dx, norm_f = rows[~better], dx[~better], norm_f[~better]
            lam /= 2
        live[rows] = False
    return x, f, ok, peak


@pytest.mark.parametrize("n_quad", (128, 512))
@pytest.mark.parametrize("name", ("Q1", "Q2"))
@pytest.mark.parametrize("bound", (np.inf, None), ids=("cut", "uncut"))
def test_line_search_rounds_match_one_halving_at_a_time(name, n_quad, bound):
    # a row takes the first halving with a strict decrease, and its values
    # do not depend on its stack-mates, so trying the halvings in rounds
    # gives bitwise the one-at-a-time search
    spec = DesignSpec(name[0], int(name[1]))
    x0 = np.array(list(product(designer._SEEDS, repeat=2)))
    got = designer._newton(spec, x0, n_quad, 1e-11, bound)
    want = _newton_one_halving_at_a_time(spec, x0, n_quad, 1e-11, bound)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert got[2].any()


def _compass_one_probe_at_a_time(spec, x, best, n_quad, tol):
    # designer._minimize_peak with every probe solved on a one-row stack,
    # as it was before a sweep's probes were stacked
    step = 2.0 * np.pi
    while step > 1e-3:
        moved = False
        for j in range(spec.n_nonlinear, len(x)):
            for sgn in (+1.0, -1.0):
                probe = x.copy()
                probe[j] += sgn * step
                xs, _, _, pk = designer._newton(spec, probe[None], n_quad,
                                                tol, best)
                if pk[0] < best - 1e-12:
                    x, best, moved = xs[0], pk[0], True
        if not moved:
            step /= 2
    return x


@pytest.mark.parametrize("spec", [
    DesignSpec("S", 1, 1), DesignSpec("S", 2, 1), DesignSpec("Q", 1, 1),
    DesignSpec("S", 2, 2)], ids=str)
def test_stacked_compass_search_matches_one_probe_at_a_time(monkeypatch,
                                                             spec):
    # a row cut against the best peak alone takes the path it takes on its
    # own, and the probes after an accepted one are stacked again from the
    # new point, so the stacked sweeps walk bitwise the sequential path:
    # the same point, through the same accepted peaks (the bound of each
    # solve); a sweep's first stack holds all of its 2 * extra_terms probes
    _, x, best = min(designer._solve_branches(
        spec, np.zeros(spec.extra_terms), 128, 1e-11), key=lambda r: r[2])
    calls = []
    newton = designer._newton

    def spy(spec, x0, n_quad, tol, bound, **kwargs):
        calls.append((len(x0), bound))
        return newton(spec, x0, n_quad, tol, bound, **kwargs)

    def accepted_peaks():
        bounds = [b for _, b in calls]
        calls.clear()
        return [b for i, b in enumerate(bounds)
                if i == 0 or b != bounds[i - 1]]

    monkeypatch.setattr(designer, "_newton", spy)
    want = _compass_one_probe_at_a_time(spec, x, best, 128, 1e-11)
    want_peaks = accepted_peaks()
    got = designer._minimize_peak(spec, x, best, 128, 1e-11)
    stacks = [n for n, _ in calls]
    assert np.array_equal(got, want)
    assert accepted_peaks() == want_peaks and len(want_peaks) > 1
    assert stacks[0] == max(stacks) == 2 * spec.extra_terms


def test_row_independent_cut_needs_no_stack_mates():
    # shared_bound=False: a row's iterates, values and peak are those it
    # reaches alone, whatever converges beside it
    spec = DesignSpec("S", 2, 1)
    x0 = np.array(list(product(designer._SEEDS, (0.0, 1.5))))
    stack = designer._newton(spec, x0, 128, 1e-11, 30.0, shared_bound=False)
    for i, row in enumerate(x0):
        alone = designer._newton(spec, row[None], 128, 1e-11, 30.0)
        for a, b in zip(stack, alone):
            assert np.array_equal(a[i], b[0])
    assert stack[2].any() and not stack[2].all()


@pytest.mark.parametrize("spec, panels", [
    (DesignSpec("Q", 1), [128]), (DesignSpec("S", 2, 1), [128]),
    (DesignSpec("Q", 6), [128, 256])], ids=str)
def test_seed_stage_doubles_until_its_winner_holds(monkeypatch, spec, panels):
    # Q6's 128-panel winner (peak 2200) misses its constraints at 256
    # panels by 8e-2; the seed stage then reruns at 256 panels
    seen = []
    solve = designer._solve_branches

    def spy(spec, tail, n_quad, tol):
        seen.append(n_quad)
        return solve(spec, tail, n_quad, tol)

    monkeypatch.setattr(designer, "_solve_branches", spy)
    design(spec)
    assert seen == panels


def test_seed_stage_doubles_at_most_to_512_panels(monkeypatch):
    # a winner that never passes the check is polished from 512 panels, or
    # from n_quad if that is fewer (256 panels are too few for the
    # compute_params check, which then fails)
    seen = []
    solve = designer._solve_branches

    def spy(spec, tail, n_quad, tol):
        seen.append(n_quad)
        return solve(spec, tail, n_quad, tol)

    monkeypatch.setattr(designer, "_solve_branches", spy)
    monkeypatch.setattr(designer, "_SEED_CHECK", 0.0)
    r = design(DesignSpec("S", 1))
    assert seen == [128, 256, 512]
    assert r.residuals["s"] <= 1e-11
    seen.clear()
    with pytest.raises(ConvergenceError, match="n_quad=256"):
        design(DesignSpec("S", 1), n_quad=256)
    assert seen == [128, 256]


@pytest.mark.parametrize("n_coeffs", (2, 4, 9))
def test_peak_matches_envelope_bitwise(n_coeffs):
    # the cached cosines are summed as shapes._raw_envelope sums them, and
    # the envelope is even about t = 1/2 on the 4097 nodes; the peak is
    # mostly at t = 1/2, where every cosine is 1, so many draws, on a stack
    # and row by row
    t = np.linspace(0.0, 1.0, 4097)
    rng = np.random.default_rng(n_coeffs)
    raws = rng.uniform(-8.0, 8.0, size=(50, n_coeffs))
    raws[:, 0] = np.pi
    peaks = designer._peaks(raws)
    for raw, peak in zip(raws, peaks):
        v = shapes._raw_envelope(designer._fourier_shape(raw), t)
        assert np.array_equal(v, v[::-1])
        assert peak == designer._peaks(raw[None])[0] == np.max(np.abs(v))


def test_singular_jacobian_ends_only_its_own_start(monkeypatch):
    # a singular row fails the stacked solve; the row-by-row solve then ends
    # that start, and the other converges as it does alone
    spec = DesignSpec("S", 1)
    x0 = np.array([[2.0], [4.0]])
    alone, _, ok_alone, peak_alone = designer._newton(spec, x0[:1], 512,
                                                      1e-11, bound=None)
    constraints = designer._constraints

    def singular_at_4(spec, xs, n_quad):
        f, jac = constraints(spec, xs, n_quad)
        jac[xs[:, 0] == 4.0] = 0.0
        return f, jac

    monkeypatch.setattr(designer, "_constraints", singular_at_4)
    x, _, ok, peak = designer._newton(spec, x0, 512, 1e-11, bound=None)
    assert ok_alone[0] and list(ok) == [True, False]
    assert np.array_equal(x[0], alone[0]) and peak[0] == peak_alone[0]
    assert np.array_equal(x[1], x0[1])


@pytest.mark.parametrize("spec", [DesignSpec("S", 2, 1), DesignSpec("Q", 1, 1),
                                  DesignSpec("S", 8, 3)], ids=str)
def test_rms_of_a_row_does_not_depend_on_its_stack(spec):
    # summed term by term: a stacked matmul rounds some rows differently
    # from the one-row product, which could cut a probe that alone survives
    rng = np.random.default_rng(spec.n_coeffs)
    for rows in (2, 4, 9, 81):
        xs = rng.uniform(-10.0, 10.0, size=(rows, spec.n_coeffs - 1
                                            - spec.order))
        stacked = designer._rms(spec, xs)
        alone = [designer._rms(spec, x[None])[0] for x in xs]
        assert stacked.tobytes() == np.array(alone).tobytes()


@pytest.mark.parametrize("spec", [DesignSpec("S", 1), DesignSpec("Q", 2, 1)],
                         ids=str)
def test_rms_is_envelope_rms(spec):
    # the Parseval form sqrt(A0^2 + sum A_m^2 / 2) against a quadrature of V^2
    rng = np.random.default_rng(5)
    xs = rng.uniform(-40.0, 40.0, size=(6, spec.n_nonlinear
                                           + spec.extra_terms))
    t = np.linspace(0.0, 1.0, 4097)
    for x, rms in zip(xs, designer._rms(spec, xs)):
        raw = designer._coeffs_from_free(spec, x)
        v = shapes._raw_envelope(designer._fourier_shape(raw), t)
        want = np.sqrt(shapes._simpson(v ** 2, 1 / 4096))
        assert rms == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name, n_roots, peak", [("S1", 13, 14.92),
                                                 ("S2", 25, 18.35)])
def test_designer_picks_minimal_peak_bracketed_root(name, n_roots, peak):
    # an S shape without surplus terms has one moving coordinate: a sign
    # scan of s on x in [-100, 100] brackets every root there (a 40001-point
    # scan at 2048 panels finds the same brackets), and each bracket is
    # polished with the cut off
    spec = DesignSpec("S", int(name[1]))
    grid = np.linspace(-100.0, 100.0, 4001)[:, None]
    s, _ = designer._constraints(spec, grid, 512)
    lo = np.flatnonzero(np.sign(s[:-1, 0]) * np.sign(s[1:, 0]) < 0)
    assert lo.size == n_roots
    roots, _, ok, peaks = designer._newton(
        spec, (grid[lo] + grid[lo + 1]) / 2, 4096, 1e-12, bound=None)
    assert ok.all()
    # each bracket polishes to its own root
    assert np.all((grid[lo] <= roots) & (roots <= grid[lo + 1]))
    chosen = design_named(name)
    best = np.argmin(peaks)
    assert chosen.peak_amplitude == pytest.approx(peak, abs=5e-3)
    assert abs(chosen.peak_amplitude - peaks[best]) <= 1e-10
    want = designer._coeffs_from_free(spec, roots[best]) / (2 * np.pi)
    assert np.max(np.abs(np.subtract(chosen.coeffs, want))) <= 1e-10


@pytest.mark.parametrize("spec", [DesignSpec("S", 8), DesignSpec("S", 12),
                                  DesignSpec("Q", 6)], ids=str)
def test_orders_past_the_old_endpoint_solve_design(spec):
    # these orders failed while the endpoint conditions were met by a
    # Vandermonde-like solve (condition number 1.4e13 at L = 8)
    r = design(spec)
    assert r.residuals["s"] <= 1e-11
    assert r.residuals.get("alpha", 0.0) <= 1e-11
    assert max(v for k, v in r.residuals.items()
               if k.startswith("endpoint")) <= 1e-14


@pytest.mark.parametrize("spec", [DesignSpec("S", 40), DesignSpec("Q", 12, 3),
                                  DesignSpec("S", 2, 1)], ids=str)
def test_endpoint_conditions_hold_by_construction(spec):
    # V^(2k)(0) = sum_m (-1)^m m^(2k) A_m vanishes for k < L at every x, to
    # the roundoff of an n_coeffs-term sum relative to its terms' magnitudes
    rng = np.random.default_rng(3)
    xs = rng.uniform(-8.0, 8.0, size=(4, spec.n_coeffs - 1 - spec.order))
    m = np.arange(spec.n_coeffs)
    for x in xs:
        raw = designer._coeffs_from_free(spec, x)
        assert raw[0] == np.pi and np.array_equal(raw[spec.order + 1:], x)
        for k in range(spec.order):
            terms = (m / m[-1]) ** (2 * k) * raw
            assert (abs(np.sum((-1.0) ** m * terms)) <= spec.n_coeffs
                    * np.finfo(float).eps * np.sum(np.abs(terms)))


@pytest.mark.parametrize("name", ["S1", "S2"])
def test_one_surplus_coefficient_reproduces_reference_alpha(name):
    # the reference S_L rows belong to the S_L+1 family (one more cosine
    # coefficient, the same endpoint and s = 0 conditions): the member
    # whose zeta is the reference zeta has the reference alpha/2 too
    spec = DesignSpec("S", int(name[1]), extra_terms=1)
    _, ref_half_alpha, ref_zeta = shapes.REFERENCE_PARAMS[name]
    x = np.array([2 * np.pi * shapes.DESIGNED_COEFFS[name][-1], 0.0])

    def zeta_gap(surplus):
        # s = 0 along the family, from the previous member's root
        x[1] = surplus
        roots, _, ok, _ = designer._newton(spec, x[None], 4096, 1e-12,
                                           bound=None)
        assert ok[0]
        x[:] = roots[0]
        raw = designer._coeffs_from_free(spec, x)
        p = compute_params(designer._fourier_shape(raw))
        return p.zeta - ref_zeta, p

    c0, c1 = 0.0, -0.5
    g0, _ = zeta_gap(c0)
    for _ in range(20):
        g1, p = zeta_gap(c1)
        if abs(g1) < 1e-10:
            break
        c0, c1, g0 = c1, c1 - g1 * (c1 - c0) / (g1 - g0), g1
    assert abs(p.zeta - ref_zeta) < 1e-10
    assert abs(p.alpha / 2 - ref_half_alpha) < 5e-7
