"""Synthesis of self-refocusing Fourier pulse shapes by constrained root-finding.

A family-S shape of index L satisfies {area = pi, s = 0} plus vanishing
endpoint derivatives V^(l)(0) = V^(l)(1) = 0 for l = 0 .. 2L-1, time in
units of tau_p; a family-Q shape additionally imposes alpha = 0
(second-order self-refocusing).  In the cosine basis (A_m in 1/tau_p)

    V(t) = A0 + sum_m A_m cos(2 pi m (t - 1/2))

the endpoint derivatives below order 2L vanish exactly when V factors as
(2 + 2 cos theta)^L Q(theta), theta = 2 pi (t - 1/2), with Q a cosine
polynomial.  The A_m are affine in the free tail x = (A_{L+1}, ...): the area
fixes Q's constant term and the tail the rest through a unit lower-triangular
matrix, never singular.  So the area and endpoint constraints hold by
construction, and only the one- or two-dimensional nonlinear system
{s = 0 (, alpha = 0)} is solved.

The pulse phase is affine in the free coefficients x, phi = phi0 + x P,
with phi0 and P tabulated once per (spec, n_quad) on the quadrature nodes,
so the constraints of a whole stack of free vectors come from one array
evaluation of the quadrature in shapes, in chunks of rows sized by an entry
budget (_CHUNK_ENTRIES, 63 rows at 128 panels), whose buffers are reused
from chunk to chunk.  The same pass gives the exact Jacobian: ds/dx_j and
dalpha/dx_j are single integrals of P_j against weights built from cos phi,
sin phi and, for Q, their cumulative integrals, which alpha needs anyway;
an S row forms neither the cumulative integrals nor alpha.  The integrands
of a chunk's s, alpha and Jacobian are stacked and integrated by one
Simpson call, which gives each value bit for bit as its own call would.
The solver is a damped Newton iteration run in lockstep over the stack:
every Newton step is one stacked solve (row by row only when a singular
Jacobian makes it fail), the line search tries its halvings in a few
rounds of growing length, each round one stacked call over every row and
halving in it, each accepted row keeps the Jacobian evaluated with it, and
a start leaves the stack as soon as it converges or fails.

The system has many roots; Newton is run from a small deterministic seed
grid, all seeds at once, at 128 panels, which only has to bring each start
into its branch's basin; the root with the smallest peak amplitude max|V|
is kept (the low-power branch).  A coarse quadrature can also make a root
of its own, so the winner's constraints are evaluated at twice the panels,
and while they exceed _SEED_CHECK the seed stage is rerun at twice the
panels, up to 512 (Q6's 128-panel winner, of peak 2200, misses by 8e-2 at
256 panels, where the seed stage finds the true root).  Most starts head
for a far branch or never converge, so a start is cut once it can no
longer win: the raw coefficients are affine in x, and by Parseval
max|V| >= RMS(V) = sqrt(A0^2 + sum_m A_m^2 / 2), so a row whose iterate's
RMS exceeds the smallest peak among the rows converged so far (an
upper bound of the final best) is dropped.  This is a heuristic, not a
proof: an iterate's RMS is not that of the root it would reach, and an
iterate could pass through a large |x| and come back.  The guards are the
re-derivation of the shipped literals and a test that brackets every root
of S1 and S2 with |x| <= 100 by a sign scan.  Surplus coefficients
(extra_terms > 0) are tuned at the seed stage's final resolution by a
deterministic compass search that minimizes max|V| subject to the same
constraints.  The 2 * extra_terms probes of a sweep are one Newton stack,
each row cut against the current best peak alone, below which alone a
probe is accepted; the first that improves is taken and the probes after
it are stacked again from the new point, so the search walks bitwise the
path of solving one probe at a time.  The winner is polished at the full
resolution on a one-row stack, which, with the compute_params check at
twice that, sets the precision.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb

import numpy as np

from . import shapes
from .errors import ConvergenceError

# Newton seed grid for each free (raw-unit) coefficient; the winning
# low-power branches sit within a few units of the raised-cosine profile
_SEEDS = (0.0, 2.0, -2.0, 4.0, -4.0, 6.0, -6.0, 8.0, -8.0)
# Newton iterations per start
_MAX_ITER = 60
# line-search halvings lambda = 2^-k, k = 0 .. 39, tried in rounds of these
# sizes, each round one stacked constraint call: most rows accept lambda = 1
_ROUNDS = (1, 1, 2, 4, 8, 16, 8)
# panels of the seed stage: it starts at the first and doubles, up to the
# second (both at most n_quad), while its winner's constraints at twice its
# panels exceed _SEED_CHECK; a finer seed stage would cost more than the
# polish (Q8's winners fail the check up to 4096 panels, and its polish
# fails)
_SEED_PANELS = (128, 512)
_SEED_CHECK = 1e-4


@dataclass(frozen=True)
class DesignSpec:
    """family "S" (first-order, s=0) or "Q" (second-order, s=alpha=0);
    order L counts the vanishing endpoint derivatives (l = 0 .. 2L-1);
    extra_terms adds surplus coefficients used to reduce peak amplitude."""

    family: str
    order: int
    extra_terms: int = 0

    def __post_init__(self):
        if self.family not in ("S", "Q"):
            raise ValueError("family must be 'S' or 'Q'")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.extra_terms < 0:
            raise ValueError("extra_terms must be >= 0")
        # a unit of the d-term free tail moves the raw coefficients by up to
        # about C(2L, L) C(2L + d - 2, d - 1) / 2 (see _coeff_map); the RMS
        # cut squares and sums them, from seeds of up to max|_SEEDS| units
        L, d = self.order, self.n_coeffs - 1 - self.order
        scale = int(max(_SEEDS)) * comb(2 * L, L) * comb(2 * L + d - 2, d - 1)
        if self.n_coeffs * scale ** 2 > sys.float_info.max:
            raise ValueError("order or extra_terms too high: the coefficients "
                             "of the basis (2 + 2 cos theta)^L exceed the "
                             "double range")

    @property
    def n_nonlinear(self) -> int:
        return 1 if self.family == "S" else 2

    @property
    def n_coeffs(self) -> int:
        return 1 + self.order + self.n_nonlinear + self.extra_terms


@dataclass(frozen=True)
class DesignResult:
    shape: shapes.PulseShape
    coeffs: tuple[float, ...]          # units of 2*pi/tau_p
    residuals: dict
    params: shapes.ShapeParams
    peak_amplitude: float
    zeta_reference: float | None
    zeta_deviation: float | None
    flagged: bool


def _coeffs_from_free(spec: DesignSpec, x: np.ndarray) -> np.ndarray:
    """Full raw coefficient vector (units of 1/tau_p) for free tail x."""
    a, m = _coeff_map(spec)
    return a + x @ m


def _fourier_shape(raw: np.ndarray) -> shapes.PulseShape:
    return shapes.fourier(raw / (2 * np.pi))


# entries (rows x nodes) per stacked constraint evaluation: bounds its
# quadrature buffers, at 63 rows of the 128-panel seed stage and one row of
# the 4096-panel polish, so a seed stack, or a line-search round of many
# halvings, costs little more peak memory than a single start
_CHUNK_ENTRIES = 1 << 13


def _chunk_rows(n_quad: int) -> int:
    """Rows per chunk of a stacked constraint evaluation at n_quad panels."""
    return max(1, _CHUNK_ENTRIES // (n_quad + 1))


@lru_cache(maxsize=8)
def _phase_basis(spec: DesignSpec, n_quad: int):
    """Phase on the n_quad + 1 quadrature nodes as an affine map of the free
    tail x, phi(x) = phi0 + x @ P.

    The envelope is linear in the raw coefficients, which are affine in x
    (_coeff_map), so phi0 is the cumulative Simpson integral of the x = 0
    envelope and row j of P that of the envelope's change per unit x_j.
    """
    a, m = _coeff_map(spec)
    t = np.linspace(0.0, 1.0, n_quad + 1)
    v0, *vs = [shapes._raw_envelope(_fourier_shape(c), t)
               for c in (a, *(a + m))]
    dv = np.array(vs) - v0
    h = 1.0 / n_quad
    return shapes._cumulative_simpson(v0, h), shapes._cumulative_simpson(dv, h)


@lru_cache(maxsize=8)
def _coeff_map(spec: DesignSpec):
    """Raw coefficients as an affine map of the free tail x, A(x) = a + x @ m.

    V = (2 + 2 cos theta)^L sum_j q_j cos(j theta); the factor has cosine
    coefficients p_0 = C(2L, L), p_i = 2 C(2L, L - i), and row j of the
    basis holds those of its product with cos(j theta).  The tail
    (A_{L+1}, ...) is (q_1, ...) times the basis's unit lower-triangular
    corner, whose inverse has entries up to about C(2L + d - 2, d - 1).
    """
    L, n = spec.order, spec.n_coeffs
    p = [comb(2 * L, L)] + [2 * comb(2 * L, L - i) for i in range(1, L + 1)]
    basis = np.zeros((n - L, n))
    for j in range(n - L):
        for i, p_i in enumerate(p):  # cos i cos j = [cos(i+j) + cos(i-j)] / 2
            basis[j, i + j] += p_i / 2
            basis[j, abs(i - j)] += p_i / 2
    # q_0 = (pi - q_1.. @ basis[1:, 0]) / p_0 and q_1.. = x @ tinv
    tinv = np.linalg.inv(basis[1:, L + 1:])
    a = np.pi / basis[0, 0] * basis[0]
    m = tinv @ (basis[1:] - np.outer(basis[1:, 0] / basis[0, 0], basis[0]))
    a[0], m[:, 0] = np.pi, 0.0  # exactly: the area is pi at every x
    m[:, L + 1:] = np.eye(n - 1 - L)  # and the tail is x itself
    return a, m


def _rms(spec: DesignSpec, xs: np.ndarray) -> np.ndarray:
    """RMS of V over the pulse for each row of the stack xs, by Parseval
    sqrt(A0^2 + sum_m A_m^2 / 2): a lower bound of the row's peak max|V|."""
    a, m = _coeff_map(spec)
    # summed term by term, not by matmul, so that a row's RMS does not
    # depend on the rows stacked with it
    raw = xs[:, :1] * m[0]
    for j in range(1, len(m)):
        raw += xs[:, j, None] * m[j]
    raw += a
    return np.sqrt(raw[:, 0] ** 2
                   + 0.5 * np.add.reduce(raw[:, 1:] ** 2, axis=1))


def _constraints(spec: DesignSpec, xs: np.ndarray,
                 n_quad: int) -> tuple[np.ndarray, np.ndarray]:
    """Constraint values f = (s[, alpha]) and their exact Jacobian, one row
    per row of the stack xs.

    jac[r, i, j] = d f_i / d x_j for the moving coordinates j < n_nl.  With
    phi = phi0 + x P and C, S the cumulative integrals of cos phi, sin phi,

        ds/dx_j     = int cos phi P_j
        dalpha/dx_j = int P_j [2 (cos phi C + sin phi S)
                               - cos phi C(1) - sin phi S(1)]

    (the alpha row exchanges the order of its ordered double integral).
    """
    phi0, p = _phase_basis(spec, n_quad)
    n_nl = spec.n_nonlinear
    h = 1.0 / n_quad
    f = np.empty((len(xs), n_nl))
    jac = np.empty((len(xs), n_nl, n_nl))
    size = min(len(xs), _chunk_rows(n_quad))
    # per chunk row: the planes [cos phi, sin phi, (alpha's integrand,)
    # w_i P_j], all but the first integrated by one Simpson call, and the
    # phase, which is reused as scratch once its sines are taken; flat
    # buffers, so that every chunk's arrays are contiguous
    n_planes = 1 + n_nl + n_nl * n_nl
    planes = np.empty(n_planes * size * (n_quad + 1))
    phase = np.empty(size * (n_quad + 1))
    cum = np.empty(2 * size * (n_quad + 1)) if spec.family == "Q" else None
    for i in range(0, len(xs), size):
        chunk = xs[i:i + size]
        rows = slice(i, i + len(chunk))
        entries = len(chunk) * (n_quad + 1)
        buf = planes[:n_planes * entries].reshape(n_planes, len(chunk), -1)
        phi = phase[:entries].reshape(len(chunk), -1)
        # summed term by term and reduced row by row, not by matmul, so that
        # a row's values do not depend on how many rows share its chunk
        np.multiply(chunk[:, :1], p[0], out=phi)
        for j in range(1, len(p)):
            phi += chunk[:, j, None] * p[j]
        np.add(phi0, phi, out=phi)
        cos_phi, sin_phi = buf[0], buf[1]
        np.cos(phi, out=cos_phi)
        np.sin(phi, out=sin_phi)
        # weights w_i with df_i/dx_j = int w_i P_j, one per constraint
        w = [cos_phi]
        if spec.family == "Q":
            c = shapes._cumulative_simpson(
                buf[:2], h, out=cum[:2 * entries].reshape(2, len(chunk), -1))
            np.multiply(sin_phi, c[0], out=buf[2])
            buf[2] -= np.multiply(cos_phi, c[1], out=phi)
            # cos phi (2 C - C(1)) + sin phi (2 S - S(1)), in place in c
            end = c[..., -1:].copy()
            c *= 2
            c -= end
            c *= buf[:2]
            w.append(np.add(c[0], c[1], out=phi))
        for plane, (w_i, p_j) in enumerate(product(w, p[:n_nl]),
                                           start=1 + n_nl):
            np.multiply(w_i, p_j, out=buf[plane])
        vals = shapes._simpson(buf[1:], h)
        f[rows] = vals[:n_nl].T
        jac[rows] = vals[n_nl:].reshape(n_nl, n_nl, -1).transpose(2, 0, 1)
    return f, jac


@lru_cache(maxsize=8)
def _peak_cosines(n_coeffs: int) -> list[np.ndarray]:
    """cos(2 pi m (t - 1/2)) for m = 1 .. n_coeffs - 1 on the first 2049 of
    4097 nodes, t <= 1/2, each formed as shapes._raw_envelope forms it."""
    omp = 2 * np.pi
    x = np.linspace(0.0, 1.0, 4097)[:2049] - 0.5
    return [np.cos(m * omp * x) for m in range(1, n_coeffs)]


def _peaks(raw: np.ndarray) -> np.ndarray:
    """max|V| on 4097 nodes for each row of the stack raw of raw
    coefficients, with the coefficients of _fourier_shape(row), summed term
    by term as shapes._raw_envelope sums them.  The nodes are symmetric
    about t = 1/2 exactly and cos is even, so V is even there too and only
    t <= 1/2 is summed."""
    omp = 2 * np.pi
    c = raw / (2 * np.pi)
    c *= 0.5 / c[:, :1]
    v = np.empty((len(c), 2049))
    v[:] = omp * c[:, :1]
    term = np.empty_like(v)
    for m, cos_m in enumerate(_peak_cosines(c.shape[1]), start=1):
        v += np.multiply(omp * c[:, m, None], cos_m, out=term)
    return np.max(np.abs(v, out=v), axis=1)


def _newton(spec: DesignSpec, x0: np.ndarray, n_quad: int, tol: float,
            bound: float | None = np.inf, shared_bound: bool = True):
    """Damped Newton on the nonlinear constraints, run in lockstep on every
    row of the stack x0.

    Each row is one start: its first n_nl free coefficients move and the
    rest are held fixed.  Per iteration a row is tested for convergence,
    fails on a singular exact Jacobian or a non-finite or > 1e4 step, and
    takes the largest of the steps lambda dx, lambda = 2^-k for k < 40,
    whose residual norm strictly drops, failing if none does; the accepted
    point brings its Jacobian from the same evaluation.  The halvings are
    tried in the _ROUNDS, each one stacked evaluation of every remaining
    row at every lambda of the round; a row's values do not depend on its
    stack-mates, so it takes bitwise the point that trying one halving at a
    time would give.  A row leaves the stack when it converges or fails,
    and is cut when the RMS of its iterate exceeds the best peak known so
    far (bound, or the smallest peak of the rows already converged): the
    root it heads for would likely lose anyway.  shared_bound=False cuts
    each row against bound alone, so that every row takes the path it
    would take on its own; bound=None switches the cut off and runs every
    start to the end.  Returns the rows, their constraint values, a per-row
    convergence flag and the peak max|V| of each converged row (inf for the
    others).
    """
    n_nl = spec.n_nonlinear
    x = np.array(x0, dtype=float)
    f, jac = _constraints(spec, x, n_quad)
    ok = np.zeros(len(x), dtype=bool)
    live = np.ones(len(x), dtype=bool)
    peak = np.full(len(x), np.inf)
    for it in range(_MAX_ITER + 1):
        done = (live & (np.max(np.abs(f), axis=1) < tol)).nonzero()[0]
        if done.size:
            peak[done] = _peaks(np.array([_coeffs_from_free(spec, x[r])
                                          for r in done]))
            ok[done] = True
            live[done] = False
        rows = live.nonzero()[0]
        limit = bound
        if shared_bound and bound is not None:
            limit = min(bound, peak.min())
        if limit is not None and limit < np.inf:  # no RMS exceeds inf
            cut = _rms(spec, x[rows]) > limit
            live[rows[cut]] = False
            rows = rows[~cut]
        if rows.size == 0 or it == _MAX_ITER:
            break
        try:
            dx = np.linalg.solve(jac[rows], -f[rows, :, None])[..., 0]
        except np.linalg.LinAlgError:
            # row by row: a singular Jacobian leaves its row NaN, which ends
            # that start alone below
            dx = np.full((rows.size, n_nl), np.nan)
            for i, r in enumerate(rows):
                try:
                    dx[i] = np.linalg.solve(jac[r], -f[r])
                except np.linalg.LinAlgError:
                    pass
        usable = (np.all(np.isfinite(dx), axis=1)
                  & (np.linalg.norm(dx, axis=1) <= 1e4))
        live[rows[~usable]] = False
        rows, dx = rows[usable], dx[usable]
        norm_f = np.linalg.norm(f[rows], axis=1)
        k = 0
        for size in _ROUNDS:
            if rows.size == 0:
                break
            # trial j of row i is x + 2^-(k + j) dx, at x_try[i * size + j]
            lam = np.array([2.0 ** -j for j in range(k, k + size)])
            k += size
            x_try = np.repeat(x[rows], size, axis=0)
            x_try[:, :n_nl] += (lam[:, None] * dx[:, None]).reshape(-1, n_nl)
            f_try, jac_try = _constraints(spec, x_try, n_quad)
            better = (np.linalg.norm(f_try, axis=1).reshape(-1, size)
                      < norm_f[:, None])
            # each row takes its largest lambda with a strict decrease
            hit = better.any(axis=1)
            pick = hit.nonzero()[0] * size + better[hit].argmax(axis=1)
            took = rows[hit]
            x[took], f[took] = x_try[pick], f_try[pick]
            jac[took] = jac_try[pick]
            miss = ~hit
            rows, dx, norm_f = rows[miss], dx[miss], norm_f[miss]
        live[rows] = False  # no strict decrease within 40 halvings
    return x, f, ok, peak


def _solve_branches(spec: DesignSpec, tail: np.ndarray, n_quad: int,
                    tol: float):
    """Newton from the whole deterministic seed grid at once; return
    (key, root, peak) for each distinct converged root, in seed order."""
    seeds = product(_SEEDS, repeat=spec.n_nonlinear)
    x0 = np.array([np.concatenate([seed, tail]) for seed in seeds])
    roots, _, ok, peaks = _newton(spec, x0, n_quad, tol)
    found = []
    for x, peak in zip(roots[ok], peaks[ok]):
        key = tuple(np.round(_coeffs_from_free(spec, x), 7))
        if any(k == key for k, _, _ in found):
            continue
        found.append((key, x, peak))
    return found


def design(spec: DesignSpec, tol: float = 1e-12,
           n_quad: int = shapes.DEFAULT_N_QUAD) -> DesignResult:
    """Solve for the coefficient vector of a self-refocusing shape.

    Returns the minimal-peak-amplitude branch.  Residuals are re-verified at
    2*n_quad nodes; the achieved zeta is compared with the reference table
    value (when one exists for this family/order) and flagged when it
    deviates by more than shapes.ZETA_FLAG_THRESHOLD -- branch identity is
    reported, not asserted.

    Raises
    ------
    ConvergenceError
        If no Newton start converges, or the converged residuals exceed tol.
    ValueError
        If tol is not finite or lies outside [1e-12, 1e-6].
    """
    if not np.isfinite(tol):
        raise ValueError("tol must be finite")
    if tol < 1e-12:
        raise ValueError("tol must be >= 1e-12")
    if tol > 1e-6:
        raise ValueError("tol must be <= 1e-6")
    tail = np.zeros(spec.extra_terms)
    coarse, finest = (min(n, n_quad) for n in _SEED_PANELS)
    while True:
        found = _solve_branches(spec, tail, coarse, max(tol, 1e-11))
        if not found:
            raise ConvergenceError(
                f"no Newton start converged for {spec}; try more quadrature "
                "nodes or a different seed")
        _, x_best, peak_best = min(found, key=lambda r: r[2])
        if coarse >= finest:
            break
        # the winner must be a root at twice the panels too, else it may be
        # an artefact of the coarse quadrature
        f, _ = _constraints(spec, x_best[None], 2 * coarse)
        if np.max(np.abs(f)) <= _SEED_CHECK:
            break
        coarse *= 2

    if spec.extra_terms > 0:
        x_best = _minimize_peak(spec, x_best, peak_best, coarse,
                                max(tol, 1e-11))

    # polish the winner at full and verify at doubled resolution
    x, f, ok, peak = _newton(spec, x_best[None], n_quad, tol)
    if not ok[0]:
        raise ConvergenceError(
            f"polish stage failed for {spec}: best residuals {np.abs(f[0])}")
    raw = _coeffs_from_free(spec, x[0])
    shape = _fourier_shape(raw)
    p = shapes.compute_params(shape, n_quad)
    checked = {"s": abs(p.s)}
    if spec.family == "Q":
        checked["alpha"] = abs(p.alpha)
    if max(checked.values()) > 10 * max(tol, 1e-12):
        raise ConvergenceError(
            "design residuals "
            + ", ".join(f"{k} = {v:.3e}" for k, v in checked.items())
            + f" exceed tolerance for {spec}")
    # V^(2k)(0) = sum_m (-1)^m m^(2k) A_m relative to the sum of its terms'
    # magnitudes, which the weights (m/M)^(2k) <= 1 leave unchanged
    m = np.arange(len(raw))
    terms = (m / m[-1]) ** (2 * np.arange(spec.order)[:, None]) * raw
    ratio = np.abs(terms @ (-1.0) ** m) / np.abs(terms).sum(axis=1)
    residuals = {**checked, "area": abs(p.area - np.pi),
                 **{f"endpoint_d{2 * k}": r for k, r in enumerate(ratio)}}

    name = f"{spec.family}{spec.order}"
    ref = shapes.REFERENCE_PARAMS.get(name)
    zeta_ref = ref[2] if ref and spec.extra_terms == 0 else None
    dz = float(abs(p.zeta - zeta_ref)) if zeta_ref is not None else None
    return DesignResult(
        shape=shape,
        coeffs=tuple((raw / (2 * np.pi)).tolist()),
        residuals=residuals,
        params=p,
        peak_amplitude=float(peak[0]),
        zeta_reference=zeta_ref,
        zeta_deviation=dz,
        flagged=(dz is not None and dz > shapes.ZETA_FLAG_THRESHOLD),
    )


def _minimize_peak(spec: DesignSpec, x: np.ndarray, best: float,
                   n_quad: int, tol: float) -> np.ndarray:
    """Compass search over the surplus coefficients from the converged root
    x of peak best, re-solving the constraints at every probe; minimizes
    max|V|.

    A sweep probes x +- step along each surplus coordinate in turn and takes
    every probe whose peak beats the best so far.  Its probes are solved as
    one stack, each row cut against best alone; the first that improves is
    taken and the probes after it are stacked again from the new point, so
    the search takes bitwise the path of solving one probe at a time.
    """
    moves = [(j, sgn) for j in range(spec.n_nonlinear, len(x))
             for sgn in (+1.0, -1.0)]
    step = 2.0 * np.pi
    while step > 1e-3:
        moved = False
        todo = moves
        while todo:
            probes = np.repeat(x[None], len(todo), axis=0)
            for probe, (j, sgn) in zip(probes, todo):
                probe[j] += sgn * step
            xs, _, _, pk = _newton(spec, probes, n_quad, tol, best,
                                   shared_bound=False)
            better = np.flatnonzero(pk < best - 1e-12)
            if better.size == 0:
                break
            i = better[0]
            x, best, moved = xs[i], pk[i], True
            todo = todo[i + 1:]
        if not moved:
            step /= 2
    return x


@lru_cache(maxsize=16)
def design_named(name: str) -> DesignResult:
    """Designed shape by conventional name: S1, S2, Q1 or Q2.

    Re-derives the coefficients that shapes.DESIGNED_COEFFS ships as data.
    """
    name = name.upper()
    if len(name) != 2 or name[0] not in "SQ" or not name[1].isdigit():
        raise ValueError(f"unknown designed shape {name!r}")
    return design(DesignSpec(family=name[0], order=int(name[1])))
