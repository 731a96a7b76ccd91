"""Synthesis of self-refocusing Fourier pulse shapes by constrained root-finding.

A family-S shape of index L satisfies {area = pi, s = 0} plus vanishing
endpoint derivatives V^(l)(0) = V^(l)(tau_p) = 0 for l = 0 .. 2L-1; a
family-Q shape additionally imposes alpha = 0 (second-order
self-refocusing).  In the cosine basis

    V(t) = A0 + sum_m A_m cos(m Omega_p (t - tau_p/2)),   Omega_p = 2 pi/tau_p

the odd endpoint derivatives vanish identically and the even ones are linear
conditions sum_m (-1)^m m^(2k) A_m = -A0 [k = 0], so the area and endpoint
constraints are eliminated analytically and only the one- or two-dimensional
nonlinear system {s = 0 (, alpha = 0)} is solved.

The pulse phase is then affine in the free coefficients x, phi = phi0 + x P,
with phi0 and P tabulated once per (spec, n_quad, taup) on the quadrature
nodes, so the constraints of a whole stack of free vectors come from one
array evaluation of the shared quadrature in shapes (in chunks of _CHUNK
rows, which bounds its temporaries).  The same pass gives the exact
Jacobian: ds/dx_j and dalpha/dx_j are single integrals of P_j against
weights built from cos phi, sin phi and their cumulative integrals, which
the quadrature forms for alpha anyway.  The solver is a damped Newton
iteration run in lockstep over the stack: every line-search halving is one
stacked call, each accepted row keeps the Jacobian evaluated with it, and a
start leaves the stack as soon as it converges or fails.

The system has many roots; Newton is run from a small deterministic seed
grid, all seeds at once, at an eighth of the polish resolution (at least
512 panels), which only has to bring each start into its branch's basin;
the root with the smallest peak amplitude max|V| is kept (the low-power
branch).  Most starts head for a far branch or never converge, so a start
is cut once it can no longer win: the raw coefficients are affine in x, and
by Parseval max|V| >= RMS(V) = sqrt(A0^2 + sum_m A_m^2 / 2), so a row whose
iterate's RMS exceeds the smallest peak among the rows converged so far (an
upper bound of the final best) is dropped.  This is a heuristic, not a
proof: an iterate's RMS is not that of the root it would reach, and an
iterate could pass through a large |x| and come back.  The guards are the
re-derivation of the shipped literals and a test that brackets every root
of S1 and S2 with |x| <= 100 by a sign scan.  Surplus coefficients
(extra_terms > 0) are tuned at the same coarse resolution by a
deterministic compass search that minimizes max|V| subject to the same
constraints; a probe's solve is cut the same way against the current best
peak, below which alone a probe is accepted.  The winner is polished at the
full resolution on a one-row stack, which, with the compute_params check at
twice that, sets the precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from . import shapes
from .errors import ConvergenceError

ZETA_FLAG_THRESHOLD = shapes.ZETA_FLAG_THRESHOLD
# Newton seed grid for each free (raw-unit) coefficient; the winning
# low-power branches sit within a few units of the raised-cosine profile
_SEEDS = (0.0, 2.0, -2.0, 4.0, -4.0, 6.0, -6.0, 8.0, -8.0)


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


def _endpoint_matrix(spec: DesignSpec):
    """Linear elimination data: A_1..A_L from the free tail.

    Even endpoint derivatives give, for k = 0..L-1,
    sum_{m>=1} (-1)^m m^(2k) A_m = -A0 * [k == 0].
    """
    L = spec.order
    n_coef = spec.n_coeffs
    m_solve = np.zeros((L, L))
    m_free = np.zeros((L, n_coef - 1 - L))
    for k in range(L):
        for m in range(1, n_coef):
            c = (-1.0) ** m * m ** (2 * k)
            if m <= L:
                m_solve[k, m - 1] = c
            else:
                m_free[k, m - L - 1] = c
    return m_solve, m_free


def _coeffs_from_free(spec: DesignSpec, x: np.ndarray, taup: float) -> np.ndarray:
    """Full raw coefficient vector (absolute units) for free tail x."""
    a0 = np.pi / taup
    m_solve, m_free = _endpoint_matrix(spec)
    rhs = -(m_free @ x)
    rhs[0] -= a0
    head = np.linalg.solve(m_solve, rhs)
    return np.concatenate([[a0], head, x])


def _fourier_shape(raw: np.ndarray, taup: float) -> shapes.PulseShape:
    unit = 2 * np.pi / taup
    return shapes.fourier(raw / unit, taup=taup)


# rows per stacked constraint evaluation: bounds the (rows, n_quad + 1)
# quadrature temporaries, so a seed stack costs no more peak memory than
# a single start
_CHUNK = 4


@lru_cache(maxsize=8)
def _phase_basis(spec: DesignSpec, n_quad: int, taup: float):
    """Phase on the n_quad + 1 quadrature nodes as an affine map of the free
    tail x, phi(x) = phi0 + x @ P.

    The envelope is linear in the raw coefficients and the endpoint
    conditions make them affine in x, so phi0 is the cumulative Simpson
    integral of the x = 0 envelope and row j of P that of the envelope's
    change per unit x_j.
    """
    t = np.linspace(0.0, taup, n_quad + 1)

    def envelope(x):
        raw = _coeffs_from_free(spec, x, taup)
        return shapes._raw_envelope(_fourier_shape(raw, taup), t)

    n_free = spec.n_coeffs - 1 - spec.order
    v0 = envelope(np.zeros(n_free))
    dv = np.array([envelope(e) - v0 for e in np.eye(n_free)])
    h = taup / n_quad
    return shapes._cumulative_simpson(v0, h), shapes._cumulative_simpson(dv, h)


@lru_cache(maxsize=8)
def _coeff_map(spec: DesignSpec, taup: float):
    """Raw coefficients as an affine map of the free tail x, A(x) = a + x @ m."""
    n_free = spec.n_coeffs - 1 - spec.order
    a = _coeffs_from_free(spec, np.zeros(n_free), taup)
    m = np.array([_coeffs_from_free(spec, e, taup) - a
                  for e in np.eye(n_free)])
    return a, m


def _rms(spec: DesignSpec, xs: np.ndarray, taup: float) -> np.ndarray:
    """RMS of V over the pulse for each row of the stack xs, by Parseval
    sqrt(A0^2 + sum_m A_m^2 / 2): a lower bound of the row's peak max|V|."""
    a, m = _coeff_map(spec, taup)
    raw = a + xs @ m
    return np.sqrt(raw[:, 0] ** 2 + 0.5 * np.sum(raw[:, 1:] ** 2, axis=1))


def _constraints(spec: DesignSpec, xs: np.ndarray, taup: float,
                 n_quad: int) -> tuple[np.ndarray, np.ndarray]:
    """Constraint values f = (s[, alpha]) and their exact Jacobian, one row
    per row of the stack xs.

    jac[r, i, j] = d f_i / d x_j for the moving coordinates j < n_nl.  With
    phi = phi0 + x P and C, S the cumulative integrals of cos phi, sin phi,

        ds/dx_j     = (1/tau_p)   int cos phi P_j
        dalpha/dx_j = (1/tau_p^2) int P_j [2 (cos phi C + sin phi S)
                                  - cos phi C(tau_p) - sin phi S(tau_p)]

    (the alpha row exchanges the order of its ordered double integral).
    """
    phi0, p = _phase_basis(spec, n_quad, taup)
    n_nl = spec.n_nonlinear
    h = taup / n_quad
    f = np.empty((len(xs), n_nl))
    jac = np.empty((len(xs), n_nl, n_nl))
    for i in range(0, len(xs), _CHUNK):
        chunk = xs[i:i + _CHUNK]
        rows = slice(i, i + _CHUNK)
        # summed term by term and reduced row by row, not by matmul, so that
        # a row's values do not depend on how many rows share its chunk
        phi = phi0 + sum(chunk[:, j, None] * p[j] for j in range(len(p)))
        (s, alpha), (cos_sin, cum) = shapes._phase_params(phi, h, taup)
        f[rows, 0] = s
        # weights w_i with df_i/dx_j = int w_i P_j, one axis per constraint
        w = cos_sin[:1] / taup
        if spec.family == "Q":
            f[rows, 1] = alpha
            cos_g, sin_g = cos_sin * (2 * cum - cum[..., -1:])
            w = np.stack([w[0], (cos_g + sin_g) / taup ** 2])
        jac[rows] = shapes._simpson(w[..., None, :] * p[:n_nl],
                                    h).transpose(1, 0, 2)
    return f, jac


def _peak(raw: np.ndarray, taup: float) -> float:
    t = np.linspace(0.0, taup, 4097)
    return float(np.max(np.abs(
        shapes._raw_envelope(_fourier_shape(raw, taup), t))))


def _newton(spec: DesignSpec, x0: np.ndarray, taup: float, n_quad: int,
            tol: float, bound: float | None = np.inf, max_iter: int = 60):
    """Damped Newton on the nonlinear constraints, run in lockstep on every
    row of the stack x0.

    Each row is one start: its first n_nl free coefficients move and the
    rest are held fixed.  Per iteration a row is tested for convergence,
    fails on a singular exact Jacobian or a non-finite or > 1e4 step, and
    takes the step halved (at most 40 times) until the residual norm
    strictly drops, failing if it never does; the accepted point brings
    its Jacobian from the same evaluation.  A row leaves the stack when it
    converges or fails, and is cut when the RMS of its iterate exceeds the
    best peak known so far (bound, or the smallest peak of the rows already
    converged): the root it heads for would likely lose anyway.  bound=None
    switches the cut off and runs every start to the end.  Returns the rows,
    their constraint values, a per-row convergence flag and the peak max|V|
    of each converged row (inf for the others).
    """
    n_nl = spec.n_nonlinear
    x = np.array(x0, dtype=float)
    f, jac = _constraints(spec, x, taup, n_quad)
    ok = np.zeros(len(x), dtype=bool)
    live = np.ones(len(x), dtype=bool)
    peak = np.full(len(x), np.inf)
    for it in range(max_iter + 1):
        done = np.flatnonzero(live & (np.max(np.abs(f), axis=1) < tol))
        for r in done:
            peak[r] = _peak(_coeffs_from_free(spec, x[r], taup), taup)
        ok[done] = True
        live[done] = False
        rows = np.flatnonzero(live)
        if bound is not None:
            cut = _rms(spec, x[rows], taup) > min(bound, peak.min())
            live[rows[cut]] = False
            rows = rows[~cut]
        if rows.size == 0 or it == max_iter:
            break
        # a singular Jacobian leaves its row NaN, which ends that start below
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
        lam = 1.0
        for _ in range(40):
            if rows.size == 0:
                break
            x_try = x[rows]
            x_try[:, :n_nl] += lam * dx
            f_try, jac_try = _constraints(spec, x_try, taup, n_quad)
            better = np.linalg.norm(f_try, axis=1) < norm_f
            x[rows[better]] = x_try[better]
            f[rows[better]] = f_try[better]
            jac[rows[better]] = jac_try[better]
            rows, dx, norm_f = rows[~better], dx[~better], norm_f[~better]
            lam /= 2
        live[rows] = False  # no strict decrease within 40 halvings
    return x, f, ok, peak


def _solve_branches(spec: DesignSpec, tail: np.ndarray, taup: float,
                    n_quad: int, tol: float):
    """Newton from the whole deterministic seed grid at once; return
    (key, root, peak) for each distinct converged root, in seed order."""
    seeds = product(_SEEDS, repeat=spec.n_nonlinear)
    x0 = np.array([np.concatenate([np.array(seed) / taup, tail])
                   for seed in seeds])
    roots, _, ok, peaks = _newton(spec, x0, taup, n_quad, tol)
    found = []
    for x, peak in zip(roots[ok], peaks[ok]):
        key = tuple(np.round(_coeffs_from_free(spec, x, taup) * taup, 7))
        if any(k == key for k, _, _ in found):
            continue
        found.append((key, x, peak))
    return found


def design(spec: DesignSpec, tol: float = 1e-12, taup: float = 1.0,
           n_quad: int = 4096) -> DesignResult:
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
    coarse = max(512, n_quad // 8)
    found = _solve_branches(spec, tail, taup, coarse, max(tol, 1e-11))
    if not found:
        raise ConvergenceError(
            f"no Newton start converged for {spec}; try more quadrature nodes "
            "or a different seed")
    _, x_best, _ = min(found, key=lambda r: r[2])

    if spec.extra_terms > 0:
        x_best = _minimize_peak(spec, x_best, taup, coarse, max(tol, 1e-11))

    # polish the winner at full and verify at doubled resolution
    x, f, ok, peak = _newton(spec, x_best[None], taup, n_quad, tol)
    if not ok[0]:
        raise ConvergenceError(
            f"polish stage failed for {spec}: best residuals {np.abs(f[0])}")
    raw = _coeffs_from_free(spec, x[0], taup)
    shape = _fourier_shape(raw, taup)
    p = shapes.compute_params(shape, n_quad)
    residuals = {"s": abs(p.s), "area": abs(p.area - np.pi)}
    if spec.family == "Q":
        residuals["alpha"] = abs(p.alpha)
    a0 = raw[0]
    for k in range(spec.order):
        val = sum((-1.0) ** m * m ** (2 * k) * raw[m] for m in range(1, len(raw)))
        if k == 0:
            val += a0
        residuals[f"endpoint_d{2 * k}"] = abs(val) * taup  # dimensionless
    worst = max(abs(p.s), residuals.get("alpha", 0.0))
    if worst > 10 * max(tol, 1e-12):
        raise ConvergenceError(
            f"design residuals {residuals} exceed tolerance for {spec}")

    name = f"{spec.family}{spec.order}"
    ref = shapes.REFERENCE_PARAMS.get(name)
    zeta_ref = ref[2] if ref and spec.extra_terms == 0 else None
    dz = float(abs(p.zeta - zeta_ref)) if zeta_ref is not None else None
    unit = 2 * np.pi / taup
    return DesignResult(
        shape=shape,
        coeffs=tuple((raw / unit).tolist()),
        residuals=residuals,
        params=p,
        peak_amplitude=float(peak[0]),
        zeta_reference=zeta_ref,
        zeta_deviation=dz,
        flagged=(dz is not None and dz > shapes.ZETA_FLAG_THRESHOLD),
    )


def _minimize_peak(spec: DesignSpec, x_start: np.ndarray, taup: float,
                   n_quad: int, tol: float) -> np.ndarray:
    """Compass search over the surplus coefficients, re-solving the
    constraints at every probe; minimizes max|V|."""
    n_nl = spec.n_nonlinear
    x = np.array(x_start, dtype=float)

    def solved_peak(xv, bound=np.inf):
        xs, _, _, peak = _newton(spec, xv[None], taup, n_quad, tol, bound)
        return xs[0], peak[0]

    x, best = solved_peak(x)
    step = 2.0 * np.pi / taup
    while step > 1e-3:
        moved = False
        for j in range(n_nl, len(x)):
            for sgn in (+1.0, -1.0):
                probe = x.copy()
                probe[j] += sgn * step
                xs, pk = solved_peak(probe, best)
                if pk < best - 1e-12:
                    x, best, moved = xs, pk, True
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
