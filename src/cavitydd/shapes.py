"""Symmetric pi-pulse envelopes and their second-order shape parameters.

A pulse shape is the field V(t) on [0, 1], time in units of tau_p, driving
one qubit axis, normalized so the rotation area phi(1) = integral of V
equals pi.  A symmetric inversion shape is characterized to second order by
three dimensionless parameters

    s     = <sin phi(t)>              (single average over the pulse)
    alpha = <theta(t-t') sin[phi(t) - phi(t')]>   (ordered two-time average)
    zeta  = <theta(t-t') cos phi(t')>

computed here by composite-Simpson quadrature, with the ordered double
integrals reduced to cumulative single integrals via
sin[phi(t)-phi(t')] = sin phi(t) cos phi(t') - cos phi(t) sin phi(t').

The hard (delta) pulse is represented symbolically: its parameters are exact
(s = 0, alpha = 0, zeta = 1/4) and its propagator contribution is the exact
rotation, so it never enters a quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError

# Width-independent value making the quadratic-envelope ("Hermitian") pulse
# first-order self-refocusing, s(gamma) = 0; re-derivable per width with
# solve_hermitian_gamma.
HERMITIAN_GAMMA = 0.9609317217

DEFAULT_N_QUAD = 4096
MIN_WIDTH_RATIO = 1e-300
PARAM_CONVERGENCE_TOL = 1e-9

# Published reference parameters (s, alpha/2, zeta) for the classic shapes and
# the designed first/second-order self-refocusing families.  The designed
# shapes of DESIGNED_COEFFS meet s = 0 (and alpha = 0 for Q) but their zeta
# sits 0.0028-0.0038 above these rows (README.md: the S rows fit shapes with
# one more coefficient), so the designed rows are compared loosely: the table
# and designer.design flag a designed zeta more than ZETA_FLAG_THRESHOLD away.
ZETA_FLAG_THRESHOLD = 0.01
REFERENCE_PARAMS = {
    "delta": (0.0, 0.0, 0.25),
    "G05": (0.0744895, 0.0349708, 0.249476),
    "G10": (0.148979, 0.0653938, 0.247905),
    "H05": (0.0, 0.00153849, 0.249647),
    "H10": (0.0, 0.00615393, 0.248589),
    "S1": (0.0, 0.0332661, 0.238227),
    "S2": (0.0, 0.0250328, 0.241377),
    "Q1": (0.0, 0.0, 0.239889),
    "Q2": (0.0, 0.0, 0.242205),
}


@dataclass(frozen=True)
class PulseShape:
    """A symmetric inversion-pulse envelope on [0, 1], time in units of tau_p.

    kind is one of "delta", "gaussian", "hermitian", "fourier".  Gaussian and
    hermitian shapes carry width_ratio = tau/tau_p (the envelope is truncated
    to [0, 1] and rescaled to exact pi area); fourier shapes carry cosine
    coefficients in units of 2*pi/tau_p, V(t) = 2 pi (A0 + sum_m A_m
    cos(2 pi m (t - 1/2))).
    """

    kind: str
    width_ratio: float | None = None
    gamma: float | None = None
    coeffs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("delta", "gaussian", "hermitian", "fourier"):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        for name in ("width_ratio", "gamma"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.coeffs and not all(map(math.isfinite, self.coeffs)):
            raise ValueError("fourier coefficients must be finite")
        # a peak bound 2 pi sum |A_m| past the narrowest Gaussian's peak
        # sqrt(pi) / MIN_WIDTH_RATIO overflows the quadratures
        if self.coeffs and (2 * math.pi * sum(map(abs, self.coeffs))
                            > math.sqrt(math.pi) / MIN_WIDTH_RATIO):
            raise ValueError("fourier coefficients must have 2 pi sum |A_m| "
                             f"<= {math.sqrt(math.pi) / MIN_WIDTH_RATIO:.3g}")
        if self.kind in ("gaussian", "hermitian"):
            # below MIN_WIDTH_RATIO the peak sqrt(pi)/tau of the raw envelope
            # overflows its quadrature
            if self.width_ratio is None or not (
                    MIN_WIDTH_RATIO <= self.width_ratio < 1):
                raise ValueError(
                    f"width_ratio must be in [{MIN_WIDTH_RATIO:g}, 1)")
        if self.kind == "hermitian" and self.gamma is None:
            raise ValueError("hermitian shape needs a gamma")
        if self.kind == "hermitian" and self.gamma == 2:
            raise ValueError("hermitian gamma must not be 2 (the envelope "
                             "is divided by 1 - gamma/2)")
        if self.kind == "fourier":
            if not self.coeffs or abs(self.coeffs[0]) < 1e-15:
                raise ValueError("fourier shape needs coefficients with A0 != 0")

    @property
    def is_delta(self) -> bool:
        return self.kind == "delta"


def delta() -> PulseShape:
    """Hard pi pulse (zero duration, symbolic)."""
    return PulseShape(kind="delta")


def gaussian(width_ratio: float) -> PulseShape:
    """Gaussian envelope of width tau = width_ratio * tau_p."""
    return PulseShape(kind="gaussian", width_ratio=width_ratio)


def hermitian(width_ratio: float,
              gamma: float = HERMITIAN_GAMMA) -> PulseShape:
    """Gaussian times (1 - gamma t^2/tau^2)/(1 - gamma/2) around the center."""
    return PulseShape(kind="hermitian", width_ratio=width_ratio, gamma=gamma)


def fourier(coeffs) -> PulseShape:
    """Cosine-series shape; coefficients in units of 2*pi/tau_p.

    The coefficient vector is rescaled uniformly so the area is exactly pi
    (i.e. A0 -> 1/2 in these units), preserving endpoint zeros.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0 or abs(c[0]) < 1e-15:
        raise ValueError("fourier shape needs coefficients with A0 != 0")
    with np.errstate(over="ignore", invalid="ignore"):
        c = c * (0.5 / c[0])
    return PulseShape(kind="fourier", coeffs=tuple(c.tolist()))


# Designed self-refocusing shapes, cosine coefficients in units of 2*pi/tau_p:
# the minimal-peak branches that designer.design_named re-derives
DESIGNED_COEFFS = {
    "S1": (0.5, 1.1873023243373586, 0.6873023243373585),
    "S2": (0.5, 1.162454475961502, 0.9599271615384033, 0.2974726855769012),
    "Q1": (0.5, 1.111725566783739, 1.5247603955731048, 0.913034828789366),
    "Q2": (0.5, 1.0703073761480655, 1.4346767408852639, 1.3087871783431693,
           0.4444178136059707),
}

# built-in shapes from the reference table
_BUILTIN = {
    "delta": delta(),
    "G05": gaussian(0.05),
    "G10": gaussian(0.10),
    "H05": hermitian(0.05),
    "H10": hermitian(0.10),
    **{name: fourier(c) for name, c in DESIGNED_COEFFS.items()},
}


def _raw_envelope(shape: PulseShape, t: np.ndarray) -> np.ndarray:
    """Unnormalized envelope sampled at t."""
    tau = shape.width_ratio
    # an array also for a 0-d t, so that it can be worked on in place: on
    # the 16385 nodes of _fine_envelope each temporary costs about as much as
    # the exponential
    x = np.subtract(t, 0.5, out=np.empty(np.shape(t)))
    if shape.kind in ("gaussian", "hermitian"):
        # z^2 = (x / tau)^2 with |x| / tau capped at 100, where exp(-z^2) is
        # exactly 0 already, so that no width overflows the square (nor
        # makes a hermitian 0 * inf)
        z2 = np.minimum(np.abs(x, out=x), 100 * tau, out=x)
        z2 /= tau
        z2 *= z2
        g = np.negative(z2, out=np.empty_like(z2))
        np.exp(g, out=g)
        g *= np.sqrt(np.pi) / tau
        if shape.kind == "gaussian":
            return g
        # g (1 - gamma z^2) / (1 - gamma / 2), in place in z2
        z2 *= shape.gamma
        np.subtract(1, z2, out=z2)
        g *= z2
        g /= 1 - shape.gamma / 2
        return g
    if shape.kind == "fourier":
        omp = 2 * np.pi
        out = np.full_like(x, omp * shape.coeffs[0])
        term = np.empty_like(x)
        for m in range(1, len(shape.coeffs)):
            # out + omp A_m cos(m omp x), one term in place at a time
            np.cos(np.multiply(m * omp, x, out=term), out=term)
            term *= omp * shape.coeffs[m]
            out += term
        return out
    raise ValueError("delta shape has no pointwise envelope")


def _simpson(y: np.ndarray, h: float):
    """Composite Simpson integral along the last axis."""
    n = y.shape[-1] - 1
    if n % 2:
        raise ValueError("simpson needs an even number of panels")
    return h / 3 * (y[..., 0] + y[..., -1] + 4 * y[..., 1:-1:2].sum(axis=-1)
                    + 2 * y[..., 2:-1:2].sum(axis=-1))


# nodes and weights of _cumulative_simpson's first and last panels
_END_NODES = np.array([[0, 1, 2, 3], [-4, -3, -2, -1]])
_END_WEIGHTS = np.array([[9.0, 19.0, -5.0, 1.0], [1.0, -5.0, 19.0, 9.0]])


def _cumulative_simpson(y: np.ndarray, h: float,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative integral along the last axis of a uniform grid via local
    cubics (O(h^4) global), written to out (C-contiguous, not aliasing y)
    when given.

    Each panel [x_i, x_{i+1}] integrates the cubic through the four
    surrounding nodes; the end panels use one-sided stencils.  The panel
    increments are formed in out[..., 1:] and summed there in place.
    """
    n = y.shape[-1]
    if n < 4:
        raise ValueError("need at least 4 samples")
    if out is None:
        out = np.empty(y.shape)
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    # the interior stencil h (-y0 + 13 y1 + 13 y2 - y3) / 24 over the
    # flattened samples, formed in out in that operation order with one
    # temporary: the ones that straddle two rows land on each row's first
    # two entries and its last, which are set below
    flat = np.reshape(y, -1)
    acc = out.reshape(-1)[2:-1]
    np.negative(flat[:-3], out=acc)
    term = np.multiply(flat[1:-2], 13)
    acc += term
    acc += np.multiply(flat[2:-1], 13, out=term)
    acc -= flat[3:]
    acc *= h
    acc /= 24.0
    # the end stencils h (9 y0 + 19 y1 - 5 y2 + y3) / 24 and its mirror
    # h (y-4 - 5 y-3 + 19 y-2 + 9 y-1) / 24, both as left-to-right sums of
    # four weighted terms
    ends = y[..., _END_NODES]
    ends *= _END_WEIGHTS
    panel = np.add(ends[..., 0], ends[..., 1])
    panel += ends[..., 2]
    panel += ends[..., 3]
    panel *= h
    panel /= 24.0
    out[..., 0] = 0.0
    out[..., 1] = panel[..., 0]
    out[..., -1] = panel[..., 1]
    np.cumsum(out[..., 1:], axis=-1, out=out[..., 1:])
    return out


# panels of the area quadrature of a gaussian or hermitian shape
_NORM_PANELS = 1 << 14


@lru_cache(maxsize=1)
def _fine_envelope(shape: PulseShape):
    """(_norm_scale, envelope rescaled by it, read-only) of the last shape
    alone, so that no gamma bisection point is kept, on the finest grid a
    default compute_params reads: _NORM_PANELS panels for a gaussian or
    hermitian shape, 2 DEFAULT_N_QUAD for a fourier one."""
    panels = 2 * DEFAULT_N_QUAD if shape.kind == "fourier" else _NORM_PANELS
    v = _raw_envelope(shape, np.linspace(0.0, 1.0, panels + 1))
    scale = (_norm_scale(shape) if shape.kind == "fourier"
             else np.pi / _simpson(v, 1 / _NORM_PANELS))
    v *= scale
    v.flags.writeable = False
    return scale, v


def _norm_scale(shape: PulseShape) -> float:
    """Factor rescaling the truncated envelope to exact pi area."""
    if shape.kind == "fourier":
        # cosine terms integrate to zero over full periods: area = 2 pi A0
        return 0.5 / shape.coeffs[0]
    return _fine_envelope(shape)[0]


def _sampled(shape: PulseShape, n_quad: int) -> np.ndarray:
    """Phase phi(t), the cumulative integral of the normalized envelope, on
    n_quad+1 uniform nodes."""
    if n_quad in (DEFAULT_N_QUAD, 2 * DEFAULT_N_QUAD):
        # a default compute_params: n_quad and the fine grid's panels are
        # powers of two, so linspace's nodes are every step-th of the fine
        # grid's, exactly, and the envelope is taken pointwise
        fine = _fine_envelope(shape)[1]
        v = fine[::(len(fine) - 1) // n_quad]
    else:
        v = _raw_envelope(shape, np.linspace(0.0, 1.0, n_quad + 1))
        v *= _norm_scale(shape)
    return _cumulative_simpson(v, 1 / n_quad)


def amplitude(shape: PulseShape, t):
    """Field value V(t), 0 <= t <= 1.

    The delta variant rejects pointwise evaluation (it is symbolic).
    """
    if shape.is_delta:
        raise ValueError("delta pulse has no pointwise amplitude")
    ta = np.asarray(t, dtype=float)
    if np.any(ta < 0) or np.any(ta > 1):
        raise ValueError("t outside [0, 1]")
    out = _norm_scale(shape) * _raw_envelope(shape, ta)
    return float(out) if np.isscalar(t) else out


@dataclass(frozen=True)
class ShapeParams:
    """Second-order characterization of an inversion shape."""

    s: float
    alpha: float
    zeta: float
    area: float


@lru_cache(maxsize=256)
def _params_at(shape: PulseShape, n_quad: int) -> ShapeParams:
    """(s, alpha, zeta, area) at n_quad panels, kept per (shape, n_quad).

    alpha = int [sin phi C - cos phi S] with C and S the cumulative
    integrals of cos phi and sin phi, and zeta = int C.
    """
    phi = _sampled(shape, n_quad)
    h = 1 / n_quad
    area = float(phi[-1])
    # one row each, and alpha's integrand formed in place: two rows of 8193
    # nodes would make every temporary 131 KB, where glibc's malloc maps
    # and unmaps its memory
    cos_phi = np.cos(phi)
    sin_phi = np.sin(phi, out=phi)
    c_cum = _cumulative_simpson(cos_phi, h)
    s_cum = _cumulative_simpson(sin_phi, h)
    zeta = _simpson(c_cum, h)
    c_cum *= sin_phi
    c_cum -= np.multiply(cos_phi, s_cum, out=s_cum)
    return ShapeParams(s=_simpson(sin_phi, h), alpha=_simpson(c_cum, h),
                       zeta=zeta, area=area)


def _check_n_quad(n_quad: int) -> None:
    """Simpson's rule needs an even number of panels, at least 64."""
    if n_quad < 64:
        raise ValueError("n_quad must be >= 64")
    if n_quad % 2:
        raise ValueError("n_quad must be even")


def compute_params(shape: PulseShape,
                   n_quad: int = DEFAULT_N_QUAD) -> ShapeParams:
    """Shape parameters (s, alpha, zeta) by quadrature.

    Evaluates at n_quad and 2*n_quad panels and requires the two answers to
    agree to PARAM_CONVERGENCE_TOL; the converged (finer) values are
    returned.  The quadratures are kept per (shape, n_quad) by _params_at,
    and the check runs on every call, so a failed one raises every time.

    Raises
    ------
    ValueError
        If n_quad is below 64 or odd.
    ConvergenceError
        If doubling the node count moves any parameter by >= 1e-9, or a
        parameter is not finite.
    """
    _check_n_quad(n_quad)
    if shape.is_delta:
        return ShapeParams(s=0.0, alpha=0.0, zeta=0.25, area=np.pi)
    coarse = _params_at(shape, n_quad)
    fine = _params_at(shape, 2 * n_quad)
    resid = {
        "s": abs(fine.s - coarse.s),
        "alpha": abs(fine.alpha - coarse.alpha),
        "zeta": abs(fine.zeta - coarse.zeta),
    }
    # "not all(r < tol)" so that a NaN residual fails too
    if not all(r < PARAM_CONVERGENCE_TOL for r in resid.values()):
        raise ConvergenceError(
            f"quadrature not converged at n_quad={n_quad}: residuals "
            + ", ".join(f"{k} = {v:.2e}" for k, v in resid.items())
            + "; increase n_quad")
    return fine


def solve_hermitian_gamma(width_ratio: float,
                          bracket: tuple[float, float] = (0.5, 1.3),
                          tol: float = 1e-11, n_quad: int = 8192) -> float:
    """Root of s(gamma) = 0 for the quadratic-envelope family at this width.

    Plain bisection on the bracket; s(gamma) is smooth and monotone there.
    A root whose quadrature fails compute_params's check raises.
    """
    _check_n_quad(n_quad)

    def s_of(gam: float) -> float:
        # uncached: a bisection point is never asked for again
        return _params_at.__wrapped__(hermitian(width_ratio, gam), n_quad).s

    lo, hi = bracket
    f_lo, f_hi = s_of(lo), s_of(hi)
    if f_lo * f_hi > 0:
        raise ConvergenceError(
            f"s(gamma) does not change sign on {bracket}: {f_lo:g}, {f_hi:g}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = s_of(mid)
        if f_lo * f_mid <= 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    gamma = 0.5 * (lo + hi)
    compute_params(hermitian(width_ratio, gamma), n_quad)
    return gamma


# ---------------------------------------------------------------------------
# plain-text serialization (gaussian:0.1) and shape lookup
# ---------------------------------------------------------------------------

def shape_to_text(shape: PulseShape) -> str:
    """The colon spec of shape, which resolve_shape reads back."""
    if shape.kind == "delta":
        return "delta"
    if shape.kind == "gaussian":
        return f"gaussian:{shape.width_ratio:.12g}"
    if shape.kind == "hermitian":
        return f"hermitian:{shape.width_ratio:.12g}:{shape.gamma:.12g}"
    return "fourier:" + ",".join(f"{c:.12g}" for c in shape.coeffs)


# colon-separated fields each spec kind takes at most
_SPEC_FIELDS = {"gaussian": 1, "hermitian": 2, "fourier": 1}


def resolve_shape(text: str) -> PulseShape:
    """Shape from a name (delta, G05, G10, H05, H10, S1, S2, Q1, Q2) or a
    colon spec (gaussian:0.10, hermitian:0.05[:gamma], fourier:c0,c1,...)."""
    spec = text.strip()
    lowered = spec.lower()
    for name, shape in _BUILTIN.items():
        if lowered == name.lower():
            return shape
    kind, colon, rest = spec.partition(":")
    kind = kind.lower()
    if not colon or kind not in _SPEC_FIELDS:
        raise ValueError(f"unknown shape spec {text!r}")
    fields = rest.split(":")
    if len(fields) > _SPEC_FIELDS[kind]:
        raise ValueError(f"shape spec {text!r} has {len(fields)} fields; "
                         f"{kind} takes at most {_SPEC_FIELDS[kind]}")
    if kind == "fourier":
        return fourier([float(c) for c in rest.split(",")])
    values = [float(f) for f in fields]
    return gaussian(*values) if kind == "gaussian" else hermitian(*values)


# ---------------------------------------------------------------------------
# parameter table for the built-in and designed shapes
# ---------------------------------------------------------------------------

def table_rows(n_quad: int = DEFAULT_N_QUAD):
    """(name, s, alpha/2, zeta) for delta, G/H widths 0.05/0.10, S1/S2/Q1/Q2."""
    rows = []
    for name, shape in _BUILTIN.items():
        p = compute_params(shape, n_quad)
        rows.append((name, p.s, p.alpha / 2, p.zeta))
    return rows


def table_report(n_quad: int = DEFAULT_N_QUAD) -> str:
    """Formatted parameter table with reference values and deviation flags."""
    lines = [f"{'pulse':>6s} {'s':>12s} {'alpha/2':>12s} {'zeta':>10s}"
             f"   {'ref zeta':>10s}  note"]
    for name, s, ah, z in table_rows(n_quad):
        ref = REFERENCE_PARAMS[name]
        note = ""
        if name in DESIGNED_COEFFS:
            dz = abs(z - ref[2])
            note = f"designed; |dzeta|={dz:.4f}"
            if dz > ZETA_FLAG_THRESHOLD:
                note += " FLAG"
        lines.append(f"{name:>6s} {s:>12.7f} {ah:>12.7f} {z:>10.6f}"
                     f"   {ref[2]:>10.6f}  {note}")
    return "\n".join(lines)
