"""Pulse sequences, the single-pulse operator expansion, and the effective
Hamiltonian of a sequence composed from it.

Sequence strings are written in TIME ORDER (first token acts first).  The
named library entries are quoted in the literature as operator products
(rightmost factor acts first); the definitions below store them already
reversed into time order, e.g. the product X Ybar X Y executes as
Y, X, Ybar, X.

The effective Hamiltonian of a sequence is composed as in the paper: the
second-order pulse expansions X0 + tau_p X1 + tau_p^2 X2 and each delay's
exp(-i d tau_p Hs) are multiplied in time order and truncated at tau_p^2;
dividing by the scalar c = prod X0 gives 1 + A1 + A2, and H_eff =
[i (A1 + A2 - A1^2/2) - arg(c)] / T.  A sequence whose X0 do not multiply
to a multiple of the identity does not refocus and is refused.  Only the
name ``4p`` gives the paper's printed equation, which drops the s*tau_p
terms; the tokens ``Y X -Y X`` give the composed form.

Two sign conventions are exposed for the expansion and the effective
Hamiltonians:

* ``convention="matched"`` (default): the form validated against the exact
  numerical propagator.  Relative to the printed equations this flips the
  sign of every s- and alpha-proportional term, and in the printed 4p
  equation also the [A0, .] term, which the printed expansion does not
  compose to.
* ``convention="printed"``: the equations verbatim.  Kept so the two variants
  can be compared against the propagator without silently altering either.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .algebra import (CouplingSet, ModelParams, IDENTITY_2, PAULI, anticomm,
                      assemble, comm, expm_herm, kron, lowering)
from .shapes import PulseShape, ShapeParams, compute_params

_CYCLIC = {"x": ("x", "y", "z"), "y": ("y", "z", "x"), "z": ("z", "x", "y")}
_CONVENTIONS = ("matched", "printed")


@dataclass(frozen=True)
class PulseSpec:
    """One pi pulse: axis in {x, y, z}, sign +1 or -1 (negative pulse has
    the field V -> -V)."""

    axis: str
    sign: int = 1

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise ValueError(f"bad axis {self.axis!r}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def label(self) -> str:
        return ("-" if self.sign < 0 else "") + self.axis.upper()


@dataclass(frozen=True)
class Delay:
    """Free evolution for ``duration`` multiples of tau_p."""

    duration: float

    def __post_init__(self):
        if not (self.duration >= 0 and np.isfinite(self.duration)):
            raise ValueError("delay duration must be a finite nonnegative number")


@dataclass(frozen=True)
class Sequence:
    """Time-ordered list of pulses and delays."""

    elements: tuple
    name: str | None = None

    def label(self) -> str:
        toks = [e.label() if isinstance(e, PulseSpec) else f"d({e.duration:g})"
                for e in self.elements]
        return " ".join(toks)


def _p(axis: str, sign: int = 1) -> PulseSpec:
    return PulseSpec(axis=axis, sign=sign)


def _on(axis_or_none, m):
    """sigma_axis (x) m, or 1 (x) m for axis None."""
    q = PAULI[axis_or_none] if axis_or_none else IDENTITY_2
    return kron(q, m)


# Named sequences in time order (products reversed): e.g. 8a is the product
# Ybar Xbar Y Xbar X Ybar X Y, so Y acts first.
BUILTIN_SEQUENCES = {
    "xbarx": (_p("x"), _p("x", -1)),
    "x4": (_p("x"), _p("x", -1), _p("x", -1), _p("x")),
    "4p": (_p("y"), _p("x"), _p("y", -1), _p("x")),
    "4pxz": (_p("z"), _p("x"), _p("z", -1), _p("x")),
    "8s": (_p("y"), _p("x"), _p("y", -1), _p("x"),
           _p("x"), _p("y", -1), _p("x"), _p("y")),
    "8a": (_p("y"), _p("x"), _p("y", -1), _p("x"),
           _p("x", -1), _p("y"), _p("x", -1), _p("y", -1)),
}
_ALIASES = {"4pxy": "4p"}

_TOKEN_PULSE = re.compile(r"^(-?)([xyzXYZ])$")
_TOKEN_DELAY = re.compile(r"^d\((.*)\)$")


def parse_sequence(text: str) -> Sequence:
    """Parse a sequence string.

    Built-in names (xbarx, x4, 4p, 4pxy, 4pxz, 8s, 8a) resolve to their
    library definitions.  Otherwise whitespace-separated tokens are read in
    time order: ``X``, ``Y``, ``Z`` with an optional leading ``-`` for a
    negative pulse, and ``d(<float>)`` for a delay in units of tau_p.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty sequence")
    key = _ALIASES.get(text.lower(), text.lower())
    if key in BUILTIN_SEQUENCES:
        return Sequence(elements=BUILTIN_SEQUENCES[key], name=key)
    elements = []
    for tok in text.split():
        m = _TOKEN_PULSE.match(tok)
        if m:
            elements.append(_p(m.group(2).lower(), -1 if m.group(1) else 1))
            continue
        m = _TOKEN_DELAY.match(tok)
        if m:
            try:
                dur = float(m.group(1))
            except ValueError:
                raise ValueError(f"malformed delay token {tok!r}") from None
            elements.append(Delay(duration=dur))
            continue
        raise ValueError(f"unknown sequence token {tok!r}")
    return Sequence(elements=tuple(elements), name=None)


# ---------------------------------------------------------------------------
# single-pulse expansion  X = X0 + taup X1 + taup^2 X2 + O((J taup)^3)
# ---------------------------------------------------------------------------

def expand_pulse(couplings: CouplingSet, params: ShapeParams, pulse: PulseSpec,
                 convention: str = "matched"):
    """Operator triple (X0, X1, X2) of the pulse propagator expansion.

    Matrices act on the joint qubit (x) rest space.  ``params`` must describe
    a symmetric pi shape.  A negative pulse is the positive one with
    s -> -s, alpha -> -alpha and an overall factor of -1 on all orders
    (property verified against direct propagation in the tests).
    """
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    if abs(abs(params.area) - np.pi) > 1e-8:
        raise ValueError("expand_pulse requires inversion-pulse parameters "
                         f"(area = +-pi, got {params.area})")
    if pulse.sign < 0:
        flipped = ShapeParams(s=-params.s, alpha=-params.alpha,
                              zeta=params.zeta, area=-params.area)
        pos = expand_pulse(couplings, flipped, _p(pulse.axis), convention)
        return tuple(-m for m in pos)

    s, alpha, zeta = params.s, params.alpha, params.zeta
    if convention == "matched":
        s, alpha = -s, -alpha
    mu, nu, rho = _CYCLIC[pulse.axis]
    amap = {"x": couplings.ax, "y": couplings.ay, "z": couplings.az}
    a0, am, an, ar = couplings.a0, amap[mu], amap[nu], amap[rho]
    d = couplings.dim
    idd = np.eye(d, dtype=complex)

    x0 = kron(-1j * PAULI[mu], idd)
    x1 = (-_on(None, am) - _on(mu, a0)
          + 1j * s * (_on(nu, an) + _on(rho, ar)))
    x2 = (0.5j * (_on(None, anticomm(a0, am)) + _on(mu, a0 @ a0 + am @ am))
          + zeta * (comm(_on(None, a0), _on(nu, ar) - _on(rho, an))
                    + 1j * anticomm(_on(None, am), _on(nu, an) + _on(rho, ar)))
          + (s / 2) * (anticomm(_on(None, a0), _on(nu, an) + _on(rho, ar))
                       - 1j * comm(_on(None, am), _on(nu, ar) - _on(rho, an)))
          + alpha * (_on(None, an @ an + ar @ ar) + 1j * _on(mu, comm(an, ar)))
          + (s ** 2 / 2) * (_on(None, comm(ar, an)) + 1j * _on(mu, an @ an + ar @ ar)))
    return x0, x1, x2


def expansion_sum(couplings: CouplingSet, params: ShapeParams, pulse: PulseSpec,
                  taup: float = 1.0, convention: str = "matched") -> np.ndarray:
    x0, x1, x2 = expand_pulse(couplings, params, pulse, convention)
    return x0 + taup * x1 + taup ** 2 * x2


# ---------------------------------------------------------------------------
# the effective Hamiltonian composed from the single-pulse expansion
# ---------------------------------------------------------------------------

def refocusing_phase(seq: Sequence) -> complex:
    """The scalar c with prod X0 = c 1 over the ideal pulses X0 = -i sign
    sigma; a ValueError if the product is not a multiple of 1."""
    q = IDENTITY_2
    for e in seq.elements:
        if isinstance(e, PulseSpec):
            q = -1j * e.sign * PAULI[e.axis] @ q
    if np.any(q != q[0, 0] * IDENTITY_2):
        raise ValueError(f"sequence {seq.name or seq.label()!r} does not "
                         "refocus: prod X0 is not a multiple of 1")
    return complex(q[0, 0])


def effective_hamiltonian(seq: Sequence, couplings: CouplingSet,
                          params: ShapeParams, taup: float = 1.0,
                          convention: str = "matched"):
    """(H_eff, remainder): one period's propagator is exp(-i T H_eff), its
    global phase c included, up to the remainder.  A sequence that does not
    refocus, or whose period has zero duration, raises ValueError."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    c = refocusing_phase(seq)
    a0, ax, ay, az = couplings.a0, couplings.ax, couplings.ay, couplings.az
    if seq.name == "4p":
        # the paper's equation: its [A0, .] term has the sign opposite to
        # the composed printed expansion, so matched flips it with s, alpha
        sign = -1.0 if convention == "matched" else 1.0
        s, alpha, zeta = sign * params.s, sign * params.alpha, params.zeta
        h = (_on(None, a0) + (s / 2) * (_on("x", az) - _on("z", ay))
             + sign * (-0.5j * taup) * comm(_on(None, a0),
                                            _on("x", ax) - _on("y", ay))
             - taup * (alpha / 2) * _on("y", ax @ ax + az @ az)
             + taup * (0.5j * alpha) * _on(None, comm(az, ay))
             - taup * ((1 + 4 * zeta) / 4) * _on("z", anticomm(ax, ay)))
        return h, "O(taup^2, s*taup)"
    hs = assemble(couplings)
    eye = np.eye(hs.shape[0], dtype=complex)
    # X0, taup X1, taup^2 X2 of each distinct pulse
    pulses = {e: [taup ** k * x for k, x in enumerate(
        expand_pulse(couplings, params, e, convention))]
        for e in set(seq.elements) if isinstance(e, PulseSpec)}
    # the truncated product M0 + M1 + M2, order by order
    m0, m1, m2 = eye, np.zeros_like(eye), np.zeros_like(eye)
    for e in seq.elements:
        if isinstance(e, Delay):
            d = e.duration * taup
            x0, x1, x2 = eye, -1j * d * hs, -(d ** 2 / 2) * hs @ hs
        else:
            x0, x1, x2 = pulses[e]
        m0, m1, m2 = x0 @ m0, x0 @ m1 + x1 @ m0, x0 @ m2 + x1 @ m1 + x2 @ m0
    period = taup * sum(e.duration if isinstance(e, Delay) else 1
                        for e in seq.elements)
    if period <= 0:
        raise ValueError("the period has zero duration")
    a1, a2 = m1 / c, m2 / c
    h = (1j * (a1 + a2 - a1 @ a1 / 2) - np.angle(c) * eye) / period
    return h, "O(taup^2)"


# ---------------------------------------------------------------------------
# the cavity-model specializations as printed, for the comparison report
# ---------------------------------------------------------------------------

def jc_cavity_hamiltonian(name: str, model: ModelParams, params: ShapeParams,
                          taup: float = 1.0) -> np.ndarray:
    """Leading-order cavity-model effective Hamiltonians, verbatim forms.

    Names: "4p", "4p_s0" (the separate equation for first-order
    self-refocusing pulses), "4pxz", "8s", "8a".  Frequencies in ``model``
    are in 2*pi/tau_p units.
    """
    unit = 2 * np.pi / taup
    omr, om0, g = model.omega_r * unit, model.omega_0 * unit, model.g * unit
    dim = model.n_max + 1
    b = lowering(dim)
    bd = b.conj().T
    base = kron(IDENTITY_2, omr * (bd @ b))
    s, alpha, zeta = params.s, params.alpha, params.zeta
    if name == "4p":
        return (base + (s * om0 / 2) * kron(PAULI["x"], np.eye(dim))
                + (s * g / 4) * kron(PAULI["z"], 1j * (bd - b)))
    if name == "4p_s0":
        return (base - (taup * g * omr / 4) * kron(PAULI["x"], 1j * (bd - b))
                - ((1 + 4 * zeta) / 8) * taup * g ** 2
                * kron(PAULI["z"], 1j * (b @ b - bd @ bd)))
    if name == "4pxz":
        return (base + (s * g / 4) * kron(PAULI["x"], 1j * (bd - b))
                + (taup * g * omr / 4) * kron(PAULI["x"], 1j * (bd - b)))
    if name == "8s":
        return (base - (alpha * g ** 2 * taup / 8)
                * kron(PAULI["y"], (bd + b) @ (bd + b)))
    if name == "8a":
        return base + (s * g / 4) * kron(PAULI["z"], 1j * (bd - b))
    raise ValueError(f"no cavity-model form for {name!r}")


# ---------------------------------------------------------------------------
# refocusing-order check against the exact propagator
# ---------------------------------------------------------------------------

# defects at or below this are numerical floor, excluded from the order fit
DEFECT_FLOOR = 1e-12
DELTA_REFUSAL = ("the effective Hamiltonian composes pulses of duration "
                 "taup, which a delta shape does not have")


@dataclass(frozen=True)
class OrderCheckResult:
    scales: tuple[float, ...]
    defects: tuple[float, ...]
    exponent: float
    floor_limited: bool
    reference: str


def order_check(seq: Sequence, couplings: CouplingSet, shape: PulseShape,
                scales, steps_per_pulse: int = 256, reference: str = "zero",
                convention: str = "matched") -> OrderCheckResult:
    """Fit the scaling exponent of the one-period refocusing defect.

    For each scale factor lam the couplings are uniformly rescaled, one
    period is propagated exactly, and the defect

        delta(lam) = || U_num(lam) - exp(-i T H_ref(lam)) ||

    is recorded; the fitted slope of log delta vs log lam is returned.
    ``reference`` is "zero" (the target c 1, c the ``refocusing_phase``) or
    "effective" (``effective_hamiltonian`` at the shape's tau_p and
    parameters, which carries c; not for a delta shape).  A sequence that
    does not refocus is refused.
    Defects at or below DEFECT_FLOOR are floor-limited and excluded from the
    fit; with fewer than two left the exponent is NaN.
    """
    from . import propagate  # deferred: propagate builds on this module

    scales = tuple(float(x) for x in scales)
    if not all(np.isfinite(x) and x > 0 for x in scales):
        raise ValueError("scale factors must be finite and positive")
    if len(scales) < 2:
        raise ValueError("need at least two scale points")
    if max(scales) / min(scales) < 10 - 1e-9:
        raise ValueError("scale factors must span at least one decade")
    if reference not in ("zero", "effective"):
        raise ValueError("reference must be 'zero' or 'effective'")
    c = refocusing_phase(seq)
    if reference == "effective":
        if shape.is_delta:
            raise ValueError(DELTA_REFUSAL)
        params = compute_params(shape)

    schedule = propagate.build_schedule(seq, shape)
    period = schedule.period
    dim = 2 * couplings.dim
    defects = []
    for lam in scales:
        scaled = couplings.scaled(lam)
        u = propagate.propagate_period(scaled, schedule,
                                       steps_per_pulse=steps_per_pulse)
        if reference == "zero":
            target = c * np.eye(dim, dtype=complex)
        else:
            h, _ = effective_hamiltonian(seq, scaled, params, shape.taup,
                                         convention)
            target = expm_herm(h, period)
        defects.append(float(np.linalg.norm(u - target, 2)))

    pts = [(lam, d) for lam, d in zip(scales, defects) if d > DEFECT_FLOOR]
    floor_limited = len(pts) < len(scales)
    if len(pts) < 2:
        return OrderCheckResult(scales, tuple(defects), float("nan"),
                                True, reference)
    lams = np.log([p[0] for p in pts])
    ds = np.log([p[1] for p in pts])
    exponent = float(np.polyfit(lams, ds, 1)[0])
    return OrderCheckResult(scales, tuple(defects), exponent,
                            floor_limited, reference)
