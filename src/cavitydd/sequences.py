"""Pulse sequences, the single-pulse operator expansion, and the effective
Hamiltonian of a sequence composed from it.

Sequence strings are written in TIME ORDER (first token acts first).  The
named library entries are quoted in the literature as operator products
(rightmost factor acts first); the definitions below store them already
reversed into time order, e.g. the product X Ybar X Y executes as
Y, X, Ybar, X.

A ``ControlSchedule`` is one period of a sequence driven with a shape;
``build_schedule`` gives it, and its period T, to the propagator and to the
effective Hamiltonian alike.

The effective Hamiltonian of a sequence is composed as in the paper, from
the shape alone: the second-order pulse expansions X0 + X1 + X2 (time in
units of tau_p), with (s, alpha, zeta) from ``compute_params(shape)``, and
each delay's exp(-i d Hs) are multiplied in time order and truncated at
second order in the couplings; dividing by the scalar c = prod X0 gives
1 + A1 + A2, and H_eff = [i (A1 + A2 - A1^2/2) - arg(c)] / T.  A delta
pulse, the tau_p -> 0 limit, enters as its exact X0 with zero duration.  A
sequence whose X0 do not multiply to a multiple of the identity does not
refocus and is refused.  Every sequence takes this one path; the name
``4p`` is its pulses ``Y X -Y X``.

Two sign conventions are exposed for the expansion and the effective
Hamiltonians:

* ``convention="matched"`` (default): the form validated against the exact
  numerical propagator.  Relative to the printed equations this flips the
  sign of every s- and alpha-proportional term.
* ``convention="printed"``: the equations verbatim.  Kept so the two variants
  can be compared against the propagator without silently altering either.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .algebra import (CouplingSet, ModelParams, IDENTITY_2, PAULI, anticomm,
                      assemble, comm, expm_herm, kron, lowering, op_norm)
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

    def label(self) -> str:
        return f"d({self.duration:g})"


@dataclass(frozen=True)
class Sequence:
    """Time-ordered list of pulses and delays."""

    elements: tuple
    name: str | None = None

    def label(self) -> str:
        return " ".join(e.label() for e in self.elements)


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


@dataclass(frozen=True)
class ControlSchedule:
    """One sequence period: the sequence's time-ordered elements (PulseSpec
    and Delay), each pulse driving a single axis with ``shape``, and the
    period's total duration."""

    shape: PulseShape
    elements: tuple
    period: float


def build_schedule(seq: Sequence, shape: PulseShape) -> ControlSchedule:
    """Assemble the control schedule of one period from a sequence and shape.

    Pulses are contiguous (duration 1 each, zero for delta pulses); delays
    last their duration.
    """
    t = 0.0
    pulse_len = 0.0 if shape.is_delta else 1.0
    for e in seq.elements:
        if isinstance(e, PulseSpec):
            t += pulse_len
        elif isinstance(e, Delay):
            t += e.duration
        else:
            raise ValueError(f"unknown sequence element {e!r}")
    return ControlSchedule(shape=shape, elements=seq.elements, period=t)


# ---------------------------------------------------------------------------
# single-pulse expansion  X = X0 + X1 + X2 + O((J taup)^3)
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
    sign = pulse.sign
    s, alpha, zeta = sign * params.s, sign * params.alpha, params.zeta
    if convention == "matched":
        s, alpha = -s, -alpha
    mu, nu, rho = _CYCLIC[pulse.axis]
    amap = {"x": couplings.ax, "y": couplings.ay, "z": couplings.az}
    a0, am, an, ar = couplings.a0, amap[mu], amap[nu], amap[rho]
    d = couplings.dim
    idd = np.eye(d, dtype=complex)

    # each sigma (x) A product once; the sums keep their order
    i_a0, i_am = _on(None, a0), _on(None, am)
    along = _on(nu, an) + _on(rho, ar)
    across = _on(nu, ar) - _on(rho, an)
    transverse_sq = an @ an + ar @ ar
    x0 = kron(-1j * PAULI[mu], idd)
    x1 = -i_am - _on(mu, a0) + 1j * s * along
    x2 = (0.5j * (_on(None, anticomm(a0, am)) + _on(mu, a0 @ a0 + am @ am))
          + zeta * (comm(i_a0, across) + 1j * anticomm(i_am, along))
          + (s / 2) * (anticomm(i_a0, along) - 1j * comm(i_am, across))
          + alpha * (_on(None, transverse_sq) + 1j * _on(mu, comm(an, ar)))
          + (s ** 2 / 2) * (_on(None, comm(ar, an))
                            + 1j * _on(mu, transverse_sq)))
    return (x0, x1, x2) if sign > 0 else (-x0, -x1, -x2)


def expansion_sum(couplings: CouplingSet, params: ShapeParams, pulse: PulseSpec,
                  convention: str = "matched") -> np.ndarray:
    x0, x1, x2 = expand_pulse(couplings, params, pulse, convention)
    return x0 + x1 + x2


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
                          shape: PulseShape, convention: str = "matched"):
    """H_eff with one period's propagator exp(-i T H_eff) up to O(taup^2),
    its global phase c included.

    The pulse parameters come from ``compute_params(shape)`` and T from
    ``build_schedule``; a delta pulse enters as its exact X0 with zero
    duration.  A sequence that does not refocus, or whose period has zero
    duration, raises ValueError.
    """
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    c = refocusing_phase(seq)
    period = build_schedule(seq, shape).period
    if period <= 0:
        raise ValueError("the period has zero duration")
    params = compute_params(shape)
    hs = assemble(couplings)
    eye = np.eye(hs.shape[0], dtype=complex)
    # a delta pulse lasts 0, so only its X0 is left
    pulses = {e: expand_pulse(couplings, params, e, convention)
              for e in set(seq.elements) if isinstance(e, PulseSpec)}
    if shape.is_delta:
        pulses = {e: (x0, 0.0 * x1, 0.0 * x2)
                  for e, (x0, x1, x2) in pulses.items()}
    # the truncated product M0 + M1 + M2, order by order
    m0, m1, m2 = eye, np.zeros_like(eye), np.zeros_like(eye)
    for e in seq.elements:
        if isinstance(e, Delay):
            x1 = -1j * e.duration * hs
            # (-i d Hs)^2 / 2: a float d ** 2 overflows past d = 1.3e154
            x0, x2 = eye, x1 @ x1 / 2
        else:
            x0, x1, x2 = pulses[e]
        m0, m1, m2 = x0 @ m0, x0 @ m1 + x1 @ m0, x0 @ m2 + x1 @ m1 + x2 @ m0
    a1, a2 = m1 / c, m2 / c
    return (1j * (a1 + a2 - a1 @ a1 / 2) - np.angle(c) * eye) / period


# ---------------------------------------------------------------------------
# the cavity-model specializations as printed, for the comparison report
# ---------------------------------------------------------------------------

def jc_cavity_hamiltonian(name: str, model: ModelParams,
                          params: ShapeParams) -> np.ndarray:
    """Leading-order cavity-model effective Hamiltonians, verbatim forms.

    Names: "4p", "4p_s0" (the separate equation for first-order
    self-refocusing pulses), "4pxz", "8s", "8a".  Frequencies in ``model``
    are in 2*pi/tau_p units, at tau_p = 1 like ``jaynes_cummings``.
    """
    unit = 2 * np.pi
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
        return (base - (g * omr / 4) * kron(PAULI["x"], 1j * (bd - b))
                - ((1 + 4 * zeta) / 8) * g ** 2
                * kron(PAULI["z"], 1j * (b @ b - bd @ bd)))
    if name == "4pxz":
        return (base + (s * g / 4) * kron(PAULI["x"], 1j * (bd - b))
                + (g * omr / 4) * kron(PAULI["x"], 1j * (bd - b)))
    if name == "8s":
        return (base - (alpha * g ** 2 / 8)
                * kron(PAULI["y"], (bd + b) @ (bd + b)))
    if name == "8a":
        return base + (s * g / 4) * kron(PAULI["z"], 1j * (bd - b))
    raise ValueError(f"no cavity-model form for {name!r}")


# ---------------------------------------------------------------------------
# refocusing-order check against the exact propagator
# ---------------------------------------------------------------------------

# defects at or below this are numerical floor, excluded from the order fit
DEFECT_FLOOR = 1e-12


@dataclass(frozen=True)
class OrderCheckResult:
    scales: tuple[float, ...]
    defects: tuple[float, ...]
    exponent: float
    floor_limited: bool
    reference: str


def order_check(seq: Sequence, couplings: CouplingSet, shape: PulseShape,
                scales, steps_per_pulse: int = 256,
                reference: str = "zero") -> OrderCheckResult:
    """Fit the scaling exponent of the one-period refocusing defect.

    For each scale factor lam the couplings are uniformly rescaled, one
    period is propagated exactly, and the defect

        delta(lam) = || U_num(lam) - exp(-i T H_ref(lam)) ||

    is recorded; the fitted slope of log delta vs log lam is returned.
    ``reference`` is "zero" (the target c 1, c the ``refocusing_phase``) or
    "effective" (``effective_hamiltonian`` of the shape, which carries c).
    A sequence that does not refocus is refused.
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
    schedule = build_schedule(seq, shape)
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
            target = expm_herm(effective_hamiltonian(seq, scaled, shape),
                               period)
        defects.append(op_norm(u - target))

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
