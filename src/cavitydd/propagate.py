"""High-accuracy time-ordered propagation of H(t) = Hc(t) + Hs over pulse
sequences, with stroboscopic sampling at period boundaries.

The integrator is the 4th-order commutator-free Magnus scheme (Alvermann &
Fehske, J. Comput. Phys. 230, 5930 (2011)): per step of size h, with H
evaluated at the two Gauss-Legendre nodes t + (1/2 -+ sqrt(3)/6) h,

    U_step = exp(-i h (w2 H1 + w1 H2)) exp(-i h (w1 H1 + w2 H2)),
    w1 = 1/4 + sqrt(3)/6,  w2 = 1/4 - sqrt(3)/6,

each factor an exact Hermitian exponential.  Within a pulse H = Hs + V(t) K
with K = sigma_axis/2 (x) 1, and w1 + w2 = 1/2, so every factor's generator
is Hs/2 + c K with a real coefficient c.  A pulse unitary is therefore
batched: one vectorised envelope evaluation at all 2*steps nodes, then
blocks of _BLOCK generators, each with one stacked eigendecomposition and a
pairwise tree product, multiplied into the running unitary.  Hermiticity of
Hs is validated once per pulse unitary; K is Hermitian by construction, so
each generator is too.  The step count is validated, and the step-halving
self-check made, in one place (``_checked_period_unitary``) for every entry
point.  The expansion parameters tested elsewhere in this package never
enter here: the propagator integrates the lab-frame Hamiltonian directly,
so it is an independent oracle for them.

Delta pulses are applied as exact -i sigma rotations between integration
segments; free-evolution delays are exact exponentials of Hs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import (CouplingSet, PAULI, assemble, expm_herm, is_hermitian,
                      kron, op_norm)
from .errors import ConvergenceError
from .sequences import Delay, PulseSpec, Sequence
from .shapes import PulseShape, amplitude

# Gauss-Legendre nodes (offsets in units of the step) and the CF4 weights
_GL_NODE_1 = 0.5 - np.sqrt(3) / 6
_GL_NODE_2 = 0.5 + np.sqrt(3) / 6
_CF4_W1 = 0.25 + np.sqrt(3) / 6
_CF4_W2 = 0.25 - np.sqrt(3) / 6

MIN_STEPS_PER_PULSE = 16
SELF_CHECK_TOL = 1e-8
LEAK_THRESHOLD = 1e-6
# CF4 exponentials per stacked eigendecomposition: deep enough to amortise
# the Python overhead, shallow enough to keep peak memory flat
_BLOCK = 32


@dataclass(frozen=True)
class PulseSegment:
    axis: str
    sign: int
    t0: float
    duration: float


@dataclass(frozen=True)
class DelaySegment:
    t0: float
    duration: float


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise control layout of one sequence period.

    Within each pulse only one axis is active; ``field`` evaluates the
    per-axis drive V_axis(t) (zero outside that axis's pulses).
    """

    shape: PulseShape
    segments: tuple
    period: float

    def field(self, axis: str, t: float) -> float:
        if axis not in PAULI:
            raise ValueError(f"bad axis {axis!r}")
        if self.shape.is_delta:
            raise ValueError("delta-pulse schedule has no pointwise field")
        for seg in self.segments:
            if (isinstance(seg, PulseSegment) and seg.axis == axis
                    and seg.t0 <= t <= seg.t0 + seg.duration):
                return seg.sign * amplitude(self.shape, t - seg.t0)
        return 0.0


def build_schedule(seq: Sequence, shape: PulseShape) -> ControlSchedule:
    """Assemble the control schedule of one period from a sequence and shape.

    Pulses are contiguous (duration tau_p each, zero for delta pulses);
    delays are in units of tau_p.
    """
    t = 0.0
    segments = []
    pulse_len = 0.0 if shape.is_delta else shape.taup
    for e in seq.elements:
        if isinstance(e, PulseSpec):
            segments.append(PulseSegment(axis=e.axis, sign=e.sign, t0=t,
                                         duration=pulse_len))
            t += pulse_len
        elif isinstance(e, Delay):
            segments.append(DelaySegment(t0=t, duration=e.duration * shape.taup))
            t += e.duration * shape.taup
        else:
            raise ValueError(f"unknown sequence element {e!r}")
    return ControlSchedule(shape=shape, segments=tuple(segments), period=t)


def _pulse_unitary(hs: np.ndarray, k_op: np.ndarray, shape: PulseShape,
                   sign: int, steps: int) -> np.ndarray:
    if not is_hermitian(hs):
        raise ValueError("pulse propagation requires a Hermitian system "
                         "Hamiltonian")
    h = shape.taup / steps
    t0 = np.arange(steps)[:, None] * h
    amp = sign * amplitude(shape, t0 + np.array([_GL_NODE_1, _GL_NODE_2]) * h)
    # CF4 factor coefficients in time order: step k applies
    # exp(-i h (Hs/2 + c_2k K)) first, then exp(-i h (Hs/2 + c_2k+1 K))
    coef = (amp @ np.array([[_CF4_W1, _CF4_W2], [_CF4_W2, _CF4_W1]])).ravel()
    u = np.eye(hs.shape[0], dtype=complex)
    for b in range(0, coef.size, _BLOCK):
        c = coef[b:b + _BLOCK, None, None]
        w, v = np.linalg.eigh(0.5 * hs + c * k_op)
        f = (v * np.exp(-1j * h * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        # pairwise tree product, later factors on the left
        while len(f) > 1:
            paired = f[1::2] @ f[:-1:2]
            f = np.concatenate([paired, f[-1:]]) if len(f) % 2 else paired
        u = f[0] @ u
    return u


def _period_unitary(couplings: CouplingSet, schedule: ControlSchedule,
                    steps: int) -> np.ndarray:
    hs = assemble(couplings)
    d = couplings.dim
    dim = 2 * d
    u = np.eye(dim, dtype=complex)
    cache: dict = {}
    for seg in schedule.segments:
        if isinstance(seg, DelaySegment):
            key = ("delay", seg.duration)
            if key not in cache:
                cache[key] = expm_herm(hs, seg.duration)
            u = cache[key] @ u
            continue
        key = (seg.axis, seg.sign)
        if key not in cache:
            if schedule.shape.is_delta:
                cache[key] = kron(-1j * seg.sign * PAULI[seg.axis],
                                  np.eye(d, dtype=complex))
            else:
                k_op = kron(PAULI[seg.axis] / 2, np.eye(d, dtype=complex))
                cache[key] = _pulse_unitary(hs, k_op, schedule.shape,
                                            seg.sign, steps)
        u = cache[key] @ u
    return u


def _checked_period_unitary(couplings: CouplingSet, schedule: ControlSchedule,
                            steps_per_pulse: int, self_check: bool,
                            tol: float = SELF_CHECK_TOL):
    """(U(T), |U(steps) - U(steps/2)|): the one step-count validation and
    step-halving check behind every entry point.

    The difference is 0.0 without ``self_check`` and for the exact
    delta-pulse schedules; above ``tol`` a ConvergenceError asks for more
    steps.
    """
    if steps_per_pulse < MIN_STEPS_PER_PULSE:
        raise ValueError(f"steps_per_pulse must be >= {MIN_STEPS_PER_PULSE}")
    check = self_check and not schedule.shape.is_delta
    if check and steps_per_pulse // 2 < MIN_STEPS_PER_PULSE:
        raise ValueError("self_check needs steps_per_pulse >= "
                         f"{2 * MIN_STEPS_PER_PULSE}")
    u = _period_unitary(couplings, schedule, steps_per_pulse)
    if not check:
        return u, 0.0
    halving = op_norm(u - _period_unitary(couplings, schedule,
                                          steps_per_pulse // 2))
    if halving > tol:
        raise ConvergenceError(
            f"step-halving check failed: |U - U_half| = {halving:.3e} > "
            f"{tol:g}; increase steps_per_pulse")
    return u, halving


def propagate_period(couplings: CouplingSet, schedule: ControlSchedule,
                     steps_per_pulse: int = 256,
                     self_check: bool = True) -> np.ndarray:
    """One-period propagator U(T).

    With ``self_check`` the integration is repeated at half the step count
    and the two answers must agree to SELF_CHECK_TOL (Richardson check);
    otherwise a ConvergenceError asks for more steps.  Delta-pulse schedules
    are exact and skip the check.
    """
    return _checked_period_unitary(couplings, schedule, steps_per_pulse,
                                   self_check)[0]


def step_halving_difference(couplings: CouplingSet, schedule: ControlSchedule,
                            steps_per_pulse: int = 256) -> float:
    """|U(steps) - U(steps/2)|, the Richardson self-consistency measure."""
    return _checked_period_unitary(couplings, schedule, steps_per_pulse,
                                   True, tol=np.inf)[1]


@dataclass
class EvolutionTrace:
    """Stroboscopic record over n periods.

    times[k] = k * period; propagators[k] = U(times[k]); rho_q[k, i] is the
    reduced qubit state of initial state i at sample k; n_exp and leakage
    hold the oscillator occupation and top-two-level population.
    """

    times: np.ndarray
    period: float
    propagators: list
    initial_states: np.ndarray
    rho_q: np.ndarray
    n_exp: np.ndarray
    leakage: np.ndarray
    halving_diff: float
    unitarity_drift: float

    @property
    def n_periods(self) -> int:
        return len(self.times) - 1


def run_trace(couplings: CouplingSet, schedule: ControlSchedule,
              n_periods: int, initial_states, oscillator_level: int = 0,
              steps_per_pulse: int = 256, self_check: bool = True,
              leak_threshold: float = LEAK_THRESHOLD) -> EvolutionTrace:
    """Propagate initial product states |psi_q> (x) |k_osc> stroboscopically.

    The one-period propagator is computed once and reused (the schedule is
    periodic, so U(nT) = [U(T)]^n).  Emits a warning when the top two
    oscillator levels accumulate more than ``leak_threshold`` population.
    """
    if n_periods < 0:
        raise ValueError("n_periods must be >= 0")
    d = couplings.dim
    if not (0 <= oscillator_level < d):
        raise ValueError("oscillator_level outside the truncated space")
    qs = np.asarray(initial_states, dtype=complex)
    if qs.ndim != 2 or qs.shape[1] != 2:
        raise ValueError("initial_states must be a list of qubit 2-vectors")
    norms = np.linalg.norm(qs, axis=1)
    if np.any(np.abs(norms - 1) > 1e-10):
        raise ValueError("initial qubit states must be normalized")

    u, halving = _checked_period_unitary(couplings, schedule, steps_per_pulse,
                                         self_check)

    ns = qs.shape[0]
    dim = 2 * d
    osc0 = np.zeros(d, dtype=complex)
    osc0[oscillator_level] = 1.0
    psi = np.einsum("si,n->sin", qs, osc0).reshape(ns, dim)

    times = np.arange(n_periods + 1) * schedule.period
    propagators = [np.eye(dim, dtype=complex)]
    rho_q = np.empty((n_periods + 1, ns, 2, 2), dtype=complex)
    n_exp = np.empty((n_periods + 1, ns))
    leak = np.empty((n_periods + 1, ns))
    nvec = np.arange(d, dtype=float)

    def record(k, states):
        m = states.reshape(ns, 2, d)
        rho_q[k] = np.einsum("sin,sjn->sij", m, m.conj())
        w = np.abs(m) ** 2
        n_exp[k] = np.einsum("sin,n->s", w, nvec)
        leak[k] = w[:, :, max(0, d - 2):].sum(axis=(1, 2))

    record(0, psi)
    cur = psi
    u_power = np.eye(dim, dtype=complex)
    for k in range(1, n_periods + 1):
        cur = cur @ u.T
        u_power = u @ u_power
        propagators.append(u_power)
        record(k, cur)

    drift = op_norm(u_power @ u_power.conj().T - np.eye(dim))
    max_leak = float(leak.max()) if leak.size else 0.0
    if max_leak > leak_threshold:
        warnings.warn(
            f"oscillator truncation leakage {max_leak:.2e} exceeds "
            f"{leak_threshold:g}; rerun with n_max >= {d + 3}",
            RuntimeWarning, stacklevel=2)

    return EvolutionTrace(times=times, period=schedule.period,
                          propagators=propagators, initial_states=qs,
                          rho_q=rho_q, n_exp=n_exp, leakage=leak,
                          halving_diff=halving, unitarity_drift=drift)
