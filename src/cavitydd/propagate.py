"""High-accuracy time-ordered propagation of H(t) = Hc(t) + Hs over pulse
sequences, with stroboscopic sampling at period boundaries.

The integrator is the 4th-order commutator-free Magnus scheme (Alvermann &
Fehske, J. Comput. Phys. 230, 5930 (2011)): per step of size h, with H
evaluated at the two Gauss-Legendre nodes t + (1/2 -+ sqrt(3)/6) h,

    U_step = exp(-i h (w2 H1 + w1 H2)) exp(-i h (w1 H1 + w2 H2)),
    w1 = 1/4 + sqrt(3)/6,  w2 = 1/4 - sqrt(3)/6,

each factor an exact Hermitian exponential.  Within a pulse H = Hs + V(t) K
with K = sign * sigma_axis/2 (x) 1, and w1 + w2 = 1/2, so every factor's
generator is Hs/2 + c K with a real coefficient c.  A pulse unitary is
therefore batched: one vectorised envelope evaluation at all 2*steps nodes,
then blocks of _BLOCK generators, each with one stacked eigendecomposition
and a pairwise tree product, multiplied into the running unitary.
Hermiticity of Hs is validated once per integrated pulse; K is Hermitian by
construction, so each generator is too.

Exact symmetries cut the pulses that are integrated at all:

* Symmetry tests.  Once per period unitary, two diagonal candidates are
  tested against the assembled Hs and kept when |S Hs S^dagger - Hs| <=
  1e-12 max(1, |Hs|): the parity R = sigma_z (x) (-1)^n and the excitation
  rotation V = exp(-i pi N/2), N = sigma_z/2 (x) 1 + 1 (x) n, with V^dagger.
  The Jaynes-Cummings Hs keeps all three; a counter-rotating term keeps R
  alone; generic couplings keep none.
* Pulse reuse.  A pulse K' takes S U S^dagger from an integrated pulse
  (K, U) when a kept S gives S K S^dagger = K' to 1e-12.  Nothing is
  assumed per axis: R K_x R = -K_x and V K_x V^dagger = K_y, but
  R K_z R = +K_z, so -z is no partner of +z.
* Which pulse to integrate.  Otherwise the orbit member S^dagger K' S with
  real generators is integrated (x before y), so on the Jaynes-Cummings
  model all of +-x and +-y come from one +x pulse per step count.
* Real half-product.  When Hs and K are real and the CF4 coefficient list
  is a palindrome (every package envelope is symmetric about tau_p/2), each
  factor is a complex symmetric matrix and the second half of the product
  is the transpose of the first half W: U = W^T W, with W built from the
  first ``steps`` coefficients by real eigendecompositions (time-symmetric
  splitting; Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).  Odd
  step counts need nothing special, because the middle step is itself
  symmetric.
* Fallback.  Every other pulse (complex Hs or K, an asymmetric envelope)
  takes the general complex product of all 2*steps factors.

The step count is validated, and the step-halving self-check made, in one
place (``_checked_period_unitary``) for every entry point.  The expansion
parameters tested elsewhere in this package never enter here: the propagator
integrates the lab-frame Hamiltonian directly, so it is an independent
oracle for them.

Delta pulses are applied as exact -i sigma rotations between integration
segments; free-evolution delays are exact exponentials of Hs.

``run_trace`` is the one place the stroboscopic observables are computed:
it applies U(T) period by period, buffers the states of _BLOCK periods and
reduces each block to the worst case over the initial qubit states
(fidelity, oscillator occupation, truncation leakage), so it keeps no
propagator power or state per period.
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
# CF4 exponentials per stacked eigendecomposition, and periods per reduced
# block of a trace: deep enough to amortise the Python overhead, shallow
# enough to keep peak memory flat
_BLOCK = 32
# relative tolerance of the symmetry and palindrome tests
_SYMMETRY_TOL = 1e-12


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
    """Piecewise control layout of one sequence period: pulse segments, each
    driving a single axis, and free-evolution delays."""

    shape: PulseShape
    segments: tuple
    period: float


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


def _diag_conj(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """S a S^dagger for the diagonal unitary S = diag(s)."""
    return s[:, None] * a * s.conj()


def _symmetries(hs: np.ndarray) -> list:
    """Diagonals of the identity and of every candidate S that is a symmetry
    of hs, |S hs S^dagger - hs| <= _SYMMETRY_TOL max(1, |hs|).

    The candidates are the parity R = sigma_z (x) (-1)^n and the excitation
    rotation V = exp(-i pi N / 2), N = sigma_z/2 (x) 1 + 1 (x) n, and
    V^dagger.  V is taken with the global phase that makes its entries
    powers of -i (N + 1/2 is an integer), so conjugating by it is exact; the
    phase cancels in S a S^dagger.
    """
    n = np.arange(hs.shape[0] // 2)
    parity = np.concatenate([(-1.0) ** n, -(-1.0) ** n])
    rot = np.array([1, -1j, -1, 1j])[np.concatenate([n + 1, n]) % 4]
    tol = _SYMMETRY_TOL * max(1.0, op_norm(hs))
    return [np.ones(hs.shape[0])] + [
        s for s in (parity, rot, rot.conj())
        if op_norm(_diag_conj(s, hs) - hs) <= tol]


def _cf4_product(hs: np.ndarray, k_op: np.ndarray, coef: np.ndarray,
                 h: float) -> np.ndarray:
    """Time-ordered product of exp(-i h (Hs/2 + c K)) over ``coef``."""
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


def _pulse_unitary(hs: np.ndarray, k_op: np.ndarray, shape: PulseShape,
                   steps: int) -> np.ndarray:
    if not is_hermitian(hs):
        raise ValueError("pulse propagation requires a Hermitian system "
                         "Hamiltonian")
    h = shape.taup / steps
    t0 = np.arange(steps)[:, None] * h
    amp = amplitude(shape, t0 + np.array([_GL_NODE_1, _GL_NODE_2]) * h)
    # CF4 factor coefficients in time order: step k applies
    # exp(-i h (Hs/2 + c_2k K)) first, then exp(-i h (Hs/2 + c_2k+1 K))
    coef = (amp @ np.array([[_CF4_W1, _CF4_W2], [_CF4_W2, _CF4_W1]])).ravel()
    if (not hs.imag.any() and not k_op.imag.any()
            and np.abs(coef - coef[::-1]).max()
            <= _SYMMETRY_TOL * np.abs(coef).max()):
        # real symmetric generators make every factor a complex symmetric
        # matrix, and the palindromic coefficients make the second half of
        # the product the transpose of the first half W
        w = _cf4_product(hs.real, k_op.real, coef[:steps], h)
        return w.T @ w
    return _cf4_product(hs, k_op, coef, h)


def _symmetric_pulse(hs: np.ndarray, k_op: np.ndarray, syms: list,
                     pulses: list, shape: PulseShape,
                     steps: int) -> np.ndarray:
    """Pulse unitary of the control operator K'.

    It is S U S^dagger of an integrated pulse (K, U) when a symmetry S in
    ``syms`` (diagonals, the identity first) maps K to K'.  Otherwise the
    first orbit member S^dagger K' S with real generators, or K' itself if
    there is none, is integrated and appended to ``pulses``.
    """
    for k, u in pulses:
        for s in syms:
            if op_norm(_diag_conj(s, k) - k_op) <= _SYMMETRY_TOL:
                return _diag_conj(s, u)
    members = [(s, _diag_conj(s.conj(), k_op)) for s in syms]
    real = [m for m in members if not (hs.imag.any() or m[1].imag.any())]
    s, k = (real or members)[0]
    u = _pulse_unitary(hs, k, shape, steps)
    pulses.append((k, u))
    return _diag_conj(s, u)


def _period_unitary(couplings: CouplingSet, schedule: ControlSchedule,
                    steps: int) -> np.ndarray:
    hs = assemble(couplings)
    d = couplings.dim
    dim = 2 * d
    syms = _symmetries(hs)
    pulses = []     # (K, U) of every pulse unitary integrated so far
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
                k_op = kron(seg.sign * PAULI[seg.axis] / 2,
                            np.eye(d, dtype=complex))
                cache[key] = _symmetric_pulse(hs, k_op, syms, pulses,
                                              schedule.shape, steps)
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
    """Stroboscopic record over n periods, reduced over the initial states.

    times[k] = k * period; fidelity_min[k] is the smallest <psi| rho_q |psi>
    over the initial qubit states psi (rho_q the oscillator-traced state at
    times[k]), n_mean_max[k] the largest oscillator occupation <b'b> and
    leakage_max[k] the largest population of the top two oscillator levels.
    """

    times: np.ndarray
    fidelity_min: np.ndarray
    n_mean_max: np.ndarray
    leakage_max: np.ndarray
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
    periodic, so U(nT) = [U(T)]^n).  The states of _BLOCK consecutive
    periods are buffered and reduced together to the worst case over the
    initial states, so memory does not grow with n_periods beyond the three
    output columns.  Emits a warning when the top two oscillator levels
    accumulate more than ``leak_threshold`` population.
    """
    if n_periods < 0:
        raise ValueError("n_periods must be >= 0")
    d = couplings.dim
    if not (0 <= oscillator_level < d):
        raise ValueError("oscillator_level outside the truncated space")
    qs = np.asarray(initial_states, dtype=complex)
    if qs.ndim != 2 or qs.shape[1] != 2:
        raise ValueError("initial_states must be a list of qubit 2-vectors")
    if len(qs) == 0:
        raise ValueError("initial_states is empty")
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
    fmin = np.empty(n_periods + 1)
    nmax = np.empty(n_periods + 1)
    lmax = np.empty(n_periods + 1)
    nvec = np.arange(d, dtype=float)
    buf = np.empty((_BLOCK, ns, dim), dtype=complex)

    cur = psi
    u_power = np.eye(dim, dtype=complex)
    for k in range(n_periods + 1):
        if k:
            cur = cur @ u.T
            u_power = u @ u_power
        j = k % _BLOCK
        buf[j] = cur
        if j < _BLOCK - 1 and k < n_periods:
            continue
        # periods k - j .. k: rho_q, <psi|rho_q|psi>, <n> and the top-two
        # population of every initial state, then the worst case over them
        block = slice(k - j, k + 1)
        m = buf[:j + 1].reshape(j + 1, ns, 2, d)
        rho_q = np.einsum("ksin,ksjn->ksij", m, m.conj())
        f = np.einsum("si,ksij,sj->ks", qs.conj(), rho_q, qs).real
        fmin[block] = f.min(axis=1)
        w = np.abs(m) ** 2
        nmax[block] = np.einsum("ksin,n->ks", w, nvec).max(axis=1)
        lmax[block] = w[..., max(0, d - 2):].sum(axis=(2, 3)).max(axis=1)

    drift = op_norm(u_power @ u_power.conj().T - np.eye(dim))
    max_leak = float(lmax.max())
    if max_leak > leak_threshold:
        warnings.warn(
            f"oscillator truncation leakage {max_leak:.2e} exceeds "
            f"{leak_threshold:g}; rerun with n_max >= {d + 3}",
            RuntimeWarning, stacklevel=2)

    return EvolutionTrace(times=times, fidelity_min=fmin, n_mean_max=nmax,
                          leakage_max=lmax, halving_diff=halving,
                          unitarity_drift=drift)
