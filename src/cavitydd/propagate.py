"""High-accuracy time-ordered propagation of H(t) = Hc(t) + Hs over pulse
sequences, with stroboscopic sampling at period boundaries.

The integrator is the 4th-order commutator-free Magnus scheme (Alvermann &
Fehske, J. Comput. Phys. 230, 5930 (2011)): per step of size h, with H
evaluated at the two Gauss-Legendre nodes t + (1/2 -+ sqrt(3)/6) h,

    U_step = exp(-i h (w2 H1 + w1 H2)) exp(-i h (w1 H1 + w2 H2)),
    w1 = 1/4 + sqrt(3)/6,  w2 = 1/4 - sqrt(3)/6,

each factor an exact Hermitian exponential.  Within a pulse H = Hs + V(t) K
with K = sign * sigma_axis/2 (x) 1, and w1 + w2 = 1/2, so every factor's
generator is Hs/2 + c K with a real coefficient c; one vectorised envelope
evaluation gives all 2*steps of them.  The factor exp(-i h (Hs/2 + c K)) has
|d^n/dc^n| <= (h |K|)^n, so its Chebyshev interpolant in c at n nodes on
[c_min, c_max] errs by at most 2 a^n / n!, a = h |K| (c_max - c_min) / 4.
The fewest nodes with that <= _INTERP_TOL (7 for the figure shapes) get exact
factors from one stacked eigendecomposition, and every factor is their
Lagrange combination; when the bound asks for a node per factor, the
distinct coefficients are the nodes and the factors exact.  The Lagrange
weights of a pulse are formed once, and each block of factors is one real
matrix product of its weights with the (re, im) view of the exact factors.
A block is the longest power of two of factors, never fewer than _BLOCK,
that holds at most _BLOCK_ENTRIES matrix entries (1024 factors at dim 4, 256
at dim 8, 64 at dim 16, _BLOCK from dim 18 on, as in the figures), so that a
small pulse is one pairwise tree product.
One Newton-Schulz step U (3 - U^dagger U) / 2 ends the product, taking its
accumulated roundoff off unitarity.
Hs is Hermitian because ``CouplingSet`` validates its operators where they
are built; K is Hermitian by construction, so each generator is too.

Exact symmetries cut the pulses that are integrated at all:

* Symmetry tests.  Once per period unitary, two diagonal candidates are
  tested against the assembled Hs and kept when |S Hs S^dagger - Hs|_F <=
  1e-12 max(1, |Hs|): the parity R = sigma_z (x) (-1)^n and the excitation
  rotation V = exp(-i pi N/2), N = sigma_z/2 (x) 1 + 1 (x) n, with V^dagger.
  The Frobenius norm bounds the spectral one, so no symmetry that a
  spectral test would drop is kept, and the scale |Hs| is the one SVD.
  The Jaynes-Cummings Hs keeps all three; a counter-rotating term keeps R
  alone; generic couplings keep none.
* Pulse reuse.  A pulse K' takes S U S^dagger from an integrated pulse
  (K, U) when a kept S gives |S K S^dagger - K'|_F <= 1e-12.  Nothing is
  assumed per axis: R K_x R = -K_x and V K_x V^dagger = K_y, but
  R K_z R = +K_z, so -z is no partner of +z.
* Which pulse to integrate.  Otherwise the orbit member S^dagger K' S with
  real generators is integrated (x before y), so on the Jaynes-Cummings
  model all of +-x and +-y come from one +x pulse per step count.
* Real half-product.  When Hs and K are real, each factor is a complex
  symmetric matrix; every ``PulseShape`` is even about t = 1/2, so the CF4
  coefficient list is a palindrome and the second half of the product is
  the transpose of the first half W: U = W^T W, with W built from the
  first ``steps`` coefficients by a real eigendecomposition of its nodes
  and the Newton-Schulz step (time-symmetric splitting; Blanes, Casas,
  Oteo & Ros, Phys. Rep. 470, 151 (2009)); real combinations of the node
  factors stay complex symmetric.  Odd step counts need nothing special,
  because the middle step is itself symmetric.
* Fallback.  Every other pulse (complex Hs or K) takes the general complex
  product of all 2*steps factors.

The step count (>= 32) is validated, and the step-halving check made, in
``_checked_period_unitary``, which every entry point passes and no schedule
skips; for an exact delta-pulse schedule both products are the same
operations and the difference is exactly 0.0.  The expansion
parameters tested elsewhere in this package never enter here: the propagator
integrates the lab-frame Hamiltonian directly, so it is an independent
oracle for them.

The schedule of one period (``ControlSchedule``, from
``sequences.build_schedule``) is the sequence's elements with the shape and
the period.  Delta pulses are applied as exact -i sigma rotations between
integration segments; free-evolution delays are exact exponentials of Hs.

``run_trace`` is the one place the stroboscopic observables are computed.
Every initial state is q (x) |level>, so U^k psi = q_0 U^k e_0 + q_1 U^k e_1
with e_a = |a> (x) |level>: only these two columns are evolved.  The powers
U^0 .. U^(_BLOCK-1) are built once, and each block of _BLOCK periods is one
stacked product with U^k0 e_a, after which U^k0 advances by U^_BLOCK.  Per
period three Gram tensors of the two evolved columns, summed over the
oscillator levels with weights 1, n and the top two levels, are contracted
with state tensors built once, giving the fidelity, <n> and leakage of every
initial state, then the worst case over them.  The cost per period does not
grow with the number of states, and no power or state is kept per period.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import CouplingSet, PAULI, assemble, expm_herm, kron, op_norm
from .errors import ConvergenceError
from .sequences import ControlSchedule, Delay
from .shapes import PulseShape, amplitude

# Gauss-Legendre nodes (offsets in units of the step) and the CF4 weights
_GL_NODE_1 = 0.5 - np.sqrt(3) / 6
_GL_NODE_2 = 0.5 + np.sqrt(3) / 6
_CF4_W1 = 0.25 + np.sqrt(3) / 6
_CF4_W2 = 0.25 - np.sqrt(3) / 6

MIN_STEPS_PER_PULSE = 32
SELF_CHECK_TOL = 1e-8
LEAK_THRESHOLD = 1e-6
# the fewest CF4 factors formed and multiplied at a time, and periods per
# reduced block of a trace: deep enough to amortise the Python overhead,
# shallow enough to keep peak memory flat
_BLOCK = 32
# most matrix entries in a block of CF4 factors longer than _BLOCK: at small
# dimensions a pulse's factors are formed and multiplied in fewer, longer
# blocks
_BLOCK_ENTRIES = 1 << 14
# tolerance of the symmetry tests (relative to |Hs|) and of pulse reuse
_SYMMETRY_TOL = 1e-12
# interpolation error bound of one CF4 factor
_INTERP_TOL = 1e-17


def _diag_conj(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """S a S^dagger for the diagonal unitary S = diag(s)."""
    return s[:, None] * a * s.conj()


def _symmetries(hs: np.ndarray) -> list:
    """Diagonals of the identity and of every candidate S that is a symmetry
    of hs, |S hs S^dagger - hs|_F <= _SYMMETRY_TOL max(1, |hs|_2).

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
        if np.linalg.norm(_diag_conj(s, hs) - hs) <= tol]


def _block_length(dim: int) -> int:
    """CF4 factors per block at this dimension: the longest power of two,
    never fewer than _BLOCK, whose block holds at most _BLOCK_ENTRIES
    entries."""
    block = _BLOCK
    while 2 * block * dim * dim <= _BLOCK_ENTRIES:
        block *= 2
    return block


def _cf4_product(hs: np.ndarray, k_op: np.ndarray, coef: np.ndarray,
                 h: float) -> np.ndarray:
    """Time-ordered product of exp(-i h (Hs/2 + c K)) over ``coef``, each
    factor interpolated in c (see the module docstring)."""
    lo, hi = coef.min(), coef.max()
    a = h * op_norm(k_op) * (hi - lo) / 4
    n, err = 1, 2 * a
    while err > _INTERP_TOL and n < coef.size:
        n += 1
        err *= a / n
    if n < coef.size:
        nodes = (lo + hi) / 2 + (hi - lo) / 2 * np.cos(
            (2 * np.arange(n) + 1) * np.pi / (2 * n))
    else:
        nodes = np.unique(coef)
    dim = hs.shape[0]
    w, v = np.linalg.eigh(0.5 * hs + nodes[:, None, None] * k_op)
    # the exact factors as rows of (re, im) pairs, so that a block's factors
    # are one real product of their Lagrange weights with these rows
    exact = ((v * np.exp(-1j * h * w)[:, None, :])
             @ v.conj().transpose(0, 2, 1)).reshape(len(nodes), -1).view(float)
    # Lagrange weights prod_{m != j} (c - x_m) / (x_j - x_m) of the whole
    # pulse, multiplied in ratio by ratio, so that they are exactly 1 and 0
    # at a node
    gaps = nodes[:, None] - nodes
    np.fill_diagonal(gaps, 1.0)
    weights = np.ones((coef.size, len(nodes)))
    for m, x in enumerate(nodes):
        ratio = (coef[:, None] - x) / gaps[:, m]
        ratio[:, m] = 1.0
        weights *= ratio
    block = _block_length(dim)
    u = np.eye(dim, dtype=complex)
    for b in range(0, coef.size, block):
        f = (weights[b:b + block] @ exact).view(complex).reshape(-1, dim, dim)
        # pairwise tree product, later factors on the left
        while len(f) > 1:
            paired = f[1::2] @ f[:-1:2]
            f = np.concatenate([paired, f[-1:]]) if len(f) % 2 else paired
        u = f[0] @ u
    return u @ (3 * np.eye(dim) - u.conj().T @ u) / 2


def _pulse_unitary(hs: np.ndarray, k_op: np.ndarray, shape: PulseShape,
                   steps: int) -> np.ndarray:
    h = 1 / steps
    t0 = np.arange(steps)[:, None] * h
    amp = amplitude(shape, t0 + np.array([_GL_NODE_1, _GL_NODE_2]) * h)
    # CF4 factor coefficients in time order: step k applies
    # exp(-i h (Hs/2 + c_2k K)) first, then exp(-i h (Hs/2 + c_2k+1 K))
    coef = (amp @ np.array([[_CF4_W1, _CF4_W2], [_CF4_W2, _CF4_W1]])).ravel()
    if not hs.imag.any() and not k_op.imag.any():
        # real symmetric generators make every factor a complex symmetric
        # matrix, and the palindromic coefficients of an even envelope make
        # the second half of the product the transpose of the first half W
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
            if np.linalg.norm(_diag_conj(s, k) - k_op) <= _SYMMETRY_TOL:
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
    shape = schedule.shape
    eye = np.eye(couplings.dim, dtype=complex)
    syms = _symmetries(hs)
    pulses = []     # (K, U) of every pulse unitary integrated so far
    u = np.eye(2 * couplings.dim, dtype=complex)
    cache: dict = {}    # one unitary per distinct element
    for e in schedule.elements:
        if e not in cache:
            if isinstance(e, Delay):
                cache[e] = expm_herm(hs, e.duration)
            elif shape.is_delta:
                cache[e] = kron(-1j * e.sign * PAULI[e.axis], eye)
            else:
                k_op = kron(e.sign * PAULI[e.axis] / 2, eye)
                cache[e] = _symmetric_pulse(hs, k_op, syms, pulses, shape,
                                            steps)
        u = cache[e] @ u
    return u


def _checked_period_unitary(couplings: CouplingSet, schedule: ControlSchedule,
                            steps_per_pulse: int):
    """(U(T), |U(steps) - U(steps/2)|): the one step-count validation and
    step-halving check behind every entry point.

    The difference is exactly 0.0 for the exact delta-pulse schedules;
    above SELF_CHECK_TOL a ConvergenceError asks for more steps.
    """
    if steps_per_pulse < MIN_STEPS_PER_PULSE:
        raise ValueError(f"steps_per_pulse must be >= {MIN_STEPS_PER_PULSE}")
    u = _period_unitary(couplings, schedule, steps_per_pulse)
    halving = op_norm(u - _period_unitary(couplings, schedule,
                                          steps_per_pulse // 2))
    if halving > SELF_CHECK_TOL:
        raise ConvergenceError(
            f"step-halving check failed: |U - U_half| = {halving:.3e} > "
            f"{SELF_CHECK_TOL:g}; increase steps_per_pulse")
    return u, halving


def propagate_period(couplings: CouplingSet, schedule: ControlSchedule,
                     steps_per_pulse: int = 256) -> np.ndarray:
    """One-period propagator U(T).

    The integration is repeated at half the step count and the two answers
    must agree to SELF_CHECK_TOL (Richardson check); otherwise a
    ConvergenceError asks for more steps.  For the exact delta-pulse
    schedules the two answers are the same, and the check passes.
    """
    return _checked_period_unitary(couplings, schedule, steps_per_pulse)[0]


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


def run_trace(couplings: CouplingSet, schedule: ControlSchedule,
              n_periods: int, initial_states, oscillator_level: int = 0,
              steps_per_pulse: int = 256) -> EvolutionTrace:
    """Propagate initial product states |psi_q> (x) |k_osc> stroboscopically.

    The one-period propagator is computed once and reused (the schedule is
    periodic, so U(nT) = [U(T)]^n).  Only the two columns U^k e_a,
    e_a = |a> (x) |k_osc>, are evolved: a block of _BLOCK periods is the
    stacked product of the precomputed U^0 .. U^(_BLOCK-1) with U^k0 e_a.
    Their Gram tensors, contracted with per-state tensors built once, give
    every initial state's fidelity, occupation and top-two-level population,
    reduced to the worst case over the states; memory does not grow with
    n_periods beyond the output columns, which are allocated before U(T) is
    built.  Emits a warning when the top two oscillator levels accumulate
    more than LEAK_THRESHOLD population.
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
    # every entry of a normalized state has |q| <= 1: tested before the
    # norm, which warns on an infinite or huge entry, and failed by NaN
    if not (np.all(np.abs(qs) <= 1 + 1e-10)
            and np.all(np.abs(np.linalg.norm(qs, axis=1) - 1) <= 1e-10)):
        raise ValueError("initial qubit states must be finite and "
                         "normalized")

    # allocated before U(T) is built, so that an n_periods too large for
    # memory fails at once
    fmin = np.empty(n_periods + 1)
    nmax = np.empty(n_periods + 1)
    lmax = np.empty(n_periods + 1)
    times = np.arange(n_periods + 1) * schedule.period

    u, halving = _checked_period_unitary(couplings, schedule, steps_per_pulse)

    dim = 2 * d
    # U^0 .. U^(_BLOCK-1), and U^_BLOCK to advance a block
    powers = np.empty((_BLOCK, dim, dim), dtype=complex)
    powers[0] = np.eye(dim)
    for j in range(1, _BLOCK):
        powers[j] = u @ powers[j - 1]
    u_block = u @ powers[-1]

    # the columns e_0, e_1, and the state tensors on the Gram index
    # ((i, a), (j, b)): q4[s] = q_si* q_sa q_sb* q_sj for the fidelity and
    # q2[s] = delta_ij q_sa q_sb* for the occupation and leakage
    cols = [oscillator_level, d + oscillator_level]
    q4 = np.einsum("si,sa,sb,sj->siajb", qs.conj(), qs, qs.conj(),
                   qs).reshape(len(qs), 16)
    q2 = np.einsum("ij,sa,sb->siajb", np.eye(2), qs,
                   qs.conj()).reshape(len(qs), 16)
    # level weights of the three Gram tensors: 1, n, and the top two levels
    weights = np.stack([np.ones(d), np.arange(d),
                        np.arange(d) >= max(0, d - 2)])

    u_power = np.eye(dim, dtype=complex)    # U^k0 at the block start k0
    for k0 in range(0, n_periods + 1, _BLOCK):
        nb = min(_BLOCK, n_periods + 1 - k0)
        # phi[m, (i, a), n] = <i, n| U^(k0+m) |e_a>
        phi = (powers[:nb].reshape(nb * dim, dim) @ u_power[:, cols]
               ).reshape(nb, 2, d, 2)
        phi = phi.transpose(0, 1, 3, 2).reshape(nb, 4, d)
        # g[m, w, (i, a), (j, b)] = sum_n weights[w, n] phi[m, (i, a), n]
        #                                  phi[m, (j, b), n]*
        g = ((phi[:, None] * weights[:, None]).reshape(nb, 12, d)
             @ phi.conj().transpose(0, 2, 1)).reshape(nb, 3, 16)
        block = slice(k0, k0 + nb)
        fmin[block] = (g[:, 0] @ q4.T).real.min(axis=1)
        nl = (g[:, 1:].reshape(2 * nb, 16) @ q2.T).real.reshape(nb, 2, -1)
        nmax[block], lmax[block] = nl.max(axis=2).T
        last = k0 + nb > n_periods
        u_power = (powers[nb - 1] if last else u_block) @ u_power

    drift = op_norm(u_power @ u_power.conj().T - np.eye(dim))
    max_leak = float(lmax.max())
    if max_leak > LEAK_THRESHOLD:
        warnings.warn(
            f"oscillator truncation leakage {max_leak:.2e} exceeds "
            f"{LEAK_THRESHOLD:g}; rerun with n_max >= {d + 3}",
            RuntimeWarning, stacklevel=2)

    return EvolutionTrace(times=times, fidelity_min=fmin, n_mean_max=nmax,
                          leakage_max=lmax, halving_diff=halving,
                          unitarity_drift=drift)
