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
evaluation gives the first ``steps`` of them (see "Mirror" below).  The
factor exp(-i h (Hs/2 + c K)) has |d^n/dc^n| <= (h |K|)^n, so its Chebyshev
interpolant in c at n nodes on [c_min, c_max] errs by at most 2 a^n / n!,
a = h |K| (c_max - c_min) / 4.
The fewest nodes with that <= _INTERP_TOL (7 for the figure shapes) get exact
factors from one stacked eigendecomposition, and every factor is their
Lagrange combination; when the bound asks for a node per factor, the
distinct coefficients are the nodes and the factors exact.  Every K is
+-sigma_axis/2 (x) 1 or its image under a diagonal unitary, so |K| = 1/2,
and the pulse area, the nodes and the Lagrange weights do not depend on
Hs: they are formed once per (shape, step count) and kept, read-only, in
one bounded cache (``_interpolation``), so that every pulse, real or
complex, every oscillator dimension and every coupling scale of an order
check share them.  The pulse unitary itself is kept too, read-only, in a
second bounded cache (``_integrated_pulse``, 64 entries, at most 1 MB at
dim 18) keyed by the exact bytes of Hs and K as complex128, the dimension,
the shape and the step count: a hit needs byte-equal operators and returns
bitwise the product a fresh integration gives.  A ``figures`` benchmark
pass forms the interpolation data 4 times and integrates 4 pulses for its
12 pulse unitaries (figs 1, 3 and 5 share the G10 +x pulse, figs 2, 4 and
6 the S1 one); a ``verify`` pass forms the data 4 times and integrates 50
pulses for its 62 (12 cache hits), and the one ``longrun`` pair twice for
2.  Each block of factors is one real matrix product of its weights with
the (re, im) view of the exact factors.
A block is the longest power of two of factors, never fewer than _BLOCK,
that holds at most _BLOCK_ENTRIES matrix entries (1024 factors at dim 4, 256
at dim 8, 64 at dim 16, _BLOCK from dim 18 on, as in the figures), so that a
small pulse is one pairwise tree product.
One Newton-Schulz step U (3 - U^dagger U) / 2 ends each product of factors,
taking its accumulated roundoff off unitarity.
Hs is Hermitian because ``CouplingSet`` validates its operators where they
are built; K is Hermitian by construction, so each generator is too.

Exact symmetries cut the pulses that are integrated at all:

* Symmetry tests.  Once per checked pair of period unitaries, two
  diagonal candidates are tested against the assembled Hs and kept when
  |S Hs S^dagger - Hs|_F <= 1e-12 max(1, |Hs|): the parity
  R = sigma_z (x) (-1)^n and the excitation rotation V = exp(-i pi N/2),
  N = sigma_z/2 (x) 1 + 1 (x) n, with V^dagger.
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
* Mirror.  Every ``PulseShape`` is even about t = 1/2, so the CF4
  coefficient list is a palindrome: the first ``steps`` factors make W, and
  the mirror W~ multiplies the same exact node factors over the weight rows
  in reverse order, U = W~ W (time-symmetric splitting; Blanes, Casas,
  Oteo & Ros, Phys. Rep. 470, 151 (2009)).  When Hs and K are real, the
  one eigendecomposition is real and every factor complex symmetric, so
  W~ = W^T.  Odd step counts need nothing special, because the middle step
  is itself symmetric.

The step count (>= 32) is validated, and the step-halving check made, in
``_checked_period_unitary``, which every entry point passes and no schedule
skips.  CF4 errs as h^4, so |U(steps) - U(steps/2)| is about 15 times the
error of U(steps): the printed halving difference bounds the error of U(T),
it does not estimate it (on figs 1-6, |U(256) - U(128)| is 14.0-15.0 times
|U(256) - U(2048)|, which is 1.9e-12 to 2.6e-12).  The check holds only if
both step counts resolve the pulse: an envelope narrower than the step grid
falls between the Gauss-Legendre nodes, both products then integrate no
pulse and agree, so a pulse whose two-point Gauss-Legendre area misses pi
by more than the tolerance plus twice its change between the two counts is
refused first (a resolved pulse's area error at the coarse count is about
that change).  The two unitaries come from one pass
(``_period_unitaries``): Hs, the symmetry tests, the orbit matching and the
delay exponentials are formed once, and each integrated pulse is integrated
at ``steps`` and ``steps // 2``.  For an exact delta-pulse schedule both
products are the same operations and the difference is exactly 0.0.  A
schedule with an element whose roundoff eps |Hs| t (t = 1 for a soft pulse,
d for a delay) exceeds SELF_CHECK_TOL is refused with a ConvergenceError
before any pulse is integrated: its roundoff alone exceeds what the check
certifies.  The expansion parameters tested elsewhere in this package
never enter here: the propagator integrates the lab-frame Hamiltonian
directly, so it is an independent oracle for them.

The schedule of one period (``ControlSchedule``, from
``sequences.build_schedule``) is the sequence's elements with the shape and
the period.  Delta pulses are applied as exact -i sigma rotations between
integration segments; free-evolution delays are exact exponentials of Hs.

``run_trace`` is the one place the stroboscopic observables are computed.
Every initial state is q (x) |level>, so U^k psi = q_0 U^k e_0 + q_1 U^k e_1
with e_a = |a> (x) |level>: only these two columns are evolved.  The powers
U^0 .. U^(_BLOCK-1) are built once, and U^k0 advances by U^_BLOCK from one
block of _BLOCK periods to the next.  The columns of the _CHUNK periods of
a few blocks are one stacked product of the powers with the U^k0 e_a of
their blocks, written into buffers sized once per call.  Complex multiplies
with their conjugates give per level the 16 real numbers of the Gram
entries x_p x_q* of the column components x_p, p = (i, a), one real product
with the level weights 1, n and the top two levels sums them into three Gram
tensors, and real products with per-state tables built once give the
fidelity, <n> and leakage of every initial state, then the worst case over
them.  The population tensor delta_ij q_a q_b* is the same on both qubit
blocks i, so its Grams are summed over the blocks first and contract 4
columns.  No power or state is kept per period.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import CouplingSet, PAULI, assemble, expm_herm, kron, op_norm
from .errors import ConvergenceError
from .sequences import ControlSchedule, Delay
from .shapes import PulseShape, amplitude, shape_to_text

# Gauss-Legendre nodes (offsets in units of the step) and the CF4 weights
_GL_NODE_1 = 0.5 - np.sqrt(3) / 6
_GL_NODE_2 = 0.5 + np.sqrt(3) / 6
_CF4_W1 = 0.25 + np.sqrt(3) / 6
_CF4_W2 = 0.25 - np.sqrt(3) / 6

MIN_STEPS_PER_PULSE = 32
SELF_CHECK_TOL = 1e-8
LEAK_THRESHOLD = 1e-6
# the fewest CF4 factors formed and multiplied at a time, and periods per
# block of a trace, the powers U^0 .. U^(_BLOCK-1) that one U^k0 advances
_BLOCK = 32
# periods per reduced chunk of a trace, a few blocks: deep enough to
# amortise the per-call overhead of the reductions, small enough that the
# chunk buffers (at most 0.7 MB at dim 18) add little to peak memory
_CHUNK = 8 * _BLOCK
# most matrix entries in a block of CF4 factors longer than _BLOCK: at small
# dimensions a pulse's factors are formed and multiplied in fewer, longer
# blocks
_BLOCK_ENTRIES = 1 << 14
# tolerance of the symmetry tests (relative to |Hs|) and of pulse reuse
_SYMMETRY_TOL = 1e-12
# interpolation error bound of one CF4 factor
_INTERP_TOL = 1e-17
# |K| of every control operator (see _interpolation)
_K_NORM = 0.5


def _diag_conj(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """S a S^dagger for the diagonal unitary S = diag(s)."""
    return s[:, None] * a * s.conj()


def _symmetries(hs: np.ndarray, scale: float) -> list:
    """Diagonals of the identity and of every candidate S that is a symmetry
    of hs, |S hs S^dagger - hs|_F <= _SYMMETRY_TOL max(1, scale), with
    scale = |hs|_2.

    The candidates are the parity R = sigma_z (x) (-1)^n and the excitation
    rotation V = exp(-i pi N / 2), N = sigma_z/2 (x) 1 + 1 (x) n, and
    V^dagger.  V is taken with the global phase that makes its entries
    powers of -i (N + 1/2 is an integer), so conjugating by it is exact; the
    phase cancels in S a S^dagger.
    """
    n = np.arange(hs.shape[0] // 2)
    parity = np.concatenate([(-1.0) ** n, -(-1.0) ** n])
    rot = np.array([1, -1j, -1, 1j])[np.concatenate([n + 1, n]) % 4]
    tol = _SYMMETRY_TOL * max(1.0, scale)
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


@lru_cache(maxsize=16)
def _interpolation(shape: PulseShape, steps: int):
    """(area, nodes, weights), read-only: a pulse's two-point Gauss-Legendre
    area, and the interpolation nodes in c and Lagrange weights of its first
    ``steps`` CF4 factors, whose coefficients come from one envelope
    evaluation of (steps + 1) // 2 steps: step k applies
    exp(-i h (Hs/2 + c_2k K)) first, then exp(-i h (Hs/2 + c_2k+1 K)).
    The node count assumes |K| = _K_NORM, as every K the propagator
    integrates is +-sigma/2 (x) 1 under a diagonal unitary, so every pulse,
    coupling scale and dimension shares the data (see the module docstring).
    """
    h = 1 / steps
    t0 = np.arange((steps + 1) // 2)[:, None] * h
    amp = amplitude(shape, t0 + np.array([_GL_NODE_1, _GL_NODE_2]) * h)
    coef = (amp @ np.array([[_CF4_W1, _CF4_W2],
                            [_CF4_W2, _CF4_W1]])).ravel()[:steps]
    # a step's two coefficients sum to half its two amplitudes, and the
    # middle step of an odd count is symmetric
    area = 2 / steps * coef.sum()
    lo, hi = coef.min(), coef.max()
    # a Python float, whose a^n / n! overflows to inf without a warning
    a = float(h * _K_NORM * (hi - lo) / 4)
    n, err = 1, 2 * a
    while err > _INTERP_TOL and n < steps:
        n += 1
        err *= a / n
    if n < steps:
        nodes = (lo + hi) / 2 + (hi - lo) / 2 * np.cos(
            (2 * np.arange(n) + 1) * np.pi / (2 * n))
        # Lagrange weights prod_{m != j} (c - x_m) / (x_j - x_m) of every
        # factor, multiplied in ratio by ratio, so that they are exactly 1
        # and 0 at a node
        gaps = nodes[:, None] - nodes
        np.fill_diagonal(gaps, 1.0)
        weights = np.ones((steps, n))
        for m, x in enumerate(nodes):
            ratio = (coef[:, None] - x) / gaps[:, m]
            ratio[:, m] = 1.0
            weights *= ratio
    else:
        # every factor is its node's; the ratios of clustered nodes would
        # overflow
        nodes = np.unique(coef)
        weights = (coef[:, None] == nodes).astype(float)
    nodes.flags.writeable = weights.flags.writeable = False
    return area, nodes, weights


def _cf4_product(exact: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Time-ordered product, first row first, of the factors whose Lagrange
    weights are the rows of ``weights``, from the ``exact`` node factors."""
    dim = exact.shape[-1]
    # the exact factors as rows of (re, im) pairs, so that a block's factors
    # are one real product of their Lagrange weights with these rows
    rows = exact.reshape(len(exact), -1).view(float)
    block = _block_length(dim)
    u = np.eye(dim, dtype=complex)
    for b in range(0, len(weights), block):
        f = (weights[b:b + block] @ rows).view(complex).reshape(-1, dim, dim)
        # pairwise tree product, later factors on the left
        while len(f) > 1:
            paired = f[1::2] @ f[:-1:2]
            f = np.concatenate([paired, f[-1:]]) if len(f) % 2 else paired
        u = f[0] @ u
    return u @ (3 * np.eye(dim) - u.conj().T @ u) / 2


def _pulse_unitary(hs: np.ndarray, k_op: np.ndarray, shape: PulseShape,
                   steps: int) -> np.ndarray:
    """The CF4 unitary of one pulse, read-only, kept by the exact bytes of
    Hs and K as complex128 (see ``_integrated_pulse``)."""
    hs = np.asarray(hs, dtype=complex)
    return _integrated_pulse(hs.tobytes(),
                             np.asarray(k_op, dtype=complex).tobytes(),
                             hs.shape[0], shape, steps)


@lru_cache(maxsize=64)
def _integrated_pulse(hs_bytes: bytes, k_bytes: bytes, dim: int,
                      shape: PulseShape, steps: int) -> np.ndarray:
    """The pulse unitary of the (dim, dim) complex128 Hs and K given by
    their bytes.  A hit needs byte-equal inputs, so it returns bitwise the
    product a fresh integration gives; an entry holds three dim^2 complex
    arrays (15 KB at dim 18)."""
    hs = np.frombuffer(hs_bytes, dtype=complex).reshape(dim, dim)
    k_op = np.frombuffer(k_bytes, dtype=complex).reshape(dim, dim)
    real = not hs.imag.any() and not k_op.imag.any()
    if real:
        hs, k_op = hs.real, k_op.real
    h = 1 / steps
    _, nodes, weights = _interpolation(shape, steps)
    w, v = np.linalg.eigh(0.5 * hs + nodes[:, None, None] * k_op)
    exact = (v * np.exp(-1j * h * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    u = _cf4_product(exact, weights)
    # the second half mirrors the first; with real generators every factor
    # is complex symmetric and the mirror is W^T
    u = (u.T if real else _cf4_product(exact, weights[::-1])) @ u
    u.flags.writeable = False
    return u


def _symmetric_pulse(hs: np.ndarray, k_op: np.ndarray, syms: list,
                     pulses: list, shape: PulseShape, counts) -> list:
    """Unitaries of the pulse with control operator K', one per step count
    of ``counts``.

    They are S U S^dagger of an integrated pulse (K, U) when a symmetry S
    in ``syms`` (diagonals, the identity first) maps K to K'.  Otherwise
    the first orbit member S^dagger K' S with real generators, or K' itself
    if there is none, is integrated at every count and appended to
    ``pulses``.
    """
    for k, us in pulses:
        for s in syms:
            if np.linalg.norm(_diag_conj(s, k) - k_op) <= _SYMMETRY_TOL:
                return [_diag_conj(s, u) for u in us]
    members = [(s, _diag_conj(s.conj(), k_op)) for s in syms]
    real = [m for m in members if not (hs.imag.any() or m[1].imag.any())]
    s, k = (real or members)[0]
    us = [_pulse_unitary(hs, k, shape, n) for n in counts]
    pulses.append((k, us))
    return [_diag_conj(s, u) for u in us]


def _period_unitaries(couplings: CouplingSet, schedule: ControlSchedule,
                      counts) -> list:
    """U(T) at each step count of ``counts``, from one set-up: Hs, its
    symmetries, the orbit matching and the delay exponentials are formed
    once, and each integrated pulse is integrated at every count.

    An element whose roundoff eps |Hs| t exceeds SELF_CHECK_TOL, t = 1 for
    a soft pulse, 0 for a delta pulse and d for a delay d, is refused with
    a ConvergenceError.  Each exact CF4 factor is unitary only to about
    eps h |Hs|, so a pulse's roundoff alone can exceed the tolerance of the
    step-halving check, which could then not vouch for U(T); far above it
    the products overflow (max|u| 4e145 at |Hs| = 1.8e21 and 256 steps).
    Both step counts take the same exponential of a delay, so the check
    could not see its roundoff.
    """
    hs = assemble(couplings)
    scale = op_norm(hs)
    shape = schedule.shape
    # a Python float, whose product past the double range is inf, refused
    roundoff = float(np.finfo(float).eps * scale)
    for e in schedule.elements:
        t = e.duration if isinstance(e, Delay) else float(not shape.is_delta)
        if roundoff * t > SELF_CHECK_TOL:
            raise ConvergenceError(
                f"|Hs| = {scale:.3e} is too large for the step-halving check: "
                f"the roundoff eps |Hs| t = {roundoff * t:.3e} of "
                f"{e.label()} exceeds {SELF_CHECK_TOL:g}")
    eye = np.eye(couplings.dim, dtype=complex)
    syms = _symmetries(hs, scale)
    pulses = []     # (K, its unitaries) of every pulse integrated so far
    factors: dict = {}  # the unitaries of each distinct element
    us = [np.eye(2 * couplings.dim, dtype=complex) for _ in counts]
    for e in schedule.elements:
        if e not in factors:
            if isinstance(e, Delay):
                factors[e] = [expm_herm(hs, e.duration)] * len(counts)
            elif shape.is_delta:
                factors[e] = [kron(-1j * e.sign * PAULI[e.axis], eye)] \
                    * len(counts)
            else:
                k_op = kron(e.sign * PAULI[e.axis] / 2, eye)
                factors[e] = _symmetric_pulse(hs, k_op, syms, pulses, shape,
                                              counts)
        us = [f @ u for f, u in zip(factors[e], us)]
    return us


def _checked_period_unitary(couplings: CouplingSet, schedule: ControlSchedule,
                            steps_per_pulse: int):
    """(U(T), |U(steps) - U(steps/2)|): the one step-count validation and
    step-halving check behind every entry point, both unitaries from one
    pass of ``_period_unitaries``.

    The difference is exactly 0.0 for the exact delta-pulse schedules;
    above SELF_CHECK_TOL a ConvergenceError asks for more steps.
    """
    if steps_per_pulse < MIN_STEPS_PER_PULSE:
        raise ValueError(f"steps_per_pulse must be >= {MIN_STEPS_PER_PULSE}")
    counts = (steps_per_pulse, steps_per_pulse // 2)
    shape = schedule.shape
    if not shape.is_delta and not all(isinstance(e, Delay)
                                      for e in schedule.elements):
        area = [_interpolation(shape, n)[0] for n in counts]
        if (max(abs(a - np.pi) for a in area)
                > SELF_CHECK_TOL + 2 * abs(area[0] - area[1])):
            raise ConvergenceError(
                f"the {shape_to_text(shape)} pulse has area {area[0]:.6g} "
                f"at {counts[0]} steps and {area[1]:.6g} at {counts[1]}, "
                "not pi, which the step-halving check cannot see: it is too "
                "narrow for the step grid; increase steps_per_pulse")
    u, u_half = _period_unitaries(couplings, schedule, counts)
    halving = op_norm(u - u_half)
    if halving > SELF_CHECK_TOL:
        raise ConvergenceError(
            f"step-halving check failed: |U - U_half| = {halving:.3e} > "
            f"{SELF_CHECK_TOL:g}; increase steps_per_pulse")
    return u, halving


def propagate_period(couplings: CouplingSet, schedule: ControlSchedule,
                     steps_per_pulse: int = 256) -> np.ndarray:
    """One-period propagator U(T).

    The integration is repeated at half the step count and the two answers
    must agree to SELF_CHECK_TOL, which bounds the error of U(T) about 15
    times over (see the module docstring); otherwise a ConvergenceError
    asks for more steps.  For the exact delta-pulse
    schedules the two answers are the same, and the check passes.
    """
    return _checked_period_unitary(couplings, schedule, steps_per_pulse)[0]


def _state_tables(qs: np.ndarray):
    """Real (S, 16) fidelity and (S, 4) population tables of the states q_s
    on the 16 Gram columns of the evolved x_ia: per qubit block i, |x_i0|^2,
    |x_i1|^2 and x_i0 x_i1*, then x_0a x_1b* for ab = 00, 01, 10, 11, each
    complex one as (Re, Im).  With w_ab = q_a q_b*, the fidelity tensor is
    |q_i|^2 w_ab on block i and q_1 q_0* w_ab on the cross pairs, and the
    population tensor w_ab on either block; a pair and its transpose add
    2 Re(g t), so its table is 2 t* as (Re, Im)."""
    w = qs[:, :, None] * qs.conj()[:, None, :]
    pop = np.concatenate([w[:, (0, 1), (0, 1)].real,
                          2 * w[:, 0, 1:].conj().view(float)], axis=1)
    cross = 2 * (w[:, 1, 0, None, None] * w).conj()
    fid = np.concatenate([pop * w[:, 0, :1].real, pop * w[:, 1, 1:].real,
                          cross.reshape(-1, 4).view(float)], axis=1)
    return fid, pop


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
    stacked product of the precomputed U^0 .. U^(_BLOCK-1) with U^k0 e_a,
    and the blocks of a chunk of _CHUNK periods are one such product.  The
    Gram entries of the columns, summed over the oscillator levels and
    contracted with per-state tables built once, give every initial state's
    fidelity, occupation and top-two-level population, reduced to the worst
    case over the states; the chunk buffers are sized once, for at most
    _CHUNK periods, so memory does not grow with n_periods beyond the output
    columns, which are allocated before U(T) is built.
    Emits a warning when the top two oscillator levels accumulate more than
    LEAK_THRESHOLD population, unless they are every level (d <= 2).
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
    # U^0 .. U^(_BLOCK-1) on (row, m, column), and U^_BLOCK to advance a
    # block
    powers = np.empty((dim, _BLOCK, dim), dtype=complex)
    powers[:, 0] = np.eye(dim)
    for j in range(1, _BLOCK):
        powers[:, j] = u @ powers[:, j - 1]
    u_block = u @ powers[:, -1]

    fid_table, pop_table = _state_tables(qs)
    # level weights of the three Gram tensors: 1, n, and the top two levels
    weights = np.stack([np.ones(d), np.arange(d),
                        np.arange(d) >= max(0, d - 2)])
    stacked = powers.reshape(dim * _BLOCK, dim)
    # the chunk buffers, sized once for the blocks of the first chunk: U^k0
    # e_a at the start k0 of each block, the evolved columns and their
    # conjugates, the Gram columns per level and period, and their level
    # sums.  Periods c0 + b _BLOCK + m run in (m, b) order, so that each
    # column x_ia and Gram column is one line, which numpy iterates unbuffered
    blocks = -(-min(_CHUNK, n_periods + 1) // _BLOCK)
    size = blocks * _BLOCK
    starts = np.empty((dim, blocks, 2), dtype=complex)
    evolved = np.empty((dim * _BLOCK, 2 * blocks), dtype=complex)
    conj = np.empty_like(evolved)
    prods = np.empty((d * size, 16))
    g = np.empty((3, size, 16))
    # x[i, (n, m, b), a] = <i, n| U^(c0 + b _BLOCK + m) |e_a>, its conjugate
    # and (re, im), and the complex Gram columns x_i0 x_i1* and x_0a x_1b*
    x, xc = (v.reshape(2, d * size, 2) for v in (evolved, conj))
    parts = evolved.view(float).reshape(2, d * size, 2, 2)
    same = prods.reshape(-1, 4, 4)[:, :2, 2:].view(complex)[..., 0]
    cross = prods[:, 8:].view(complex)

    u_power = np.eye(dim, dtype=complex)    # U^k0 at the block start k0
    for c0 in range(0, n_periods + 1, size):
        nc = min(size, n_periods + 1 - c0)
        for b in range(-(-nc // _BLOCK)):
            # the columns e_0, e_1 of U^k0
            starts[:, b] = u_power[:, oscillator_level::d]
            nb = min(_BLOCK, n_periods + 1 - c0 - b * _BLOCK)
            last = c0 + b * _BLOCK + nb > n_periods
            u_power = (powers[:, nb - 1] if last else u_block) @ u_power
        # evolved[(i, n, m), (b, a)]; a final partial chunk also reduces the
        # stale blocks after it
        np.matmul(stacked, starts.reshape(dim, 2 * blocks), out=evolved)
        np.conjugate(evolved, out=conj)
        for i in range(2):
            for a in range(2):
                re, im = parts[i, :, a].T
                np.multiply(re, re, out=prods[:, 4 * i + a])
                prods[:, 4 * i + a] += im * im
                # the cross pair (i, a): x_0i x_1a*
                np.multiply(x[0, :, i], xc[1, :, a], out=cross[:, 2 * i + a])
            np.multiply(x[i, :, 0], xc[i, :, 1], out=same[:, i])
        # g[w, (m, b), f] = sum_n weights[w, n] prods[(n, m, b), f]
        np.matmul(weights, prods.reshape(d, -1), out=g.reshape(3, -1))
        # the population tensor is the same on both qubit blocks
        g[1:, :, :4] += g[1:, :, 4:8]
        # the worst case over the states, back in (b, m) order
        for out, v in ((fmin, (fid_table @ g[0].T).min(axis=0)),
                       (nmax, (pop_table @ g[1, :, :4].T).max(axis=0)),
                       (lmax, (pop_table @ g[2, :, :4].T).max(axis=0))):
            out[c0:c0 + nc] = v.reshape(_BLOCK, blocks).T.ravel()[:nc]

    drift = op_norm(u_power @ u_power.conj().T - np.eye(dim))
    max_leak = float(lmax.max())
    # with d <= 2 the top two levels are every level, and the column is 1
    if d > 2 and max_leak > LEAK_THRESHOLD:
        warnings.warn(
            f"oscillator truncation leakage {max_leak:.2e} exceeds "
            f"{LEAK_THRESHOLD:g}; rerun with n_max >= {d + 3}",
            RuntimeWarning, stacklevel=2)

    return EvolutionTrace(times=times, fidelity_min=fmin, n_mean_max=nmax,
                          leakage_max=lmax, halving_diff=halving,
                          unitarity_drift=drift)
