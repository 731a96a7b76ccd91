"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Tolerances are fixed here, not calibrated at runtime."""

import time

import numpy as np
import pytest

from cavitydd import designer, metrics, shapes
from cavitydd.algebra import CouplingSet, ModelParams, jaynes_cummings
from cavitydd.cli import main
from cavitydd.propagate import propagate_period, run_trace
from cavitydd.sequences import (PulseSpec, build_schedule, expansion_sum,
                                order_check, parse_sequence)
from cavitydd.shapes import compute_params, delta, gaussian, resolve_shape
from conftest import chemical_shift

# halving diffs of the traces accepted while running this suite (criterion 9)
HALVING_LOG = []


def _report(criterion, text):
    print(f"[criterion {criterion:>2}] PASS - {text}")


@pytest.fixture(scope="module")
def q1():
    return designer.design_named("Q1")


@pytest.fixture(scope="module")
def grid():
    return metrics.bloch_grid(50)


def test_criterion_01_parameter_table_regression():
    t0 = time.perf_counter()
    rows = {}
    for name in ("delta", "G05", "G10", "H05", "H10"):
        p = compute_params(resolve_shape(name))
        rows[name] = (p.s, p.alpha / 2, p.zeta)
    elapsed = time.perf_counter() - t0
    assert rows["delta"] == (0.0, 0.0, 0.25)          # hard-pulse row exact
    worst = 0.0
    for name, vals in rows.items():
        ref = shapes.REFERENCE_PARAMS[name]
        for got, want in zip(vals, ref):
            worst = max(worst, abs(got - want))
    assert worst <= 1e-5
    assert elapsed < 1.0
    _report(1, f"table regression max|diff| = {worst:.2e}, "
               f"runtime {elapsed:.2f} s")


def test_criterion_02_hermitian_gamma_recovery():
    gamma = shapes.solve_hermitian_gamma(0.05)
    diff = abs(gamma - 0.9609317217)
    assert diff < 1e-6
    _report(2, f"gamma(0.05) = {gamma:.10f}, |diff| = {diff:.2e}")


def test_criterion_03_designed_shapes(q1):
    s1 = designer.design_named("S1")
    for result, label in ((s1, "S1"), (q1, "Q1")):
        assert all(v < 1e-10 for v in result.residuals.values()), label
    p_s1 = compute_params(s1.shape, n_quad=8192)
    p_q1 = compute_params(q1.shape, n_quad=8192)
    assert abs(p_s1.s) < 1e-9
    assert abs(p_q1.s) < 1e-9
    assert abs(p_q1.alpha) < 1e-9
    # zeta comparison is informational: report and apply the 0.01 flag only
    flag = "FLAG" if q1.flagged else "ok"
    _report(3, f"S1/Q1 residuals < 1e-10; |s|_max = "
               f"{max(abs(p_s1.s), abs(p_q1.s)):.1e}, |alpha(Q1)| = "
               f"{abs(p_q1.alpha):.1e}; zeta(Q1) = {p_q1.zeta:.6f} vs "
               f"reference {q1.zeta_reference:.6f} ({flag})")


def test_criterion_04_hard_pulse_echo():
    couplings = chemical_shift(0.9)
    sched = build_schedule(parse_sequence("X d(1.0) -X d(1.0)"), delta())
    u = propagate_period(couplings, sched)
    defect = np.linalg.norm(u - np.eye(2), 2)
    assert defect < 1e-12
    _report(4, f"delta echo |U - 1| = {defect:.2e}")


def test_criterion_05_pulse_expansion_order():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    shape = gaussian(0.10)
    params = compute_params(shape)
    sched = build_schedule(parse_sequence("X"), shape)
    lams = np.array([0.4, 0.2, 0.1, 0.05])
    exponents = []
    for _ in range(20):
        dim = int(rng.integers(2, 5))        # oscillator dim <= 4
        mats = []
        for _ in range(4):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = (m + m.conj().T) / 2
            mats.append(0.35 * m / max(1.0, np.linalg.norm(m, 2)))
        cs = CouplingSet(*mats)
        res = []
        for lam in lams:
            sc = cs.scaled(lam)
            u = propagate_period(sc, sched)
            res.append(np.linalg.norm(
                u - expansion_sum(sc, params, PulseSpec("x")), 2))
        exponents.append(np.polyfit(np.log(lams), np.log(res), 1)[0])
    elapsed = time.perf_counter() - t0
    exponents = np.array(exponents)
    assert np.all(np.abs(exponents - 3.0) <= 0.2)
    assert elapsed < 30.0
    _report(5, f"20 coupling sets, exponents in "
               f"[{exponents.min():.3f}, {exponents.max():.3f}], "
               f"runtime {elapsed:.1f} s")


def test_criterion_06_sequence_order_exponents(q1):
    jc = jaynes_cummings(ModelParams(omega_r=0.0, omega_0=0.0, g=0.1, n_max=3))
    scales = (0.4, 0.2, 0.1, 0.04)
    r8a = order_check(parse_sequence("8a"), jc, q1.shape, scales)
    r8s = order_check(parse_sequence("8s"), jc, q1.shape, scales)
    rxx = order_check(parse_sequence("xbarx"), jc, gaussian(0.10), scales)
    assert r8a.exponent >= 2.8
    assert r8s.exponent >= 2.8
    assert 0.8 <= rxx.exponent <= 1.2
    _report(6, f"fitted exponents: 8a+Q1 p = {r8a.exponent:.2f}, "
               f"8s+Q1 p = {r8s.exponent:.2f}, XbarX+G10 p = "
               f"{rxx.exponent:.2f}")


def test_criterion_07_effective_hamiltonian_defect(q1):
    # 8a + Q1 on the resonant cavity model (omega_r = 0 keeps the base point
    # of the cubic window unsaturated); the full coupling set is scaled down
    # 10x from g*taup = 0.1*2pi and the defect against the A0-only effective
    # Hamiltonian must drop by >= 500x
    from cavitydd.algebra import IDENTITY_2, expm_herm, kron
    base = jaynes_cummings(ModelParams(omega_r=0.0, omega_0=0.0, g=0.1,
                                       n_max=3))
    sched = build_schedule(parse_sequence("8a"), q1.shape)
    defects = []
    for lam in (1.0, 0.1):
        sc = base.scaled(lam)
        u = propagate_period(sc, sched, steps_per_pulse=512)
        target = expm_herm(kron(IDENTITY_2, sc.a0), sched.period)
        defects.append(np.linalg.norm(u - target, 2))
    ratio = defects[0] / defects[1]
    assert ratio >= 500
    _report(7, f"8a+Q1 defect {defects[0]:.3e} -> {defects[1]:.3e}, "
               f"ratio {ratio:.0f} (>= 500)")


def test_criterion_08_figure_protocol_properties(q1, grid):
    g10 = gaussian(0.10)

    def trace(seq_name, shape, omega_r, n_max=8):
        cs = jaynes_cummings(ModelParams(omega_r=omega_r, omega_0=0.0,
                                         g=0.0002, n_max=n_max))
        sched = build_schedule(parse_sequence(seq_name), shape)
        tr = run_trace(cs, sched, 100, grid)
        HALVING_LOG.append((f"{seq_name} omr={omega_r} n_max={n_max}",
                            tr.halving_diff))
        return tr

    # (a) resonant 4p + G10 heats the oscillator; 8s + Q1 does not
    tr_4p = trace("4p", g10, 0.0)
    tr_8s0 = trace("8s", q1.shape, 0.0)
    n_4p = tr_4p.n_mean_max.max()
    n_8s0 = tr_8s0.n_mean_max.max()
    ratio = n_4p / n_8s0
    assert ratio > 10

    # (b) off-resonant 8s + Q1 keeps the qubit and the oscillator clean
    tr_off = trace("8s", q1.shape, 0.117)
    worst_infidelity = np.max(1 - tr_off.fidelity_min)
    worst_quanta = tr_off.n_mean_max.max()
    assert worst_infidelity < 1e-3
    assert worst_quanta < 1e-2

    # (c) the n_max = 8 truncation is converged
    tr_12 = trace("8s", q1.shape, 0.117, n_max=12)
    df = np.max(np.abs(tr_off.fidelity_min - tr_12.fidelity_min))
    dn = np.max(np.abs(tr_off.n_mean_max - tr_12.n_mean_max))
    assert df < 1e-6 and dn < 1e-6
    _report(8, f"heating ratio {ratio:.0f} (> 10); off-resonance worst "
               f"1-F = {worst_infidelity:.2e}, <n> = {worst_quanta:.2e}; "
               f"truncation diffs ({df:.1e}, {dn:.1e})")


def test_criterion_09_propagator_health(q1, grid):
    cs = jaynes_cummings(ModelParams(omega_r=0.117, omega_0=0.0, g=0.0002,
                                     n_max=8))
    sched = build_schedule(parse_sequence("8s"), q1.shape)
    tr = run_trace(cs, sched, 1000, grid[:6])
    HALVING_LOG.append(("8s 1000 periods", tr.halving_diff))
    assert tr.unitarity_drift < 1e-8
    worst_halving = max(d for _, d in HALVING_LOG)
    assert worst_halving < 1e-8
    _report(9, f"unitarity drift over 1000 periods = "
               f"{tr.unitarity_drift:.2e}; worst step-halving agreement "
               f"across {len(HALVING_LOG)} accepted runs = {worst_halving:.2e}")


def test_criterion_10_specialization_crosscheck(capsys):
    # the cmd_effham report must record the defect of each printed variant
    # and state which one the propagator selects
    verdicts = {}
    for seq in ("4p", "8a"):
        rc = main(["effham", "--sequence", seq, "--shape", "G10",
                   "--omega-r", "0.02", "--omega-0", "0.03", "--g", "0.02",
                   "--n-max", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "generic, matched convention" in out
        assert "generic, printed convention" in out
        assert "cavity equation, printed" in out
        verdict = [ln for ln in out.splitlines() if ln.startswith("verdict")]
        assert len(verdict) == 1
        verdicts[seq] = verdict[0]
        assert "generic, matched convention" in verdict[0]
    _report(10, f"effham verdicts recorded: 4p: {verdicts['4p']!r}; "
                f"8a: {verdicts['8a']!r}")
