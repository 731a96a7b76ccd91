"""Command-line front end: parameter tables, shape design, simulation runs,
effective-Hamiltonian reports and refocusing-order checks.

All frequencies (omega_r, omega_0, g) are given in units of 2*pi/tau_p and
every run is at tau_p = 1, so times are in units of tau_p.  Config files are
flat ``key = value`` text (# starts a comment); command-line flags override
file values.  Exit codes: 0 success, 2 validation error, 3 numerical
convergence failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import designer, metrics, propagate, sequences, shapes
from .algebra import IDENTITY_2, PAULI, ModelParams, expm_herm, jaynes_cummings
from .errors import ConvergenceError
from .shapes import resolve_shape

# operator-basis coefficient parts within this of zero are printed as zero
_ROUNDOFF = 1e-10


@dataclass
class ExperimentConfig:
    """Resolved simulation configuration (frequencies in 2*pi/tau_p units)."""

    sequence: str = "8s"
    shape: str = "Q1"
    omega_r: float = 0.117
    omega_0: float = 0.0
    g: float = 0.0002
    n_max: int = 8
    periods: int = 100
    steps_per_pulse: int = 256
    grid: int = 50
    oscillator_level: int = 0
    output: str = "trace.csv"


# each key's value type, taken from its default
_KEY_TYPES = {f.name: type(f.default) for f in fields(ExperimentConfig)}


def load_config(path: str) -> ExperimentConfig:
    """Parse a flat key = value config file."""
    values = {}
    seen = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            val = val.strip()
            if key not in _KEY_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r} "
                                 f"(first set on line {seen[key]})")
            seen[key] = lineno
            try:
                values[key] = _KEY_TYPES[key](val)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return ExperimentConfig(**values)


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    for f in fields(ExperimentConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            updates[f.name] = v
    return replace(cfg, **updates)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_params(args) -> int:
    if args.shape:
        shape = resolve_shape(args.shape)
        p = shapes.compute_params(shape, n_quad=args.n_quad)
        print(f"shape: {shapes.shape_to_text(shape)}")
        print(f"s       = {p.s:.7f}")
        print(f"alpha/2 = {p.alpha / 2:.7f}")
        print(f"zeta    = {p.zeta:.6f}")
        print(f"area    = {p.area:.12f}")
    else:
        print(shapes.table_report(n_quad=args.n_quad))
    return 0


def cmd_design(args) -> int:
    spec = designer.DesignSpec(family=args.family.upper(), order=args.order,
                               extra_terms=args.extra_terms)
    result = designer.design(spec, tol=args.tol)
    print(shapes.shape_to_text(result.shape))
    print(f"coefficients (2*pi/taup units): "
          + ", ".join(f"{c:.10f}" for c in result.coeffs))
    for k, v in sorted(result.residuals.items()):
        print(f"residual {k:>12s} = {v:.3e}")
    p = result.params
    print(f"achieved: s = {p.s:.3e}  alpha/2 = {p.alpha / 2:.3e}  "
          f"zeta = {p.zeta:.6f}")
    print(f"peak amplitude max|V| = {result.peak_amplitude:.4f} / taup")
    if result.zeta_reference is not None:
        flag = "  FLAG: differs from reference branch" if result.flagged else ""
        print(f"reference zeta = {result.zeta_reference:.6f}  "
              f"|deviation| = {result.zeta_deviation:.6f}{flag}")
    return 0


def _model_from_args(args) -> ModelParams:
    return ModelParams(omega_r=args.omega_r, omega_0=args.omega_0, g=args.g,
                       n_max=args.n_max)


def cmd_simulate(args) -> int:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    cfg = _apply_overrides(cfg, args)
    shape = resolve_shape(cfg.shape)
    seq = sequences.parse_sequence(cfg.sequence)
    couplings = jaynes_cummings(_model_from_args(cfg))
    schedule = sequences.build_schedule(seq, shape)
    trace = propagate.run_trace(couplings, schedule, cfg.periods,
                                metrics.bloch_grid(cfg.grid),
                                oscillator_level=cfg.oscillator_level,
                                steps_per_pulse=cfg.steps_per_pulse)
    metrics.write_csv(cfg.output, trace)
    fmin = trace.fidelity_min
    print(f"wrote {cfg.output}: {cfg.periods} periods of {cfg.sequence} + "
          f"{cfg.shape}")
    print(f"final fidelity_min = {fmin[-1]:.9f}   worst 1-F = "
          f"{np.max(1 - fmin):.3e}")
    print(f"worst <n> = {np.max(trace.n_mean_max):.3e}   halving diff = "
          f"{trace.halving_diff:.2e}   unitarity drift = "
          f"{trace.unitarity_drift:.2e}")
    return 0


def _format_operator(h: np.ndarray, dim_rest: int) -> str:
    """Coefficients of H over sigma_mu (x) |n><m| oscillator matrix units."""
    labels = [("1", IDENTITY_2)] + [(f"sigma_{a}", PAULI[a]) for a in "xyz"]
    lines = []
    for name, q in labels:
        block = np.einsum("ij,injm->nm", q.conj().T,
                          h.reshape(2, dim_rest, 2, dim_rest)) / 2
        for n in range(dim_rest):
            for m in range(dim_rest):
                c = block[n, m]
                if abs(c) > _ROUNDOFF:
                    real, imag = (x if abs(x) > _ROUNDOFF else 0.0
                                  for x in (c.real, c.imag))
                    lines.append(f"  {name} (x) |{n}><{m}| : {real:+.6e}"
                                 f"{imag:+.6e}j")
    return "\n".join(lines) if lines else "  (zero)"


def cmd_effham(args) -> int:
    seq = sequences.parse_sequence(args.sequence)
    shape = resolve_shape(args.shape)
    params = shapes.compute_params(shape)
    model = _model_from_args(args)
    couplings = jaynes_cummings(model)
    h_m = sequences.effective_hamiltonian(seq, couplings, shape, "matched")
    h_p = sequences.effective_hamiltonian(seq, couplings, shape, "printed")
    schedule = sequences.build_schedule(seq, shape)
    period = schedule.period
    u = propagate.propagate_period(couplings, schedule,
                                   steps_per_pulse=args.steps_per_pulse)

    print(f"sequence {seq.name or seq.label()}: period T = {period:g} taup")
    print(f"shape {shapes.shape_to_text(shape)}: s = {params.s:.6f}, "
          f"alpha/2 = {params.alpha / 2:.6f}, zeta = {params.zeta:.6f}")
    print("analytic H_eff (matched convention), remainder O(taup^2):")
    with np.printoptions(precision=4, suppress=True, linewidth=120):
        print(h_m)
    print("operator-basis coefficients:")
    print(_format_operator(h_m, couplings.dim))
    candidates = [("generic, matched convention", h_m),
                  ("generic, printed convention", h_p)]
    if seq.name in ("4p", "8a", "8s", "4pxz"):
        candidates.append(
            ("cavity equation, printed",
             sequences.jc_cavity_hamiltonian(seq.name, model, params)))
        if seq.name == "4p" and abs(params.s) < 1e-6:
            candidates.append(
                ("cavity equation (s=0 form), printed",
                 sequences.jc_cavity_hamiltonian("4p_s0", model, params)))

    print("defect |U(T) - exp(-i T H)| per variant:")
    defects = []
    for label, h in candidates:
        d = float(np.linalg.norm(u - expm_herm(h, period), 2))
        defects.append(d)
        print(f"  {label:38s} {d:.6e}")
    best = min(defects)
    tied = [f"'{label}'" for (label, _), d in zip(candidates, defects)
            if d - best <= sequences.DEFECT_FLOOR]
    verdict = (f"best match is {tied[0]}" if len(tied) == 1 else
               f"tie within {sequences.DEFECT_FLOOR:g} between "
               + ", ".join(tied))
    print(f"verdict: {verdict} (defect {best:.3e})")
    return 0


def cmd_ordercheck(args) -> int:
    seq = sequences.parse_sequence(args.sequence)
    shape = resolve_shape(args.shape)
    model = _model_from_args(args)
    couplings = jaynes_cummings(model)
    scales = [float(x) for x in args.scales.split(",")]
    result = sequences.order_check(seq, couplings, shape, scales,
                                   steps_per_pulse=args.steps_per_pulse,
                                   reference=args.reference)
    print(f"sequence {seq.name or seq.label()} + {args.shape}, reference "
          f"{result.reference}")
    for lam, d in zip(result.scales, result.defects):
        print(f"  lambda = {lam:<8g} defect = {d:.6e}")
    floor = f"{sequences.DEFECT_FLOOR:g}"
    if result.floor_limited:
        print(f"  note: some defects at the numerical floor ({floor}), "
              "excluded from the fit")
    if np.isnan(result.exponent):
        print("fitted exponent p: not fitted (fewer than two defects above "
              f"the {floor} floor)")
    else:
        print(f"fitted exponent p = {result.exponent:.3f}")
    return 0


# ---------------------------------------------------------------------------

def _add_model_args(p: argparse.ArgumentParser):
    dflt = ExperimentConfig()
    p.add_argument("--omega-r", type=float, default=dflt.omega_r,
                   help="oscillator frequency bias (2*pi/taup units)")
    p.add_argument("--omega-0", type=float, default=dflt.omega_0,
                   help="qubit frequency bias (2*pi/taup units)")
    p.add_argument("--g", type=float, default=dflt.g,
                   help="qubit-oscillator coupling (2*pi/taup units)")
    p.add_argument("--n-max", type=int, default=dflt.n_max,
                   help="oscillator truncation level")
    p.add_argument("--steps-per-pulse", type=int,
                   default=dflt.steps_per_pulse)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cavitydd",
        description="Soft-pulse dynamical decoupling workbench "
                    "(frequencies in units of 2*pi/tau_p)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="shape-parameter table or single row")
    p.add_argument("--shape", help="shape name or spec (e.g. gaussian:0.10)")
    p.add_argument("--n-quad", type=int, default=shapes.DEFAULT_N_QUAD)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("design", help="synthesize a self-refocusing shape")
    p.add_argument("--family", required=True, choices=["S", "Q", "s", "q"])
    p.add_argument("--order", "-L", type=int, required=True)
    p.add_argument("--extra-terms", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", help="stroboscopic trace -> CSV")
    p.add_argument("--config", help="flat key = value config file")
    for key, typ in _KEY_TYPES.items():
        p.add_argument("--" + key.replace("_", "-"), type=typ, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("effham", help="analytic effective Hamiltonian report")
    p.add_argument("--sequence", required=True)
    p.add_argument("--shape", required=True)
    _add_model_args(p)
    p.set_defaults(func=cmd_effham)

    p = sub.add_parser("ordercheck", help="refocusing-order exponent fit")
    p.add_argument("--sequence", required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--scales", default="0.4,0.2,0.1,0.025",
                   help="comma-separated coupling scale factors")
    p.add_argument("--reference", choices=["zero", "effective"],
                   default="zero")
    _add_model_args(p)
    p.set_defaults(func=cmd_ordercheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"numerical convergence failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
