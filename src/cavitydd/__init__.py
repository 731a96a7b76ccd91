"""Soft-pulse dynamical decoupling workbench for a qubit coupled to a cavity
mode: pulse-shape parameters, self-refocusing shape design, analytic
effective Hamiltonians for named sequences, and exact stroboscopic
propagation of the driven Jaynes-Cummings system."""

from .algebra import (CouplingSet, ModelParams, assemble, chemical_shift,
                      expm_herm, jaynes_cummings)
from .designer import DesignSpec, design, design_named
from .errors import ConvergenceError
from .metrics import BlochGrid
from .propagate import (ControlSchedule, EvolutionTrace, build_schedule,
                        propagate_period, run_trace)
from .sequences import (Delay, PulseSpec, Sequence, effective_hamiltonian,
                        expand_pulse, order_check, parse_sequence)
from .shapes import (PulseShape, ShapeParams, amplitude, compute_params,
                     delta, fourier, gaussian, hermitian, phase_integral,
                     solve_hermitian_gamma)

__version__ = "0.1.0"

__all__ = [
    "BlochGrid", "ControlSchedule", "ConvergenceError", "CouplingSet",
    "Delay", "DesignSpec", "EvolutionTrace", "ModelParams", "PulseShape",
    "PulseSpec", "Sequence", "ShapeParams", "amplitude", "assemble",
    "build_schedule", "chemical_shift", "compute_params", "delta", "design",
    "design_named", "effective_hamiltonian", "expand_pulse", "expm_herm",
    "fourier", "gaussian", "hermitian", "jaynes_cummings", "order_check",
    "parse_sequence", "phase_integral", "propagate_period", "run_trace",
    "solve_hermitian_gamma",
]
