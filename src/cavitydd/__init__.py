"""Soft-pulse dynamical decoupling workbench for a qubit coupled to a cavity
mode: pulse-shape parameters, self-refocusing shape design, effective
Hamiltonians composed from the single-pulse expansion, and exact stroboscopic
propagation of the driven Jaynes-Cummings system."""

from .algebra import (CouplingSet, ModelParams, assemble, expm_herm,
                      jaynes_cummings)
from .designer import DesignSpec, design, design_named
from .errors import ConvergenceError
from .metrics import bloch_grid
from .propagate import EvolutionTrace, propagate_period, run_trace
from .sequences import (ControlSchedule, Delay, PulseSpec, Sequence,
                        build_schedule, effective_hamiltonian, expand_pulse,
                        order_check, parse_sequence)
from .shapes import (PulseShape, ShapeParams, amplitude, compute_params,
                     delta, fourier, gaussian, hermitian,
                     solve_hermitian_gamma)

__version__ = "0.1.0"

__all__ = [
    "ControlSchedule", "ConvergenceError", "CouplingSet", "Delay",
    "DesignSpec", "EvolutionTrace", "ModelParams", "PulseShape", "PulseSpec",
    "Sequence", "ShapeParams", "amplitude", "assemble", "bloch_grid",
    "build_schedule", "compute_params", "delta", "design", "design_named",
    "effective_hamiltonian", "expand_pulse", "expm_herm", "fourier",
    "gaussian", "hermitian", "jaynes_cummings", "order_check",
    "parse_sequence", "propagate_period", "run_trace",
    "solve_hermitian_gamma",
]
