"""The grid of initial qubit states for the figure observables, and the CSV
emission of a trace's worst-case columns used by the CLI.

The ideal sequence action is the identity, so the fidelity of initial state
|psi> at sample time t_k is F = <psi| rho_q(t_k) |psi> with rho_q the
oscillator-traced state; ``propagate.run_trace`` reduces it, the oscillator
occupation and the truncation leakage to their worst case over the grid.
Worst case over a finite grid approximates the true extremum; the six
cardinal states are always included and capture the exact extremum for
Pauli-axis-aligned error channels.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .propagate import EvolutionTrace

_SQ2 = 1 / np.sqrt(2)
CARDINAL_STATES = (
    (1.0, 0.0),            # +z
    (0.0, 1.0),            # -z
    (_SQ2, _SQ2),          # +x
    (_SQ2, -_SQ2),         # -x
    (_SQ2, _SQ2 * 1j),     # +y
    (_SQ2, -_SQ2 * 1j),    # -y
)


@dataclass(frozen=True)
class BlochGrid:
    """Pure qubit states: the 6 cardinal states plus a quasi-uniform
    (Fibonacci) sphere sampling."""

    states: tuple

    @classmethod
    def build(cls, n_sphere: int = 50) -> "BlochGrid":
        pts = [np.array(v, dtype=complex) for v in CARDINAL_STATES]
        golden = np.pi * (3 - np.sqrt(5))
        for i in range(n_sphere):
            cos_th = 1 - 2 * (i + 0.5) / n_sphere
            th = np.arccos(cos_th)
            ph = golden * i
            pts.append(np.array([np.cos(th / 2),
                                 np.exp(1j * ph) * np.sin(th / 2)]))
        return cls(states=tuple(tuple(p) for p in pts))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.states, dtype=complex)

    def __len__(self) -> int:
        return len(self.states)


CSV_HEADER = "period_index,time_over_taup,fidelity_min,n_mean_max,leakage_max"


def csv_lines(trace: EvolutionTrace, taup: float = 1.0):
    """CSV rows of the stroboscopic worst-case observables."""
    lines = [CSV_HEADER]
    for k, (t, f, n, leak) in enumerate(zip(trace.times, trace.fidelity_min,
                                            trace.n_mean_max,
                                            trace.leakage_max)):
        lines.append(f"{k},{t / taup:.12g},{f:.12g},{n:.12g},{leak:.12g}")
    return lines


def write_csv(path: str, trace: EvolutionTrace, taup: float = 1.0) -> None:
    """Atomically write the trace CSV (temp file + rename)."""
    lines = csv_lines(trace, taup)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
