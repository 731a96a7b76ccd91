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


def bloch_grid(n_sphere: int = 50) -> np.ndarray:
    """(6 + n_sphere, 2) array of pure qubit states: the 6 cardinal states,
    then a quasi-uniform (Fibonacci) sphere sampling of n_sphere points."""
    if n_sphere < 0:
        raise ValueError("grid must be >= 0")
    i = np.arange(n_sphere)
    th = np.arccos(1 - 2 * (i + 0.5) / n_sphere)
    ph = np.pi * (3 - np.sqrt(5)) * i
    sphere = np.stack([np.cos(th / 2), np.exp(1j * ph) * np.sin(th / 2)],
                      axis=1)
    return np.concatenate([np.array(CARDINAL_STATES, dtype=complex), sphere])


CSV_HEADER = "period_index,time_over_taup,fidelity_min,n_mean_max,leakage_max"


def write_csv(path: str, trace: EvolutionTrace) -> None:
    """Atomically write the CSV rows of the stroboscopic worst-case
    observables (temp file + rename), with the mode 0o666 & ~umask that a
    plain open gives a new file rather than mkstemp's 0o600.  An OSError
    names ``path``, not the temp file."""
    rows = map("{},{:.12g},{:.12g},{:.12g},{:.12g}\n".format,
               range(len(trace.times)), trace.times.tolist(),
               trace.fidelity_min.tolist(), trace.n_mean_max.tolist(),
               trace.leakage_max.tolist())
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(CSV_HEADER + "\n")
            fh.writelines(rows)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            # the error names the path asked for, not the temp file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
